"""Unsupervised on-line spike sorter.

Training reads one channel's features in stream order. The first
SPIKE_BUDGET spikes fill two per-feature histograms; their smoothed local
minima become axis boundaries, and the boundaries cut the feature plane into
a grid of partitions. The spikes after the budget (or, when the stream ends
within the budget, the budget spikes replayed) then drive the CAM, which keeps
a 2-bit confidence status per partition (00 vacant, 01 outlier, 10 weak,
11 strong). A hit raises the status one step up to strong, a miss inserts at
outlier (the same step from vacant), and every DECAY_PERIOD spikes all
statuses drop one step. At most three cuts per axis give at most 4 x 4 = 16
partitions, which is the CAM's capacity: every partition has its own entry
and none is ever evicted, so the CAM is exactly one status per grid cell.
Freezing the model applies the nearest-valid-partition rule once per cell,
so classifying a spike is a partition lookup plus one table read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter1d

from .detect import Tokens, channel_groups
from .synthdata import Int, List, Obj, PayloadError, check

BIN_WIDTH = 2            # LSB per histogram bin
N_BINS = 256 // BIN_WIDTH  # bins over the int8 range; values beyond it clamp
SPIKE_BUDGET = 512       # histogram-phase spikes per channel
SMOOTHING_RADIUS = 2
MAX_BOUNDARIES = 3       # per feature axis
CAM_CAPACITY = 16
DECAY_PERIOD = 64        # processed spikes per channel between global decrements
STATUS_VACANT, STATUS_OUTLIER, STATUS_WEAK, STATUS_STRONG = 0, 1, 2, 3
OUTLIER = -1
CUT_BITS = 8                            # one int8 register per cut
CELL_BITS = CAM_CAPACITY.bit_length()   # cluster ids 0..15 plus the outlier code


def feature_histograms(f1, f2) -> np.ndarray:
    """(2, N_BINS) counts of f1 and f2; bin b holds the values 2b - 128 and
    2b - 127, and values outside int8 count in the edge bins."""
    return np.stack([np.bincount((np.clip(f, -128, 127) + 128) // BIN_WIDTH,
                                 minlength=N_BINS)
                     for f in (np.asarray(f1, dtype=np.int64),
                               np.asarray(f2, dtype=np.int64))])


def _valley_runs(smoothed: np.ndarray) -> list:
    """Maximal constant runs strictly below both neighbors; [(start, end, value)].

    A run starts wherever a value differs from the one before it, so a NaN,
    equal to nothing, is a run of its own and never a valley.
    """
    s = np.asarray(smoothed)
    starts = np.flatnonzero(s[1:] != s[:-1]) + 1
    # the runs with a neighbor on both sides: from starts[r] to starts[r + 1] - 1
    lo, hi = starts[:-1], starts[1:] - 1
    keep = (s[lo - 1] > s[lo]) & (s[hi + 1] > s[lo])
    return [(i, j, s[i]) for i, j in zip(lo[keep].tolist(), hi[keep].tolist())]


def _valley_depths(smoothed: np.ndarray, runs: list) -> list:
    """Depth = min(separating peak left, separating peak right) - valley value."""
    depths = []
    for k, (s, e, v) in enumerate(runs):
        left_from = runs[k - 1][1] + 1 if k > 0 else 0
        right_to = runs[k + 1][0] if k + 1 < len(runs) else smoothed.size
        left_max = smoothed[left_from:s].max()
        right_max = smoothed[e + 1:right_to].max()
        depths.append(min(left_max, right_max) - v)
    return depths


def find_boundaries(counts: np.ndarray) -> tuple:
    """Per-axis boundary values from the valleys of :func:`feature_histograms`.

    Each row of *counts* is moving-average smoothed, interior local minima
    (plateau runs counted once, positioned at their midpoint) become
    boundaries, and if more than MAX_BOUNDARIES valleys exist only the
    deepest ones are kept.
    Returns (boundaries_f1, boundaries_f2) as ascending int lists.
    """
    out = []
    size = 2 * SMOOTHING_RADIUS + 1
    for axis in (0, 1):
        smoothed = uniform_filter1d(counts[axis].astype(np.float64),
                                    size=size, mode="nearest")
        runs = _valley_runs(smoothed)
        if len(runs) > MAX_BOUNDARIES:
            depths = _valley_depths(smoothed, runs)
            order = sorted(range(len(runs)), key=lambda k: (-depths[k], runs[k][0]))
            runs = sorted(runs[k] for k in order[:MAX_BOUNDARIES])
        out.append([BIN_WIDTH * ((s + e) // 2) - 128 for s, e, _ in runs])
    return out[0], out[1]


def locate_partition(f1: int, f2: int, boundaries: tuple) -> tuple:
    """Grid cell of a feature pair: index = number of boundaries <= feature.

    A feature exactly equal to a boundary therefore lands on the upper side.
    Cut lists are ascending, so each count is one bisection.
    """
    return bisect_right(boundaries[0], f1), bisect_right(boundaries[1], f2)


def _nearest_valid(idx: tuple, valid: list) -> int:
    """Rank in the ascending list *valid* of the partition nearest to *idx*."""
    if not valid:
        return OUTLIER
    best = min(valid, key=lambda key: (abs(key[0] - idx[0]) + abs(key[1] - idx[1]), key))
    return valid.index(best)


# ---------------------------------------------------------------------------
# two-phase trainer and frozen model
# ---------------------------------------------------------------------------


@dataclass
class OnlineSorterModel:
    """Frozen per-channel model: boundaries plus the CAM snapshot.

    Construction derives the partition -> cluster table that ``classify``
    reads; the table is not serialized. Cuts that do not ascend strictly, or
    a CAM that lists a cell twice, raise PayloadError (a ValueError).
    """

    kind = "online"
    SCHEMA = Obj({
        "kind": {kind},
        "boundaries": List((List(Int(-128, 127), "f1 cuts", MAX_BOUNDARIES),
                            List(Int(-128, 127), "f2 cuts", MAX_BOUNDARIES))),
        "cam": List(Obj({"i": Int(0, "f1 cuts"), "j": Int(0, "f2 cuts"),
                         "status": Int(STATUS_OUTLIER, STATUS_STRONG)}))})

    boundaries: tuple            # ([f1 cuts], [f2 cuts])
    cam_snapshot: list           # [(i, j, status)] for occupied entries

    def __post_init__(self):
        for axis, cuts in enumerate(self.boundaries):
            if any(a >= b for a, b in zip(cuts, cuts[1:])):
                raise PayloadError(f"online model: boundaries[{axis}] must be strictly "
                                   f"ascending, got {cuts}")
        if len({(i, j) for i, j, _ in self.cam_snapshot}) != len(self.cam_snapshot):
            raise PayloadError("online model: CAM lists a partition more than once")
        valid = self.valid()
        self._table = [[_nearest_valid((i, j), valid)
                        for j in range(len(self.boundaries[1]) + 1)]
                       for i in range(len(self.boundaries[0]) + 1)]
        self._cells = np.array(self._table, dtype=np.int64)
        self._cuts = tuple(np.asarray(c, dtype=np.int64) for c in self.boundaries)

    def valid(self) -> list:
        return sorted((i, j) for i, j, s in self.cam_snapshot if s >= STATUS_WEAK)

    def classify(self, f1: int, f2: int) -> int:
        i, j = locate_partition(f1, f2, self.boundaries)
        return self._table[i][j]

    def classify_many(self, f1, f2) -> np.ndarray:
        """:meth:`classify` over int arrays: one ``searchsorted`` per axis
        locates the partitions, then one read of the cell table."""
        i = np.searchsorted(self._cuts[0], f1, side="right")
        j = np.searchsorted(self._cuts[1], f2, side="right")
        return self._cells[i, j]

    @property
    def n_clusters(self) -> int:
        return len(self.valid())

    def footprint_bits(self) -> int:
        """Deployed size in bits: one int8 register (CUT_BITS) per cut, and
        one CELL_BITS = 5-bit cell per grid partition (at most 16 of them)
        that holds a valid partition's rank (0..15) or the outlier code.
        With three cuts per axis that is 6 * 8 + 16 * 5 = 128."""
        n1, n2 = len(self.boundaries[0]), len(self.boundaries[1])
        return CUT_BITS * (n1 + n2) + CELL_BITS * (n1 + 1) * (n2 + 1)

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "boundaries": [list(map(int, self.boundaries[0])),
                               list(map(int, self.boundaries[1]))],
                "cam": [{"i": int(i), "j": int(j), "status": int(s)}
                        for i, j, s in self.cam_snapshot]}

    @classmethod
    def from_json(cls, obj: dict) -> "OnlineSorterModel":
        """The model of a document checked against ``SCHEMA``."""
        check(obj, cls.SCHEMA, "online model")
        return cls(boundaries=tuple(map(list, obj["boundaries"])),
                   cam_snapshot=[(e["i"], e["j"], e["status"]) for e in obj["cam"]])


def fit_online(f1, f2) -> OnlineSorterModel:
    """Train one channel's model from its features in stream order.

    The histogram phase reads the first SPIKE_BUDGET spikes. The CAM phase
    reads the spikes after them, or all of them when there are no more than
    SPIKE_BUDGET. Within a DECAY_PERIOD block the saturating increments
    commute, so a cell's status rises by its hit count, capped at strong, and
    drops one step after each full block.
    """
    f1 = np.asarray(f1, dtype=np.int64)
    f2 = np.asarray(f2, dtype=np.int64)
    boundaries = find_boundaries(feature_histograms(f1[:SPIKE_BUDGET],
                                                    f2[:SPIKE_BUDGET]))
    if f1.size > SPIKE_BUDGET:
        f1, f2 = f1[SPIKE_BUDGET:], f2[SPIKE_BUDGET:]
    n_cols = len(boundaries[1]) + 1
    n_cells = (len(boundaries[0]) + 1) * n_cols
    cells = (np.searchsorted(boundaries[0], f1, side="right") * n_cols
             + np.searchsorted(boundaries[1], f2, side="right"))
    status = np.zeros(n_cells, dtype=np.int64)
    for lo in range(0, cells.size, DECAY_PERIOD):
        block = cells[lo:lo + DECAY_PERIOD]
        status = np.minimum(status + np.bincount(block, minlength=n_cells), STATUS_STRONG)
        if block.size == DECAY_PERIOD:
            status = np.maximum(status - 1, STATUS_VACANT)
    return OnlineSorterModel(
        boundaries=boundaries,
        cam_snapshot=[(c // n_cols, c % n_cols, s)
                      for c, s in enumerate(status.tolist()) if s != STATUS_VACANT])


def train_online(tokens: Tokens) -> dict:
    """Train one OnlineSorterModel per channel from a token stream.

    Each channel's model is :func:`fit_online` of that channel's tokens in
    stream order.
    """
    return {ch: fit_online(tokens.f1[at], tokens.f2[at])
            for ch, at in channel_groups(tokens.channel)}
