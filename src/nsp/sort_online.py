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

from .detect import Tokens
from .synthdata import PayloadError

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
    """Maximal constant runs strictly below both neighbors; [(start, end, value)]."""
    n = smoothed.size
    runs = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and smoothed[j + 1] == smoothed[i]:
            j += 1
        if i > 0 and j < n - 1 and smoothed[i - 1] > smoothed[i] \
                and smoothed[j + 1] > smoothed[i]:
            runs.append((i, j, smoothed[i]))
        i = j + 1
    return runs


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
    reads; the table is not serialized.
    """

    kind = "online"

    boundaries: tuple            # ([f1 cuts], [f2 cuts])
    cam_snapshot: list           # [(i, j, status)] for occupied entries

    def __post_init__(self):
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
        """Deployed size in bits: the cut registers plus the partition
        table of at most 16 cells, counted by :func:`online_footprint`."""
        return online_footprint(len(self.boundaries[0]), len(self.boundaries[1]))

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "boundaries": [list(map(int, self.boundaries[0])),
                               list(map(int, self.boundaries[1]))],
                "cam": [{"i": int(i), "j": int(j), "status": int(s)}
                        for i, j, s in self.cam_snapshot]}

    @classmethod
    def from_json(cls, obj: dict) -> "OnlineSorterModel":
        if obj.get("kind") != cls.kind:
            raise PayloadError(f"not an online sorter model: kind={obj.get('kind')!r}")
        cuts = obj["boundaries"]
        if not isinstance(cuts, list) or len(cuts) != 2:
            raise PayloadError("boundaries must be a pair of cut lists")
        for axis, axis_cuts in enumerate(cuts):
            _check_cuts(axis, axis_cuts)
        cam = [(e["i"], e["j"], e["status"]) for e in obj["cam"]]
        for i, j, _ in cam:
            if not (_is_int(i) and _is_int(j) and 0 <= i <= len(cuts[0])
                    and 0 <= j <= len(cuts[1])):
                raise PayloadError(
                    f"CAM entry ({i!r}, {j!r}) lies outside the "
                    f"{len(cuts[0]) + 1}x{len(cuts[1]) + 1} partition grid")
        return cls(boundaries=(list(cuts[0]), list(cuts[1])), cam_snapshot=cam)


def online_footprint(n_cuts_f1: int, n_cuts_f2: int) -> int:
    """Deployed size in bits of a frozen online model with these cut counts.

    Each cut is one int8 register (CUT_BITS). The frozen table has one cell
    per grid partition, (n_cuts_f1 + 1) * (n_cuts_f2 + 1) <= 16 of them, and a
    cell holds the rank of a valid partition (0..15) or the outlier code,
    CELL_BITS = 5 bits. With three cuts per axis that is 6 * 8 + 16 * 5 = 128.
    """
    return (CUT_BITS * (n_cuts_f1 + n_cuts_f2)
            + CELL_BITS * (n_cuts_f1 + 1) * (n_cuts_f2 + 1))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_cuts(axis: int, cuts) -> None:
    """Reject a cut list that classify could not use: PayloadError at load."""
    where = f"boundaries of feature {axis + 1}"
    if not isinstance(cuts, list):
        raise PayloadError(f"{where}: expected a list, got {cuts!r}")
    if len(cuts) > MAX_BOUNDARIES:
        raise PayloadError(f"{where}: {len(cuts)} cuts, at most {MAX_BOUNDARIES} allowed")
    if not all(_is_int(c) and -128 <= c <= 127 for c in cuts):
        raise PayloadError(f"{where}: cuts must be int8 integers, got {cuts!r}")
    if any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise PayloadError(f"{where}: cuts must be strictly ascending, got {cuts!r}")


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


def train_online(tokens) -> dict:
    """Train one OnlineSorterModel per channel from a token stream.

    *tokens* is a :class:`~nsp.detect.Tokens` or a sequence of
    ``Completion`` rows. Each channel's model is :func:`fit_online` of that
    channel's tokens in stream order.
    """
    tok = Tokens.of(tokens)
    order = np.argsort(tok.channel, kind="stable")
    chans, firsts = np.unique(tok.channel[order], return_index=True)
    return {ch: fit_online(a, b) for ch, a, b in
            zip(chans.tolist(), np.split(tok.f1[order], firsts[1:]),
                np.split(tok.f2[order], firsts[1:]))}
