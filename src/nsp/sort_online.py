"""Unsupervised on-line spike sorter.

Training is streaming and per channel: per-feature histograms accumulate until
a spike budget is reached, smoothed local minima become axis boundaries, the
boundaries induce a small grid of feature-space partitions, and a 16-entry
content-addressable memory (CAM) tracks a 2-bit confidence status per occupied
partition (00 vacant, 01 outlier, 10 weak, 11 strong). Freezing the model
applies the nearest-valid-partition rule once per grid cell: at most three
cuts per axis give a partition -> cluster table of at most 16 cells, so
classifying a spike is a partition lookup plus one table read, as in the CAM.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import uniform_filter1d

from .detect import Tokens
from .synthdata import PayloadError

BIN_WIDTH = 2            # LSB per histogram bin
SPIKE_BUDGET = 512       # histogram-phase spikes per channel
SMOOTHING_RADIUS = 2
MAX_BOUNDARIES = 3       # per feature axis
CAM_CAPACITY = 16
DECAY_PERIOD = 64        # processed spikes per channel between global decrements
STATUS_VACANT, STATUS_OUTLIER, STATUS_WEAK, STATUS_STRONG = 0, 1, 2, 3
OUTLIER = -1
CUT_BITS = 8                            # one int8 register per cut
CELL_BITS = CAM_CAPACITY.bit_length()   # cluster ids 0..15 plus the outlier code


@dataclass
class FeatureHistograms:
    """Two per-feature histograms over the int8 range with 2-LSB bins."""

    lo: int = -128
    hi: int = 127
    bin_width: int = BIN_WIDTH
    spike_budget: int = SPIKE_BUDGET
    counts: np.ndarray = None
    n_spikes: int = 0
    n_clamped: int = 0

    def __post_init__(self):
        n_bins = (self.hi - self.lo + 1 + self.bin_width - 1) // self.bin_width
        if self.counts is None:
            self.counts = np.zeros((2, n_bins), dtype=np.int64)

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]

    def bin_index(self, value: int) -> tuple:
        """(clamped bin index, whether clamping happened)."""
        raw = (int(value) - self.lo) // self.bin_width
        clamped = min(max(raw, 0), self.n_bins - 1)
        return clamped, clamped != raw

    def bin_value(self, index: int) -> int:
        """Representative feature value of a bin (lower middle of its range)."""
        return self.lo + index * self.bin_width + (self.bin_width - 1) // 2


def update_histograms(hist: FeatureHistograms, f1: int, f2: int) -> None:
    """Add one spike's features; out-of-range values clamp to the edge bins."""
    for axis, value in ((0, f1), (1, f2)):
        idx, clamped = hist.bin_index(value)
        hist.counts[axis, idx] += 1
        if clamped:
            hist.n_clamped += 1
    hist.n_spikes += 1


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


def find_boundaries(hist: FeatureHistograms) -> tuple:
    """Per-axis boundary values from smoothed histogram valleys.

    Each histogram is moving-average smoothed, interior local minima (plateau
    runs counted once, positioned at their midpoint) become boundaries, and if
    more than MAX_BOUNDARIES valleys exist only the deepest ones are kept.
    Returns (boundaries_f1, boundaries_f2) as ascending int lists.
    """
    out = []
    size = 2 * SMOOTHING_RADIUS + 1
    for axis in (0, 1):
        smoothed = uniform_filter1d(hist.counts[axis].astype(np.float64),
                                    size=size, mode="nearest")
        runs = _valley_runs(smoothed)
        if len(runs) > MAX_BOUNDARIES:
            depths = _valley_depths(smoothed, runs)
            order = sorted(range(len(runs)), key=lambda k: (-depths[k], runs[k][0]))
            runs = sorted(runs[k] for k in order[:MAX_BOUNDARIES])
        out.append([hist.bin_value((s + e) // 2) for s, e, _ in runs])
    return out[0], out[1]


def locate_partition(f1: int, f2: int, boundaries: tuple) -> tuple:
    """Grid cell of a feature pair: index = number of boundaries <= feature.

    A feature exactly equal to a boundary therefore lands on the upper side.
    Cut lists are ascending, so each count is one bisection.
    """
    return bisect_right(boundaries[0], f1), bisect_right(boundaries[1], f2)


@dataclass
class CamEntry:
    key: tuple = None          # partition (i, j); None when vacant
    status: int = STATUS_VACANT
    last_touch: int = 0


@dataclass
class CamState:
    """Fixed-capacity partition tracker with saturating 2-bit statuses."""

    capacity: int = CAM_CAPACITY
    decay_period: int = DECAY_PERIOD
    entries: list = field(default_factory=list)
    processed: int = 0

    def __post_init__(self):
        if not self.entries:
            self.entries = [CamEntry() for _ in range(self.capacity)]

    def lookup(self, key: tuple):
        for entry in self.entries:
            if entry.status != STATUS_VACANT and entry.key == key:
                return entry
        return None


def cam_update(cam: CamState, idx: tuple) -> CamEntry:
    """Process one spike's partition index through the CAM.

    Hit: saturating status increment. Miss: insert at outlier status into a
    vacant slot, evicting the minimum-status (ties: least recently touched)
    entry when full. Every decay_period processed spikes all statuses
    decrement one step and entries reaching vacant are freed.
    """
    cam.processed += 1
    entry = cam.lookup(idx)
    if entry is not None:
        entry.status = min(STATUS_STRONG, entry.status + 1)
        entry.last_touch = cam.processed
    else:
        entry = next((e for e in cam.entries if e.status == STATUS_VACANT), None)
        if entry is None:
            entry = min(cam.entries, key=lambda e: (e.status, e.last_touch))
        entry.key = tuple(idx)
        entry.status = STATUS_OUTLIER
        entry.last_touch = cam.processed
    if cam.processed % cam.decay_period == 0:
        for e in cam.entries:
            if e.status != STATUS_VACANT:
                e.status -= 1
                if e.status == STATUS_VACANT:
                    e.key = None
    return entry


def valid_partitions(cam: CamState) -> list:
    """Partitions with weak-or-better status, in ascending (i, j) order."""
    keys = sorted(e.key for e in cam.entries if e.status >= STATUS_WEAK)
    return keys


def assign_cluster(idx: tuple, cam: CamState) -> int:
    """Deployment-time cluster id for a partition index.

    The id is the rank of the nearest valid partition (L1 distance on grid
    indices, ties to the lexicographically smallest partition); OUTLIER when
    no partition is valid.
    """
    return _nearest_valid(idx, valid_partitions(cam))


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


class OnlineSorter:
    """Streaming per-channel trainer: histogram phase, then CAM phase."""

    def __init__(self, budget: int = SPIKE_BUDGET, decay_period: int = DECAY_PERIOD):
        self.hist = FeatureHistograms(spike_budget=budget)
        self.cam = CamState(decay_period=decay_period)
        self.boundaries = None
        self._budget_tokens = []  # kept for CAM replay when the stream is short

    @property
    def in_histogram_phase(self) -> bool:
        return self.hist.n_spikes < self.hist.spike_budget

    def observe(self, f1: int, f2: int) -> None:
        if self.in_histogram_phase:
            update_histograms(self.hist, f1, f2)
            self._budget_tokens.append((f1, f2))
            if not self.in_histogram_phase:
                self.boundaries = find_boundaries(self.hist)
        else:
            cam_update(self.cam, locate_partition(f1, f2, self.boundaries))

    def finalize(self) -> OnlineSorterModel:
        """Freeze the model. If the stream ended before any CAM-phase spikes
        arrived, the histogram-phase spikes are replayed through the CAM once."""
        if self.boundaries is None:
            self.boundaries = find_boundaries(self.hist)
        if self.cam.processed == 0:
            for f1, f2 in self._budget_tokens:
                cam_update(self.cam, locate_partition(f1, f2, self.boundaries))
        snapshot = [(e.key[0], e.key[1], e.status)
                    for e in self.cam.entries if e.status != STATUS_VACANT]
        return OnlineSorterModel(boundaries=self.boundaries,
                                 cam_snapshot=sorted(snapshot))


def train_online(tokens, budget: int = SPIKE_BUDGET,
                 decay_period: int = DECAY_PERIOD) -> dict:
    """Train one OnlineSorterModel per channel from a token stream.

    *tokens* is a :class:`~nsp.detect.Tokens` or a sequence of
    ``Completion`` rows. Each channel's sorter observes that channel's
    tokens in stream order.
    """
    tok = Tokens.of(tokens)
    order = np.argsort(tok.channel, kind="stable")
    f1, f2 = tok.f1[order].tolist(), tok.f2[order].tolist()
    chans, firsts = np.unique(tok.channel[order], return_index=True)
    models = {}
    for ch, lo, hi in zip(chans.tolist(), firsts.tolist(),
                          firsts[1:].tolist() + [len(tok)]):
        sorter = OnlineSorter(budget=budget, decay_period=decay_period)
        for a, b in zip(f1[lo:hi], f2[lo:hi]):
            sorter.observe(a, b)
        models[ch] = sorter.finalize()
    return models
