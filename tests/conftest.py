"""Shared fixtures, the sample-scan detector oracle, the per-token online
trainer oracle and the exhaustive split-layout oracle.

The datasets here are deliberately small; anything that needs statistical
power builds its own inside the test.
"""

from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np
import pytest

from nsp import (DEFAULT_PRE, WINDOW_LEN, Completion, SessionConfig,
                 gen_reach_session, gen_spike_trace, tier_config)
from nsp.sort_online import (BIN_WIDTH, CAM_CAPACITY, DECAY_PERIOD, SPIKE_BUDGET,
                             STATUS_OUTLIER, STATUS_STRONG, STATUS_VACANT,
                             OnlineSorterModel, find_boundaries, locate_partition)


@pytest.fixture(scope="session")
def easy_trace():
    """(RawTrace, GroundTruthLabels) for a 4-channel easy-tier recording."""
    return gen_spike_trace(tier_config("easy", n_channels=4, duration_s=8.0), seed=11)


@pytest.fixture(scope="session")
def hard_trace():
    return gen_spike_trace(tier_config("hard", n_channels=2, duration_s=8.0), seed=23)


@pytest.fixture(scope="session")
def small_session():
    return gen_reach_session(SessionConfig(n_units=24, trials_per_target=4), seed=5)


# --- sample-scan detector oracle ---------------------------------------------
#
# The detector rule written out one sample at a time, with none of the
# array machinery of detect_rows: the reference every detector test reads.


def scan_starts(trace, threshold):
    """Sample-by-sample detector: the plain form of the re-arm rule."""
    trace = np.asarray(trace, dtype=np.int8)
    starts, rearm = [], 0
    for t in range(trace.size):
        if t < rearm or abs(int(trace[t])) < threshold:
            continue
        t0 = max(0, t - DEFAULT_PRE)
        if t0 + WINDOW_LEN > trace.size:
            break
        starts.append(t0)
        rearm = t0 + WINDOW_LEN + DEFAULT_PRE
    return starts


def scan_tokens(data, thresholds, channels=None):
    """(windows, tokens) the detector must give for rows *channels* of *data*.

    *thresholds* is indexed by channel. Windows come from :func:`scan_starts`,
    channel by channel in the order given (default: every row), and each
    token's features are its window's max and min. Returns the (n, 32) int8
    window array and a list of Completion rows.
    """
    data = np.asarray(data, dtype=np.int8)
    windows, tokens = [], []
    for ch in range(data.shape[0]) if channels is None else channels:
        for t0 in scan_starts(data[ch], thresholds[ch]):
            w = data[ch, t0:t0 + WINDOW_LEN]
            windows.append(w)
            tokens.append(Completion(cycle=t0 + WINDOW_LEN - 1, channel=ch, t=t0,
                                     f1=int(w.max()), f2=int(w.min())))
    return np.array(windows, dtype=np.int8).reshape(-1, WINDOW_LEN), tokens


# --- per-token online trainer oracle -----------------------------------------
#
# The on-line trainer as the hardware runs it, one spike at a time: two
# per-feature histograms fill until the spike budget, then a 16-entry CAM
# inserts misses at outlier status, raises hits one step, decays every entry
# each DECAY_PERIOD spikes and, when full, evicts the weakest (then least
# recently touched) entry. A stream that ends within the budget replays the
# budget spikes through the CAM. fit_online must give the same model.


@dataclass
class FeatureHistograms:
    """Two per-feature histograms over the int8 range with 2-LSB bins."""

    lo: int = -128
    hi: int = 127
    bin_width: int = BIN_WIDTH
    spike_budget: int = SPIKE_BUDGET
    counts: np.ndarray = None
    n_spikes: int = 0

    def __post_init__(self):
        n_bins = (self.hi - self.lo + 1 + self.bin_width - 1) // self.bin_width
        if self.counts is None:
            self.counts = np.zeros((2, n_bins), dtype=np.int64)

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]

    def bin_index(self, value: int) -> int:
        """Bin of *value*; out-of-range values clamp to the edge bins."""
        raw = (int(value) - self.lo) // self.bin_width
        return min(max(raw, 0), self.n_bins - 1)


def update_histograms(hist: FeatureHistograms, f1: int, f2: int) -> None:
    for axis, value in ((0, f1), (1, f2)):
        hist.counts[axis, hist.bin_index(value)] += 1
    hist.n_spikes += 1


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


class OnlineSorter:
    """Streaming per-channel trainer: histogram phase, then CAM phase."""

    def __init__(self):
        self.hist = FeatureHistograms()
        self.cam = CamState()
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
                self.boundaries = find_boundaries(self.hist.counts)
        else:
            cam_update(self.cam, locate_partition(f1, f2, self.boundaries))

    def finalize(self) -> OnlineSorterModel:
        """Freeze the model. If the stream ended before any CAM-phase spikes
        arrived, the histogram-phase spikes are replayed through the CAM once."""
        if self.boundaries is None:
            self.boundaries = find_boundaries(self.hist.counts)
        if self.cam.processed == 0:
            for f1, f2 in self._budget_tokens:
                cam_update(self.cam, locate_partition(f1, f2, self.boundaries))
        snapshot = [(e.key[0], e.key[1], e.status)
                    for e in self.cam.entries if e.status != STATUS_VACANT]
        return OnlineSorterModel(boundaries=self.boundaries,
                                 cam_snapshot=sorted(snapshot))


def observe_online(f1s, f2s) -> OnlineSorterModel:
    """The model the per-token trainer freezes after one channel's stream."""
    sorter = OnlineSorter()
    for f1, f2 in zip(f1s, f2s):
        sorter.observe(int(f1), int(f2))
    return sorter.finalize()


# --- exhaustive two-feature split-layout oracle -----------------------------
#
# Independent enumeration of every way three nested axis-aligned cuts can
# carve the feature plane into four labelled rectangles. Layouts are rendered
# on a 4x4 cell grid and canonicalised, so the result can be compared against
# the pattern table without sharing any of its machinery.

LEAF = "leaf"


def tree_shapes(n):
    """All binary trees with n internal nodes, as nested (left, right) pairs."""
    if n == 0:
        return [LEAF]
    out = []
    for n_left in range(n):
        for left in tree_shapes(n_left):
            for right in tree_shapes(n - 1 - n_left):
                out.append((left, right))
    return out


def decorate(shape, axes, cuts):
    """Assign axes/cut values to internal nodes (preorder) and number leaves."""
    counter = {"node": 0, "leaf": 0}

    def walk(node):
        if node == LEAF:
            idx = counter["leaf"]
            counter["leaf"] += 1
            return ("leaf", idx)
        i = counter["node"]
        counter["node"] += 1
        return ("cut", axes[i], cuts[i], walk(node[0]), walk(node[1]))

    return walk(shape)


def classify_tree(tree, x, y):
    while tree[0] == "cut":
        _, axis, value, left, right = tree
        tree = right if (x, y)[axis] >= value else left
    return tree[1]


def grid_signature(classify):
    """Canonical signature of a 4x4 label grid, or None if <4 labels appear.

    Collapses duplicate neighbouring rows and columns, relabels by first
    appearance, and takes the minimum over transposition — two cut layouts
    share a signature exactly when one slides/flips into the other.
    """
    grid = [[classify(x + 0.5, y + 0.5) for x in range(4)] for y in range(4)]
    if len({v for row in grid for v in row}) != 4:
        return None
    rows = [grid[0]] + [r for prev, r in zip(grid, grid[1:]) if r != prev]
    cols = list(zip(*rows))
    cols = [cols[0]] + [c for prev, c in zip(cols, cols[1:]) if c != prev]

    def key(columns):
        relabel, flat = {}, []
        for col in columns:
            for v in col:
                flat.append(relabel.setdefault(v, len(relabel)))
        return (len(columns), len(columns[0]), tuple(flat))

    return min(key(cols), key(list(zip(*cols))))


def oracle_pattern_classes():
    """Every distinct comparison template, by brute force.

    A template is a cut tree with an axis per node; its three boundary values
    stay programmable, so one template realises every layout reachable by
    permuting the values (1, 2, 3) over its cuts. Distinct values keep the
    cuts in general position: coinciding same-axis cuts collapse into a
    degenerate hybrid (e.g. both slabs split at the same height looks like
    plain quadrants) that is not a layout of its own. Two templates are the
    same pattern exactly when they realise the same set of canonical layouts,
    so the return value is a set of frozensets of grid signatures.
    """
    classes = set()
    for shape in tree_shapes(3):
        for axes in product((0, 1), repeat=3):
            sigs = set()
            for cuts in permutations((1, 2, 3)):
                tree = decorate(shape, axes, cuts)
                sig = grid_signature(lambda x, y: classify_tree(tree, x, y))
                if sig is not None:
                    sigs.add(sig)
            if sigs:
                classes.add(frozenset(sigs))
    return classes


def library_pattern_classes(patterns):
    """Realisable-layout set of each table pattern, via its public classify."""
    classes = []
    for pat in patterns:
        sigs = set()
        for vals in permutations((1, 2, 3)):
            sig = grid_signature(
                lambda x, y: pat.leaf_map[pat.code_of(x, y, vals)])
            if sig is not None:
                sigs.add(sig)
        classes.append(frozenset(sigs))
    return classes
