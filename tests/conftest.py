"""Shared fixtures, the digest of pinned outputs, the per-event synthesis oracles, the sample-scan
detector oracle, the per-token online trainer oracle, the per-arrival
decoder-buffer oracle, the per-ordering tree-sweep oracle, the per-token
matching, per-run valley and per-point density oracles, the per-row
calibration oracle and the exhaustive split-layout oracle.

The datasets here are deliberately small; anything that needs statistical
power builds its own inside the test.
"""

import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

import numpy as np
import pytest

from nsp import (DEFAULT_PRE, WINDOW_LEN, Completion, RawTrace, SessionConfig,
                 detect_trace, estimate_threshold, gen_reach_session, gen_spike_trace,
                 match_events, tier_config)
from nsp.evaluation import MATCH_TOLERANCE
from nsp.patterns import N_LEAVES, N_SPLITS, enumerate_patterns
from nsp.sort_offline import (KDE_BANDWIDTH, KDE_GRID, ChannelSorterModel,
                              _degenerate_model, boundary_candidates)
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


# --- per-event synthesis oracles ---------------------------------------------
#
# Trace synthesis written one event and one gap at a time. The block renderer,
# the array-form Poisson thinning and the sorted label check in
# nsp.synthdata must give the same bytes and raise the same messages.


def digest(a) -> str:
    """First 16 hex digits of the sha256 of an array's little-endian bytes,
    or of a dict's sorted JSON."""
    if isinstance(a, dict):
        return hashlib.sha256(json.dumps(a, sort_keys=True).encode()).hexdigest()[:16]
    a = np.ascontiguousarray(a)
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()[:16]


def poisson_event_times_loop(rng, rate_hz, n_samples, sample_rate):
    """Poisson arrivals added one gap at a time, greedily thinned to
    WINDOW_LEN spacing; gaps are drawn in the same batches."""
    if rate_hz <= 0:
        return np.zeros(0, dtype=np.int64)
    mean_gap = sample_rate / rate_hz
    n_draw = max(16, int(1.5 * n_samples / mean_gap) + 16)
    times = []
    t = 0.0
    last = -WINDOW_LEN
    while True:
        gaps = rng.exponential(mean_gap, size=n_draw)
        for g in gaps:
            t += g
            if t >= n_samples - WINDOW_LEN:
                return np.array(times, dtype=np.int64)
            ti = int(t)
            if ti - last >= WINDOW_LEN:
                times.append(ti)
                last = ti


def render_trace_loop(events, templates, n_samples, noise_sigma, rng, sample_rate):
    """Every template added into one float64 array, then one noise draw, one
    round and one clip of the whole array."""
    signal = np.zeros((len(templates), n_samples), dtype=np.float64)
    for t, ch, nid in np.asarray(events, dtype=np.int64).reshape(-1, 3):
        signal[ch, t:t + WINDOW_LEN] += templates[ch][nid]
    if noise_sigma > 0:
        signal += rng.normal(0.0, noise_sigma, size=signal.shape)
    rounded = np.round(signal)
    clipped = int(np.count_nonzero((rounded > 127) | (rounded < -128)))
    data = np.clip(rounded, -128, 127).astype(np.int8)
    return RawTrace(data=data, sample_rate=sample_rate, clipped_samples=clipped)


def validate_labels_loop(labels):
    """GroundTruthLabels.validate one channel at a time, lowest first."""
    for channel in np.unique(labels.ch):
        sub = labels.for_channel(int(channel))
        if len(sub) > 1 and np.diff(sub[:, 0]).min() < WINDOW_LEN:
            raise ValueError(f"channel {channel}: events closer than {WINDOW_LEN} samples")
        if len(np.unique(sub[:, 2])) > 4:
            raise ValueError(f"channel {channel}: more than 4 unit ids")


# --- sample-scan detector oracle ---------------------------------------------
#
# The detector rule written out one sample at a time, with none of the
# array machinery of detect_rows: the reference every detector test reads.


def scan_starts(trace, threshold):
    """Sample-by-sample detector: the plain form of the re-arm rule.

    A sample fires when |v| >= *threshold*, so a NaN threshold never fires.
    """
    trace = np.asarray(trace, dtype=np.int8)
    starts, rearm = [], 0
    for t in range(trace.size):
        if t < rearm or not abs(int(trace[t])) >= threshold:
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


# --- per-arrival decoder-buffer oracle ---------------------------------------
#
# Stage C of Simulator.run written as one loop over the arrivals: per arrival
# cycle the buffer first lets go of every item accepted by then, and an
# arrival that finds room is accepted one cycle after its arrival or after
# the latest accept, whichever is later. nsp.sim._buffer_accepts must give
# the same accepts.


def buffer_accepts(arrival, depth):
    """(accept cycles, positions) of the arrivals a depth-*depth* decoder
    buffer admits, for non-decreasing int *arrival* cycles."""
    accepts, taken = [], []
    head = n_accepts = 0     # accepts[head:] are still in the buffer
    acc = -1                 # the cycle of the latest accept
    previous = None
    for i, cyc in enumerate(arrival):
        if cyc != previous:
            previous = cyc
            while head < n_accepts and accepts[head] <= cyc:
                head += 1
        if n_accepts - head < depth:
            acc = (acc if acc > cyc else cyc) + 1
            accepts.append(acc)
            taken.append(i)
            n_accepts += 1
    return accepts, taken


# --- per-ordering tree-sweep oracle -----------------------------------------
#
# The tree trainer's sweep scored one (pattern, x ordering, y ordering) at a
# time: four corner gathers of the label-count prefix table per leaf, the
# largest label count per leaf summed, the first best cell kept and a later
# one taken only with a strictly higher accuracy. train_channel_model must
# give the same model.


def sweep_channel_model(features, labels) -> ChannelSorterModel:
    """The model the per-ordering sweep fits to one channel's labelled cloud."""
    feats = np.asarray(features, dtype=np.int64).reshape(-1, 2)
    labs = np.asarray(labels, dtype=np.int64).reshape(-1)
    uniq = np.unique(labs)
    if len(uniq) == 1:
        return _degenerate_model(1.0)
    lab_idx = np.searchsorted(uniq, labs)
    n = feats.shape[0]
    cand_x, cand_y = boundary_candidates(feats)
    mx, my = len(cand_x), len(cand_y)
    ix = np.searchsorted(cand_x, feats[:, 0], side="right")
    iy = np.searchsorted(cand_y, feats[:, 1], side="right")
    counts = np.zeros((mx + 1, my + 1, len(uniq)), dtype=np.int64)
    np.add.at(counts, (ix, iy, lab_idx), 1)
    prefix = np.zeros((mx + 2, my + 2, len(uniq)), dtype=np.int64)
    prefix[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1)

    def combo_array(m, k):
        if k == 0:
            return np.zeros((1, 0), dtype=np.int64)
        return np.array(list(combinations(range(m), k)), dtype=np.int64)

    def bound(cut, m, sel, ranks, upper):
        if cut is None:
            return m + 1 if upper else 0
        return sel[..., ranks[cut]] + 1

    best = None  # (accuracy, pattern_id, boundaries)
    for pat in enumerate_patterns():
        kx, ky = pat.n_x, pat.n_y
        if kx > mx or ky > my:
            continue
        xcombos = combo_array(mx, kx)
        ycombos = combo_array(my, ky)
        XI = xcombos[:, None, :]
        YI = ycombos[None, :, :]
        shape = (xcombos.shape[0], ycombos.shape[0])
        for xord in pat.x_orderings:
            rank_x = {cid: r for r, cid in enumerate(xord)}
            for yord in pat.y_orderings:
                rank_y = {cid: r for r, cid in enumerate(yord)}
                correct = np.zeros(shape, dtype=np.int64)
                for leaf in range(N_LEAVES):
                    (xlo_c, xhi_c), (ylo_c, yhi_c) = pat.leaf_bounds[leaf]
                    xlo = bound(xlo_c, mx, XI, rank_x, False)
                    xhi = bound(xhi_c, mx, XI, rank_x, True)
                    ylo = bound(ylo_c, my, YI, rank_y, False)
                    yhi = bound(yhi_c, my, YI, rank_y, True)
                    leaf_counts = (prefix[xhi, yhi] - prefix[xlo, yhi]
                                   - prefix[xhi, ylo] + prefix[xlo, ylo])
                    correct += leaf_counts.max(axis=-1)
                flat = int(np.argmax(correct))
                acc = float(correct.flat[flat]) / n
                if best is None or acc > best[0] + 1e-12:
                    ci, cj = divmod(flat, shape[1])
                    slot_vals = [0] * N_SPLITS
                    for r, cid in enumerate(xord):
                        slot_vals[cid] = int(cand_x[xcombos[ci][r]])
                    for r, cid in enumerate(yord):
                        slot_vals[cid] = int(cand_y[ycombos[cj][r]])
                    best = (acc, pat.pattern_id, tuple(slot_vals))

    if best is None:
        return _degenerate_model(float(np.bincount(lab_idx).max()) / n)
    acc, pattern_id, boundaries = best
    model = ChannelSorterModel(pattern_id=pattern_id, boundaries=boundaries,
                               valid_mask=(1 << N_LEAVES) - 1, train_accuracy=acc)
    model.valid_mask = int(np.bitwise_or.reduce(1 << model.classify_many(*feats.T)))
    return model


# --- per-token matching, per-run valley and per-point density oracles --------
#
# Event matching one token at a time against a used-truth mask, valley runs
# found by walking the array, and the density marginals from an exp of every
# point's offsets. match_events, _valley_runs and kde_marginals must give the
# same pairs, runs and bits.


def match_events_loop(token_times, truth_times):
    """(m, 2) rows (token_idx, truth_idx) of the per-token greedy matcher."""
    tok = np.asarray(token_times, dtype=np.int64)
    tru = np.asarray(truth_times, dtype=np.int64)
    used = np.zeros(tru.size, dtype=bool)
    pairs = []
    for i, t in enumerate(tok):
        k = int(np.searchsorted(tru, t))
        best = None
        for c in (k - 1, k, k + 1):
            if 0 <= c < tru.size and not used[c]:
                d = abs(int(tru[c]) - int(t))
                if d <= MATCH_TOLERANCE and (best is None or d < best[0]):
                    best = (d, c)
        if best is not None:
            used[best[1]] = True
            pairs.append((i, best[1]))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def valley_runs_loop(smoothed):
    """Maximal constant runs strictly below both neighbors, found by a walk."""
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


def kde_marginals_exp(features):
    """Both density marginals with every point's Gaussian row from its own exp."""
    pts = np.asarray(features, dtype=np.float64).reshape(-1, 2)
    grid = np.arange(KDE_GRID, dtype=np.float64) - 128.0
    ax = np.exp(-0.5 * ((grid[None, :] - pts[:, 0:1]) / KDE_BANDWIDTH) ** 2)
    ay = np.exp(-0.5 * ((grid[None, :] - pts[:, 1:2]) / KDE_BANDWIDTH) ** 2)
    return ax.T @ ay.sum(axis=1), ay.T @ ax.sum(axis=1)


# --- per-row calibration oracle ----------------------------------------------
#
# Matched features one channel at a time: the channel's row thresholded on
# its own, detected as a one-row trace and matched to its label rows. One
# calibrate pass over the whole trace must give every channel the same entry.


def feature_dataset_per_row(trace, labels, channel):
    """(features (m, 2) int64, unit ids (m,) int64, n_detected, n_truth) of
    *channel*, detected and matched on its own."""
    row = trace.data[channel][np.newaxis]
    _, tok = detect_trace(RawTrace(row, sample_rate=trace.sample_rate),
                          estimate_threshold(row))
    truth = labels.for_channel(channel)
    pairs = match_events(tok.t, truth[:, 0])
    return (np.column_stack([tok.f1, tok.f2])[pairs[:, 0]],
            truth[pairs[:, 1], 2].astype(np.int64), len(tok), truth.shape[0])


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
