import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scan_starts, scan_tokens
from nsp.detect import (DEFAULT_K, MIN_SEGMENT, Completion, SegmentTooShort, Tokens,
                        detect_rows, detect_trace, estimate_threshold, load_tokens,
                        load_windows, store_tokens, store_windows, window_features)
from nsp.synthdata import PayloadError, RawTrace, gen_spike_trace, tier_config

WINDOW_LEN = 32


def _quiet_trace(n=4000, noise=None, seed=0):
    rng = np.random.default_rng(seed)
    base = np.zeros(n, dtype=np.int8)
    if noise is not None:
        base = np.clip(np.round(rng.normal(0, noise, n)), -128, 127).astype(np.int8)
    return base


def _drop_pulse(trace, t, amp=-60):
    """Single-sample extremum at t followed by a short decay."""
    trace[t] = amp
    trace[t + 1] = amp // 2
    trace[t + 2] = amp // 4
    return trace


# --- threshold estimation -----------------------------------------------------


def test_threshold_matches_mad_by_hand():
    rng = np.random.default_rng(1)
    seg = rng.normal(0, 5.0, 20000)
    med = np.median(seg)
    mad = np.median(np.abs(seg - med))
    assert estimate_threshold(seg) == pytest.approx(4.0 * 1.4826 * mad)


def test_threshold_tracks_sigma():
    rng = np.random.default_rng(2)
    for sigma in (3.0, 8.0, 20.0):
        seg = np.clip(np.round(rng.normal(0, sigma, 60000)), -128, 127)
        thr = estimate_threshold(seg.astype(np.int8))
        # k * 1.4826 * MAD estimates k * sigma for Gaussian noise
        assert thr == pytest.approx(DEFAULT_K * sigma, rel=0.1)


def test_threshold_ignores_sparse_spikes():
    rng = np.random.default_rng(3)
    seg = rng.normal(0, 5.0, 30000)
    spiky = seg.copy()
    spiky[::300] = -120.0  # 0.3% outliers barely move the MAD
    clean = estimate_threshold(seg)
    robust = estimate_threshold(spiky)
    assert robust == pytest.approx(clean, rel=0.02)
    # a plain standard deviation would have moved by a lot more
    assert np.std(spiky) > 1.5 * np.std(seg)


def test_threshold_floor_and_short_segment():
    assert estimate_threshold(np.zeros(2000)) == 1.0
    with pytest.raises(SegmentTooShort):
        estimate_threshold(np.zeros(999))


def _int8_segment(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        seg = rng.integers(-128, 128, n)
    elif kind == "gauss":
        seg = np.clip(np.round(rng.normal(rng.uniform(-20, 20), rng.uniform(0.2, 40), n)),
                      -128, 127)
    elif kind == "constant":
        seg = np.full(n, rng.integers(-128, 128))
    elif kind == "extremes":
        seg = rng.choice([-128, -127, 126, 127], n)
    else:  # sparse outliers at both rails over low noise
        seg = np.clip(np.round(rng.normal(0, 2.0, n)), -128, 127)
        hit = rng.choice(n, size=max(1, n // 200), replace=False)
        seg[hit] = rng.choice([-128, 127], hit.size)
    return seg.astype(np.int8)


@settings(max_examples=300, deadline=None)
@given(half=st.integers(MIN_SEGMENT // 2, 2500), odd=st.booleans(),
       kind=st.sampled_from(["uniform", "gauss", "constant", "extremes", "outliers"]),
       seed=st.integers(0, 2**32 - 1))
@example(half=500, odd=False, kind="constant", seed=0)
@example(half=500, odd=True, kind="extremes", seed=1)
@example(half=500, odd=True, kind="outliers", seed=2)     # 1001 samples
@example(half=501, odd=True, kind="gauss", seed=3)        # 1003 samples
def test_int8_threshold_equals_the_float_median_expression(half, odd, kind, seed):
    """The int8 histogram path is exact: == against the float np.median oracle."""
    n = min(2 * half + odd, 5000)
    seg = _int8_segment(n, kind, seed)
    v = seg.astype(np.float64)
    oracle = max(1.0, DEFAULT_K * 1.4826 * np.median(np.abs(v - np.median(v))))
    assert estimate_threshold(seg) == oracle


def test_int8_threshold_floor_and_short_segment():
    assert estimate_threshold(np.zeros(2000, dtype=np.int8)) == 1.0
    seg = np.tile(np.array([-1, 0, 1], dtype=np.int8), 1000)
    assert estimate_threshold(seg) == 4.0 * 1.4826
    # MAD 0.1 gives 0.59 LSB, floored to 1
    assert estimate_threshold(seg / 10.0) == 1.0
    with pytest.raises(SegmentTooShort):
        estimate_threshold(np.zeros(MIN_SEGMENT - 1, dtype=np.int8))


# --- detection ------------------------------------------------------------


def _detect_row(trace, threshold):
    """detect_trace on one channel, checked against the sample-scan oracle."""
    windows, tokens = detect_trace(RawTrace(trace.reshape(1, -1)), threshold)
    ref_windows, ref_tokens = scan_tokens(trace.reshape(1, -1), [threshold])
    assert windows.dtype == np.int8 and np.array_equal(windows, ref_windows)
    assert list(tokens) == ref_tokens
    return windows, tokens


def test_single_spike_window_placement():
    trace = _drop_pulse(_quiet_trace(), 100)
    windows, tokens = _detect_row(trace, threshold=30.0)
    assert len(tokens) == 1
    assert tokens.t[0] == 96  # crossing at 100 minus 4 pre-samples
    assert windows[0].shape == (WINDOW_LEN,)
    assert windows[0][4] == -60


def test_early_spike_clamps_to_start():
    trace = _drop_pulse(_quiet_trace(), 2)
    _, tokens = _detect_row(trace, threshold=30.0)
    assert len(tokens) == 1
    assert tokens.t[0] == 0


def test_spike_too_close_to_end_is_dropped():
    trace = _quiet_trace(n=200)
    trace[195] = -90
    windows, tokens = _detect_row(trace, threshold=30.0)
    assert len(tokens) == 0 and windows.shape == (0, WINDOW_LEN)


def test_busy_period_blocks_overlapping_detections():
    trace = _quiet_trace()
    _drop_pulse(trace, 100)
    _drop_pulse(trace, 120)  # inside the 32-sample busy window
    _drop_pulse(trace, 200)
    _, tokens = _detect_row(trace, threshold=30.0)
    assert tokens.t.tolist() == [96, 196]


def test_window_starts_at_least_window_len_apart():
    rng = np.random.default_rng(4)
    trace = _quiet_trace(30000, noise=5.0, seed=4)
    for t in rng.integers(50, 29900, size=60):
        _drop_pulse(trace, int(t), amp=-80)
    _, tokens = _detect_row(trace, threshold=40.0)
    assert len(tokens) > 10
    assert np.diff(tokens.t).min() >= WINDOW_LEN


# the limits of the byte comparison: below 0, the integers around 0, 1, 127,
# 128 and 129, and thresholds no sample reaches
EDGE_THRESHOLDS = [-np.inf, -1.0, 0.0, 0.5, 1.0, 127.0, 127.5, 128.0, 128.5, 129.0,
                   1e9, np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(1, 20), n_samples=st.integers(0, 300),
       seed=st.integers(0, 2 ** 32 - 1),
       thresholds=st.lists(st.floats(0.0, 140.0) | st.sampled_from(EDGE_THRESHOLDS),
                           min_size=20, max_size=20),
       quiet=st.sampled_from([0.0, 0.5, 0.9]),
       runs=st.lists(st.tuples(st.integers(0, 299), st.integers(1, 120),
                               st.sampled_from([-127, 127])), max_size=4))
def test_all_channel_detector_equals_the_sample_scan_row_by_row(
        n_rows, n_samples, seed, thresholds, quiet, runs):
    rng = np.random.default_rng(seed)
    data = rng.integers(-128, 128, (n_rows, n_samples)).astype(np.int8)
    data[rng.random(data.shape) < quiet] //= 8
    # crossings in the first 4 samples and in the last window of every row,
    # where a window clamps to sample 0 or cannot complete
    data[:, :4][rng.random((n_rows, min(4, n_samples))) < 0.3] = -128
    data[:, -WINDOW_LEN:][rng.random((n_rows, min(WINDOW_LEN, n_samples))) < 0.1] = 127
    # long constant runs at the rails: clusters over many words that re-arm
    # inside the run
    for start, length, v in runs:
        data[rng.integers(n_rows), start:start + length] = v
    thr = thresholds[:n_rows]
    rows, starts = detect_rows(data, thr)
    assert rows.tolist() == sorted(rows.tolist())
    for r in range(n_rows):
        assert starts[rows == r].tolist() == scan_starts(data[r], thr[r])


def _hot_row(n, *runs):
    """A quiet row of *n* samples, -100 on each [start, stop) run."""
    row = np.zeros(n, dtype=np.int8)
    for start, stop in runs:
        row[start:stop] = -100
    return row


# the detector reads 8-sample words: byte k of word w is sample 8w + k, and
# firing at c re-arms it at max(c - 4, 0) + 36
WORD_EDGES = {
    "run from a word's last byte": _hot_row(200, (7, 12), (47, 60)),
    "re-arm on a word's first byte": _hot_row(200, (40, 41), (71, 73), (104, 105)),
    "re-arm one sample short of a word": _hot_row(200, (40, 41), (71, 72), (103, 104)),
    "re-arm inside a hot run": _hot_row(200, (10, 100)),
    "clamped re-arm at 36": _hot_row(100, (1, 2), (33, 34), (35, 37)),
    "crowded over many words": _hot_row(300, *((t, t + 1) for t in range(5, 290, 21))),
    "hot last byte of a row": _hot_row(71, (39, 40), (70, 71)),
    # long crowded clusters, walked one window per round: a hot sample
    # every 31 chains the row into one cluster that fires on every other
    # sample; from 32 on, each sample past the clamped start is a cluster
    **{f"hot every {gap} samples": _hot_row(20000, *((t, t + 1) for t in range(0, 20000, gap)))
       for gap in (31, 32, 33)},
    # runs firing 1, 2, 3, 22, 2, 1, 3 and 10 windows: the rounds drop the
    # clusters one by one, and the row ends inside the last run
    "runs that fire once, twice, thrice and many times": _hot_row(
        1640, (5, 15), (66, 106), (160, 230), (281, 981), (1033, 1073), (1128, 1138),
        (1189, 1259), (1310, 1643)),
}


@pytest.mark.parametrize("name", sorted(WORD_EDGES))
def test_word_edges_equal_the_sample_scan(name):
    row = WORD_EDGES[name]
    _, starts = detect_rows(row[None], [50.0])
    assert starts.tolist() == scan_starts(row, 50.0)


@pytest.mark.parametrize("n", [63, 64, 65, 31, 32, 33, 95, 96, 97])
def test_rows_around_whole_words_equal_the_sample_scan(n):
    # 9 rows, across a scan block: random rows, a row hot on its last
    # sample and a row hot on its last 8 samples
    rng = np.random.default_rng(n)
    data = rng.integers(-128, 128, (9, n)).astype(np.int8)
    data[rng.random(data.shape) < 0.7] //= 8
    data[7] = _hot_row(n, (n - 1, n))
    data[8] = _hot_row(n, (n - 8, n))
    rows, starts = detect_rows(data, [40.0] * 9)
    for r in range(9):
        assert starts[rows == r].tolist() == scan_starts(data[r], 40.0)


@pytest.mark.parametrize("n", range(31, 42))
def test_railed_row_equals_the_sample_scan(n):
    # every sample hot: one window at 0 from 32 samples on; the second, from
    # the crossing at the re-arm point 36, would start at 32 and need 64
    for threshold in (0.0, 100.0):
        row = np.full(n, -128, dtype=np.int8)
        _, starts = detect_rows(row[None], [threshold])
        assert starts.tolist() == scan_starts(row, threshold) == ([0] if n >= 32 else [])


@pytest.mark.parametrize("threshold", [0.0, 100.0, 128.0])
def test_long_railed_row_equals_the_sample_scan(threshold):
    # one cluster over the whole row: the detector walks it one window per
    # round, ~2,500 rounds, and must stop exactly where the row ends
    row = np.full(90000, -128, dtype=np.int8)
    _, starts = detect_rows(row[None], [threshold])
    want = scan_starts(row, threshold)
    assert len(want) > 2000
    assert starts.tolist() == want


def test_threshold_count_must_match_the_rows():
    data = np.zeros((4, 100), dtype=np.int8)
    data[:, 50] = -90
    with pytest.raises(ValueError, match="^3 thresholds for 4 rows$"):
        detect_rows(data, [30.0] * 3)
    with pytest.raises(ValueError, match="^3 thresholds for 4 rows$"):
        detect_trace(RawTrace(data), [30.0] * 3)
    # a scalar or a single threshold covers every row
    every = detect_rows(data, [30.0] * 4)
    for thr in (30.0, [30.0], np.array([30.0])):
        assert all(np.array_equal(a, b) for a, b in zip(detect_rows(data, thr), every))
    assert every[0].tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("shape", [(0, 100), (0, 0), (3, 0), (9, 10)])
def test_detector_without_windows(shape):
    # no rows, no samples, or 9 rows (across a scan block) too short for a window
    rows, starts = detect_rows(np.full(shape, -128, dtype=np.int8), [0.0] * shape[0])
    assert rows.dtype == starts.dtype == np.int64
    assert rows.size == starts.size == 0


def test_detector_scan_makes_no_copy_of_the_trace():
    # a quiet 96-channel, 3 s trace: the scan buffers are a few 8-row blocks,
    # while an int16 copy of the trace alone would take 17 MB
    data = np.zeros((96, 90000), dtype=np.int8)
    tracemalloc.start()
    try:
        rows, _ = detect_rows(data, [10.0] * 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.size == 0
    assert peak < 4e6


def test_detector_scratch_stays_per_word_on_a_dense_trace():
    # 96 channels, 3 s at 150 Hz per channel: ~37k windows over ~280k hot
    # samples. Listing every hot sample peaked at 16.0 MB on this input; the
    # word scan keeps a few arrays per hot word and expands only crowded
    # clusters (11.2 MB)
    cfg = tier_config("medium", n_channels=96, duration_s=3.0, firing_rate_hz=150.0)
    trace, _ = gen_spike_trace(cfg, seed=1)
    thr = [estimate_threshold(row) for row in trace.data]
    tracemalloc.start()
    try:
        rows, _ = detect_rows(trace.data, thr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.size > 30000
    assert peak < 13e6


@pytest.mark.parametrize("seed", range(12))
def test_window_starts_equal_the_sample_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 3000))
    trace = _quiet_trace(n, noise=float(rng.uniform(2.0, 30.0)), seed=seed)
    trace[:3] = rng.integers(-100, 100, 3)        # crossings near the start
    trace[-20:] = rng.integers(-100, 100, 20)     # and near the end
    threshold = float(rng.uniform(1.0, 60.0))
    _, starts = detect_rows(trace.reshape(1, -1), [threshold])
    assert starts.tolist() == scan_starts(trace, threshold)


def test_window_array_features_equal_per_window_max_min():
    trace = _quiet_trace(5000, noise=12.0, seed=5)
    windows, tokens = _detect_row(trace, threshold=25.0)
    assert len(tokens) > 5
    f1, f2 = window_features(windows)
    assert f1.dtype == f2.dtype == np.int8
    assert f1.tolist() == [int(w.max()) for w in windows]
    assert f2.tolist() == [int(w.min()) for w in windows]
    assert np.array_equal(tokens.f1, f1) and np.array_equal(tokens.f2, f2)
    f1, f2 = window_features(np.zeros((0, WINDOW_LEN), dtype=np.int8))
    assert f1.dtype == f2.dtype == np.int8 and f1.size == f2.size == 0


def test_detect_trace_finds_most_truth_events(easy_trace):
    trace, labels = easy_trace
    thr = [estimate_threshold(trace.data[ch]) for ch in range(trace.n_channels)]
    windows, tokens = detect_trace(trace, thr)
    assert len(tokens) == len(windows)
    # easy tier: high SNR, so detection count lands near the truth count
    assert 0.9 * len(labels) <= len(tokens) <= 1.2 * len(labels)
    # ordered by (channel, time)
    keys = [(t.channel, t.t) for t in tokens]
    assert keys == sorted(keys)


@pytest.mark.parametrize("rate_hz", [30.0, 150.0])
def test_detect_trace_equals_per_window_detection(rate_hz):
    trace, _ = gen_spike_trace(tier_config("medium", n_channels=3, duration_s=4.0,
                                           firing_rate_hz=rate_hz), seed=13)
    thr = [estimate_threshold(trace.data[ch]) for ch in range(trace.n_channels)]
    windows, tokens = detect_trace(trace, thr)
    ref_windows, ref_tokens = scan_tokens(trace.data, thr)
    assert windows.dtype == np.int8
    assert np.array_equal(windows, ref_windows)
    assert list(tokens) == ref_tokens
    assert all(type(v) is int for tok in tokens for v in tok)


# --- feature extraction -----------------------------------------------------


def _window_file(tmp_path, records):
    p = tmp_path / "windows.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(p)


def test_peak_trough_features(tmp_path):
    samples = np.zeros(WINDOW_LEN, dtype=np.int8)
    samples[5] = -70
    samples[9] = 23
    windows, tokens = load_windows(_window_file(
        tmp_path, [{"t": 10, "ch": 3, "s": samples.tolist()}]))
    assert np.array_equal(windows, samples.reshape(1, -1))
    (tok,) = tokens
    assert (tok.t, tok.channel, tok.f1, tok.f2) == (10, 3, 23, -70)
    assert tok.cycle == 10 + WINDOW_LEN - 1    # the window's last sample


def test_window_must_hold_32_samples(tmp_path):
    with pytest.raises(PayloadError, match=f"exactly {WINDOW_LEN} samples"):
        load_windows(_window_file(tmp_path, [{"t": 0, "ch": 0, "s": [0] * 31}]))


# --- stream files -----------------------------------------------------------


def test_tokens_and_completion_rows_round_trip():
    rows = [Completion(cycle=t + WINDOW_LEN - 1, channel=ch, t=t, f1=f1, f2=f2)
            for t, ch, f1, f2 in [(0, 2, 5, -7), (40, 0, 127, -128), (9, 2, -3, -3)]]
    tokens = Tokens.of(rows)
    assert len(tokens) == 3 and all(c.dtype == np.int64 for c in
                                    (tokens.t, tokens.channel, tokens.f1, tokens.f2))
    assert tokens.cycle.tolist() == [r.cycle for r in rows]
    assert list(tokens) == rows
    assert Tokens.of(tokens) is tokens
    assert list(Tokens.of(iter(tokens))) == rows
    assert len(Tokens.of([])) == 0 and list(Tokens.of([])) == []


def test_tokens_reject_negative_channels_and_ragged_columns():
    with pytest.raises(ValueError, match="negative channel"):
        Tokens([0, 1], [0, -1], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="length"):
        Tokens([0, 1], [0], [0, 0], [0, 0])


def test_token_round_trip(tmp_path, easy_trace):
    trace, _ = easy_trace
    _, tokens = detect_trace(trace, 40.0)
    p = str(tmp_path / "tokens.jsonl")
    store_tokens(tokens, p)
    assert list(load_tokens(p)) == list(tokens)


def test_window_round_trip(tmp_path):
    trace, _ = gen_spike_trace(tier_config("medium", n_channels=4, duration_s=2.0), seed=5)
    windows, tokens = detect_trace(trace, [estimate_threshold(row) for row in trace.data])
    assert len(np.unique(tokens.channel)) == 4
    p = str(tmp_path / "windows.jsonl")
    store_windows(tokens, windows, p)
    back_windows, back = load_windows(p)
    assert back_windows.dtype == np.int8 and np.array_equal(back_windows, windows)
    for col in ("t", "channel", "f1", "f2"):
        assert getattr(back, col).dtype == np.int64
        assert np.array_equal(getattr(back, col), getattr(tokens, col))


def test_empty_streams(tmp_path):
    p = str(tmp_path / "empty.jsonl")
    store_tokens(Tokens.of([]), p)
    assert len(load_tokens(p)) == 0
