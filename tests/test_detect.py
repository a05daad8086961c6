import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsp.detect import (DEFAULT_K, DEFAULT_PRE, MIN_SEGMENT, Completion, SegmentTooShort,
                        SpikeWindow, Tokens, detect_rows, detect_spikes, detect_trace,
                        estimate_threshold, extract_features, gather_windows,
                        load_tokens, load_windows, store_tokens, store_windows,
                        window_features, window_starts)
from nsp.synthdata import gen_spike_trace, tier_config

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


def test_single_spike_window_placement():
    trace = _drop_pulse(_quiet_trace(), 100)
    ws = detect_spikes(trace, threshold=30.0)
    assert len(ws) == 1
    assert ws[0].t0 == 96  # crossing at 100 minus 4 pre-samples
    assert ws[0].samples.shape == (WINDOW_LEN,)
    assert ws[0].samples[4] == -60


def test_early_spike_clamps_to_start():
    trace = _drop_pulse(_quiet_trace(), 2)
    ws = detect_spikes(trace, threshold=30.0)
    assert len(ws) == 1
    assert ws[0].t0 == 0


def test_spike_too_close_to_end_is_dropped():
    trace = _quiet_trace(n=200)
    trace[195] = -90
    ws = detect_spikes(trace, threshold=30.0)
    assert ws == []


def test_busy_period_blocks_overlapping_detections():
    trace = _quiet_trace()
    _drop_pulse(trace, 100)
    _drop_pulse(trace, 120)  # inside the 32-sample busy window
    _drop_pulse(trace, 200)
    ws = detect_spikes(trace, threshold=30.0)
    assert [w.t0 for w in ws] == [96, 196]


def test_window_starts_at_least_window_len_apart():
    rng = np.random.default_rng(4)
    trace = _quiet_trace(30000, noise=5.0, seed=4)
    for t in rng.integers(50, 29900, size=60):
        _drop_pulse(trace, int(t), amp=-80)
    ws = detect_spikes(trace, threshold=40.0)
    starts = np.array([w.t0 for w in ws])
    assert len(starts) > 10
    assert np.diff(starts).min() >= WINDOW_LEN


def _scan_starts(trace, threshold):
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


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(1, 5), n_samples=st.integers(0, 300),
       seed=st.integers(0, 2 ** 32 - 1),
       thresholds=st.lists(st.floats(0.0, 140.0), min_size=5, max_size=5),
       quiet=st.sampled_from([0.0, 0.5, 0.9]))
def test_all_channel_detector_equals_the_sample_scan_row_by_row(
        n_rows, n_samples, seed, thresholds, quiet):
    rng = np.random.default_rng(seed)
    data = rng.integers(-128, 128, (n_rows, n_samples)).astype(np.int8)
    data[rng.random(data.shape) < quiet] //= 8
    # crossings in the first 4 samples and in the last window of every row,
    # where a window clamps to sample 0 or cannot complete
    data[:, :4][rng.random((n_rows, min(4, n_samples))) < 0.3] = -128
    data[:, -WINDOW_LEN:][rng.random((n_rows, min(WINDOW_LEN, n_samples))) < 0.1] = 127
    thr = thresholds[:n_rows]
    rows, starts = detect_rows(data, thr)
    assert rows.tolist() == sorted(rows.tolist())
    for r in range(n_rows):
        assert starts[rows == r].tolist() == _scan_starts(data[r], thr[r])


@pytest.mark.parametrize("seed", range(12))
def test_window_starts_equal_the_sample_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 3000))
    trace = _quiet_trace(n, noise=float(rng.uniform(2.0, 30.0)), seed=seed)
    trace[:3] = rng.integers(-100, 100, 3)        # crossings near the start
    trace[-20:] = rng.integers(-100, 100, 20)     # and near the end
    threshold = float(rng.uniform(1.0, 60.0))
    assert window_starts(trace, threshold) == _scan_starts(trace, threshold)


def test_window_array_features_equal_extract_features():
    trace = _quiet_trace(5000, noise=12.0, seed=5)
    ws = detect_spikes(trace, threshold=25.0)
    assert len(ws) > 5
    windows = gather_windows(trace, [w.t0 for w in ws])
    assert windows.dtype == np.int8
    assert np.array_equal(windows, np.stack([w.samples for w in ws]))
    f1, f2 = window_features(windows)
    toks = [extract_features(w) for w in ws]
    assert f1.tolist() == [tok.f1 for tok in toks]
    assert f2.tolist() == [tok.f2 for tok in toks]



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
    ref_windows = [w for ch in range(trace.n_channels)
                   for w in detect_spikes(trace.data[ch], thr[ch], channel=ch)]
    assert windows.dtype == np.int8
    assert np.array_equal(windows, np.stack([w.samples for w in ref_windows]))
    assert list(tokens) == [extract_features(w) for w in ref_windows]
    assert all(type(v) is int for tok in tokens for v in tok)


# --- feature extraction -----------------------------------------------------


def test_peak_trough_features():
    samples = np.zeros(WINDOW_LEN, dtype=np.int8)
    samples[5] = -70
    samples[9] = 23
    tok = extract_features(SpikeWindow(t0=10, channel=3, samples=samples))
    assert (tok.t, tok.channel, tok.f1, tok.f2) == (10, 3, 23, -70)
    assert tok.cycle == 10 + WINDOW_LEN - 1    # the window's last sample


def test_window_must_hold_32_samples():
    with pytest.raises(ValueError):
        SpikeWindow(t0=0, channel=0, samples=np.zeros(31, dtype=np.int8))


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
    trace = _drop_pulse(_quiet_trace(), 100)
    ws = detect_spikes(trace, 30.0)
    p = str(tmp_path / "windows.jsonl")
    store_windows([extract_features(w) for w in ws], np.stack([w.samples for w in ws]), p)
    back = load_windows(p)
    assert len(back) == 1
    assert back[0].t0 == ws[0].t0
    assert np.array_equal(back[0].samples, ws[0].samples)


def test_empty_streams(tmp_path):
    p = str(tmp_path / "empty.jsonl")
    store_tokens([], p)
    assert len(load_tokens(p)) == 0
