import json
import math

import numpy as np
import pytest

from nsp.synthdata import (ClippingError, DatasetFormatError, HeaderError,
                           PayloadError, SessionConfig, TraceConfig,
                           VersionError, gen_reach_session, gen_spike_trace,
                           load_labels, load_session, load_trace,
                           make_channel_templates, poisson_event_times,
                           snr_amplitude_budget, split_indices, split_trials,
                           store_labels, store_session, store_trace,
                           tier_config, trials_to_bins)

WINDOW_LEN = 32


# --- traces -----------------------------------------------------------------


def test_trace_shape_and_dtype(easy_trace):
    trace, labels = easy_trace
    assert trace.data.dtype == np.int8
    assert trace.data.shape == (4, 8 * 30000)
    assert trace.n_channels == 4
    assert trace.duration_s == pytest.approx(8.0)


def test_labels_sorted_with_refractory_gap(easy_trace):
    _, labels = easy_trace
    assert len(labels) > 0
    assert np.all(np.diff(labels.t) >= 0)
    for ch in range(4):
        sub = labels.for_channel(ch)
        assert len(sub) > 10
        assert np.diff(sub[:, 0]).min() >= WINDOW_LEN
        assert sub[:, 2].max() < 2  # easy tier: two units per channel
        assert sub[:, 0].max() <= 8 * 30000 - WINDOW_LEN


def test_generation_is_deterministic():
    cfg = tier_config("medium", n_channels=2, duration_s=2.0)
    t1, l1 = gen_spike_trace(cfg, seed=99)
    t2, l2 = gen_spike_trace(cfg, seed=99)
    assert np.array_equal(t1.data, t2.data)
    assert np.array_equal(l1.events, l2.events)
    t3, _ = gen_spike_trace(cfg, seed=100)
    assert not np.array_equal(t1.data, t3.data)


def test_tier_presets():
    assert tier_config("easy").neurons_per_channel == 2
    assert tier_config("medium").neurons_per_channel == 3
    assert tier_config("hard").neurons_per_channel == 4
    with pytest.raises(ValueError):
        tier_config("impossible")


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(neurons_per_channel=5).validate()
    with pytest.raises(ValueError):
        TraceConfig(neurons_per_channel=1).validate()
    with pytest.raises(ValueError):
        TraceConfig(duration_s=0.0).validate()
    with pytest.raises(ValueError):
        TraceConfig(shape_similarity=1.5).validate()


# --- amplitude budget ---------------------------------------------------------


def test_amplitude_budget_formula():
    assert snr_amplitude_budget(math.inf) == 110.0
    # high SNR is capped so 4 sigma of noise still fits above the extremum
    assert snr_amplitude_budget(60.0) == 110.0
    assert snr_amplitude_budget(20.0) == pytest.approx(127.0 / 1.4)
    # budget shrinks monotonically as SNR drops
    grid = np.linspace(-10, 40, 26)
    budgets = [snr_amplitude_budget(s) for s in grid]
    assert all(b1 >= b0 for b0, b1 in zip(budgets, budgets[1:]))


def test_low_snr_raises_clipping_error():
    rng = np.random.default_rng(0)
    with pytest.raises(ClippingError):
        make_channel_templates(rng, 2, snr_db=-6.0)
    # just above the cutoff it still works
    tpl = make_channel_templates(np.random.default_rng(0), 2, snr_db=-4.0)
    assert tpl.shape == (2, WINDOW_LEN)


def test_clipping_error_is_a_value_error():
    assert issubclass(ClippingError, ValueError)


def test_identical_shapes_at_full_similarity():
    rng = np.random.default_rng(3)
    tpl = make_channel_templates(rng, 3, snr_db=25.0, amp_spread=(0.4, 1.0),
                                 shape_similarity=1.0)
    # rows must be amplitude-scaled copies of one waveform
    ref = tpl[-1] / np.max(np.abs(tpl[-1]))
    for row in tpl:
        assert np.allclose(row / np.max(np.abs(row)), ref, atol=1e-12)


def test_independent_shapes_at_zero_similarity():
    rng = np.random.default_rng(3)
    tpl = make_channel_templates(rng, 3, snr_db=25.0, shape_similarity=0.0)
    a = tpl[0] / np.max(np.abs(tpl[0]))
    b = tpl[1] / np.max(np.abs(tpl[1]))
    assert not np.allclose(a, b, atol=1e-3)


# --- event times --------------------------------------------------------------


def test_poisson_rate_and_refractory():
    rng = np.random.default_rng(7)
    n_samples = 30000 * 30
    times = poisson_event_times(rng, 40.0, n_samples, 30000)
    assert np.diff(times).min() >= WINDOW_LEN
    assert times.max() < n_samples - WINDOW_LEN
    # 40 Hz for 30 s -> about 1200 events (refractory thinning costs a few %)
    assert 900 <= len(times) <= 1300


def test_zero_rate_gives_no_events():
    rng = np.random.default_rng(7)
    assert len(poisson_event_times(rng, 0.0, 30000, 30000)) == 0


# --- reach sessions -----------------------------------------------------------


def test_session_layout(small_session):
    s = small_session
    assert s.counts.shape == (s.n_bins, 24)
    assert s.velocity.shape == (s.n_bins, 2)
    assert len(s.trials) == 8 * 4
    assert s.n_bins == len(s.trials) * 20  # out + back, 10 bins each
    assert list(s.unit_channels) == [j // 3 for j in range(24)]
    targets = sorted({tr.target_rad for tr in s.trials})
    assert len(targets) == 8
    assert targets == pytest.approx([k * math.pi / 4 for k in range(8)])


def test_session_velocity_out_and_back(small_session):
    s = small_session
    tr = s.trials[0]
    bins = s.trial_bins(0)
    v = s.velocity[bins]
    out, back = v[:10], v[10:]
    direction = np.array([math.cos(tr.target_rad), math.sin(tr.target_rad)])
    # outward phase moves along the target direction, return opposes it
    assert np.dot(out.sum(axis=0), direction) > 0
    assert np.dot(back.sum(axis=0), direction) < 0
    # displacement integrates to roughly zero (closed loop)
    assert np.abs(v.sum(axis=0)).max() * s.bin_ms / 1000.0 < 1.0


def test_counts_scale_with_tuning(small_session):
    s = small_session
    rates = np.array([tc.baseline_hz for tc in s.tuning])
    observed = s.counts.mean(axis=0) / (s.bin_ms / 1000.0)
    # baseline is a lower bound; tuned units add directional gain on top
    assert np.all(observed > rates * 0.5)


def test_untuned_fraction_zeroes_gains():
    cfg = SessionConfig(n_units=40, trials_per_target=2, untuned_fraction=0.5)
    s = gen_reach_session(cfg, seed=2)
    gains = np.array([tc.gain_hz_per_mm_s for tc in s.tuning])
    n_flat = int((gains == 0.0).sum())
    assert 10 <= n_flat <= 30  # binomial around 20
    with pytest.raises(ValueError):
        SessionConfig(untuned_fraction=1.5).validate()


# --- train/test split ---------------------------------------------------------


def _session_with_n_trials(n, bins_per_trial=20, n_units=4):
    from nsp.synthdata import ReachSession, TrialInfo
    n_bins = n * bins_per_trial
    return ReachSession(
        velocity=np.zeros((n_bins, 2)),
        counts=np.zeros((n_bins, n_units), dtype=np.int64),
        bin_ms=100,
        trials=[TrialInfo(0.0, i * bins_per_trial, (i + 1) * bins_per_trial)
                for i in range(n)],
        tuning=[], unit_channels=[0] * n_units)


def test_split_trials_80_20():
    s = gen_reach_session(SessionConfig(n_units=6, trials_per_target=1), seed=0)
    assert len(s.trials) == 8
    train, test = split_trials(s, 0.8, seed=1)
    assert len(train) == 6 and len(test) == 2
    assert sorted(train + test) == list(range(8))

    # ten trials at 0.8 -> 8 train / 2 test
    s10 = _session_with_n_trials(10)
    sub = split_trials(s10, 0.8, seed=1)
    assert (len(sub[0]), len(sub[1])) == (8, 2)


def test_split_trials_deterministic_and_bounded():
    s = gen_reach_session(SessionConfig(n_units=6, trials_per_target=1), seed=0)
    assert split_trials(s, 0.5, seed=3) == split_trials(s, 0.5, seed=3)
    assert split_trials(s, 0.5, seed=3) != split_trials(s, 0.5, seed=4)
    # extreme fractions still leave at least one trial on each side
    train, test = split_trials(s, 0.999, seed=0)
    assert len(test) == 1
    train, test = split_trials(s, 0.001, seed=0)
    assert len(train) == 1
    with pytest.raises(ValueError):
        split_trials(s, 1.2, seed=0)


def test_split_trials_is_split_indices_over_trials():
    s = _session_with_n_trials(10)
    for seed in range(5):
        train, test = split_trials(s, 0.7, seed=seed)
        want = split_indices(10, 0.7, seed)
        assert (train, test) == (want[0].tolist(), want[1].tolist())
        # plain ints: the ids go into the decoder's JSON meta
        assert all(type(i) is int for i in train + test)


def test_trials_to_bins_covers_each_trial():
    s = gen_reach_session(SessionConfig(n_units=6, trials_per_target=1), seed=0)
    bins = trials_to_bins(s, [0, 3])
    expected = np.concatenate([s.trial_bins(0), s.trial_bins(3)])
    assert np.array_equal(bins, np.sort(expected))


# --- file round-trips ---------------------------------------------------------


def test_trace_round_trip(tmp_path, easy_trace):
    trace, _ = easy_trace
    p = str(tmp_path / "trace.nsp")
    store_trace(trace, p)
    back = load_trace(p)
    assert np.array_equal(back.data, trace.data)
    assert back.sample_rate == trace.sample_rate


def test_labels_round_trip(tmp_path, easy_trace):
    _, labels = easy_trace
    p = str(tmp_path / "labels.jsonl")
    store_labels(labels, p)
    back = load_labels(p)
    assert np.array_equal(back.events, labels.events)


def test_session_round_trip_is_exact(tmp_path, small_session):
    p = str(tmp_path / "session.csv")
    store_session(small_session, p)
    back = load_session(p)
    # velocities survive the text round-trip bit for bit (repr of float)
    assert np.array_equal(back.velocity, small_session.velocity)
    assert np.array_equal(back.counts, small_session.counts)
    assert back.bin_ms == small_session.bin_ms
    assert back.unit_channels == list(small_session.unit_channels)
    assert len(back.trials) == len(small_session.trials)
    assert back.trials[3].target_rad == small_session.trials[3].target_rad


def test_corrupt_files_raise_schema_errors(tmp_path):
    p = tmp_path / "bad.nsp"
    p.write_bytes(b"XX")
    with pytest.raises(HeaderError):
        load_trace(str(p))

    good = tmp_path / "short.nsp"
    trace, _ = gen_spike_trace(tier_config("easy", 1, 1.0), seed=0)
    store_trace(trace, str(good))
    blob = good.read_bytes()
    (tmp_path / "trunc.nsp").write_bytes(blob[:-10])
    with pytest.raises(PayloadError):
        load_trace(str(tmp_path / "trunc.nsp"))

    bad_labels = tmp_path / "bad.jsonl"
    bad_labels.write_text('{"t": 5, "ch": 0}\n')
    with pytest.raises(PayloadError):
        load_labels(str(bad_labels))

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("nope\n")
    with pytest.raises(HeaderError):
        load_session(str(bad_csv))

    for exc in (HeaderError, VersionError, PayloadError):
        assert issubclass(exc, DatasetFormatError)


@pytest.mark.parametrize("edit", [
    lambda side, n_bins: side["trials"][0].update(start_bin=1.5),
    lambda side, n_bins: side["trials"][0].update(start_bin=True),
    lambda side, n_bins: side["trials"][0].update(start_bin="0"),
    lambda side, n_bins: side["trials"][0].update(start_bin=-1),
    lambda side, n_bins: side["trials"][0].update(end_bin=side["trials"][0]["start_bin"]),
    lambda side, n_bins: side["trials"][1].update(end_bin=side["trials"][1]["start_bin"] - 1),
    lambda side, n_bins: side["trials"][-1].update(end_bin=n_bins + 1),
    lambda side, n_bins: side["trials"][0].update(end_bin=None),
    lambda side, n_bins: side.update(unit_channels=side["unit_channels"][:-1]),
    lambda side, n_bins: side.update(unit_channels=side["unit_channels"] + [0]),
    lambda side, n_bins: side.update(unit_channels=[1.0] + side["unit_channels"][1:]),
    lambda side, n_bins: side.update(unit_channels=[False] + side["unit_channels"][1:]),
    lambda side, n_bins: side.update(unit_channels="0" * len(side["unit_channels"])),
    lambda side, n_bins: side.pop("unit_channels"),
], ids=["start-float", "start-bool", "start-str", "start-negative", "empty-trial",
        "end-before-start", "end-past-last-bin", "end-null", "channels-short",
        "channels-long", "channel-float", "channel-bool", "channels-str",
        "channels-missing"])
def test_session_sidecar_bounds_and_channels_are_checked(tmp_path, small_session, edit):
    p = tmp_path / "s.csv"
    store_session(small_session, str(p))
    side_path = tmp_path / "s.csv.json"
    side = json.loads(side_path.read_text())
    edit(side, small_session.n_bins)
    side_path.write_text(json.dumps(side))
    with pytest.raises(PayloadError, match="malformed session sidecar"):
        load_session(str(p))


def test_session_missing_sidecar(tmp_path, small_session):
    p = str(tmp_path / "s.csv")
    store_session(small_session, p)
    (tmp_path / "s.csv.json").unlink()
    with pytest.raises(PayloadError):
        load_session(p)
