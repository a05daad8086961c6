import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import feature_dataset_per_row, match_events_loop, scan_tokens
from nsp.detect import Tokens, detect_trace, estimate_threshold
from nsp.evaluation import (DECODER_BENCHMARK, MATCH_TOLERANCE, calibrate,
                            channel_feature_dataset, confusion_matrix,
                            evaluate_channel_sorters,
                            majority_leaf_labels, mapped_accuracy,
                            match_events, matched_features,
                            parity_benchmark_configs,
                            permutation_accuracy, run_decoder_benchmark,
                            run_parity_benchmark, split_indices)
from nsp.sort_offline import ChannelSorterModel, L1TemplateModel, train_channel_model
from nsp.sort_online import fit_online
from nsp.synthdata import (GroundTruthLabels, RawTrace, TraceConfig, gen_spike_trace,
                           tier_config)


# --- event matching ---------------------------------------------------------


def test_match_events_exact():
    pairs = match_events([100, 200], [100, 200])
    assert pairs.tolist() == [[0, 0], [1, 1]]


def test_match_tolerance_boundary():
    assert match_events([100], [100 + MATCH_TOLERANCE]).tolist() == [[0, 0]]
    assert match_events([100], [101 + MATCH_TOLERANCE]).size == 0


def test_each_truth_event_matches_once():
    pairs = match_events([100, 101], [100])
    assert pairs.tolist() == [[0, 0]]


def test_match_prefers_nearest():
    assert match_events([105], [100, 108]).tolist() == [[0, 1]]


def test_match_empty_inputs():
    assert match_events([], [1, 2]).shape == (0, 2)
    assert match_events([5], []).shape == (0, 2)


# --- scoring primitives -------------------------------------------------------


_GAPS = st.one_of(st.integers(0, 6), st.integers(0, 2 * MATCH_TOLERANCE + 2),
                  st.sampled_from([MATCH_TOLERANCE, MATCH_TOLERANCE + 1,
                                   2 * MATCH_TOLERANCE]))


@settings(max_examples=150, deadline=None)
@given(tok_gaps=st.lists(_GAPS, max_size=40), tru_gaps=st.lists(_GAPS, max_size=40),
       shift=st.integers(-MATCH_TOLERANCE - 1, MATCH_TOLERANCE + 1))
@example(tok_gaps=[0, 1, 1, 1, 1], tru_gaps=[0, 2], shift=0)            # dense contention
@example(tok_gaps=[10, 0, 0], tru_gaps=[0, 20, 20], shift=0)            # equal distances
@example(tok_gaps=[0], tru_gaps=[0, MATCH_TOLERANCE + 1], shift=-MATCH_TOLERANCE)
@example(tok_gaps=[0], tru_gaps=[0, 2 * MATCH_TOLERANCE + 1], shift=-MATCH_TOLERANCE - 1)
def test_match_events_equals_the_per_token_loop(tok_gaps, tru_gaps, shift):
    """Ascending streams with runs of tokens contending for the same events,
    events equally far from a token and gaps at the tolerance's edge."""
    tok, tru = np.cumsum(tok_gaps, dtype=np.int64), np.cumsum(tru_gaps, dtype=np.int64) + shift
    got = match_events(tok, tru)
    assert got.dtype == np.int64 and got.shape[1] == 2
    assert np.array_equal(got, match_events_loop(tok, tru))


def test_confusion_matrix_counts():
    mat, pv, tv = confusion_matrix([0, 0, 1, 2], [5, 5, 6, 6])
    assert mat.tolist() == [[2, 0], [0, 1], [0, 1]]
    assert pv.tolist() == [0, 1, 2] and tv.tolist() == [5, 6]


def test_permutation_accuracy_is_label_invariant():
    truth = [0, 0, 1, 1, 2]
    assert permutation_accuracy([2, 2, 0, 0, 1], truth) == 1.0


def test_permutation_accuracy_partial():
    # cluster 0 -> unit 0 scores 2, cluster 1 -> unit 1 scores 1
    assert permutation_accuracy([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_split_clusters_cannot_double_claim_a_unit():
    # two clusters covering one unit: only one of them may claim it
    assert permutation_accuracy([0, 1, 2, 2], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_outliers_never_score():
    assert permutation_accuracy([-1, -1], [0, 0]) == 0.0
    assert permutation_accuracy([], []) == 0.0


def test_majority_leaf_labels():
    assert majority_leaf_labels([0, 0, 0, 1, 1], [7, 7, 3, 5, 5]) == {0: 7, 1: 5}
    assert majority_leaf_labels([0, 0], [4, 2]) == {0: 2}  # tie -> smaller unit
    assert majority_leaf_labels([-1, 0], [1, 9]) == {0: 9}


def test_mapped_accuracy():
    acc = mapped_accuracy([0, 1, -1, 0], [7, 5, 7, 5], {0: 7, 1: 5})
    assert acc == pytest.approx(0.5)
    assert mapped_accuracy([], [], {}) == 0.0


# --- splits -------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-1, 4), st.integers(0, 5)), max_size=40),
       leaf_map=st.none() | st.dictionaries(st.integers(-1, 5), st.integers(0, 6)))
def test_leaf_labels_and_mapped_accuracy_count_every_event(rows, leaf_map):
    """Both against a count over the (leaf, unit) rows one event at a time."""
    leaves, truth = [lf for lf, _ in rows], [u for _, u in rows]
    majority = {}
    for leaf in sorted(set(leaves) - {-1}):
        units = [u for lf, u in rows if lf == leaf]
        majority[leaf] = min(set(units), key=lambda u: (-units.count(u), u))
    assert majority_leaf_labels(leaves, truth) == majority
    leaf_map = majority if leaf_map is None else leaf_map
    hits = sum(1 for lf, u in rows if lf >= 0 and leaf_map.get(lf) == u)
    assert mapped_accuracy(leaves, truth, leaf_map) == (hits / len(rows) if rows else 0.0)


def test_split_indices_partition():
    tr, te = split_indices(10, 0.8, seed=3)
    assert tr.size == 8 and te.size == 2
    assert sorted(np.concatenate([tr, te]).tolist()) == list(range(10))
    tr2, te2 = split_indices(10, 0.8, seed=3)
    assert np.array_equal(tr, tr2) and np.array_equal(te, te2)


def test_split_indices_keeps_both_sides_nonempty():
    tr, te = split_indices(2, 0.99, seed=0)
    assert tr.size == 1 and te.size == 1
    tr, te = split_indices(5, 0.01, seed=0)
    assert tr.size == 1 and te.size == 4


# --- per-channel sorter evaluation ------------------------------------------------


def test_channel_feature_dataset_matches_truth(easy_trace):
    trace, labels = easy_trace
    feats, labs, n_det, n_truth = channel_feature_dataset(trace, labels, 0)
    assert feats.shape == (labs.size, 2)
    assert feats.dtype == np.int64
    assert labs.size <= n_det
    assert n_truth == labels.for_channel(0).shape[0]
    assert set(np.unique(labs)) <= {0, 1}  # easy tier carries two units
    assert labs.size >= 0.8 * n_truth


def _per_window_dataset(trace, labels, ch):
    """channel_feature_dataset's oracle: float threshold, the sample-scan
    detector, and each matched window's max and min."""
    thr = estimate_threshold(trace.data[ch].astype(np.float64))
    _, toks = scan_tokens(trace.data, {ch: thr}, [ch])
    truth = labels.for_channel(ch)
    pairs = match_events([t.t for t in toks], truth[:, 0])
    feats = np.array([(toks[i].f1, toks[i].f2) for i in pairs[:, 0]],
                     dtype=np.int64).reshape(-1, 2)
    return feats, truth[pairs[:, 1], 2].astype(np.int64), len(toks), truth.shape[0]


@pytest.fixture(scope="module")
def medium_trace():
    return gen_spike_trace(tier_config("medium", n_channels=3, duration_s=8.0), seed=29)


@pytest.mark.parametrize("which", ["easy_trace", "medium_trace", "hard_trace"])
def test_feature_dataset_equals_the_per_window_path(which, request):
    """channel_feature_dataset is matched_features of detect_trace, channel by
    channel, and both equal the sample-scan oracle and the calibrate pass."""
    trace, labels = request.getfixturevalue(which)
    _, tokens = detect_trace(trace, [estimate_threshold(row) for row in trace.data])
    datasets = matched_features(tokens, labels)
    _, _, channels = calibrate(trace, labels)
    assert sorted(datasets) == list(range(trace.n_channels))
    perm = np.random.default_rng(0).permutation(len(tokens))
    shuffled = matched_features(Tokens(tokens.t[perm], tokens.channel[perm],
                                       tokens.f1[perm], tokens.f2[perm]), labels)
    assert all(np.array_equal(shuffled[ch][k], datasets[ch][k])
               for ch in datasets for k in (0, 1))
    for ch in range(trace.n_channels):
        feats, labs, n_det, n_truth = channel_feature_dataset(trace, labels, ch)
        ref_feats, ref_labs, ref_det, ref_truth = _per_window_dataset(trace, labels, ch)
        assert feats.dtype == labs.dtype == np.int64
        assert np.array_equal(feats, ref_feats) and np.array_equal(labs, ref_labs)
        assert (n_det, n_truth) == (ref_det, ref_truth)
        assert type(n_det) is int and type(n_truth) is int
        assert n_det == np.count_nonzero(tokens.channel == ch)
        assert n_truth == labels.for_channel(ch).shape[0]
        want_feats, want_labs = datasets[ch]
        assert want_feats.dtype == want_labs.dtype == np.int64
        assert np.array_equal(feats, want_feats) and np.array_equal(labs, want_labs)
        got_feats, got_labs, *counts = channels[ch]
        assert np.array_equal(feats, got_feats) and np.array_equal(labs, got_labs)
        assert counts == [n_det, n_truth]


def test_feature_dataset_without_matches():
    cfg = TraceConfig(n_channels=1, duration_s=1.0, firing_rate_hz=0.0)
    trace, labels = gen_spike_trace(cfg, seed=0)
    feats, labs, _, n_truth = channel_feature_dataset(trace, labels, 0)
    assert feats.shape == (0, 2) and labs.shape == (0,) and n_truth == 0
    assert matched_features(Tokens.of([]), labels) == {}
    (feats, labs), = matched_features(Tokens([5], [0], [3], [-4]), labels).values()
    assert feats.shape == (0, 2) and feats.dtype == np.int64 and labs.shape == (0,)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_calibrate_equals_the_per_row_oracle_on_chain_traces(seed):
    """A chain-shaped calibration recording, 96 medium-tier channels at 30 Hz:
    one pass gives every channel the features, unit ids and counts of
    detecting and matching that channel alone, and so the same tree."""
    trace, labels = gen_spike_trace(tier_config("medium", n_channels=96, duration_s=3.0,
                                                firing_rate_hz=30.0), seed=seed)
    thresholds, tokens, channels = calibrate(trace, labels)
    assert np.array_equal(thresholds, [estimate_threshold(row) for row in trace.data])
    assert len(channels) == 96
    assert len(tokens) == sum(n_det for *_, n_det, _ in channels)
    for ch, (feats, labs, n_det, n_truth) in enumerate(channels):
        ref_feats, ref_labs, ref_det, ref_truth = feature_dataset_per_row(trace, labels, ch)
        assert feats.dtype == labs.dtype == np.int64
        assert np.array_equal(feats, ref_feats) and np.array_equal(labs, ref_labs)
        assert (n_det, n_truth) == (ref_det, ref_truth)
        assert (train_channel_model(feats, labs).to_json()
                == train_channel_model(ref_feats, ref_labs).to_json())


def test_calibrate_gives_every_channel_an_entry(easy_trace):
    """A quiet row with label events but no detection, a row with detections
    but no label events, and label events on a channel the trace lacks."""
    trace, labels = easy_trace
    quiet, unlabelled = 1, 2
    data = trace.data.copy()
    data[quiet] = 0
    trace = RawTrace(data, sample_rate=trace.sample_rate)
    labels = GroundTruthLabels(np.vstack([labels.events[labels.ch != unlabelled],
                                          [[100, trace.n_channels, 0]]]))
    _, tokens, channels = calibrate(trace, labels)
    assert len(channels) == trace.n_channels
    n_quiet_truth = labels.for_channel(quiet).shape[0]
    n_unlabelled_det = int(np.count_nonzero(tokens.channel == unlabelled))
    assert n_quiet_truth > 0 and n_unlabelled_det > 0
    for ch, counts in [(quiet, (0, n_quiet_truth)), (unlabelled, (n_unlabelled_det, 0))]:
        feats, labs, n_det, n_truth = channels[ch]
        assert feats.shape == (0, 2) and labs.shape == (0,)
        assert feats.dtype == labs.dtype == np.int64
        assert (n_det, n_truth) == counts
    for ch, entry in enumerate(channels):
        want = channel_feature_dataset(trace, labels, ch)
        assert all(np.array_equal(a, b) for a, b in zip(entry[:2], want[:2]))
        assert entry[2:] == want[2:]


@pytest.mark.parametrize("channel", [-1, 2, 7])
def test_a_channel_the_trace_lacks_is_rejected(channel):
    trace, labels = gen_spike_trace(tier_config("easy", n_channels=2, duration_s=2.0), seed=5)
    for evaluate in (channel_feature_dataset, evaluate_channel_sorters):
        with pytest.raises(ValueError, match=rf"channel {channel}: the trace has channels 0\.\.1"):
            evaluate(trace, labels, channel)


def test_evaluate_channel_sorters_easy_channel(easy_trace):
    trace, labels = easy_trace
    res = evaluate_channel_sorters(trace, labels, 1, seed=7)
    assert res["n_train"] + res["n_test"] == res["n_matched"]
    assert res["tree_accuracy"] >= 0.9
    assert res["l1_accuracy"] >= 0.9
    assert isinstance(res["tree_model"], ChannelSorterModel)
    assert isinstance(res["l1_model"], L1TemplateModel)


def test_evaluate_channel_sorters_needs_events():
    cfg = TraceConfig(n_channels=1, duration_s=1.0, neurons_per_channel=2,
                      firing_rate_hz=0.0)
    trace, labels = gen_spike_trace(cfg, seed=2)
    with pytest.raises(ValueError, match="too few"):
        evaluate_channel_sorters(trace, labels, 0)


def test_online_sorter_evaluation(easy_trace):
    """Streamed over the first 3/4 of one channel's matched detections and
    then frozen, the online sorter sorts the rest."""
    trace, labels = easy_trace
    feats, labs, _, _ = channel_feature_dataset(trace, labels, 0)
    n_train = round(0.75 * feats.shape[0])
    model = fit_online(feats[:n_train, 0], feats[:n_train, 1])
    pred = model.classify_many(feats[n_train:, 0], feats[n_train:, 1])
    assert pred.size > 0
    assert permutation_accuracy(pred, labs[n_train:]) >= 0.9


# --- benchmark protocols ------------------------------------------------------------


def test_parity_benchmark_roster():
    configs = parity_benchmark_configs()
    assert len(configs) == 24
    tiers = [name for name, _ in configs]
    assert (tiers.count("easy"), tiers.count("medium"),
            tiers.count("hard"), tiers.count("noisy")) == (8, 6, 6, 4)
    by_name = dict(configs)
    assert by_name["easy"].neurons_per_channel == 2
    assert by_name["hard"].neurons_per_channel == 4
    assert by_name["noisy"].snr_db == 22.0
    assert by_name["noisy"].shape_similarity == 0.3


def test_parity_benchmark_short_smoke():
    out = run_parity_benchmark(seed_base=900, duration_s=6.0)
    assert len(out["rows"]) == 24
    for row in out["rows"]:
        assert 0.5 <= row["tree_accuracy"] <= 1.0
        assert 0.5 <= row["l1_accuracy"] <= 1.0
    assert out["max_abs_diff"] >= out["mean_abs_diff"] >= 0.0
    assert set(out["tier_means"]) == {"easy", "medium", "hard", "noisy"}
    assert out["tier_means"]["easy"]["n_channels"] == 8


def test_decoder_benchmark_smoke():
    out = run_decoder_benchmark(seed_base=700, n_sessions=2, n_units=48,
                                untuned_fraction=0.25, trials_per_target=2)
    assert len(out["rows"]) == 2
    for row in out["rows"]:
        assert row["n_selected"] >= 20
        assert np.isfinite(row["kf_mse"]) and row["kf_mse"] > 0
        assert np.isfinite(row["eokf_mse"]) and row["eokf_mse"] > 0
    assert out["kf_mean_mse"] == pytest.approx(
        np.mean([r["kf_mse"] for r in out["rows"]]))


def test_decoder_benchmark_defaults_document_the_protocol():
    assert DECODER_BENCHMARK == {"n_units": 96, "trials_per_target": 2,
                                 "untuned_fraction": 0.5, "train_frac": 0.8}
