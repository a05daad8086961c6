import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import observe_online
from nsp import detect_trace, estimate_threshold, gen_spike_trace, tier_config
from nsp.detect import Completion, Tokens
from nsp.sort_online import (DECAY_PERIOD, OUTLIER, SPIKE_BUDGET, STATUS_STRONG,
                             STATUS_WEAK, OnlineSorterModel, _nearest_valid,
                             feature_histograms, find_boundaries, fit_online,
                             locate_partition, train_online)
from nsp.sort_offline import load_models, model_footprint, store_models


def _cluster_tokens(rng, centers, n_per, channel=0):
    """Token stream drawn round-robin from 2-D Gaussian feature clusters."""
    toks = []
    for k in range(n_per):
        for f1c, f2c in centers:
            f1 = int(np.clip(round(rng.normal(f1c, 4)), -128, 127))
            f2 = int(np.clip(round(rng.normal(f2c, 4)), -128, 127))
            t = len(toks) * 40
            toks.append(Completion(cycle=t + 31, channel=channel, t=t, f1=f1, f2=f2))
    return toks


# --- histograms and boundaries --------------------------------------------


def test_histogram_binning():
    counts = feature_histograms([0, -128, -127, 126, 127, 1000, -1000], [1] * 7)
    assert counts.shape == (2, 128)
    assert counts[0, 64] == 1
    assert counts[0, 0] == 3          # -128, -127 and the clamped -1000
    assert counts[0, 127] == 3        # 126, 127 and the clamped 1000
    assert counts[1, 64] == 7
    assert counts.sum() == 14


def test_boundary_is_the_valley_midpoint_bin_value():
    counts = np.zeros((2, 128), dtype=np.int64)
    counts[0, [20, 100]] = 10
    # smoothing spreads each peak two bins; the valley is the zero run 23..97,
    # whose midpoint bin 60 holds the values 2 * 60 - 128 and one above
    assert find_boundaries(counts) == ([-8], [])


def test_find_boundaries_bimodal():
    rng = np.random.default_rng(0)
    f1 = np.where(rng.random(600) < 0.5, rng.normal(-60, 5, 600),
                  rng.normal(40, 5, 600)).astype(int)
    b1, b2 = find_boundaries(feature_histograms(f1, np.zeros_like(f1)))
    assert len(b1) == 1
    assert -45 <= b1[0] <= 25  # single cut in the gap between the modes
    assert b2 == []  # f2 was constant: no interior valley


def test_boundaries_capped_at_three():
    rng = np.random.default_rng(1)
    centers = np.array([-100, -50, 0, 50, 100])
    f1 = rng.normal(centers[rng.integers(0, 5, 3000)], 3).astype(int)
    b1, _ = find_boundaries(feature_histograms(f1, np.zeros_like(f1)))
    assert len(b1) == 3
    assert b1 == sorted(b1)


def test_locate_partition_upper_side_on_tie():
    bounds = ([0], [-10, 10])
    assert locate_partition(-1, -11, bounds) == (0, 0)
    assert locate_partition(0, -10, bounds) == (1, 1)  # equality goes up
    assert locate_partition(5, 10, bounds) == (1, 2)


# --- CAM statuses -------------------------------------------------------------


@pytest.mark.parametrize("n,status", [
    (1, 1),      # a miss inserts at outlier
    (2, 2),      # a hit raises one step
    (5, 3),      # ... and saturates at strong
    (64, 2),     # one full block: strong, then one decay step
    (127, 3),    # the second block is partial, so it does not decay
    (128, 2),
])
def test_one_cell_status_rises_per_hit_and_decays_per_block(n, status):
    model = fit_online([7] * n, [-7] * n)
    assert model.boundaries == ([], [])
    assert model.cam_snapshot == [(0, 0, status)]


def test_decay_follows_the_block_increments_and_frees_entries():
    # 64 spikes replay through the CAM as one full block
    f1 = [40] + [-60] * 63
    model = fit_online(f1, [0] * len(f1))
    assert model.boundaries == ([-10], [])
    # (1, 0) was hit once: outlier, then decayed to vacant and freed
    assert model.cam_snapshot == [(0, 0, STATUS_WEAK)]
    # one more spike opens a second, partial block
    model = fit_online(f1 + [40], [0] * (len(f1) + 1))
    assert model.cam_snapshot == [(0, 0, STATUS_WEAK), (1, 0, 1)]


def test_cam_phase_reads_only_the_spikes_after_the_budget():
    f1 = [-60, 40] * (SPIKE_BUDGET // 2)
    replayed = fit_online(f1, [0] * SPIKE_BUDGET)
    assert replayed.cam_snapshot == [(0, 0, STATUS_WEAK), (1, 0, STATUS_WEAK)]
    after = fit_online(f1 + [40] * 3, [0] * (SPIKE_BUDGET + 3))
    assert after.boundaries == replayed.boundaries
    assert after.cam_snapshot == [(1, 0, STATUS_STRONG)]


def test_nearest_valid_partition():
    valid = [(0, 0), (2, 1)]
    assert _nearest_valid((0, 0), valid) == 0
    assert _nearest_valid((2, 1), valid) == 1
    assert _nearest_valid((0, 1), valid) == 0  # L1 distance 1 vs 2
    assert _nearest_valid((1, 1), valid) == 1  # distance 2 vs 1
    # equidistant: lexicographically smaller partition wins
    assert _nearest_valid((1, 0), valid) == 0
    assert _nearest_valid((0, 0), []) == OUTLIER


# --- trainer against the per-token oracle -------------------------------------


def _feature_stream(seed, n, n_clusters, spread, wide):
    """n features drawn from n_clusters Gaussian clusters; *wide* puts cluster
    centres up to 150 from zero and sends a few spikes to +-1000, outside int8."""
    rng = np.random.default_rng(seed)
    lim = 150 if wide else 100
    centers = rng.integers(-lim, lim + 1, (n_clusters, 2))
    f = centers[rng.integers(0, n_clusters, n)] + np.round(
        rng.normal(0, spread, (n, 2))).astype(np.int64)
    if wide:
        far = rng.random(n) < 0.02
        f[far] = rng.integers(-1000, 1001, (int(far.sum()), 2))
    return f[:, 0], f[:, 1]


_LENGTHS = st.one_of(
    st.integers(0, 3000),
    st.builds(lambda k, d: max(SPIKE_BUDGET + DECAY_PERIOD * k + d, 0),
              st.integers(-8, 38), st.integers(-1, 1)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=_LENGTHS, n_clusters=st.integers(1, 5),
       spread=st.integers(1, 20), wide=st.booleans())
@example(seed=1, n=SPIKE_BUDGET - 1, n_clusters=3, spread=4, wide=False)
@example(seed=2, n=SPIKE_BUDGET, n_clusters=3, spread=4, wide=False)
@example(seed=3, n=SPIKE_BUDGET + 1, n_clusters=3, spread=4, wide=False)
@example(seed=4, n=SPIKE_BUDGET + DECAY_PERIOD, n_clusters=2, spread=6, wide=True)
@example(seed=5, n=SPIKE_BUDGET + DECAY_PERIOD + 1, n_clusters=4, spread=3, wide=True)
def test_fit_online_equals_the_per_token_trainer(seed, n, n_clusters, spread, wide):
    f1, f2 = _feature_stream(seed, n, n_clusters, spread, wide)
    assert fit_online(f1, f2) == observe_online(f1, f2)


def test_two_cluster_stream_recovers_two_clusters():
    rng = np.random.default_rng(7)
    toks = _cluster_tokens(rng, [(-60, 50), (40, -40)], n_per=600)
    models = train_online(toks)
    model = models[0]
    assert model.n_clusters == 2
    # the cluster centers themselves classify into distinct ids
    a = model.classify(-60, 50)
    b = model.classify(40, -40)
    assert {a, b} == {0, 1}


def test_short_stream_replays_histogram_spikes():
    rng = np.random.default_rng(8)
    toks = _cluster_tokens(rng, [(-60, 50), (40, -40)], n_per=100)  # 200 < budget
    models = train_online(toks)
    model = models[0]
    assert model.n_clusters >= 2  # replay path still yields a usable model
    assert model.classify(-60, 50) != model.classify(40, -40)


def test_streaming_equals_batch_training():
    rng = np.random.default_rng(9)
    toks = _cluster_tokens(rng, [(-70, 60), (10, 0), (70, -60)], n_per=500)
    m1 = train_online(toks)[0]
    m2 = observe_online([tok.f1 for tok in toks], [tok.f2 for tok in toks])
    assert m1.boundaries == m2.boundaries
    assert m1.cam_snapshot == m2.cam_snapshot


def test_tokens_train_like_per_token_observe_per_channel():
    rng = np.random.default_rng(13)
    a = _cluster_tokens(rng, [(-60, 50), (40, -40)], n_per=300, channel=2)
    b = _cluster_tokens(rng, [(-30, 30), (60, -60)], n_per=300, channel=0)
    toks = [tok for pair in zip(a, b) for tok in pair]    # channels interleaved
    models = train_online(Tokens.of(toks))
    assert sorted(models) == [0, 2]
    for ch, stream in ((0, b), (2, a)):
        assert models[ch] == observe_online([tok.f1 for tok in stream],
                                            [tok.f2 for tok in stream])
    assert train_online(Tokens.of([])) == {}


def test_train_online_keys_by_channel():
    rng = np.random.default_rng(10)
    toks = (_cluster_tokens(rng, [(-60, 50), (40, -40)], n_per=300, channel=2)
            + _cluster_tokens(rng, [(-30, 30), (60, -60)], n_per=300, channel=0))
    models = train_online(toks)
    assert sorted(models) == [0, 2]


# Online models of detected channels, recorded with the per-token trainer:
# a 120 Hz medium trace (every channel past the spike budget) and the 30 Hz
# easy trace of the CLI pipeline (every channel replayed).
PINNED_ONLINE_MODELS = {
    ("medium", 3, 120.0, 41): [
        {"boundaries": [[44], [-92, -68, -30]],
         "cam": [{"i": 0, "j": 1, "status": 3}, {"i": 0, "j": 2, "status": 3},
                 {"i": 1, "j": 0, "status": 3}, {"i": 1, "j": 1, "status": 2}]},
        {"boundaries": [[42], [-92, -68]],
         "cam": [{"i": 0, "j": 1, "status": 2}, {"i": 0, "j": 2, "status": 3},
                 {"i": 1, "j": 0, "status": 3}, {"i": 1, "j": 1, "status": 1}]},
        {"boundaries": [[34, 54], [-88, -66]],
         "cam": [{"i": 0, "j": 2, "status": 3}, {"i": 1, "j": 1, "status": 3},
                 {"i": 1, "j": 2, "status": 1}, {"i": 2, "j": 0, "status": 3},
                 {"i": 2, "j": 1, "status": 1}]},
    ],
    ("easy", 2, None, 42): [
        {"boundaries": [[16, 38, 44], [-80, -34, -20]],
         "cam": [{"i": 1, "j": 1, "status": 3}, {"i": 1, "j": 3, "status": 2},
                 {"i": 2, "j": 0, "status": 1}, {"i": 2, "j": 1, "status": 3},
                 {"i": 3, "j": 0, "status": 3}, {"i": 3, "j": 1, "status": 1}]},
        {"boundaries": [[32], [-82, -36, -18]],
         "cam": [{"i": 0, "j": 1, "status": 3}, {"i": 0, "j": 2, "status": 1},
                 {"i": 0, "j": 3, "status": 3}, {"i": 1, "j": 0, "status": 3}]},
    ],
}


@pytest.mark.parametrize("tier,n_channels,rate_hz,seed", PINNED_ONLINE_MODELS)
def test_online_models_are_pinned(tier, n_channels, rate_hz, seed):
    rate = {} if rate_hz is None else {"firing_rate_hz": rate_hz}
    trace, _ = gen_spike_trace(tier_config(tier, n_channels=n_channels, duration_s=6.0,
                                           **rate), seed=seed)
    _, tokens = detect_trace(trace, [estimate_threshold(row) for row in trace.data])
    models = train_online(tokens)
    pinned = PINNED_ONLINE_MODELS[tier, n_channels, rate_hz, seed]
    assert [models[ch].to_json() for ch in sorted(models)] == [
        {"kind": "online", **m} for m in pinned]


def _brute_force_labels(model) -> np.ndarray:
    """Nearest-valid-partition cluster of every int8 (f1, f2) pair, as a
    (256, 256) array indexed [f1 + 128, f2 + 128], computed directly from the
    boundaries and the CAM snapshot."""
    values = np.arange(-128, 128)
    i = np.array([sum(v >= b for b in model.boundaries[0]) for v in values])
    j = np.array([sum(v >= b for b in model.boundaries[1]) for v in values])
    valid = sorted((a, b) for a, b, status in model.cam_snapshot
                   if status >= STATUS_WEAK)
    if not valid:
        return np.full((256, 256), OUTLIER)
    keys = np.array(valid)
    dist = (np.abs(i[:, None, None] - keys[None, None, :, 0])
            + np.abs(j[None, :, None] - keys[None, None, :, 1]))
    return np.argmin(dist, axis=2)   # first minimum = lexicographically smallest


@pytest.mark.parametrize("centers", [
    [(-60, 50), (40, -40)],
    [(-70, 60), (10, 0), (70, -60)],
    [(-90, -90), (-30, 30), (30, -30), (90, 90)],
    None,     # a model whose CAM holds no entry at weak status or above
])
def test_table_classify_equals_brute_force(centers):
    if centers is None:
        model = OnlineSorterModel(boundaries=([-40, 0, 40], [0]),
                                  cam_snapshot=[(0, 0, 1), (2, 1, 1), (3, 0, 1)])
        assert model.valid() == []
    else:
        rng = np.random.default_rng(12)
        model = train_online(_cluster_tokens(rng, centers, n_per=400))[0]
    want = _brute_force_labels(model)
    got = np.array([[model.classify(f1, f2) for f2 in range(-128, 128)]
                    for f1 in range(-128, 128)])
    np.testing.assert_array_equal(got, want)
    f1, f2 = np.meshgrid(np.arange(-128, 128), np.arange(-128, 128), indexing="ij")
    many = model.classify_many(f1.ravel(), f2.ravel())
    assert many.dtype == np.int64
    np.testing.assert_array_equal(many.reshape(256, 256), got)
    # the table is derived state: the serialized form carries only the model
    obj = model.to_json()
    assert set(obj) == {"kind", "boundaries", "cam"}
    assert OnlineSorterModel.from_json(obj).to_json() == obj


# --- persistence --------------------------------------------------------------


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    toks = _cluster_tokens(rng, [(-60, 50), (40, -40)], n_per=600)
    models = train_online(toks)
    p = str(tmp_path / "online.json")
    store_models(models, p)
    back = load_models(p)
    assert sorted(back) == sorted(models)
    m0, b0 = models[0], back[0]
    assert [list(b) for b in b0.boundaries] == [list(b) for b in m0.boundaries]
    assert sorted(b0.cam_snapshot) == sorted(m0.cam_snapshot)
    for f1, f2 in ((-60, 50), (40, -40), (0, 0), (127, -128)):
        assert b0.classify(f1, f2) == m0.classify(f1, f2)


def test_footprint_counts_cut_registers_and_table_cells():
    full = OnlineSorterModel(boundaries=([-40, 0, 40], [-10, 10, 30]),
                             cam_snapshot=[(0, 0, STATUS_STRONG)])
    # six int8 cut registers plus sixteen 5-bit cells (ranks 0..15 + outlier)
    assert model_footprint(full) == full.footprint_bits() == 6 * 8 + 16 * 5
    one_cut = OnlineSorterModel(boundaries=([0], []), cam_snapshot=[])
    assert model_footprint(one_cut) == 8 + 2 * 5
    bare = OnlineSorterModel(boundaries=([], []), cam_snapshot=[])
    assert model_footprint(bare) == 5


def test_from_json_rejects_other_kinds():
    from nsp.synthdata import PayloadError
    with pytest.raises(PayloadError):
        OnlineSorterModel.from_json({"kind": "tree"})
