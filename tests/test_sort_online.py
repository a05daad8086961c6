import numpy as np
import pytest

from nsp.detect import Completion, Tokens
from nsp.sort_online import (OUTLIER, STATUS_OUTLIER, STATUS_STRONG,
                             STATUS_WEAK, CamState, FeatureHistograms, OnlineSorter,
                             OnlineSorterModel, assign_cluster, cam_update,
                             find_boundaries, locate_partition,
                             train_online, update_histograms,
                             valid_partitions)
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
    h = FeatureHistograms()
    assert h.n_bins == 128
    assert h.bin_index(-128) == (0, False)
    assert h.bin_index(-127) == (0, False)
    assert h.bin_index(127) == (127, False)
    update_histograms(h, 0, -128)
    assert h.counts[0, 64] == 1
    assert h.counts[1, 0] == 1
    assert h.n_spikes == 1
    assert h.n_clamped == 0


def test_bin_value_round_trip():
    h = FeatureHistograms()
    for v in (-128, -57, 0, 33, 127):
        idx, _ = h.bin_index(v)
        # representative value lands back in the same bin
        assert h.bin_index(h.bin_value(idx)) == (idx, False)


def test_find_boundaries_bimodal():
    rng = np.random.default_rng(0)
    h = FeatureHistograms()
    for _ in range(600):
        f1 = int(rng.normal(-60, 5)) if rng.random() < 0.5 else int(rng.normal(40, 5))
        update_histograms(h, f1, 0)
    b1, b2 = find_boundaries(h)
    assert len(b1) == 1
    assert -45 <= b1[0] <= 25  # single cut in the gap between the modes
    assert b2 == []  # f2 was constant: no interior valley


def test_boundaries_capped_at_three():
    rng = np.random.default_rng(1)
    h = FeatureHistograms()
    centers = (-100, -50, 0, 50, 100)
    for _ in range(3000):
        c = centers[rng.integers(0, 5)]
        update_histograms(h, int(rng.normal(c, 3)), 0)
    b1, _ = find_boundaries(h)
    assert len(b1) == 3
    assert b1 == sorted(b1)


def test_locate_partition_upper_side_on_tie():
    bounds = ([0], [-10, 10])
    assert locate_partition(-1, -11, bounds) == (0, 0)
    assert locate_partition(0, -10, bounds) == (1, 1)  # equality goes up
    assert locate_partition(5, 10, bounds) == (1, 2)


# --- CAM ---------------------------------------------------------------


def test_cam_hit_saturates():
    cam = CamState(decay_period=10 ** 9)
    for _ in range(5):
        cam_update(cam, (1, 1))
    entry = cam.lookup((1, 1))
    assert entry.status == STATUS_STRONG


def test_cam_miss_inserts_as_outlier():
    cam = CamState(decay_period=10 ** 9)
    cam_update(cam, (2, 0))
    assert cam.lookup((2, 0)).status == STATUS_OUTLIER
    assert valid_partitions(cam) == []


def test_cam_decay_frees_entries():
    cam = CamState(decay_period=4)
    cam_update(cam, (0, 0))  # outlier
    cam_update(cam, (0, 0))  # weak
    cam_update(cam, (1, 1))  # outlier
    cam_update(cam, (2, 2))  # outlier, 4th spike -> global decay
    assert cam.lookup((0, 0)).status == STATUS_OUTLIER
    assert cam.lookup((1, 1)) is None  # decayed to vacant
    # the entry inserted on the decay tick decays too
    assert cam.lookup((2, 2)) is None


def test_cam_eviction_prefers_weakest_then_oldest():
    cam = CamState(capacity=2, decay_period=10 ** 9)
    cam_update(cam, (0, 0))
    cam_update(cam, (0, 0))          # (0,0) weak
    cam_update(cam, (1, 1))          # (1,1) outlier
    cam_update(cam, (2, 2))          # evicts (1,1), the weakest
    assert cam.lookup((1, 1)) is None
    assert cam.lookup((0, 0)) is not None
    assert cam.lookup((2, 2)).status == STATUS_OUTLIER


def test_assign_cluster_nearest_valid():
    cam = CamState(decay_period=10 ** 9)
    for _ in range(3):
        cam_update(cam, (0, 0))
        cam_update(cam, (2, 1))
    assert valid_partitions(cam) == [(0, 0), (2, 1)]
    assert assign_cluster((0, 0), cam) == 0
    assert assign_cluster((2, 1), cam) == 1
    assert assign_cluster((0, 1), cam) == 0  # L1 distance 1 vs 2
    assert assign_cluster((1, 1), cam) == 1  # distance 2 vs 1
    # equidistant: lexicographically smaller partition wins
    assert assign_cluster((1, 0), cam) == 0


def test_assign_cluster_without_valid_partitions():
    cam = CamState()
    assert assign_cluster((0, 0), cam) == OUTLIER


# --- two-phase trainer -------------------------------------------------------


def test_phase_transition_at_budget():
    sorter = OnlineSorter(budget=8)
    for i in range(8):
        assert sorter.in_histogram_phase
        sorter.observe(i, -i)
    assert not sorter.in_histogram_phase
    assert sorter.boundaries is not None
    assert sorter.cam.processed == 0
    sorter.observe(0, 0)
    assert sorter.cam.processed == 1


def test_two_cluster_stream_recovers_two_clusters():
    rng = np.random.default_rng(7)
    toks = _cluster_tokens(rng, [(-60, 50), (40, -40)], n_per=600)
    models = train_online(toks, budget=512)
    model = models[0]
    assert model.n_clusters == 2
    # the cluster centers themselves classify into distinct ids
    a = model.classify(-60, 50)
    b = model.classify(40, -40)
    assert {a, b} == {0, 1}


def test_short_stream_replays_histogram_spikes():
    rng = np.random.default_rng(8)
    toks = _cluster_tokens(rng, [(-60, 50), (40, -40)], n_per=100)  # 200 < budget
    models = train_online(toks, budget=512)
    model = models[0]
    assert model.n_clusters >= 2  # replay path still yields a usable model
    assert model.classify(-60, 50) != model.classify(40, -40)


def test_streaming_equals_batch_training():
    rng = np.random.default_rng(9)
    toks = _cluster_tokens(rng, [(-70, 60), (10, 0), (70, -60)], n_per=500)
    m1 = train_online(toks)[0]
    sorter = OnlineSorter()
    for tok in toks:
        sorter.observe(tok.f1, tok.f2)
    m2 = sorter.finalize()
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
        sorter = OnlineSorter()
        for tok in stream:
            sorter.observe(tok.f1, tok.f2)
        assert models[ch] == sorter.finalize()
    assert train_online(Tokens.of([])) == {}


def test_train_online_keys_by_channel():
    rng = np.random.default_rng(10)
    toks = (_cluster_tokens(rng, [(-60, 50), (40, -40)], n_per=300, channel=2)
            + _cluster_tokens(rng, [(-30, 30), (60, -60)], n_per=300, channel=0))
    models = train_online(toks)
    assert sorted(models) == [0, 2]


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


@pytest.mark.parametrize("centers,decay_period", [
    ([(-60, 50), (40, -40)], 64),
    ([(-70, 60), (10, 0), (70, -60)], 64),
    ([(-90, -90), (-30, 30), (30, -30), (90, 90)], 64),
    ([(-60, 50), (40, -40)], 1),     # every entry decays to vacant: no valid partition
])
def test_table_classify_equals_brute_force(centers, decay_period):
    rng = np.random.default_rng(12)
    toks = _cluster_tokens(rng, centers, n_per=400)
    model = train_online(toks, decay_period=decay_period)[0]
    if decay_period == 1:
        assert model.valid() == []
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
