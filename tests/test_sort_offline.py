import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsp.evaluation import channel_feature_dataset
from nsp.patterns import enumerate_patterns
from nsp.sort_offline import (KDE_BANDWIDTH, L1_BITS_PER_TEMPLATE, OUTLIER,
                              TREE_MODEL_BITS, ChannelSorterModel,
                              L1TemplateModel, SortOpCounts,
                              boundary_candidates, classify_spike,
                              kde_marginals, kde_valleys, l1_classify, load_models,
                              model_footprint, pack_model, store_models,
                              train_channel_model, train_l1, unpack_model)
from nsp.synthdata import gen_spike_trace, tier_config


def _clusters(rng, centers, n_per, sigma=3.0):
    """(features, labels) for isotropic int8 clusters, one label per center."""
    feats, labs = [], []
    for lab, (cx, cy) in enumerate(centers):
        pts = rng.normal((cx, cy), sigma, size=(n_per, 2))
        feats.append(np.clip(np.round(pts), -128, 127).astype(np.int64))
        labs.append(np.full(n_per, lab, dtype=np.int64))
    return np.concatenate(feats), np.concatenate(labs)


def brute_force_best_accuracy(feats, labs):
    """Global optimum of (pattern, boundaries) training accuracy.

    Any integer boundary behaves like the smallest feature value >= it (or
    like "above max"), so sweeping the distinct values plus a sentinel per
    slot covers every realisable configuration. Configurations are scored in
    one broadcast pass per pattern.
    """
    feats = np.asarray(feats, dtype=np.int64)
    labs = np.asarray(labs, dtype=np.int64)
    n = len(labs)
    cands = [np.array(sorted(set(feats[:, a])) + [int(feats[:, a].max()) + 1])
             for a in (0, 1)]
    # ge[a][i, c] == feats[i, a] >= cands[a][c]
    ge = [feats[:, a][:, None] >= cands[a][None, :] for a in (0, 1)]
    best = 0.0
    for pat in enumerate_patterns():
        bits = [ge[pat.axes[s]] for s in range(3)]
        m = [b.shape[1] for b in bits]
        # code[i, c0, c1, c2] over every boundary combination at once
        code = (bits[0].astype(np.int8)[:, :, None, None] * 4
                + bits[1].astype(np.int8)[:, None, :, None] * 2
                + bits[2].astype(np.int8)[:, None, None, :])
        leaves = np.asarray(pat.leaf_map, dtype=np.int8)[code]
        correct = np.zeros(m, dtype=np.int64)
        for leaf in range(4):
            in_leaf = leaves == leaf
            counts = np.stack([(in_leaf & (labs == lab)[:, None, None, None])
                               .sum(axis=0) for lab in np.unique(labs)])
            correct += counts.max(axis=0)
        best = max(best, float(correct.max()) / n)
    return best


# --- packing and footprints ---------------------------------------------------


def test_pack_unpack_round_trip():
    model = ChannelSorterModel(pattern_id=7,
                               boundaries=(-128, 0, 127), valid_mask=0b1111)
    packed = pack_model(model)
    assert len(packed) == 7
    bounds, pid = unpack_model(packed)
    assert bounds == (-128, 0, 127)
    assert pid == 7


_INT8 = st.integers(-128, 127)


@settings(max_examples=500, deadline=None)
@given(boundaries=st.tuples(_INT8, _INT8, _INT8), pattern_id=st.integers(0, 15))
@example(boundaries=(-128, -128, -128), pattern_id=0)
@example(boundaries=(127, 127, 127), pattern_id=15)
@example(boundaries=(-1, 0, 1), pattern_id=10)
def test_pack_unpack_round_trips_every_model(boundaries, pattern_id):
    model = ChannelSorterModel(pattern_id=pattern_id,
                               boundaries=boundaries, valid_mask=0b1111)
    packed = pack_model(model)
    assert len(packed) == 7 and int(packed, 16) < 1 << TREE_MODEL_BITS
    assert unpack_model(packed) == (boundaries, pattern_id)


def test_unpack_rejects_oversized():
    with pytest.raises(ValueError):
        unpack_model("10000000")  # 32 bits


def test_footprints():
    tree = ChannelSorterModel(pattern_id=0,
                              boundaries=(1, 2, 3), valid_mask=1)
    assert model_footprint(tree) == TREE_MODEL_BITS == 28
    l1 = L1TemplateModel(templates=((0, 0), (1, 1), (2, 2), (3, 3)),
                         labels=(0, 1, 2, 3))
    assert model_footprint(l1) == 4 * L1_BITS_PER_TEMPLATE == 64
    assert model_footprint(L1TemplateModel(((5, 5),), (0,))) == 16
    with pytest.raises(TypeError):
        model_footprint("not a model")


# --- deployment-time classification -------------------------------------------


def test_classify_costs_three_compares_one_lookup():
    model = ChannelSorterModel(pattern_id=0,
                               boundaries=(-20, 0, 20), valid_mask=0b1111)
    ops = SortOpCounts()
    classify_spike(model, 5, -5, ops)
    assert (ops.compares, ops.addsubs, ops.lookups) == (3, 0, 1)


def test_classify_boundary_equality_goes_up():
    pat = enumerate_patterns()[0]  # quad slabs: all three cuts on one axis
    axis = pat.axes[0]
    model = ChannelSorterModel(pattern_id=pat.pattern_id,
                               boundaries=(-20, 0, 20), valid_mask=0b1111)

    def leaf_for(v):
        f = [0, 0]
        f[axis] = v
        # keep the other axis irrelevant for this pattern
        return classify_spike(model, f[0], f[1]) if axis == 0 else \
            classify_spike(model, f[1], f[0])

    assert leaf_for(-21) != leaf_for(-20)
    assert leaf_for(-20) == leaf_for(-19)
    assert leaf_for(0) == leaf_for(1)
    assert leaf_for(20) == leaf_for(21)


def test_classify_invalid_leaf_is_outlier():
    model = ChannelSorterModel(pattern_id=0,
                               boundaries=(-20, 0, 20), valid_mask=0b0011)
    seen = {classify_spike(model, v, 0) for v in (-50, -10, 10, 50)}
    assert OUTLIER in seen
    assert seen & {0, 1}


def _leaf_holding(pat, boundaries, f1, f2) -> int:
    """The one leaf whose rectangle holds (f1, f2): b[lo] <= f < b[hi] per axis."""
    point = (f1, f2)
    hits = [leaf for leaf, rect in enumerate(pat.leaf_bounds)
            if all((lo is None or boundaries[lo] <= point[axis])
                   and (hi is None or point[axis] < boundaries[hi])
                   for axis, (lo, hi) in enumerate(rect))]
    assert len(hits) == 1, (pat.pattern_id, boundaries, point, hits)
    return hits[0]


@st.composite
def _tree_and_point(draw):
    """A tree model with distinct per-axis boundaries in an admissible order,
    and a point whose coordinates often sit on or next to a boundary."""
    pat = draw(st.sampled_from(enumerate_patterns()))
    boundaries = [0] * 3
    coords = []
    for orderings in (pat.x_orderings, pat.y_orderings):
        order = draw(st.sampled_from(orderings))
        values = sorted(draw(st.lists(st.integers(-128, 127), min_size=len(order),
                                      max_size=len(order), unique=True)))
        for slot, v in zip(order, values):
            boundaries[slot] = v
        near = sorted({min(127, max(-128, v + d)) for v in values for d in (-1, 0, 1)})
        coords.append(draw(st.sampled_from(near) | st.integers(-128, 127)
                           if near else st.integers(-128, 127)))
    model = ChannelSorterModel(pattern_id=pat.pattern_id, boundaries=tuple(boundaries),
                               valid_mask=draw(st.integers(0, 15)))
    return model, coords[0], coords[1]


@settings(max_examples=1000, deadline=None)
@given(case=_tree_and_point())
def test_classify_spike_returns_the_leaf_rectangle_holding_the_point(case):
    """Deployment (comparison code -> leaf_map) agrees with the leaf rectangles
    the training sweep scores; a leaf without its mask bit is OUTLIER."""
    model, f1, f2 = case
    leaf = _leaf_holding(model.pattern(), model.boundaries, f1, f2)
    want = leaf if (model.valid_mask >> leaf) & 1 else OUTLIER
    assert classify_spike(model, f1, f2) == want


def test_l1_classify_costs_and_ties():
    model = L1TemplateModel(templates=((-10, 0), (10, 0), (0, 30), (0, -30)),
                            labels=(3, 5, 7, 9))
    ops = SortOpCounts()
    out = l1_classify(model, -9, 1, ops)
    assert out == 3
    assert (ops.addsubs, ops.compares, ops.lookups) == (12, 3, 0)
    # exact tie between templates 0 and 1 -> lowest index wins
    assert l1_classify(model, 0, 0) == 3


def test_l1_two_templates_costs():
    model = L1TemplateModel(templates=((-10, 0), (10, 0)), labels=(0, 1))
    ops = SortOpCounts()
    l1_classify(model, 8, 0, ops)
    assert (ops.addsubs, ops.compares) == (6, 1)


# --- training -------------------------------------------------------------


def test_train_l1_centroids_by_hand():
    feats = np.array([[0, 0], [2, 2], [100, -100], [102, -98]])
    labs = np.array([7, 7, 3, 3])
    model = train_l1(feats, labs)
    assert model.labels == (3, 7)
    assert model.templates == ((101, -99), (1, 1))
    with pytest.raises(ValueError):
        train_l1(np.zeros((5, 2)), np.arange(5))  # five distinct labels


def test_train_recovers_crisp_quadrants():
    rng = np.random.default_rng(0)
    feats, labs = _clusters(rng, [(-60, -60), (-60, 60), (60, -60), (60, 60)],
                            n_per=40)
    model = train_channel_model(feats, labs)
    assert model.train_accuracy == 1.0
    assert model.valid_mask == 0b1111
    # every training point classifies into a consistent leaf per label
    leaves = np.array([classify_spike(model, f1, f2) for f1, f2 in feats])
    for lab in range(4):
        assert len(set(leaves[labs == lab])) == 1


def test_train_two_cluster_channel():
    rng = np.random.default_rng(1)
    feats, labs = _clusters(rng, [(-50, 40), (55, -45)], n_per=60)
    model = train_channel_model(feats, labs)
    assert model.train_accuracy == 1.0
    a = classify_spike(model, -50, 40)
    b = classify_spike(model, 55, -45)
    assert a != b and OUTLIER not in (a, b)


def test_single_label_degenerates_cleanly():
    feats = np.array([[10, 10], [12, 9], [11, 11]])
    model = train_channel_model(feats, np.zeros(3, dtype=int))
    assert model.train_accuracy == 1.0
    assert classify_spike(model, 11, 10) == 0


def test_train_validates_inputs():
    with pytest.raises(ValueError):
        train_channel_model(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        train_channel_model(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        train_channel_model(np.zeros((5, 2)), np.arange(5))


def test_trainer_never_beats_global_optimum():
    """Sweep accuracy must stay within the true optimum over all boundaries."""
    rng = np.random.default_rng(2)
    for trial in range(6):
        centers = rng.integers(-80, 81, size=(int(rng.integers(2, 5)), 2))
        feats, labs = _clusters(rng, centers, n_per=10, sigma=12.0)
        model = train_channel_model(feats, labs)
        optimum = brute_force_best_accuracy(feats, labs)
        assert model.train_accuracy <= optimum + 1e-12


def test_trainer_hits_global_optimum_on_separated_data():
    """With gaps wider than the candidate-grid pitch the sweep is exact."""
    rng = np.random.default_rng(3)
    for centers in ([(-70, 0), (50, 10)],
                    [(-80, -80), (0, 0), (80, 80)],
                    [(-75, 60), (-75, -60), (70, 60), (70, -60)]):
        feats, labs = _clusters(rng, centers, n_per=15, sigma=4.0)
        model = train_channel_model(feats, labs)
        optimum = brute_force_best_accuracy(feats, labs)
        assert model.train_accuracy == pytest.approx(optimum)


def test_boundary_candidates_cover_range():
    feats = np.array([[-40, 10], [-38, 12], [30, 90], [33, 88]])
    cx, cy = boundary_candidates(feats)
    assert cx[0] == -40 and cy[0] == 10  # range minimum always present
    assert all(-40 <= v <= 33 for v in cx)
    assert all(10 <= v <= 90 for v in cy)
    assert cx == sorted(cx)


def _full_kde(features, bandwidth=KDE_BANDWIDTH):
    """Normalised 256x256 Gaussian KDE on the int8 value grid, [f1+128, f2+128]."""
    pts = np.asarray(features, dtype=np.float64).reshape(-1, 2)
    grid = np.arange(256, dtype=np.float64) - 128.0
    ax = np.exp(-0.5 * ((grid[None, :] - pts[:, 0:1]) / bandwidth) ** 2)
    ay = np.exp(-0.5 * ((grid[None, :] - pts[:, 1:2]) / bandwidth) ** 2)
    density = ax.T @ ay
    return density / density.sum()


@pytest.mark.parametrize("seed", range(12))
def test_marginal_valleys_equal_full_density_valleys(seed):
    rng = np.random.default_rng(seed)
    n_units = 2 + seed % 3
    centers = rng.integers(-90, 90, size=(n_units, 2))
    feats, _ = _clusters(rng, centers, n_per=int(rng.integers(15, 80)),
                         sigma=float(rng.uniform(3.0, 10.0)))
    mx, my = kde_marginals(feats)
    density = _full_kde(feats)
    assert kde_valleys(mx) == kde_valleys(density.sum(axis=1))
    assert kde_valleys(my) == kde_valleys(density.sum(axis=0))
    # the marginals are the density's, up to normalisation and rounding
    assert np.allclose(mx / mx.sum(), density.sum(axis=1), rtol=1e-9, atol=1e-300)
    assert np.allclose(my / my.sum(), density.sum(axis=0), rtol=1e-9, atol=1e-300)


# Models trained on three medium-tier channels (seed 41, 10 s), recorded
# before the sweep and the density estimate were vectorised: training must
# keep reproducing them exactly.
PINNED_TREE_MODELS = [
    {"boundaries": [18, -64, 45], "pattern_id": 3, "packed": "12c02d3",
     "train_accuracy": 0.9936305732484076, "valid_mask": 14},
    {"boundaries": [44, -65, -88], "pattern_id": 6, "packed": "2cbfa86",
     "train_accuracy": 1.0, "valid_mask": 15},
    {"boundaries": [64, -90, -65], "pattern_id": 8, "packed": "40a6bf8",
     "train_accuracy": 0.989010989010989, "valid_mask": 15},
]


def test_tree_models_are_pinned():
    trace, labels = gen_spike_trace(tier_config("medium", n_channels=3, duration_s=10.0),
                                    seed=41)
    for ch, pinned in enumerate(PINNED_TREE_MODELS):
        feats, labs, _, _ = channel_feature_dataset(trace, labels, ch)
        expected = {"kind": "tree", **pinned}
        assert train_channel_model(feats, labs).to_json() == expected


# --- persistence ----------------------------------------------------------


def test_tree_model_set_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    models = {}
    for ch in (0, 3):
        feats, labs = _clusters(rng, [(-60, -60), (60, 60)], n_per=30)
        models[ch] = train_channel_model(feats, labs)
    p = str(tmp_path / "trees.json")
    store_models(models, p)
    back = load_models(p)
    assert sorted(back) == [0, 3]
    for ch in back:
        assert back[ch].kind == "tree"
        assert back[ch].pattern_id == models[ch].pattern_id
        assert back[ch].boundaries == models[ch].boundaries
        assert back[ch].valid_mask == models[ch].valid_mask
        for f1, f2 in ((-60, -60), (60, 60), (0, 0)):
            assert back[ch].classify(f1, f2) == classify_spike(models[ch], f1, f2)


def test_l1_model_set_round_trip(tmp_path):
    models = {1: L1TemplateModel(templates=((0, 0), (50, -50)), labels=(2, 0))}
    p = str(tmp_path / "l1.json")
    store_models(models, p)
    back = load_models(p)
    assert back[1].kind == "l1"
    assert back[1].templates == models[1].templates
    assert back[1].labels == models[1].labels
    for f1, f2 in ((0, 0), (50, -50), (20, -30)):
        assert back[1].classify(f1, f2) == l1_classify(models[1], f1, f2)


def test_model_set_holds_exactly_one_kind(tmp_path):
    tree = ChannelSorterModel(pattern_id=2,
                              boundaries=(-5, 10, 100), valid_mask=0b111)
    l1 = L1TemplateModel(templates=((0, 0),), labels=(1,))
    for models in ({}, {0: tree, 1: l1}):
        with pytest.raises(ValueError):
            store_models(models, str(tmp_path / "set.json"))
    assert not (tmp_path / "set.json").exists()


def test_model_json_embeds_packed_form():
    model = ChannelSorterModel(pattern_id=2,
                               boundaries=(-5, 10, 100), valid_mask=0b111)
    obj = model.to_json()
    assert obj["packed"] == pack_model(model)
    again = ChannelSorterModel.from_json(obj)
    assert again.boundaries == model.boundaries
    assert again.pattern_id == model.pattern_id
