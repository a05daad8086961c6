import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsp.decode import (INT32_MAX, PHASES, DecoderBundle, EnsembleModel,
                        _pair_columns,
                        FilterState, FixedPointFormat, ImplantAccumulator,
                        StandardObservationModel, StateTransitionModel,
                        StepOps, best_single_neuron_decoder, bin_spikes,
                        count_ops, ensemble_ez, eokf_step,
                        evaluate_reconstruction, kf_step, load_decoded,
                        load_decoder, neuron_scores, per_direction_stats,
                        reduce_observation, run_eokf, run_eokf_split,
                        run_filter, run_kf, select_neurons, selection_columns,
                        store_decoded, store_decoder, train_ensemble,
                        train_observation_standard, train_transition)
from nsp.opcount import OpCounts, SingularMatrixError
from nsp.synthdata import PayloadError


def _random_events(rng, n_events, n_channels=10, n_bins=50, bin_len=3000):
    t = rng.integers(0, n_bins * bin_len, size=n_events)
    ch = rng.integers(0, n_channels, size=n_events)
    un = rng.integers(0, 3, size=n_events)
    return np.column_stack([t, ch, un])


def _toy_ensemble(rng, d=2, n=12):
    E = 0.2 * rng.standard_normal((d, n))
    selected = tuple((j // 3, j % 3) for j in range(n))
    return EnsembleModel(E=E, Qe=0.05 * np.eye(d), selected=selected)


TRANS_2D = StateTransitionModel(A=0.9 * np.eye(2), W=0.05 * np.eye(2))


# --- binning -----------------------------------------------------------------


def test_bin_spikes_empty():
    out = bin_spikes(np.zeros((0, 3)), n_bins=4, bin_len=100, selected=[(0, 0)])
    assert out.shape == (4, 1)
    assert not out.any()


def test_bin_spikes_counts_land_in_their_bin():
    events = np.array([[350, 2, 1]] * 5)
    out = bin_spikes(events, n_bins=6, bin_len=100, selected=[(0, 0), (2, 1)])
    assert out[3, 1] == 5
    assert out.sum() == 5


def test_bin_edge_goes_to_next_bin():
    out = bin_spikes(np.array([[200, 0, 0]]), 4, 100, [(0, 0)])
    assert out[2, 0] == 1  # half-open bins: t == 2*bin_len starts bin 2


def test_bin_spikes_drops_unselected_and_out_of_range():
    events = np.array([[10, 0, 0], [20, 1, 0], [10 ** 9, 0, 0], [-5, 0, 0]])
    out = bin_spikes(events, 4, 100, [(0, 0)])
    assert out.sum() == 1


def test_bin_spikes_order_invariant():
    rng = np.random.default_rng(0)
    ev = _random_events(rng, 500)
    sel = [(c, u) for c in range(10) for u in range(3)]
    a = bin_spikes(ev, 50, 3000, sel)
    b = bin_spikes(ev[rng.permutation(len(ev))], 50, 3000, sel)
    assert np.array_equal(a, b)


def test_bin_spikes_counts_any_selected_unit_id():
    # unit ids are not limited to the tree sorter's four leaves
    sel = [(1, 5), (0, 0), (-2, 7), (3, 2 ** 40)]
    events = np.array([[10, 1, 5], [20, 0, 0], [30, -2, 7], [40, 3, 2 ** 40],
                       [50, 1, 4], [60, 5, 1]])
    assert bin_spikes(events, 1, 100, sel).tolist() == [[1, 1, 1, 1]]


_IDS = st.integers(-6, 8) | st.sampled_from([-1, 2 ** 40, -(2 ** 40)])


@settings(max_examples=150, deadline=None)
@given(selected=st.lists(st.tuples(_IDS, _IDS), max_size=12),
       repeats=st.integers(0, 3),
       queries=st.lists(st.tuples(_IDS | st.integers(-2 ** 62, 2 ** 62), _IDS),
                        max_size=40))
def test_pair_columns_follow_the_dict_rule(selected, repeats, queries):
    """Each (channel, unit) gets the last column of its pair in *selected*, -1
    when unselected: repeated pairs, the OUTLIER unit -1 and ids far outside
    the selected ones included."""
    selected = selected + selected[:repeats]
    index = {pair: j for j, pair in enumerate(selected)}
    queries = queries + selected[:5]
    ch = np.array([c for c, _ in queries], dtype=np.int64)
    un = np.array([u for _, u in queries], dtype=np.int64)
    got = _pair_columns(selected, ch, un)
    assert got.dtype == np.int64
    assert got.tolist() == [index.get(q, -1) for q in queries]


def test_pair_columns_on_ids_too_far_apart_to_number():
    selected = [(0, -(2 ** 62)), (2 ** 40, 2 ** 62), (0, -(2 ** 62))]
    queries = [(0, -(2 ** 62)), (2 ** 40, 2 ** 62), (2 ** 40, 0), (-1, -1)]
    got = _pair_columns(selected, [c for c, _ in queries], [u for _, u in queries])
    assert got.tolist() == [2, 1, -1, -1]


def test_bin_spikes_column_rule_is_the_dict_lookup():
    rng = np.random.default_rng(3)
    sel = [(int(c), int(u)) for c, u in rng.integers(-3, 6, size=(15, 2))]
    sel.append(sel[0])  # a repeated pair maps to its last column
    index = {pair: j for j, pair in enumerate(sel)}
    ev = np.column_stack([rng.integers(0, 400, 2000),
                          rng.integers(-4, 7, 2000), rng.integers(-4, 7, 2000)])
    want = np.zeros((4, len(sel)), dtype=np.int64)
    for t, c, u in ev.tolist():
        j = index.get((c, u))
        if j is not None:
            want[t // 100, j] += 1
    assert np.array_equal(bin_spikes(ev, 4, 100, sel), want)


# --- training ------------------------------------------------------------


def test_transition_exact_recovery():
    A0 = np.array([[0.9, 0.1], [-0.2, 0.8]])
    x = np.zeros((60, 2))
    x[0] = (1.0, -0.5)
    for k in range(59):
        x[k + 1] = A0 @ x[k]
    model = train_transition(x)
    assert np.allclose(model.A, A0, atol=1e-6)
    assert np.abs(model.W).max() < 1e-9


def test_transition_constant_input_is_pinned_by_ridge():
    x = np.tile([3.0, -2.0], (50, 1))
    model = train_transition(x)
    # the constant must remain (approximately) a fixed point of A
    assert np.allclose(model.A @ x[0], x[0], rtol=1e-5)


def test_transition_needs_enough_bins():
    with pytest.raises(ValueError):
        train_transition(np.zeros((2, 2)))


def test_transition_noise_covariance_monte_carlo():
    rng = np.random.default_rng(42)
    A0 = np.array([[0.8, 0.1], [-0.05, 0.85]])
    sigma = 0.7
    x = np.zeros((10 ** 4, 2))
    for k in range(x.shape[0] - 1):
        x[k + 1] = A0 @ x[k] + rng.normal(0, sigma, 2)
    model = train_transition(x)
    assert np.allclose(model.A, A0, atol=0.05)
    W = model.W
    assert abs(W[0, 0] - sigma ** 2) < 0.2 * sigma ** 2
    assert abs(W[1, 1] - sigma ** 2) < 0.2 * sigma ** 2
    assert abs(W[0, 1]) < 0.2 * sigma ** 2


def test_observation_exact_recovery():
    rng = np.random.default_rng(1)
    H0 = rng.normal(size=(6, 2))
    x = rng.normal(size=(40, 2))
    z = x @ H0.T
    model = train_observation_standard(z, x)
    assert np.allclose(model.H, H0, atol=1e-6)
    assert np.abs(model.Q).max() < 1e-9


def test_observation_noisy_covariance():
    rng = np.random.default_rng(2)
    H0 = rng.normal(size=(4, 2))
    x = rng.normal(size=(10 ** 4, 2))
    sigma = 0.5
    z = x @ H0.T + rng.normal(0, sigma, size=(10 ** 4, 4))
    model = train_observation_standard(z, x)
    assert np.allclose(np.diag(model.Q), sigma ** 2, rtol=0.2)


def test_ensemble_exact_recovery():
    rng = np.random.default_rng(3)
    E0 = rng.normal(size=(2, 8))
    z = rng.poisson(4.0, size=(200, 8)).astype(float)
    x = z @ E0.T
    unit_channels = [j // 3 for j in range(8)]
    model = train_ensemble(z, x, unit_channels)
    assert np.allclose(model.E, E0, atol=1e-5)
    assert len(model.selected) == 8
    assert model.selected[3] == (1, 0)  # unit 3 = channel 1, first unit


# --- neuron selection ---------------------------------------------------------


def _tuned_session(rng, n_units, tuned, n_bins=400, unit_channels=None):
    """Counts where `tuned` units encode velocity linearly, the rest are flat."""
    x = rng.normal(0, 30.0, size=(n_bins, 2))
    rates = np.full((n_bins, n_units), 8.0)
    for j in tuned:
        w = rng.normal(size=2)
        w /= np.linalg.norm(w)
        rates[:, j] += 0.2 * (x @ w)
    counts = rng.poisson(np.clip(rates, 0.0, None))
    if unit_channels is None:
        unit_channels = [j // 3 for j in range(n_units)]
    return counts.astype(float), x, unit_channels


def test_untuned_units_score_lowest():
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        counts, x, _ = _tuned_session(rng, 6, tuned=[0, 1, 2, 3, 4])
        scores = neuron_scores(counts, x)
        hits += scores[5] < scores[:5].min()
    assert hits >= 38  # untuned scores below every tuned unit on >=95% of seeds


def test_select_caps_three_per_channel():
    rng = np.random.default_rng(9)
    # channel 0 holds four strongly tuned units, channel 1+ fill the rest
    unit_channels = [0, 0, 0, 0] + [1 + j // 3 for j in range(8)]
    counts, x, _ = _tuned_session(rng, 12, tuned=range(12),
                                  unit_channels=unit_channels)
    picked = select_neurons(counts, x, unit_channels)
    from_ch0 = [j for j in picked if unit_channels[j] == 0]
    assert len(from_ch0) == 3


def test_select_respects_target_ceiling():
    rng = np.random.default_rng(10)
    counts, x, unit_channels = _tuned_session(rng, 90, tuned=range(90))
    picked = select_neurons(counts, x, unit_channels)
    assert 20 <= len(picked) <= 50
    assert picked == sorted(picked)


def test_select_needs_informative_units():
    rng = np.random.default_rng(11)
    counts, x, unit_channels = _tuned_session(rng, 6, tuned=[])
    with pytest.raises(ValueError):
        select_neurons(counts, x, unit_channels)


def test_selection_columns_round_trip():
    unit_channels = [0, 0, 1, 1, 1, 2]
    sel = ((1, 2), (0, 0), (2, 0))
    cols = selection_columns(sel, unit_channels)
    assert list(cols) == [4, 0, 5]
    with pytest.raises(ValueError):
        selection_columns(((7, 0),), unit_channels)


# --- filter steps -------------------------------------------------------------


def test_kf_scalar_oracle():
    """Hand recursion: A=1, W=0, H=1, Q=1, P0=1, x0=0, z=2 -> K=0.5, x=1, P=0.5."""
    trans = StateTransitionModel(A=np.eye(1), W=np.zeros((1, 1)))
    obs = StandardObservationModel(H=np.eye(1), Q=np.eye(1))
    fs = FilterState(x=np.zeros(1), P=np.eye(1))
    fs = kf_step(fs, trans, obs, np.array([2.0]))
    assert fs.K[0, 0] == pytest.approx(0.5)
    assert fs.x[0] == pytest.approx(1.0)
    assert fs.P[0, 0] == pytest.approx(0.5)


def test_eokf_scalar_oracle_matches_kf():
    trans = StateTransitionModel(A=np.eye(1), W=np.zeros((1, 1)))
    ens = EnsembleModel(E=np.ones((1, 1)), Qe=np.eye(1), selected=((0, 0),))
    fs = FilterState(x=np.zeros(1), P=np.eye(1))
    fs = eokf_step(fs, trans, ens, np.array([2.0]))
    assert fs.K[0, 0] == pytest.approx(0.5)
    assert fs.x[0] == pytest.approx(1.0)
    assert fs.P[0, 0] == pytest.approx(0.5)


def test_kf_small_q_recovers_pseudoinverse():
    rng = np.random.default_rng(4)
    H = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    trans = StateTransitionModel(A=np.eye(2), W=np.eye(2))
    obs = StandardObservationModel(H=H, Q=1e-12 * np.eye(2))
    z = rng.normal(size=2)
    fs = kf_step(FilterState(x=np.zeros(2), P=np.eye(2)), trans, obs, z)
    assert np.allclose(fs.x, np.linalg.pinv(H) @ z, atol=1e-5)


def test_kf_trace_monotone_without_process_noise():
    rng = np.random.default_rng(5)
    trans = StateTransitionModel(A=np.eye(2), W=np.zeros((2, 2)))
    obs = StandardObservationModel(H=rng.normal(size=(5, 2)), Q=np.eye(5))
    fs = FilterState(x=np.zeros(2), P=np.eye(2))
    traces = []
    for _ in range(20):
        fs = kf_step(fs, trans, obs, rng.normal(size=5))
        traces.append(np.trace(fs.P))
    assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))


def test_covariance_stays_psd_both_filters():
    rng = np.random.default_rng(6)
    obs = StandardObservationModel(H=rng.normal(size=(8, 2)), Q=np.eye(8))
    ens = _toy_ensemble(rng, n=9)
    kf_state = FilterState(x=np.zeros(2), P=np.eye(2))
    ek_state = FilterState(x=np.zeros(2), P=np.eye(2))
    for _ in range(50):
        z = rng.poisson(3.0, size=8).astype(float)
        kf_state = kf_step(kf_state, TRANS_2D, obs, z)
        ek_state = eokf_step(ek_state, TRANS_2D, ens,
                             rng.normal(size=2))
        for P in (kf_state.P, ek_state.P):
            assert np.allclose(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-9


def test_eokf_zero_qe_trusts_observation_exactly():
    ens = EnsembleModel(E=np.ones((2, 3)), Qe=np.zeros((2, 2)),
                        selected=((0, 0), (0, 1), (0, 2)))
    fs = FilterState(x=np.array([5.0, -3.0]), P=np.eye(2))
    ez = np.array([1.5, 2.5])
    fs = eokf_step(fs, TRANS_2D, ens, ez)
    assert np.allclose(fs.K, np.eye(2))
    assert np.array_equal(fs.x, ez)


def test_eokf_prior_fixed_point():
    rng = np.random.default_rng(7)
    ens = _toy_ensemble(rng)
    fs = FilterState(x=np.array([2.0, -1.0]), P=0.5 * np.eye(2))
    x_prior = TRANS_2D.A @ fs.x
    out = eokf_step(fs, TRANS_2D, ens, x_prior)
    assert np.allclose(out.x, x_prior)


def test_singular_innovation_names_the_matrix():
    trans = StateTransitionModel(A=np.eye(2), W=np.zeros((2, 2)))
    obs = StandardObservationModel(H=np.zeros((3, 2)), Q=np.zeros((3, 3)))
    fs = FilterState(x=np.zeros(2), P=np.eye(2))
    with pytest.raises(SingularMatrixError) as exc_info:
        kf_step(fs, trans, obs, np.zeros(3))
    assert "H P H' + Q" in str(exc_info.value)
    ens = EnsembleModel(E=np.ones((2, 3)), Qe=-np.eye(2),
                        selected=((0, 0), (0, 1), (0, 2)))
    with pytest.raises(SingularMatrixError):
        eokf_step(FilterState(x=np.zeros(2), P=np.eye(2)), trans, ens, np.zeros(2))


# --- operation counting ---------------------------------------------------------


def test_kf_step_cost_anchors():
    r = count_ops("kf", 20, 2)
    ph = r["phases"]
    assert (ph["state_predict"]["mult"], ph["state_predict"]["add"]) == (4, 2)
    assert (ph["cov_predict"]["mult"], ph["cov_predict"]["add"]) == (16, 12)
    assert ph["gain"]["div"] == 230
    assert r["step_total"] == {"mult": 4488, "add": 3108, "div": 230,
                               "total": 7826}


def test_eokf_step_cost_anchors():
    r = count_ops("eokf", 20, 2)
    assert r["phases"]["gain"] == {"mult": 10, "add": 9, "div": 4, "total": 23}
    assert r["step_total"] == {"mult": 42, "add": 37, "div": 4, "total": 83}
    # the observe reduction is per-event implant work, tallied separately
    assert r["phases"]["observe"]["total"] == 78
    assert r["total_with_observe"]["total"] == 161


def test_eokf_step_cost_independent_of_population():
    assert count_ops("eokf", 10)["step_total"] == count_ops("eokf", 40)["step_total"]


def test_kf_cost_grows_superquadratically():
    t10 = count_ops("kf", 10)["step_total"]["total"]
    t20 = count_ops("kf", 20)["step_total"]["total"]
    t40 = count_ops("kf", 40)["step_total"]["total"]
    assert t20 >= 4 * t10
    assert t40 >= 4 * t20


def test_count_ops_rejects_unknown_kind():
    with pytest.raises(ValueError):
        count_ops("particle", 20)


# --- whole-session runs and the computation split ------------------------------


def test_run_kf_shapes_and_monotone_ops():
    rng = np.random.default_rng(8)
    obs = StandardObservationModel(H=rng.normal(size=(6, 2)), Q=np.eye(6))
    counts = rng.poisson(3.0, size=(30, 6)).astype(float)
    states, ops = run_kf(TRANS_2D, obs, counts)
    assert states.shape == (30, 2)
    assert ops.step_total().total() == 30 * count_ops("kf", 6)["step_total"]["total"]


def _step_loop(step, model, stream, x0, P0) -> tuple:
    fs = FilterState(x=x0, P=P0)
    ops = StepOps()
    states = np.empty((len(stream), 2))
    for k, row in enumerate(stream):
        fs = step(fs, TRANS_2D, model, row, ops)
        states[k] = fs.x
    return states, ops


@pytest.mark.parametrize("kind", ["kf", "eokf"])
def test_run_filter_equals_the_per_step_loop(kind):
    rng = np.random.default_rng(20)
    x0, P0 = rng.normal(size=2), 0.5 * np.eye(2)
    if kind == "kf":
        model = StandardObservationModel(H=rng.normal(size=(6, 2)), Q=np.eye(6))
        step, stream = kf_step, rng.poisson(3.0, size=(40, 6))
    else:
        model = _toy_ensemble(rng, n=9)
        step, stream = eokf_step, rng.normal(size=(40, 2))
    states, ops = run_filter(TRANS_2D, model, stream, x0=x0, P0=P0)
    want, want_ops = _step_loop(step, model, stream.astype(np.float64), x0, P0)
    assert np.array_equal(states, want)
    for phase in PHASES:
        assert ops.phase(phase) == want_ops.phase(phase), phase
    assert ops.step_total().total() > 0
    empty, no_ops = run_filter(TRANS_2D, model, stream[:0])
    assert empty.shape == (0, 2) and no_ops.total_with_observe().total() == 0


def test_run_filter_needs_an_observation_model():
    with pytest.raises(TypeError, match="no filter step"):
        run_filter(TRANS_2D, np.eye(2), np.zeros((3, 2)))


def test_ensemble_ez_is_the_per_bin_emission():
    rng = np.random.default_rng(21)
    ens = _toy_ensemble(rng, n=12)
    counts = rng.poisson(2.0, size=(30, 12))
    ops, want_ops = OpCounts(), OpCounts()
    ez = ensemble_ez(ens, counts, ops=ops)
    for k, row in enumerate(counts):
        assert ez[k].tobytes() == (ens.E @ row.astype(np.float64)).tobytes()
        reduce_observation(ens, row, want_ops)      # the textbook mat_mul cost
    assert ops == want_ops
    fmt = FixedPointFormat.for_matrix(ens.E)
    eq = fmt.quantize(ens.E)
    assert np.array_equal(ensemble_ez(ens, counts, fmt),
                          fmt.dequantize(np.stack([eq @ row for row in counts])))
    assert ensemble_ez(ens, counts[:0]).shape == (0, 2)


def test_run_eokf_tallies_observe_in_both_modes():
    rng = np.random.default_rng(22)
    ens = _toy_ensemble(rng, n=12)
    counts = rng.poisson(2.0, size=(25, 12))
    fmt = FixedPointFormat.for_matrix(ens.E)
    _, _, ops = run_eokf(TRANS_2D, ens, counts)
    _, _, ops_fixed = run_eokf(TRANS_2D, ens, counts, fmt=fmt)
    d, s = ens.E.shape
    assert ops.phase("observe") == OpCounts(mult=25 * d * s, add=25 * d * (s - 1))
    assert ops_fixed.phase("observe") == ops.phase("observe")
    assert ops_fixed.step_total() == ops.step_total()
    # the implant does the reduction in the split: no observe tally there
    ev = _random_events(rng, 500, n_channels=4, n_bins=25)
    _, _, ops_split, _ = run_eokf_split(TRANS_2D, ens, ev, 25, 3000,
                                        mode="fixed", fmt=fmt)
    assert ops_split.phase("observe").total() == 0


def test_partition_equivalence_float_bit_exact():
    rng = np.random.default_rng(12)
    ens = _toy_ensemble(rng, n=12)
    ev = _random_events(rng, 4000, n_channels=4)
    counts = bin_spikes(ev, 50, 3000, ens.selected)
    mono, ez_mono, _ = run_eokf(TRANS_2D, ens, counts)
    split, ez_split, _, acc = run_eokf_split(TRANS_2D, ens, ev, 50, 3000)
    assert np.array_equal(mono, split)
    assert np.array_equal(ez_mono, ez_split)
    assert acc.events_accumulated + acc.dropped == len(ev)


def test_partition_equivalence_fixed_within_one_lsb():
    rng = np.random.default_rng(13)
    ens = _toy_ensemble(rng, n=12)
    fmt = FixedPointFormat.for_matrix(ens.E)
    ev = _random_events(rng, 4000, n_channels=4)
    counts = bin_spikes(ev, 50, 3000, ens.selected)
    _, ez_mono, _ = run_eokf(TRANS_2D, ens, counts, fmt=fmt)
    _, ez_split, _, _ = run_eokf_split(TRANS_2D, ens, ev, 50, 3000,
                                       mode="fixed", fmt=fmt)
    assert np.abs(ez_mono - ez_split).max() <= fmt.lsb


def test_partition_equivalence_fixed_bit_exact():
    rng = np.random.default_rng(13)
    ens = _toy_ensemble(rng, n=12)
    fmt = FixedPointFormat.for_matrix(ens.E)
    ev = _random_events(rng, 4000, n_channels=4)
    counts = bin_spikes(ev, 50, 3000, ens.selected)
    mono, ez_mono, _ = run_eokf(TRANS_2D, ens, counts, fmt=fmt)
    split, ez_split, _, _ = run_eokf_split(TRANS_2D, ens, ev, 50, 3000,
                                           mode="fixed", fmt=fmt)
    assert np.array_equal(ez_mono, ez_split)
    assert np.array_equal(mono, split)


def test_split_decode_order_invariant():
    rng = np.random.default_rng(14)
    ens = _toy_ensemble(rng, n=9)
    ev = _random_events(rng, 2000, n_channels=3)
    a, _, _, _ = run_eokf_split(TRANS_2D, ens, ev, 50, 3000)
    b, _, _, _ = run_eokf_split(TRANS_2D, ens, ev[rng.permutation(len(ev))],
                                50, 3000)
    assert np.array_equal(a, b)


def test_split_drops_events_outside_the_binned_span():
    ens = EnsembleModel(E=[[1.0, 2.0], [0.5, -1.0]], Qe=0.05 * np.eye(2),
                        selected=((0, 0), (0, 1)))
    # an event before t = 0 once stopped all accumulation; one past the last
    # bin was neither accumulated nor dropped
    ev = np.array([[-5, 0, 0], [10, 0, 0], [20, 0, 1], [3500, 0, 1],
                   [6000, 0, 0], [10 ** 9, 0, 1]])
    counts = bin_spikes(ev, 2, 3000, ens.selected)
    mono, _, _ = run_eokf(TRANS_2D, ens, counts)
    for mode in ("float", "fixed"):
        states, ez, _, acc = run_eokf_split(TRANS_2D, ens, ev, 2, 3000, mode=mode)
        assert np.array_equal(ez, [[3.0, -0.5], [2.0, -1.0]])
        assert (acc.events_accumulated, acc.dropped) == (3, 3)
        assert np.array_equal(states, mono)
    with pytest.raises(ValueError, match="bin_len"):
        run_eokf_split(TRANS_2D, ens, ev, 2, 0)


def test_split_counts_a_selected_unit_above_three():
    ens = EnsembleModel(E=[[1.0, 2.0], [0.5, -1.0]], Qe=0.05 * np.eye(2),
                        selected=((0, 0), (1, 5)))
    ev = np.array([[10, 0, 0], [20, 1, 5]])
    counts = bin_spikes(ev, 1, 100, ens.selected)
    assert counts.tolist() == [[1, 1]]
    mono, ez_mono, _ = run_eokf(TRANS_2D, ens, counts)
    split, ez_split, _, acc = run_eokf_split(TRANS_2D, ens, ev, 1, 100)
    assert np.array_equal(mono, split)
    assert np.array_equal(ez_mono, ez_split)
    assert acc.events_accumulated == 2


# The per-event datapath is the oracle of the batched one: accumulate() on
# every event in bin order (stable, so input order within a bin), emit_bin()
# at each bin's end, and events outside the binned span dropped.


def _per_event(ens, events, n_bins, bin_len, fmt=None) -> tuple:
    acc = ImplantAccumulator(ens, fmt)
    ev = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    b = ev[:, 0] // bin_len
    ez = np.empty((n_bins, ens.E.shape[0]))
    for k in range(n_bins):
        for _, ch, un in ev[b == k].tolist():
            acc.accumulate(ch, un)
        ez[k] = acc.emit_bin()
    acc.dropped += int(np.count_nonzero((b < 0) | (b >= n_bins)))
    return ez, acc


@st.composite
def _streams(draw) -> tuple:
    """(events, n_bins, bin_len, ensemble): unselected pairs, empty bins,
    times outside the span and any event order."""
    n_bins = draw(st.integers(0, 6))
    bin_len = draw(st.integers(1, 40))
    span = n_bins * bin_len
    rows = draw(st.lists(st.tuples(st.integers(-bin_len - 3, span + bin_len + 3),
                                   st.integers(-1, 4), st.integers(-1, 6)),
                         max_size=150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    selected = ((0, 0), (0, 2), (1, 1), (1, 5), (3, 0), (3, 6), (-1, 3))
    ens = EnsembleModel(E=rng.standard_normal((2, len(selected))),
                        Qe=0.05 * np.eye(2), selected=selected)
    return np.array(rows, dtype=np.int64).reshape(-1, 3), n_bins, bin_len, ens


@settings(max_examples=200, deadline=None)
@given(stream=_streams(), mode=st.sampled_from(["float", "fixed"]))
def test_accumulate_bins_equals_the_per_event_oracle(stream, mode):
    events, n_bins, bin_len, ens = stream
    fmt = FixedPointFormat.for_matrix(ens.E) if mode == "fixed" else None
    want, oracle = _per_event(ens, events, n_bins, bin_len, fmt)
    acc = ImplantAccumulator(ens, fmt)
    got = acc.accumulate_bins(events, n_bins, bin_len)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert ((acc.events_accumulated, acc.dropped)
            == (oracle.events_accumulated, oracle.dropped))
    assert acc.events_accumulated + acc.dropped == len(events)


@settings(max_examples=100, deadline=None)
@given(stream=_streams())
def test_split_equals_monolithic_on_random_streams(stream):
    events, n_bins, bin_len, ens = stream
    counts = bin_spikes(events, n_bins, bin_len, ens.selected)
    mono, ez_mono, ops_mono = run_eokf(TRANS_2D, ens, counts)
    split, ez_split, ops_split, _ = run_eokf_split(TRANS_2D, ens, events,
                                                   n_bins, bin_len)
    assert mono.tobytes() == split.tobytes()
    assert ez_mono.tobytes() == ez_split.tobytes()
    assert (ops_mono.step_total().as_dict()
            == ops_split.step_total().as_dict())
    fmt = FixedPointFormat.for_matrix(ens.E)
    _, ezq_mono, _ = run_eokf(TRANS_2D, ens, counts, fmt=fmt)
    _, ezq_split, _, _ = run_eokf_split(TRANS_2D, ens, events, n_bins, bin_len,
                                        mode="fixed", fmt=fmt)
    assert np.array_equal(ezq_mono, ezq_split)


def test_fixed_overflow_is_checked_on_running_sums_not_bin_totals():
    ens = EnsembleModel(E=[[1.0, -1.0], [0.0, 0.0]], Qe=0.05 * np.eye(2),
                        selected=((0, 0), (0, 1)))
    fmt = FixedPointFormat(bits=24, frac_bits=22)
    qmax = int(fmt.quantize(ens.E)[0, 0])
    n = INT32_MAX // qmax + 1           # n adds of +qmax pass INT32_MAX
    up, down = [[5, 0, 0]] * n, [[7, 0, 1]] * n
    # peaks above INT32_MAX mid-bin, ends the bin at zero
    rising = np.array(up + down)
    with pytest.raises(ArithmeticError, match="32-bit"):
        _per_event(ens, rising, 1, 100, fmt)
    with pytest.raises(ArithmeticError, match="32-bit"):
        ImplantAccumulator(ens, fmt).accumulate_bins(rising, 1, 100)
    with pytest.raises(ArithmeticError, match="32-bit"):
        run_eokf_split(TRANS_2D, ens, rising, 1, 100, mode="fixed", fmt=fmt)
    # the same adds interleaved never leave [-qmax, qmax]; falling first
    # peaks at (n - 1)*qmax only in input order; and n - 1 adds in each of
    # two bins stay in range per bin, though not summed over both
    interleaved = np.array([row for pair in zip(up, down) for row in pair])
    falling_first = np.array(down[1:] + up[1:] + up[1:])
    two_bins = np.array(up[1:] + [[105, 0, 0]] * (n - 1))
    for events, n_bins in ((interleaved, 1), (falling_first, 1), (two_bins, 2)):
        want, _ = _per_event(ens, events, n_bins, 100, fmt)
        got = ImplantAccumulator(ens, fmt).accumulate_bins(
            events, n_bins, 100)
        assert np.array_equal(got, want)


def test_accumulator_drops_unselected_and_emits_zero():
    rng = np.random.default_rng(15)
    ens = _toy_ensemble(rng, n=6)
    acc = ImplantAccumulator(ens)
    assert acc.accumulate(99, 0) is False
    assert acc.dropped == 1
    assert np.array_equal(acc.emit_bin(), np.zeros(2))
    assert acc.accumulate(0, 1) is True
    assert np.allclose(acc.emit_bin(), ens.E[:, 1])
    # reset happened
    assert np.array_equal(acc.emit_bin(), np.zeros(2))


def test_accumulator_is_fixed_point_exactly_when_given_a_format():
    ens = EnsembleModel(E=[[0.3, -1.7], [0.01, 0.6]], Qe=0.05 * np.eye(2),
                        selected=((0, 0), (0, 1)))
    fmt = FixedPointFormat(bits=8, frac_bits=2)        # LSB 0.25: every entry rounds
    flt, fix = ImplantAccumulator(ens), ImplantAccumulator(ens, fmt)
    assert flt.fmt is None and fix.fmt is fmt
    for acc in (flt, fix):
        acc.accumulate(0, 0)
        acc.accumulate(0, 1)
    assert flt.emit_bin().tolist() == [0.3 - 1.7, 0.01 + 0.6]
    assert fix.emit_bin().tolist() == [0.25 - 1.75, 0.0 + 0.5]


def test_split_mode_is_translated_once():
    ens = EnsembleModel(E=[[0.3, -1.7], [0.01, 0.6]], Qe=0.05 * np.eye(2),
                        selected=((0, 0), (0, 1)))
    ev = np.array([[10, 0, 0], [20, 0, 1]])
    fmt = FixedPointFormat(bits=8, frac_bits=2)
    _, ez_float, _, acc = run_eokf_split(TRANS_2D, ens, ev, 1, 100)
    assert acc.fmt is None and np.array_equal(ez_float, [[0.3 - 1.7, 0.01 + 0.6]])
    _, ez_fixed, _, acc = run_eokf_split(TRANS_2D, ens, ev, 1, 100, fmt=fmt)
    assert acc.fmt is fmt and np.array_equal(ez_fixed, [[-1.5, 0.5]])
    _, _, _, acc = run_eokf_split(TRANS_2D, ens, ev, 1, 100, mode="fixed")
    assert acc.fmt == FixedPointFormat.for_matrix(ens.E)
    with pytest.raises(ValueError, match="mode 'bogus'"):
        run_eokf_split(TRANS_2D, ens, ev, 1, 100, mode="bogus")


def test_reduce_observation_is_plain_matmul():
    rng = np.random.default_rng(16)
    ens = _toy_ensemble(rng, n=7)
    z = rng.poisson(2.0, size=7).astype(float)
    assert np.array_equal(reduce_observation(ens, z), ens.E @ z)


# --- fixed-point format ---------------------------------------------------------


def test_fixed_point_for_matrix_uses_full_range():
    M = np.array([[0.37, -1.9], [0.02, 0.6]])
    fmt = FixedPointFormat.for_matrix(M)
    q = fmt.quantize(M)
    assert np.abs(q).max() <= fmt.qmax
    assert np.abs(q).max() > fmt.qmax // 2  # scale is the largest that fits
    assert np.abs(fmt.dequantize(q) - M).max() <= fmt.lsb / 2


def test_fixed_point_round_trip_json():
    fmt = FixedPointFormat(bits=16, frac_bits=11)
    assert FixedPointFormat.from_json(fmt.to_json()) == fmt
    for bits, frac_bits in ((2, -3), (32, 40)):
        fmt = FixedPointFormat(bits=bits, frac_bits=frac_bits)
        assert FixedPointFormat.from_json(fmt.to_json()) == fmt


@pytest.mark.parametrize("bits, frac_bits", [(100, 90), (1, 0), (16.5, 11), (True, 0),
                                             (16, 11.0), (16, "11"), (16, False)])
def test_fixed_point_json_needs_integer_bits_in_range(bits, frac_bits):
    with pytest.raises(ValueError, match="bits must be an integer in"):
        FixedPointFormat.from_json({"bits": bits, "frac_bits": frac_bits})


def test_quantize_range_check():
    fmt = FixedPointFormat(bits=16, frac_bits=12)
    with pytest.raises(ValueError):
        fmt.quantize(np.array([100.0]))


# --- ensemble properties ---------------------------------------------------------


def test_training_set_upper_bound_property(small_session):
    """Ensemble train residual variance <= each member's own residual variance."""
    s = small_session
    ens = train_ensemble(s.counts, s.velocity, s.unit_channels)
    cols = selection_columns(ens.selected, s.unit_channels)
    Z = s.counts[:, cols].astype(float)
    X = s.velocity
    ens_resid = X - Z @ ens.E.T
    ens_var = float((ens_resid ** 2).mean())
    for j in range(Z.shape[1]):
        zj = Z[:, j:j + 1]
        coef = np.linalg.lstsq(zj, X, rcond=None)[0]
        var_j = float(((X - zj @ coef) ** 2).mean())
        assert ens_var <= var_j + 1e-9


def test_best_single_neuron_decoder_finds_the_predictor():
    rng = np.random.default_rng(17)
    t = rng.normal(size=300)
    x = np.outer(t, [0.8, -0.6])  # velocity rides a single latent factor
    counts = rng.poisson(5.0, size=(300, 5)).astype(float)
    counts[:, 3] = 4.0 + 2.0 * t  # unit 3 encodes that factor affinely
    unit, preds = best_single_neuron_decoder(counts, x)
    assert unit == 3
    assert np.abs(preds - x).max() < 1e-6


# --- reconstruction metrics -----------------------------------------------------


def test_mse_zero_on_identical_streams():
    t = np.random.default_rng(18).normal(size=(40, 2))
    assert evaluate_reconstruction(t, t)["mse"] == 0.0


@pytest.mark.filterwarnings("ignore:Precision loss")
def test_mse_of_constant_offset():
    t = np.zeros((25, 2))
    d = t + np.array([3.0, 4.0])
    # averaged over both components: (9 + 16) / 2
    assert evaluate_reconstruction(d, t)["mse"] == pytest.approx(12.5)
    assert evaluate_reconstruction(d, t)["residual_std"] == pytest.approx(0.0)


def test_per_direction_stats_buckets_by_truth_direction():
    ang = np.repeat(np.arange(8) * np.pi / 4, 30)
    truth = 10.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    decoded = truth.copy()
    decoded[:30, 0] += 5.0  # only the 0-direction bins carry error
    means, var, counts = per_direction_stats(decoded, truth)
    assert counts.tolist() == [30] * 8
    assert means[0] == pytest.approx(5.0)
    assert np.allclose(means[1:], 0.0)
    assert var > 0


# --- bundles and decoded streams -------------------------------------------------


def test_decoder_bundle_round_trip_eokf(tmp_path, small_session):
    s = small_session
    trans = train_transition(s.velocity)
    ens = train_ensemble(s.counts, s.velocity, s.unit_channels)
    bundle = DecoderBundle(transition=trans, observation=ens,
                           fixed=FixedPointFormat.for_matrix(ens.E),
                           meta={"note": "round-trip"})
    p = str(tmp_path / "eokf.json")
    store_decoder(bundle, p)
    back = load_decoder(p)
    assert back.kind == "eokf"
    assert np.allclose(back.observation.E, ens.E)
    assert back.observation.selected == ens.selected
    assert back.fixed == bundle.fixed
    assert back.meta["note"] == "round-trip"
    assert np.array_equal(back.x0, np.zeros(2))
    assert np.array_equal(back.P0, np.eye(2))


def test_decoder_bundle_round_trip_kf(tmp_path, small_session):
    s = small_session
    trans = train_transition(s.velocity)
    obs = train_observation_standard(s.counts, s.velocity)
    bundle = DecoderBundle(transition=trans, observation=obs)
    p = str(tmp_path / "kf.json")
    store_decoder(bundle, p)
    back = load_decoder(p)
    assert back.kind == "kf"
    assert np.allclose(back.observation.H, obs.H)
    assert np.allclose(back.observation.Q, obs.Q)
    assert back.fixed is None


@pytest.mark.parametrize("edit,drop", [({"kind": "ukf"}, None),
                                       ({"kind": "kf"}, None),   # no H in the file
                                       ({}, "E")])
def test_bundle_kind_validation(tmp_path, edit, drop):
    """The kind a decoder file names must be known and carry its model's keys."""
    ens = EnsembleModel(E=np.eye(2), Qe=np.eye(2), selected=((0, 0), (0, 1)))
    obj = {**DecoderBundle(transition=TRANS_2D, observation=ens).to_json(), **edit}
    obj.pop(drop, None)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(PayloadError, match="bad decoder model"):
        load_decoder(str(p))


def test_bad_bundle_json_raises_payload_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "kf"}')
    with pytest.raises(PayloadError):
        load_decoder(str(p))


def test_decoded_csv_round_trip(tmp_path):
    states = np.random.default_rng(19).normal(size=(15, 2))
    p = str(tmp_path / "dec.csv")
    store_decoded(p, states)
    back = load_decoded(p)
    assert np.array_equal(back, states)  # repr round-trips float64 exactly
    with open(p) as fh:
        assert fh.readline().strip() == "bin,vx,vy"
