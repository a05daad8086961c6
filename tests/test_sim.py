from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import buffer_accepts, digest, scan_tokens
from nsp import sim as sim_module
from nsp.decode import (EnsembleModel, FixedPointFormat, StateTransitionModel,
                        run_eokf_split, train_ensemble)
from nsp.sim import (OUTPUT_WORD_BITS, Completion, ConfigMismatchError,
                     SimConfig, Simulator, build_schedule, linear_fit_r2,
                     parse_sim_config, reference_ez, run_simulation,
                     sweep_spike_rate)
from nsp.detect import Tokens, detect_trace, estimate_threshold
from nsp.synthdata import (PayloadError, RawTrace, SessionConfig, TraceConfig,
                           gen_reach_session, gen_spike_trace, tier_config)


def _ensemble(channels, units=1, d=2, seed=0):
    selected = tuple((ch, u) for ch in channels for u in range(units))
    rng = np.random.default_rng(seed)
    E = rng.normal(0.0, 0.1, size=(d, len(selected)))
    return EnsembleModel(E=E, Qe=0.1 * np.eye(d), selected=selected)


def _sim(config, channels, schedule, n_bins=1, units=1, label=0):
    ens = _ensemble(channels, units=units)
    classifiers = {ch: (lambda f1, f2: label) for ch in channels}
    return Simulator(config, ens, classifiers, schedule, n_bins)


# --- configuration ------------------------------------------------------------


def test_default_config_shape():
    cfg = SimConfig()
    cfg.validate()
    assert cfg.n_groups == 3
    assert cfg.bin_len == 3000
    # window tail + two conveyor lengths + buffer + slack
    assert cfg.grace_cycles == 31 + 64 + 4 + 4


def test_config_rejects_bad_grouping():
    with pytest.raises(ValueError):
        SimConfig(n_channels=96, group_size=36).validate()
    with pytest.raises(ValueError):
        SimConfig(group_size=32, conveyor_slots=16).validate()
    with pytest.raises(ValueError):
        SimConfig(decoder_buffer_depth=0).validate()
    # the default group of 32 taps is the widest a detector re-arm allows
    with pytest.raises(ValueError, match="re-arm"):
        SimConfig(n_channels=33, group_size=33, conveyor_slots=33).validate()


def test_config_rejects_bin_shorter_than_grace():
    with pytest.raises(ValueError, match="grace"):
        SimConfig(bin_ms=3).validate()


def test_config_parser_tolerates_comments_and_blanks():
    cfg = parse_sim_config("""
# fabric under test
n_channels = 8    # small
group_size = 8

conveyor_slots = 8
""")
    assert cfg.n_channels == 8 and cfg.conveyor_slots == 8


@pytest.mark.parametrize("fixed", [
    "pre_samples = 4\n",
    "output_width_bits = 16\nchannel_gating = true\npre_samples = 4\n",
    "channel_gating = True\n", "channel_gating = 1\n", "channel_gating = YES\n",
])
def test_config_parser_reads_files_that_name_the_fixed_settings(fixed):
    # older configs carry the detector's pre offset, channel gating and the
    # output word width
    text = "n_channels = 8\ngroup_size = 4\nconveyor_slots = 8\n"
    assert parse_sim_config(text + fixed) == parse_sim_config(text)


@pytest.mark.parametrize("text", [
    "n_chans = 96",                 # unknown key
    "n_channels: 96",               # missing '='
    "n_channels = ninety-six",      # not an integer
    "channel_gating = maybe",       # not the fixed rule
    "pre_samples = 0",              # not the detector's fixed offset
    "pre_samples = 5",
    "pre_samples = four",
    "channel_gating = false",       # gating is the fabric's fixed rule
    "channel_gating = 0",
    "output_width_bits = 32",       # state words are 16 bits
    "n_channels = 8\nn_channels = 96",    # a key given twice
    "pre_samples = 4\npre_samples = 4",
])
def test_config_parser_rejects_malformed_lines(text):
    with pytest.raises(PayloadError):
        parse_sim_config(text)


# --- single-token mechanics ------------------------------------------------------


def test_quiet_fabric_emits_zero_vectors():
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    sim = _sim(cfg, range(4), schedule=[], n_bins=3).run()
    c = sim.counters
    assert c.detections == c.sorts == c.decoder_accepts == 0
    assert c.stall_cycles == c.tokens_lost == 0
    assert c.bins_emitted == 3
    assert not sim._ez.any()


def test_tap_to_head_latency_equals_tap_distance():
    cfg = SimConfig(n_channels=8, group_size=8, conveyor_slots=8)
    sched = [Completion(cycle=10, channel=7, t=10, f1=40, f2=-30)]
    sim = _sim(cfg, range(8), sched)
    sorted_at = None
    for _ in range(40):
        sim.step()
        if sim.counters.sorts == 1 and sorted_at is None:
            sorted_at = sim.cycle - 1
    assert sorted_at == 10 + 7  # tap 7 sits seven advances from the head
    assert sim.counters.decoder_accepts == 1
    sim.run()
    assert sim.done and sim.counters.stall_cycles == 0


def test_head_tap_sorts_in_its_completion_cycle():
    cfg = SimConfig(n_channels=8, group_size=8, conveyor_slots=8)
    sched = [Completion(cycle=5, channel=0, t=5, f1=1, f2=-1)]
    sim = _sim(cfg, range(8), sched)
    for _ in range(6):
        sim.step()
    assert sim.counters.sorts == 1  # slot 0 is the conveyor head


# --- stalling -----------------------------------------------------------------


def test_passing_train_stalls_lower_tap_until_gap():
    """A tap blocked by every higher channel's token waits group_size-1 cycles."""
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    sched = [Completion(cycle=0, channel=ch, t=0, f1=0, f2=0) for ch in (1, 2, 3)]
    sched.append(Completion(cycle=1, channel=0, t=1, f1=0, f2=0))
    sim = _sim(cfg, range(4), sched)
    held_streak = 0
    for _ in range(10):
        sim.step()
        held_streak = max(held_streak, len(sim._held) and held_streak + 1)
    sim.run()
    c = sim.counters
    assert c.stall_cycles == 3
    assert held_streak <= cfg.conveyor_slots - 1
    assert c.sorts == 4 and c.decoder_accepts == 4
    assert c.tokens_lost == 0


def test_simultaneous_full_group_burst_is_stall_free():
    cfg = SimConfig(n_channels=32, group_size=32)
    sched = [Completion(cycle=0, channel=ch, t=0, f1=0, f2=0) for ch in range(32)]
    sim = _sim(cfg, range(32), sched).run()
    c = sim.counters
    assert c.detections == c.sorts == c.decoder_accepts == 32
    assert c.stall_cycles == 0   # one tap per channel: no insertion conflict
    assert c.tokens_lost == 0    # single group drains one per cycle
    assert sim.pipeline_empty


def test_completion_during_own_stall_is_rejected():
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    sched = [Completion(cycle=0, channel=ch, t=0, f1=0, f2=0) for ch in (1, 2, 3)]
    sched += [Completion(cycle=1, channel=0, t=1, f1=0, f2=0),
              Completion(cycle=2, channel=0, t=2, f1=0, f2=0)]
    sim = _sim(cfg, range(4), sched)
    with pytest.raises(AssertionError, match="re-arm"):
        for _ in range(5):
            sim.step()


# --- decoder buffer contention ---------------------------------------------------


def test_three_group_burst_overflows_depth_four_buffer():
    cfg = SimConfig(n_channels=6, group_size=2, conveyor_slots=2)
    sched = [Completion(cycle=0, channel=ch, t=0, f1=0, f2=0) for ch in range(6)]
    sim = _sim(cfg, range(6), sched).run()
    c = sim.counters
    assert c.detections == c.sorts == 6
    assert c.decoder_collisions == 4   # two extra arrivals in each of two cycles
    assert c.tokens_lost == 1          # sixth event found the buffer full
    assert c.decoder_accepts == 5
    # conservation after draining: generated == accepted + lost
    assert c.detections == c.gated_tokens + c.decoder_accepts + c.tokens_lost


def _overflowing_periods(arrival, depth):
    """Positions of the arrivals in the no-drop busy periods that hold an
    arrival finding *depth* items in the buffer, from the oracle alone."""
    accepts, _ = buffer_accepts(arrival, len(arrival) + 1)
    periods = []
    for i, cyc in enumerate(arrival):
        if i == 0 or accepts[i - 1] <= cyc:
            periods.append([])
        periods[-1].append((i, sum(acc > cyc for acc in accepts[:i]) >= depth))
    return [i for period in periods if any(full for _, full in period)
            for i, _ in period]


def _check_buffer(arrival, depth):
    """_buffer_accepts equals the oracle, and only the overflowing busy
    periods go through the per-arrival loop."""
    with mock.patch.object(sim_module, "_admit", wraps=sim_module._admit) as admit:
        accepts, taken = sim_module._buffer_accepts(np.array(arrival, dtype=np.int64), depth)
    assert (accepts.tolist(), taken.tolist()) == buffer_accepts(arrival, depth)
    looped = _overflowing_periods(arrival, depth)
    assert [call.args[0] for call in admit.call_args_list] == (
        [[arrival[i] for i in looped]] if looped else [])
    return accepts.tolist(), taken.tolist()


@pytest.mark.parametrize("arrival, depth, expected, looped", [
    ([], 4, ([], []), False),
    # the second arrival comes in the cycle the first is accepted: it finds
    # the buffer empty again
    ([0, 1], 1, ([1, 2], [0, 1]), False),
    ([3, 4, 4, 5], 2, ([4, 5, 6, 7], [0, 1, 2, 3]), False),
    # the first busy period overflows
    ([0, 0, 0, 5], 1, ([1, 6], [0, 3]), True),
    ([2, 2, 2, 2, 2, 2, 9], 3, ([3, 4, 5, 10], [0, 1, 2, 6]), True),
    # two overflowing busy periods with one idle cycle (3) between them
    ([0, 0, 3, 3], 1, ([1, 4], [0, 2]), True),
    ([0, 0, 0, 4, 4, 4], 2, ([1, 2, 5, 6], [0, 1, 3, 4]), True),
])
def test_decoder_buffer_closed_form_cases(arrival, depth, expected, looped):
    assert _check_buffer(arrival, depth) == expected
    assert bool(_overflowing_periods(arrival, depth)) == looped


@settings(max_examples=300, deadline=None)
@given(start=st.integers(0, 50),
       gaps=st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 5, 30]), max_size=400),
       depth=st.integers(1, 8))
def test_decoder_buffer_closed_form_equals_the_per_arrival_loop(start, gaps, depth):
    _check_buffer((start + np.cumsum(gaps, dtype=np.int64)).tolist(), depth)


def test_gated_channel_never_reaches_a_sorter():
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    ens = _ensemble([0, 1])  # channels 2 and 3 carry no selected unit
    classifiers = {ch: (lambda f1, f2: 0) for ch in range(4)}
    sched = [Completion(cycle=0, channel=3, t=0, f1=0, f2=0),
             Completion(cycle=0, channel=1, t=0, f1=0, f2=0)]
    sim = Simulator(cfg, ens, classifiers, sched, n_bins=1).run()
    assert sim.counters.gated_tokens == 1
    assert sim.counters.sorts == 1
    assert sim.sorts_by_channel[3] == 0


# --- bin attribution -------------------------------------------------------------


def test_token_is_binned_by_detection_time():
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    # detected in the last samples of bin 0; accepted after the edge
    sched = [Completion(cycle=2999, channel=1, t=2995, f1=0, f2=0)]
    sim = _sim(cfg, range(4), sched, n_bins=2).run()
    assert sim.counters.edge_crossings == 1
    assert sim.counters.late_tokens == 0
    assert sim._banks[0].sum() == 1 and sim._banks[1].sum() == 0


def test_hopelessly_delayed_token_spills_into_oldest_open_bank():
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    # a completion queued long after its detection time (not producible by
    # build_schedule): its bank is gone, so it is flagged and spilled
    sched = [Completion(cycle=4000, channel=1, t=10, f1=0, f2=0)]
    sim = _sim(cfg, range(4), sched, n_bins=3).run()
    assert sim.counters.late_tokens == 1
    assert sim._banks[1].sum() == 1   # oldest bank still open when it landed


# --- staged run() vs the per-cycle step() oracle ----------------------------------


def _random_fabric(seed):
    """A small fabric with a random schedule: bursts, short re-arm gaps, late tokens."""
    rng = np.random.default_rng(seed)
    group_size = int(rng.choice([1, 2, 4, 8]))
    n = group_size * int(rng.integers(1, 4))
    cfg = SimConfig(n_channels=n, group_size=group_size,
                    conveyor_slots=group_size + int(rng.integers(0, 5)),
                    decoder_buffer_depth=int(rng.integers(1, 5)),
                    clock_hz=1000, bin_ms=100)
    n_bins = int(rng.integers(1, 5))
    pairs = [(ch, u) for ch in range(n) for u in range(3)]
    keep = rng.random(len(pairs)) < 0.5
    keep[0] = True
    selected = tuple(p for p, k in zip(pairs, keep) if k)
    ens = EnsembleModel(E=rng.normal(0.0, 0.1, size=(2, len(selected))),
                        Qe=0.1 * np.eye(2), selected=selected)
    classifiers = {ch: (lambda f1, f2, ch=ch: (f1 - f2 + ch) % 3) for ch in range(n)}
    grid = int(rng.integers(1, 40))     # a coarse grid lines channels up in bursts
    schedule = []
    for ch in range(n):
        t = grid * int(rng.integers(0, 3))
        while t + 31 < n_bins * cfg.bin_len:
            cycle = t + 31
            if rng.random() < 0.02:
                cycle += int(rng.integers(100, 300))   # queued long after detection
            schedule.append(Completion(cycle=cycle, channel=ch, t=t,
                                       f1=int(rng.integers(-128, 128)),
                                       f2=int(rng.integers(-128, 128))))
            gap = (int(rng.integers(1, 4)) if rng.random() < 0.05
                   else 32 + grid * int(rng.integers(0, 4)))
            t += gap
    return cfg, ens, classifiers, schedule, n_bins


def _outcome(sim, drive):
    try:
        drive(sim)
        err = None
    except AssertionError as exc:
        err = str(exc)
    return {"err": err, "cycle": sim.cycle, "counters": sim.counters.as_dict(),
            "ez": sim._ez.tolist(), "banks": sim._banks.tolist(),
            "accepted": sim.accepted_events.tolist(),
            "sorts_by_channel": sim.sorts_by_channel.tolist()}


def _step_until_done(sim):
    while not sim.done:
        sim.step()


def _step_then_run(n_steps):
    def drive(sim):
        for _ in range(n_steps):
            if sim.done:
                break
            sim.step()
        drive.resumed = {"held": bool(sim._held), "ring": bool(sim._exits),
                         "fifo": bool(sim._fifo)}
        sim.run()
    drive.resumed = {}
    return drive


def test_run_equals_the_per_cycle_step_loop():
    seen = dict.fromkeys(("stall_cycles", "decoder_collisions", "tokens_lost",
                          "gated_tokens", "late_tokens", "rearm", "wide_ring"), 0)
    resumed = dict.fromkeys(("held", "ring", "fifo"), 0)
    for seed in range(300):
        cfg, ens, classifiers, schedule, n_bins = _random_fabric(seed)
        fast = _outcome(Simulator(cfg, ens, classifiers, schedule, n_bins),
                        Simulator.run)
        slow = _outcome(Simulator(cfg, ens, classifiers, schedule, n_bins),
                        _step_until_done)
        assert fast == slow, seed
        # run() on a simulator that step() has advanced finishes by stepping:
        # step through the cycle of a random completion, then run
        pick = np.random.default_rng(seed).integers(max(len(schedule), 1))
        drive = _step_then_run(schedule[pick].cycle + 1 if schedule else 0)
        assert _outcome(Simulator(cfg, ens, classifiers, schedule, n_bins),
                        drive) == slow, seed
        for key, state in drive.resumed.items():
            resumed[key] += state
        for key in seen:
            if key in fast["counters"]:
                seen[key] += fast["counters"][key] > 0
        seen["rearm"] += fast["err"] is not None and "re-arm" in fast["err"]
        seen["wide_ring"] += cfg.conveyor_slots > cfg.group_size
    # the random fabrics reach every contention case, and run() takes over
    # from held tokens, ring tokens and a non-empty decoder buffer
    assert all(count >= 5 for count in seen.values()), seen
    assert all(count >= 5 for count in resumed.values()), resumed


def _crowded_fabric(seed):
    """Bursts on one or two groups: each burst lines many channels up on one
    first-choice exit (cycle + tap), so ties and busy periods of dozens of
    tokens form; some completions fall before cycle 0, and a channel may
    complete again while its previous token is still held."""
    rng = np.random.default_rng(seed)
    group_size = int(rng.choice([4, 8, 16]))
    n = group_size * int(rng.integers(1, 3))
    cfg = SimConfig(n_channels=n, group_size=group_size,
                    conveyor_slots=group_size + int(rng.integers(0, 3)),
                    decoder_buffer_depth=int(rng.integers(1, 5)),
                    clock_hz=1000, bin_ms=100)
    ens = _ensemble(range(0, n, 2), units=3, seed=seed)
    classifiers = {ch: (lambda f1, f2, ch=ch: (7 * f1 + f2 + ch) % 3) for ch in range(n)}
    schedule = []
    for _ in range(int(rng.integers(1, 6))):
        exit0 = int(rng.integers(-20, 150))
        for ch in range(n):
            if rng.random() < 0.7:
                cycle = exit0 - ch % group_size + int(rng.integers(0, 3))
                schedule.append(Completion(cycle=cycle, channel=ch, t=max(cycle - 31, 0),
                                           f1=int(rng.integers(-128, 128)),
                                           f2=int(rng.integers(-128, 128))))
    return cfg, ens, classifiers, schedule, 2


def test_run_equals_step_on_ties_long_busy_periods_and_negative_cycles():
    seen = dict.fromkeys(("tie", "long", "negative", "rearm", "lost"), 0)
    for seed in range(200):
        cfg, ens, classifiers, schedule, n_bins = _crowded_fabric(seed)
        fast = _outcome(Simulator(cfg, ens, classifiers, schedule, n_bins), Simulator.run)
        slow = _outcome(Simulator(cfg, ens, classifiers, schedule, n_bins), _step_until_done)
        assert fast == slow, seed
        firsts = [(tok.channel // cfg.group_size, max(tok.cycle, 0) + tok.channel % cfg.group_size)
                  for tok in schedule]
        seen["tie"] += len(set(firsts)) < len(firsts)
        seen["long"] += fast["counters"]["stall_cycles"] >= 40
        seen["negative"] += any(tok.cycle < 0 for tok in schedule)
        seen["rearm"] += fast["err"] is not None and "re-arm" in fast["err"]
        seen["lost"] += fast["counters"]["tokens_lost"] > 0
    assert all(count >= 5 for count in seen.values()), seen


def test_a_token_schedule_runs_like_its_completion_rows():
    for seed in range(40):
        cfg, ens, classifiers, schedule, n_bins = _random_fabric(seed)
        rows = [tok._replace(cycle=tok.t + 31) for tok in schedule]
        tokens = Tokens.of(rows)
        for drive in (Simulator.run, _step_until_done):
            assert (_outcome(Simulator(cfg, ens, classifiers, tokens, n_bins), drive)
                    == _outcome(Simulator(cfg, ens, classifiers, rows, n_bins), drive)), seed


def test_run_reports_a_doubly_blocked_channel_like_step():
    # channel 1's token leaves the ring in cycle 1, so both cycle-1 tokens of
    # channel 0 are blocked at once; the held store keeps only one of them
    cfg = SimConfig(n_channels=2, group_size=2, conveyor_slots=2)
    sched = [Completion(cycle=0, channel=1, t=0, f1=0, f2=0),
             Completion(cycle=1, channel=0, t=1, f1=0, f2=0),
             Completion(cycle=1, channel=0, t=1, f1=1, f2=1)]
    fast = _outcome(_sim(cfg, range(2), sched), Simulator.run)
    assert "conservation" in fast["err"]
    assert fast == _outcome(_sim(cfg, range(2), sched), _step_until_done)


@pytest.mark.parametrize("late", [False, True])
def test_a_bank_still_accepts_in_its_close_cycle(late):
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    close = cfg.bin_len + cfg.grace_cycles
    # tap 0 exits in its completion cycle and is accepted one cycle later
    sched = [Completion(cycle=close - 1 + late, channel=0, t=10, f1=0, f2=0)]
    fast = _sim(cfg, range(4), sched, n_bins=2).run()
    slow = _sim(cfg, range(4), sched, n_bins=2)
    _step_until_done(slow)
    assert fast.counters == slow.counters
    assert fast.counters.late_tokens == late
    assert fast._banks[:, 0].tolist() == ([0, 1] if late else [1, 0])


def test_run_makes_no_step_calls():
    cfg = SimConfig(n_channels=8, group_size=8, conveyor_slots=12)
    sched = [Completion(cycle=10, channel=7, t=0, f1=0, f2=0)]
    sim = _sim(cfg, range(8), sched, n_bins=2)
    oracle = _sim(cfg, range(8), sched, n_bins=2)
    sim.step = lambda: pytest.fail("run() stepped a valid schedule")
    sim.run()
    _step_until_done(oracle)
    assert sim.counters == oracle.counters and sim.cycle == oracle.cycle
    assert sim.counters.sorts == sim.counters.decoder_accepts == 1

    # a simulator that step() has advanced finishes by stepping
    stepped = _sim(cfg, range(8), sched, n_bins=2)
    stepped.step()
    step_once, calls = stepped.step, []
    stepped.step = lambda: calls.append(stepped.cycle) or step_once()
    stepped.run()
    assert calls == list(range(1, oracle.cycle))
    assert stepped.counters == oracle.counters and stepped.cycle == oracle.cycle


@st.composite
def _fabrics(draw):
    """A small fabric and a schedule that mostly keeps the re-arm rule.

    Windows of one channel start 32 or more samples apart, inside the binned
    span, and channels start close enough together to contend for slots. Now
    and then a completion is queued long after its detection, which can make
    it late or break the re-arm rule, or lands before cycle 0.
    """
    group_size = draw(st.sampled_from([1, 2, 4]))
    n = group_size * draw(st.integers(1, 3))
    cfg = SimConfig(n_channels=n, group_size=group_size,
                    conveyor_slots=group_size + draw(st.integers(0, 3)),
                    decoder_buffer_depth=draw(st.integers(1, 4)),
                    clock_hz=1000, bin_ms=100)
    n_bins = draw(st.integers(1, 3))
    pairs = [(ch, u) for ch in range(n) for u in range(2)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    selected = tuple(p for p, k in zip(pairs, keep) if k) or (pairs[0],)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ens = EnsembleModel(E=rng.normal(0.0, 0.1, size=(2, len(selected))),
                        Qe=0.1 * np.eye(2), selected=selected)
    schedule = []
    for ch in range(n):
        t = draw(st.integers(0, 6))
        for gap in draw(st.lists(st.sampled_from([32, 33, 34, 35, 40, 48]),
                                 max_size=8)):
            if t + 31 >= n_bins * cfg.bin_len:
                break
            delay = draw(st.sampled_from([0, 0, 0, 0, 0, 0, 0, 0, -40, 150]))
            schedule.append(Completion(cycle=t + 31 + delay, channel=ch, t=t,
                                       f1=draw(st.integers(-128, 127)),
                                       f2=draw(st.integers(-128, 127))))
            t += gap
    return cfg, ens, schedule, n_bins


@settings(max_examples=200, deadline=None)
@given(fabric=_fabrics())
def test_random_fabrics_conserve_tokens_and_match_the_oracle(fabric):
    cfg, ens, schedule, n_bins = fabric
    classifiers = {ch: (lambda f1, f2, ch=ch: (f1 + f2 + ch) % 3)
                   for ch in range(cfg.n_channels)}
    sim = Simulator(cfg, ens, classifiers, schedule, n_bins)
    fast = _outcome(sim, Simulator.run)
    assert fast == _outcome(Simulator(cfg, ens, classifiers, schedule, n_bins),
                            _step_until_done)
    if fast["err"] is not None:
        return
    c = sim.counters
    assert c.detections == len(schedule)
    assert c.detections == c.gated_tokens + c.decoder_accepts + c.tokens_lost
    if c.late_tokens == 0:
        events = np.array(sim.accepted_events, dtype=np.int64).reshape(-1, 3)
        assert np.array_equal(sim._ez, reference_ez(events, ens, n_bins, cfg.bin_len))


# --- schedule building ------------------------------------------------------------


def test_build_schedule_equals_per_window_detection():
    rng = np.random.default_rng(8)
    n_samples = 3000
    data = np.clip(np.round(rng.normal(0, 10.0, (4, n_samples))),
                   -128, 127).astype(np.int8)
    data[0, 1] = -100                  # crossing in the first 4 samples: start clamps to 0
    data[1, n_samples - 5] = 110       # crossing whose window cannot complete
    trace = RawTrace(data=data, sample_rate=30000)
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    models = {ch: SimpleNamespace() for ch in (0, 1, 3)}   # only the keys are read
    thresholds = {0: 30.0, 1: 28.0, 3: 35.0}
    schedule = build_schedule(trace, models, cfg, thresholds)

    assert list(schedule) == scan_tokens(data, thresholds, sorted(models))[1]
    assert all(type(v) is int for tok in schedule for v in tok)
    assert schedule.t[0] == 0                              # the clamped window
    assert max(tok.t for tok in schedule if tok.channel == 1) < n_samples - 32
    assert {tok.channel for tok in schedule} == {0, 1, 3}  # unmodeled channel stays silent


@settings(max_examples=50, deadline=None)
@given(n_channels=st.integers(1, 4), n_samples=st.integers(32, 400),
       seed=st.integers(0, 2 ** 32 - 1), modeled=st.sets(st.integers(0, 3)),
       threshold=st.floats(1.0, 130.0))
@example(n_channels=4, n_samples=400, seed=3, modeled={0, 3}, threshold=20.0)
@example(n_channels=4, n_samples=400, seed=4, modeled={1}, threshold=20.0)
def test_build_schedule_equals_detect_trace_on_modeled_channels(
        n_channels, n_samples, seed, modeled, threshold):
    rng = np.random.default_rng(seed)
    data = rng.integers(-128, 128, (n_channels, n_samples)).astype(np.int8)
    data[rng.random(data.shape) < 0.8] //= 8        # mostly quiet, some crossings
    trace = RawTrace(data=data, sample_rate=30000)
    models = {ch: None for ch in modeled if ch < n_channels}
    _, tokens = detect_trace(trace, threshold)
    schedule = build_schedule(trace, models, SimConfig(),
                              dict.fromkeys(models, threshold))
    assert list(schedule) == [tok for tok in tokens if tok.channel in models]


# --- whole-trace runs -------------------------------------------------------------


def _small_models(trace, labels, channels):
    from nsp.evaluation import channel_feature_dataset
    from nsp.sort_offline import train_channel_model

    models = {}
    for ch in channels:
        feats, labs, _, _ = channel_feature_dataset(trace, labels, ch)
        models[ch] = train_channel_model(feats, labs)
    return models


@pytest.fixture(scope="module")
def sim_setup():
    cfg = SimConfig(n_channels=8, group_size=4, conveyor_slots=8)
    trace, labels = gen_spike_trace(
        tier_config("easy", n_channels=8, duration_s=2.0), seed=77)
    models = _small_models(trace, labels, range(8))
    ens = _ensemble(range(8), units=2, seed=3)
    return cfg, trace, models, ens


def test_simulated_output_matches_order_free_reference(sim_setup):
    cfg, trace, models, ens = sim_setup
    res = run_simulation(trace, models, ens, cfg)
    assert res.counters.tokens_lost == 0
    assert res.counters.late_tokens == 0
    ref = reference_ez(res.accepted_events, ens, res.n_bins, cfg.bin_len)
    assert np.array_equal(res.ez, ref)
    assert res.counters.detections > 100


def test_accepted_events_match_offline_classification(sim_setup):
    cfg, trace, models, ens = sim_setup
    from nsp.sort_offline import classify_spike

    res = run_simulation(trace, models, ens, cfg)
    offline = set()
    for comp in build_schedule(trace, models, cfg):
        label = classify_spike(models[comp.channel], comp.f1, comp.f2)
        offline.add((comp.t, comp.channel, int(label)))
    assert {tuple(r) for r in res.accepted_events} == offline


def test_simulation_is_deterministic(sim_setup):
    cfg, trace, models, ens = sim_setup
    a = run_simulation(trace, models, ens, cfg)
    b = run_simulation(trace, models, ens, cfg)
    assert a.counters.as_dict() == b.counters.as_dict()
    assert np.array_equal(a.ez, b.ez)
    assert np.array_equal(a.sorts_by_channel, b.sorts_by_channel)


def test_bit_rate_counters(sim_setup):
    cfg, trace, models, ens = sim_setup
    res = run_simulation(trace, models, ens, cfg)
    n_samples = trace.data.shape[1]
    assert res.counters.input_bits == 8 * n_samples * 8
    assert res.counters.output_bits == res.n_bins * 2 * OUTPUT_WORD_BITS


def test_channel_count_mismatch_is_rejected(sim_setup):
    _, trace, models, ens = sim_setup
    with pytest.raises(ConfigMismatchError):
        run_simulation(trace, models, ens, SimConfig(n_channels=4, group_size=4))


def test_sample_rate_must_equal_the_fabric_clock():
    trace, _ = gen_spike_trace(TraceConfig(n_channels=4, duration_s=0.5,
                                           sample_rate=20000), seed=5)
    ens = _ensemble(range(4))
    models = {ch: (lambda f1, f2: 0) for ch in range(4)}
    with pytest.raises(ConfigMismatchError, match="20000 Hz"):
        run_simulation(trace, models, ens, SimConfig(n_channels=4, group_size=4))
    res = run_simulation(trace, models, ens,
                         SimConfig(n_channels=4, group_size=4, clock_hz=20000))
    assert res.config.bin_len == 2000 and res.n_bins == 5


@pytest.mark.parametrize("channel", [4, -1])
def test_build_schedule_rejects_a_model_channel_the_trace_lacks(channel):
    trace = RawTrace(data=np.zeros((4, 100), dtype=np.int8))
    with pytest.raises(ConfigMismatchError, match=rf"\[{channel}\]"):
        build_schedule(trace, {0: None, channel: None}, SimConfig())


def test_foreign_channel_in_schedule_is_rejected():
    cfg = SimConfig(n_channels=4, group_size=4, conveyor_slots=4)
    sched = [Completion(cycle=0, channel=9, t=0, f1=0, f2=0)]
    with pytest.raises(ConfigMismatchError):
        _sim(cfg, range(4), sched)


# --- pinned stream outputs -------------------------------------------------------


@pytest.fixture(scope="module")
def stream_inputs():
    """(trace, sorters, ensemble) shaped like the two fabric benchmark workloads
    at 16 channels x 2 s. "chain": medium tier at 30 Hz, tree sorters trained
    on matched ground truth, a trained ensemble that gates channels 3 and 11
    and leaves some units of the others unselected. "fabric": 150 Hz, online
    sorters, and a seeded ensemble over every (channel, 0..2) pair."""
    from nsp.sort_online import train_online

    trace, labels = gen_spike_trace(
        tier_config("medium", n_channels=16, duration_s=2.0, firing_rate_hz=30.0), seed=5)
    session = gen_reach_session(SessionConfig(n_units=48, untuned_fraction=0.5), seed=5)
    chain = (trace, _small_models(trace, labels, range(16)),
             train_ensemble(session.counts, session.velocity, session.unit_channels))
    trace, _ = gen_spike_trace(
        tier_config("medium", n_channels=16, duration_s=2.0, firing_rate_hz=150.0), seed=6)
    _, tokens = detect_trace(trace, [estimate_threshold(row) for row in trace.data])
    selected = [(ch, u) for ch in range(16) for u in range(3)]
    E = np.random.default_rng(6).normal(0.0, 0.05, (2, len(selected)))
    fabric = (trace, train_online(tokens),
              EnsembleModel(E=E, Qe=0.1 * np.eye(2), selected=selected))
    return {"chain": chain, "fabric": fabric}


# (input, config settings, counters, ez, counts, accepted_events, sorts_by_channel);
# a change that alters an output on purpose re-records its digests
PINNED_STREAMS = {
    "chain": ("chain", {}, "3659b02d81828cee", "7eccb7ab11c3837b",
              "21aa7111028688c8", "1b393af46b5b7a96", "803201198778dd55"),
    "chain-group-1": ("chain", dict(group_size=1), "b0f288ecfb81c87d",
                      "7eccb7ab11c3837b", "21aa7111028688c8", "f8d0b658172ea3e9",
                      "803201198778dd55"),
    "fabric": ("fabric", dict(group_size=4), "5b1ab15586cb1cd5", "127da17f67c62c04",
               "68b91baff7118a3b", "d48facc34f97bd71", "92ee35bc1aa2427b"),
    "fabric-depth-1-loses": ("fabric", dict(group_size=4, decoder_buffer_depth=1),
                             "514bdd0a08479a6a", "0b9b222d259a9654",
                             "e04abbf240431cba", "82e0efc8cfc2e060",
                             "92ee35bc1aa2427b"),
    "fabric-group-1": ("fabric", dict(group_size=1), "ece4c0d7df21273d",
                       "127da17f67c62c04", "68b91baff7118a3b", "54c6dcb13d65959a",
                       "92ee35bc1aa2427b"),
}


@pytest.mark.parametrize("case", PINNED_STREAMS)
def test_stream_outputs_are_pinned(stream_inputs, case):
    name, settings_, *want = PINNED_STREAMS[case]
    trace, sorters, ens = stream_inputs[name]
    cfg = SimConfig(**{"n_channels": 16, "group_size": 16, "conveyor_slots": 16,
                       **settings_})
    res = run_simulation(trace, sorters, ens, cfg)
    got = [digest(x) for x in (res.counters.as_dict(), res.ez, res.counts,
                                res.accepted_events, res.sorts_by_channel)]
    assert got == want
    assert (res.counters.tokens_lost > 0) == (case == "fabric-depth-1-loses")


# (states, ez, events accumulated, events dropped) of the implant split over
# the "chain" stream's accepted events
PINNED_SPLIT = {"float": ("0d393d22f6c3cc03", "7eccb7ab11c3837b", 393, 632),
                "fixed": ("bb2be323ba4a4e59", "7c32b31421fba58d", 393, 632)}


@pytest.mark.parametrize("mode", PINNED_SPLIT)
def test_split_decode_of_the_stream_is_pinned(stream_inputs, mode):
    trace, sorters, ens = stream_inputs["chain"]
    cfg = SimConfig(n_channels=16, group_size=16, conveyor_slots=16)
    res = run_simulation(trace, sorters, ens, cfg)
    fmt = FixedPointFormat.for_matrix(ens.E) if mode == "fixed" else None
    trans = StateTransitionModel(A=0.9 * np.eye(2), W=0.1 * np.eye(2))
    states, ez, _, acc = run_eokf_split(trans, ens, res.accepted_events, res.n_bins,
                                        cfg.bin_len, fmt=fmt)
    got = (digest(states), digest(ez), acc.events_accumulated, acc.dropped)
    assert got == PINNED_SPLIT[mode]


# --- rate sweep -------------------------------------------------------------------


def test_linear_fit_r2_bounds():
    x = np.arange(10.0)
    assert linear_fit_r2(x, 3 * x + 1) == pytest.approx(1.0)
    assert linear_fit_r2(x, np.full(10, 2.0)) == 1.0
    rng = np.random.default_rng(0)
    assert linear_fit_r2(x, rng.normal(size=10)) < 0.9


def test_rate_sweep_scales_linearly():
    out = sweep_spike_rate([10.0, 25.0, 40.0], n_channels=4, duration_s=1.5,
                           seed=4)
    rows = out["rows"]
    assert [r["rate_hz"] for r in rows] == [10.0, 25.0, 40.0]
    dets = [r["detections"] for r in rows]
    assert dets == sorted(dets) and dets[0] > 0
    for stage, r2 in out["r2"].items():
        assert r2 > 0.9, stage


def test_rate_zero_leaves_only_the_noise_crossing_floor():
    out = sweep_spike_rate([0.0, 100.0], n_channels=4, duration_s=1.0, seed=4)
    quiet, busy = out["rows"]
    # a 4 sigma-hat threshold on pure noise still fires occasionally; the
    # floor must be small next to genuine activity and fully accounted for
    assert quiet["detections"] <= 12 * 4          # <= 12 crossings/channel-s
    assert quiet["detections"] < 0.1 * busy["detections"]
    assert quiet["sorts"] == quiet["detections"]
    assert quiet["tokens_lost"] == 0


def test_rate_sweep_leaves_a_channel_too_quiet_to_train_unmodeled():
    # 0.1 s at 30 Hz gives some channel fewer than MIN_TRAINING_EVENTS
    # matched events; it stays unmodeled, as under `nsp train-sorter`
    out = sweep_spike_rate([10.0, 20.0], duration_s=0.1)
    assert [r["rate_hz"] for r in out["rows"]] == [10.0, 20.0]
    assert all(r["sorts"] == r["detections"] for r in out["rows"])


def test_rate_sweep_rejects_negative_rates():
    with pytest.raises(ValueError):
        sweep_spike_rate([-1.0], n_channels=4)
