"""The benchmark's three workloads over the detect -> sort -> simulate -> decode chain.

Each workload builds its inputs from the seed alone and then drives the
package only through its public functions. A workload has five steps:

* ``setup``      synthesise the inputs (timed as ``setup_s``);
* ``calibrate``  fit every model from the calibration block (``calibrate_s``);
* ``prepare``    untimed glue that depends on the fitted models;
* ``stream``     one pass of the deployed streaming path (``stream_rtf``);
* ``reference``  untimed-in-e2e oracles and reference decoders.

``checks`` and ``quality`` read the outputs. Every call into the package goes
through ``tr.call``/``tr.span`` so that the traced run records a span around
it; with a disabled tracer the calls are plain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from nsp.decode import (EnsembleModel, FilterState, FixedPointFormat,
                        StateTransitionModel, count_ops, eokf_step,
                        evaluate_reconstruction, kf_step, reduce_observation,
                        run_eokf, run_eokf_split, run_kf, selection_columns,
                        train_ensemble, train_observation_standard,
                        train_transition)
from nsp.detect import detect_trace, estimate_threshold
from nsp.evaluation import (channel_feature_dataset, match_events,
                            permutation_accuracy)
from nsp.sim import (SAMPLE_BITS, SimConfig, Simulator, build_schedule,
                     reference_ez, run_simulation)
from nsp.sort_offline import SortOpCounts, classify_spike, train_channel_model
from nsp.sort_online import train_online
from nsp.synthdata import (WINDOW_LEN, GroundTruthLabels, RawTrace,
                           SessionConfig, gen_reach_session, gen_spike_trace,
                           split_trials, tier_config, trials_to_bins)

DESIGN_RATE_HZ = 30000   # every workload runs at the fabric's design rate
TRAIN_FRAC = 0.8         # trial split of every reach session


@dataclass
class StreamOut:
    """Outputs of one stream pass: exact counters plus output arrays.

    ``extra`` is not compared across passes: traced-run statistics (call
    counts, op tallies) and, on ``decode-long``, the full split results the
    checks read.
    """

    counters: dict
    arrays: dict
    extra: dict = field(default_factory=dict)

    def same(self, other: "StreamOut") -> bool:
        return (self.counters == other.counters
                and self.arrays.keys() == other.arrays.keys()
                and all(np.array_equal(a, other.arrays[k])
                        for k, a in self.arrays.items()))


# ---------------------------------------------------------------------------
# traced stand-ins: a counting Simulator and counting classifier callables
# ---------------------------------------------------------------------------


class ClassifyStats:
    """Calls, outlier results and (tree only) scalar op tallies of one sorter kind."""

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.outliers = 0
        self.ops = SortOpCounts()


class CountingClassifier:
    """(f1, f2) -> label callable that counts calls and records a span per call."""

    __slots__ = ("fn", "stats", "tracer")

    def __init__(self, fn, stats: ClassifyStats, tracer):
        self.fn = fn
        self.stats = stats
        self.tracer = tracer

    def __call__(self, f1, f2):
        t0 = perf_counter()
        label = self.fn(f1, f2)
        t1 = perf_counter()
        self.tracer.leaf(self.stats.name, t0, t1)
        self.stats.calls += 1
        if label < 0:
            self.stats.outliers += 1
        return label


class CountingSimulator(Simulator):
    """Simulator that counts step() calls and spans run()."""

    def __init__(self, *args, tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self.step_calls = 0

    def step(self):
        self.step_calls += 1
        return super().step()

    def run(self):
        with self.tracer.span("sim.Simulator.run"):
            return super().run()


def _traced_classifier(model, stats: ClassifyStats, tracer):
    if stats.name == "sort_offline.classify_spike":
        ops = stats.ops
        return CountingClassifier(lambda f1, f2: classify_spike(model, f1, f2, ops),
                                  stats, tracer)
    return CountingClassifier(model.classify, stats, tracer)


def simulate(trace: RawTrace, models: dict, ensemble: EnsembleModel,
             config: SimConfig, thresholds: dict, sorter_name: str, tr):
    """Run the fabric over *trace*.

    Untraced, this is one call to ``run_simulation``. Traced, it is the same
    sequence run_simulation performs (schedule, simulator, input-bit count),
    split so that each layer gets its own span, with the counting stand-ins
    in place of the plain simulator and classifiers. A check compares the two.
    """
    if not tr.enabled:
        res = run_simulation(trace, models, ensemble, config, thresholds)
        return (res.counters.as_dict(), res.ez, res.accepted_events, {})
    n_bins = max(1, math.ceil(trace.n_samples / config.bin_len))
    schedule = tr.call("sim.build_schedule", build_schedule, trace, models,
                       config, thresholds)
    stats = ClassifyStats(sorter_name)
    classifiers = {ch: _traced_classifier(m, stats, tr) for ch, m in models.items()}
    sim = CountingSimulator(config, ensemble, classifiers, schedule, n_bins,
                            tracer=tr).run()
    sim.counters.input_bits = config.n_channels * trace.n_samples * SAMPLE_BITS
    accepted = np.array(sim.accepted_events, dtype=np.int64).reshape(-1, 3)
    extra = {"windows": len(schedule), "step_calls": sim.step_calls,
             "classify": stats}
    return sim.counters.as_dict(), sim._ez, accepted, extra


# ---------------------------------------------------------------------------
# shared input helpers
# ---------------------------------------------------------------------------


def split_halves(trace: RawTrace, labels: GroundTruthLabels) -> tuple:
    """Calibration and stream halves of a recording, with their ground truth.

    Stream-half event times are rebased to the half's first sample; events
    whose window straddles the cut belong to neither half.
    """
    half = trace.n_samples // 2
    ev = labels.events
    cal = RawTrace(trace.data[:, :half], sample_rate=trace.sample_rate)
    stream = RawTrace(trace.data[:, half:], sample_rate=trace.sample_rate)
    cal_labels = GroundTruthLabels(ev[ev[:, 0] + WINDOW_LEN <= half])
    late = ev[ev[:, 0] >= half]
    stream_labels = GroundTruthLabels(np.column_stack([late[:, 0] - half, late[:, 1:]]))
    return cal, stream, cal_labels, stream_labels


def expand_events(counts: np.ndarray, selected, bin_len: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-bin selected-unit counts -> time-ordered (t, channel, unit) events.

    Each event gets a uniformly random sample time inside its bin.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.ravel()
    bins = np.repeat(np.repeat(np.arange(counts.shape[0]), counts.shape[1]), n)
    cols = np.repeat(np.tile(np.arange(counts.shape[1]), counts.shape[0]), n)
    pairs = np.asarray(selected, dtype=np.int64).reshape(-1, 2)
    t = bins * bin_len + rng.integers(0, bin_len, size=bins.size)
    order = np.argsort(t, kind="stable")
    return np.column_stack([t, pairs[cols, 0], pairs[cols, 1]])[order]


def reach_split(session, seed: int) -> tuple:
    train_ids, test_ids = split_trials(session, TRAIN_FRAC, seed)
    return trials_to_bins(session, train_ids), trials_to_bins(session, test_ids)


def decode_bins(ez: np.ndarray, trans: StateTransitionModel,
                ens: EnsembleModel, tr) -> np.ndarray:
    """The prosthesis side of the stream: one eokf_step per emitted bin."""
    d = trans.A.shape[0]
    fs = FilterState(x=np.zeros(d), P=np.eye(d))
    states = np.empty((ez.shape[0], d))
    for k in range(ez.shape[0]):
        fs = tr.call("decode.eokf_step", eokf_step, fs, trans, ens, ez[k])
        states[k] = fs.x
    return states


def sort_accuracy(accepted: np.ndarray, truth: GroundTruthLabels) -> float:
    """Permutation accuracy of streamed labels, per channel, weighted by events.

    Streamed events are matched to ground truth by time on each channel;
    each channel's clusters are relabelled to units independently.
    """
    hits, total = 0.0, 0
    for ch in np.unique(accepted[:, 1]):
        ev = accepted[accepted[:, 1] == ch]
        ev = ev[np.argsort(ev[:, 0], kind="stable")]
        gt = truth.for_channel(int(ch))
        pairs = match_events(ev[:, 0], gt[:, 0])
        if pairs.shape[0] == 0:
            continue
        acc = permutation_accuracy(ev[pairs[:, 0], 2], gt[pairs[:, 1], 2])
        hits += acc * pairs.shape[0]
        total += pairs.shape[0]
    return hits / total if total else 0.0


def split_decode(trans, ens, events, n_bins, bin_len, fmt, tr) -> tuple:
    """Both implant-split modes over one event stream, each in its own span."""
    flt = tr.call("decode.run_eokf_split.float", run_eokf_split, trans, ens,
                  events, n_bins, bin_len, mode="float")
    fix = tr.call("decode.run_eokf_split.fixed", run_eokf_split, trans, ens,
                  events, n_bins, bin_len, mode="fixed", fmt=fmt)
    return flt, fix


def monolithic(trans, ens, counts_sel, fmt, tr) -> tuple:
    """run_eokf in float and fixed point: the oracles of the split path."""
    return (tr.call("decode.run_eokf", run_eokf, trans, ens, counts_sel),
            tr.call("decode.run_eokf", run_eokf, trans, ens, counts_sel, fmt=fmt))


def split_checks(flt, fix, mono, monoq, fmt, n_events: int) -> list:
    return [
        ("decode.split_float_equals_run_eokf",
         np.array_equal(flt[0], mono[0]) and np.array_equal(flt[1], mono[1])),
        ("decode.split_fixed_within_one_lsb",
         float(np.abs(fix[1] - monoq[1]).max(initial=0.0)) <= fmt.lsb),
        ("decode.split_float_events_conserved",
         flt[3].events_accumulated + flt[3].dropped == n_events),
        ("decode.split_fixed_events_conserved",
         fix[3].events_accumulated + fix[3].dropped == n_events),
        ("decode.split_states_finite",
         bool(np.isfinite(flt[0]).all() and np.isfinite(fix[0]).all()
              and np.isfinite(mono[0]).all())),
    ]


def sim_checks(out: StreamOut, ens: EnsembleModel, config: SimConfig) -> list:
    c = out.counters
    checks = [("sim.tokens_conserved",
               c["detections"] == c["gated_tokens"] + c["decoder_accepts"]
               + c["tokens_lost"]),
              ("decode.stream_states_finite",
               bool(np.isfinite(out.arrays["states"]).all()))]
    if c["late_tokens"] == 0:
        # bit-exact only while no token spilled into a later bank
        ref = reference_ez(out.arrays["accepted"], ens, out.arrays["ez"].shape[0],
                           config.bin_len)
        checks.append(("sim.ez_equals_reference_ez",
                       np.array_equal(out.arrays["ez"], ref)))
    return checks


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Fabric:
    """Shared shape of ``chain`` and ``fabric-dense``: a multi-channel
    recording whose first half calibrates and whose second half streams
    through the simulator and then the per-bin ensemble filter."""

    sorter = ""

    def __init__(self, **sizes):
        self.s = SimpleNamespace(**{**self.SIZES, **sizes})

    def _trace(self, seed: int, tr) -> SimpleNamespace:
        n = self.s.n_channels
        cfg = tier_config("medium", n_channels=n, duration_s=self.s.duration_s,
                          firing_rate_hz=self.s.rate_hz)
        trace, labels = tr.call("synthdata.gen_spike_trace", gen_spike_trace,
                                replace(cfg, sample_rate=DESIGN_RATE_HZ), seed=seed)
        cal, stream, cal_labels, stream_labels = split_halves(trace, labels)
        return SimpleNamespace(
            cal=cal, stream=stream, cal_labels=cal_labels,
            stream_labels=stream_labels, seed=seed,
            config=SimConfig(n_channels=n, group_size=min(32, n),
                             clock_hz=DESIGN_RATE_HZ))

    @staticmethod
    def _thresholds(cal: RawTrace, tr) -> dict:
        return {ch: tr.call("detect.estimate_threshold", estimate_threshold,
                            cal.data[ch])
                for ch in range(cal.n_channels)}

    def stream(self, inp, models, tr) -> StreamOut:
        with tr.span("stream"):
            counters, ez, accepted, extra = simulate(
                inp.stream, models.sorters, models.ensemble, inp.config,
                models.thresholds, self.sorter, tr)
            states = decode_bins(ez, models.trans, models.ensemble, tr)
        return StreamOut(counters=counters,
                         arrays={"ez": ez, "accepted": accepted, "states": states},
                         extra=extra)

    def recorded_seconds(self, inp) -> float:
        return inp.stream.duration_s

    def events(self, out: StreamOut) -> int:
        return out.counters["detections"]

    def checks(self, inp, models, out, ref) -> list:
        return sim_checks(out, models.ensemble, inp.config)

    def quality(self, inp, models, out, ref) -> dict:
        c = out.counters
        sorted_in = c["detections"] - c["gated_tokens"]
        return {"sort_accuracy": sort_accuracy(out.arrays["accepted"],
                                               inp.stream_labels),
                "sim_loss_frac": c["tokens_lost"] / sorted_in if sorted_in else 0.0}

    def op_counts(self, inp, models) -> dict:
        return {"decode.eokf.step_ops": count_ops(
            "eokf", len(models.ensemble.selected))["step_total"]["total"]}

    def prepare(self, inp, models) -> None:
        pass

    def reference(self, inp, models, tr):
        return None


class Chain(_Fabric):
    """Deployed physiological chain: medium tier at 30 Hz per channel, tree
    sorters trained on matched ground truth, and an ensemble decoder trained
    on a 3-units-per-channel reach session, so channel gating drops about
    half the channels before the sorters."""

    name = "chain"
    sorter = "sort_offline.classify_spike"
    SIZES = dict(n_channels=96, duration_s=6.0, rate_hz=30.0,
                 session_units=288, trials_per_target=5)

    def setup(self, seed: int, tr):
        with tr.span("setup"):
            inp = self._trace(seed, tr)
            inp.session = tr.call(
                "synthdata.gen_reach_session", gen_reach_session,
                SessionConfig(n_units=self.s.session_units,
                              trials_per_target=self.s.trials_per_target),
                seed=seed)
            inp.train_bins, inp.test_bins = reach_split(inp.session, seed)
        return inp

    def calibrate(self, inp, tr):
        with tr.span("calibrate"):
            cal = inp.cal
            thresholds = self._thresholds(cal, tr)
            sorters, matched, unmatched = {}, 0, 0
            for ch in range(cal.n_channels):
                feats, labs, n_det, _ = tr.call(
                    "evaluation.channel_feature_dataset", channel_feature_dataset,
                    cal, inp.cal_labels, ch)
                matched += feats.shape[0]
                unmatched += n_det - feats.shape[0]
                sorters[ch] = tr.call("sort_offline.train_channel_model",
                                      train_channel_model, feats, labs)
            sess, bt = inp.session, inp.train_bins
            trans = tr.call("decode.train_transition", train_transition,
                            sess.velocity[bt])
            ens = tr.call("decode.train_ensemble", train_ensemble,
                          sess.counts[bt], sess.velocity[bt], sess.unit_channels)
        return SimpleNamespace(thresholds=thresholds, sorters=sorters, trans=trans,
                               ensemble=ens, fmt=FixedPointFormat.for_matrix(ens.E),
                               matched=matched, unmatched=unmatched)

    def prepare(self, inp, models) -> None:
        _reach_test_events(inp, models)

    def reference(self, inp, models, tr):
        """The split filter and its oracles on the held-out reach trials."""
        with tr.span("reference"):
            flt, fix = split_decode(models.trans, models.ensemble, inp.test_events,
                                    inp.test_counts.shape[0], inp.bin_len,
                                    models.fmt, tr)
            mono, monoq = monolithic(models.trans, models.ensemble,
                                     inp.test_counts, models.fmt, tr)
        return SimpleNamespace(float=flt, fixed=fix, mono=mono, monoq=monoq)

    def checks(self, inp, models, out, ref) -> list:
        return super().checks(inp, models, out, ref) + split_checks(
            ref.float, ref.fixed, ref.mono, ref.monoq, models.fmt,
            inp.test_events.shape[0])

    def quality(self, inp, models, out, ref) -> dict:
        truth = inp.session.velocity[inp.test_bins]
        return {**super().quality(inp, models, out, ref),
                "decode_mse": evaluate_reconstruction(ref.float[0], truth)["mse"]}


class FabricDense(_Fabric):
    """Saturated fabric: 150 Hz per channel, online sorters, and a seeded
    ensemble over every (channel, 0..2) pair, so nothing is gated and the
    conveyors, FIFO and decoder buffer stall, collide and lose tokens."""

    name = "fabric-dense"
    sorter = "sort_online.classify"
    SIZES = dict(n_channels=96, duration_s=6.0, rate_hz=150.0)

    def setup(self, seed: int, tr):
        with tr.span("setup"):
            inp = self._trace(seed, tr)
            selected = [(ch, u) for ch in range(self.s.n_channels) for u in range(3)]
            rng = np.random.default_rng([seed, 1])
            inp.ensemble = EnsembleModel(E=rng.normal(0.0, 0.05, (2, len(selected))),
                                         Qe=0.1 * np.eye(2), selected=selected)
            inp.trans = StateTransitionModel(A=0.9 * np.eye(2), W=0.1 * np.eye(2))
        return inp

    def calibrate(self, inp, tr):
        with tr.span("calibrate"):
            cal = inp.cal
            thresholds = self._thresholds(cal, tr)
            _, tokens = tr.call("detect.detect_trace", detect_trace, cal,
                                [thresholds[ch] for ch in range(cal.n_channels)])
            sorters = tr.call("sort_online.train_online", train_online, tokens)
        return SimpleNamespace(thresholds=thresholds, sorters=sorters,
                               trans=inp.trans, ensemble=inp.ensemble)


class DecodeLong:
    """Decode layer alone: a long reach session, the standard filter as the
    reference decoder, and the implant split in float and fixed point on
    per-event input. Detection, sorting and simulation do not run."""

    name = "decode-long"
    SIZES = dict(n_units=96, trials_per_target=20, untuned_fraction=0.25)

    def __init__(self, **sizes):
        self.s = SimpleNamespace(**{**self.SIZES, **sizes})

    def setup(self, seed: int, tr):
        with tr.span("setup"):
            session = tr.call(
                "synthdata.gen_reach_session", gen_reach_session,
                SessionConfig(n_units=self.s.n_units,
                              trials_per_target=self.s.trials_per_target,
                              untuned_fraction=self.s.untuned_fraction),
                seed=seed)
            train_bins, test_bins = reach_split(session, seed)
        return SimpleNamespace(session=session, train_bins=train_bins,
                               test_bins=test_bins, seed=seed)

    def calibrate(self, inp, tr):
        with tr.span("calibrate"):
            sess, bt = inp.session, inp.train_bins
            vel, counts = sess.velocity[bt], sess.counts[bt]
            trans = tr.call("decode.train_transition", train_transition, vel)
            obs = tr.call("decode.train_observation_standard",
                          train_observation_standard, counts, vel)
            ens = tr.call("decode.train_ensemble", train_ensemble, counts, vel,
                          sess.unit_channels)
        return SimpleNamespace(trans=trans, obs=obs, ensemble=ens,
                               fmt=FixedPointFormat.for_matrix(ens.E))

    def prepare(self, inp, models) -> None:
        _reach_test_events(inp, models)

    def stream(self, inp, models, tr) -> StreamOut:
        with tr.span("stream"):
            flt, fix = split_decode(models.trans, models.ensemble, inp.test_events,
                                    inp.test_counts.shape[0], inp.bin_len,
                                    models.fmt, tr)
        return StreamOut(
            counters={"events_in": int(inp.test_events.shape[0]),
                      "float_accumulated": flt[3].events_accumulated,
                      "float_dropped": flt[3].dropped,
                      "fixed_accumulated": fix[3].events_accumulated,
                      "fixed_dropped": fix[3].dropped},
            arrays={"float_states": flt[0], "float_ez": flt[1],
                    "fixed_states": fix[0], "fixed_ez": fix[1]},
            extra={"float": flt, "fixed": fix})

    def recorded_seconds(self, inp) -> float:
        return inp.test_counts.shape[0] * inp.session.bin_ms / 1000.0

    def events(self, out: StreamOut) -> int:
        return out.counters["events_in"]

    def reference(self, inp, models, tr):
        """The standard filter, and run_eokf as the split path's oracle."""
        with tr.span("reference"):
            kf_states, kf_ops = tr.call("decode.run_kf", run_kf, models.trans,
                                        models.obs, inp.session.counts[inp.test_bins])
            mono, monoq = monolithic(models.trans, models.ensemble,
                                     inp.test_counts, models.fmt, tr)
        return SimpleNamespace(kf_states=kf_states, kf_ops=kf_ops, mono=mono,
                               monoq=monoq)

    def checks(self, inp, models, out, ref) -> list:
        n_bins = inp.test_counts.shape[0]

        def per_step(ops):
            return {k: v // n_bins for k, v in ops.step_total().as_dict().items()}

        flt, fix = out.extra["float"], out.extra["fixed"]
        return split_checks(flt, fix, ref.mono, ref.monoq, models.fmt,
                            inp.test_events.shape[0]) + [
            ("decode.kf_states_finite", bool(np.isfinite(ref.kf_states).all())),
            ("decode.run_kf_ops_equal_count_ops", per_step(ref.kf_ops)
             == count_ops("kf", inp.session.n_units)["step_total"]),
            ("decode.split_ops_equal_count_ops", per_step(flt[2])
             == count_ops("eokf", len(models.ensemble.selected))["step_total"]),
        ]

    def quality(self, inp, models, out, ref) -> dict:
        truth = inp.session.velocity[inp.test_bins]
        return {"kf_mse": evaluate_reconstruction(ref.kf_states, truth)["mse"],
                "decode_mse": evaluate_reconstruction(out.arrays["float_states"],
                                                      truth)["mse"]}

    def op_counts(self, inp, models) -> dict:
        return {"decode.kf.step_ops":
                count_ops("kf", inp.session.n_units)["step_total"]["total"],
                "decode.eokf.step_ops":
                count_ops("eokf", len(models.ensemble.selected))["step_total"]["total"]}

    def latency_sample(self, inp, models, tr) -> None:
        """Per-call kf_step and eokf_step spans over every bin of the session."""
        sess = inp.session
        d = models.trans.A.shape[0]
        cols = selection_columns(models.ensemble.selected, sess.unit_channels)
        z = sess.counts.astype(np.float64)
        fs = FilterState(x=np.zeros(d), P=np.eye(d))
        for k in range(sess.n_bins):
            fs = tr.call("decode.kf_step", kf_step, fs, models.trans, models.obs, z[k])
        fs = FilterState(x=np.zeros(d), P=np.eye(d))
        for k in range(sess.n_bins):
            ez = reduce_observation(models.ensemble, z[k, cols])
            fs = tr.call("decode.eokf_step", eokf_step, fs, models.trans,
                         models.ensemble, ez)


def _reach_test_events(inp, models) -> None:
    """Held-out reach trials as implant events of the selected units."""
    sess = inp.session
    cols = selection_columns(models.ensemble.selected, sess.unit_channels)
    inp.test_counts = sess.counts[inp.test_bins][:, cols]
    inp.bin_len = sess.bin_ms * DESIGN_RATE_HZ // 1000
    inp.test_events = expand_events(inp.test_counts, models.ensemble.selected,
                                    inp.bin_len, np.random.default_rng([inp.seed, 2]))


WORKLOADS = {w.name: w for w in (Chain, FabricDense, DecodeLong)}
