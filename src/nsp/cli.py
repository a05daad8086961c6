"""Command-line front end: datasets, training, evaluation, simulation, reports.

Every artifact is written atomically and is reproducible from its recorded
seed and config hash; no timestamps or other run-dependent bytes appear in
outputs. Exit codes: 0 ok, 2 usage, 3 I/O, 4 schema/format, 5 numerical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from ._util import atomic_write_text, canonical_json, config_hash
from .decode import (DecoderBundle, FixedPointFormat, ImplantAccumulator,
                     count_ops, ensemble_ez, evaluate_reconstruction,
                     load_decoder, run_eokf, run_eokf_split, run_filter,
                     selection_columns, store_decoded, store_decoder,
                     train_ensemble, train_observation_standard,
                     train_transition)
from .detect import (detect_trace, estimate_threshold, load_tokens, store_tokens,
                     store_windows)
from .evaluation import (calibrate, matched_features, permutation_accuracy,
                         train_channels)
from .opcount import SingularMatrixError
from .sort_offline import (MODEL_KINDS, classify_by_channel, load_models,
                           store_models, train_channel_model, train_l1)
from .sort_online import train_online
from .sim import (ConfigMismatchError, SimConfig, check_model_channels,
                  parse_sim_config, run_simulation)
from .synthdata import (ClippingError, DatasetFormatError, Int, List, Map, Num, Obj,
                        PayloadError, RawTrace, SessionConfig, TraceConfig, check,
                        gen_reach_session, gen_spike_trace, load_channel_records,
                        load_document, load_labels, load_session, load_trace,
                        read_text, split_trials, store_labels, store_records,
                        store_session, store_trace, tier_config, trials_to_bins)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SCHEMA = 4
EXIT_NUMERICAL = 5


def provenance(args_dict: dict, seed: int | None = None) -> dict:
    cfg = {k: v for k, v in sorted(args_dict.items())
           if k != "func" and not callable(v)}
    return {"seed": seed, "config_hash": config_hash(cfg),
            "tool": f"nsp {__version__}"}


def _write_json(path: str, obj: dict) -> None:
    atomic_write_text(path, canonical_json(obj) + "\n")


def _write_meta(path: str, args_dict: dict, seed: int | None = None,
                extra: dict | None = None) -> None:
    """Provenance sidecar for stream/binary artifacts (CSV, JSONL, traces)."""
    obj = {"provenance": provenance(args_dict, seed)}
    if extra:
        obj.update(extra)
    _write_json(path + ".meta.json", obj)


def _recorded_rate(stream: str) -> dict:
    """``{"sample_rate": rate}`` as *stream*'s .meta.json sidecar records it,
    checked against its declared table; empty when it records none."""
    path = stream + ".meta.json"
    meta = load_document(path) if os.path.exists(path) else {}
    check(meta, Obj({}, {"sample_rate": Int(1)}), path)
    return {"sample_rate": meta["sample_rate"]} if "sample_rate" in meta else {}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _parse_spread(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'LO,HI', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def cmd_gen(args) -> int:
    if args.kind == "trace":
        if not args.trace or not args.labels:
            raise ValueError("gen --kind trace needs --trace and --labels outputs")
        if args.tier:
            cfg = tier_config(args.tier, n_channels=args.channels,
                              duration_s=args.duration, firing_rate_hz=args.rate)
        else:
            cfg = TraceConfig(n_channels=args.channels, duration_s=args.duration,
                              firing_rate_hz=args.rate)
        overrides = {"neurons_per_channel": args.neurons, "snr_db": args.snr,
                     "amp_spread": None if args.spread is None else _parse_spread(args.spread),
                     "shape_similarity": args.similarity}
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        cfg.validate()
        trace, labels = gen_spike_trace(cfg, seed=args.seed)
        store_trace(trace, args.trace)
        store_labels(labels, args.labels)
        _write_meta(args.trace, vars(args), seed=args.seed,
                    extra={"config": {"kind": "trace", **cfg.__dict__}})
        _write_meta(args.labels, vars(args), seed=args.seed)
        print(f"wrote {args.trace} ({trace.n_channels} ch x {trace.n_samples} "
              f"samples) and {args.labels} ({labels.events.shape[0]} events)")
        return EXIT_OK

    if not args.out:
        raise ValueError("gen --kind session needs --out")
    scfg = SessionConfig(n_units=args.units, trials_per_target=args.trials_per_target,
                         bin_ms=args.bin_ms, untuned_fraction=args.untuned)
    session = gen_reach_session(scfg, seed=args.seed)
    store_session(session, args.out)
    _write_meta(args.out, vars(args), seed=args.seed,
                extra={"config": {"kind": "session", **asdict(scfg)}})
    print(f"wrote {args.out} ({session.n_bins} bins x {session.n_units} units, "
          f"{len(session.trials)} trials)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def cmd_detect(args) -> int:
    trace = load_trace(args.trace)
    thresholds = [estimate_threshold(row) for row in trace.data]
    windows, tokens = detect_trace(trace, thresholds)
    store_tokens(tokens, args.out)
    _write_meta(args.out, vars(args),
                extra={"thresholds": [float(t) for t in thresholds],
                       "n_tokens": len(tokens), "sample_rate": trace.sample_rate})
    if args.windows:
        store_windows(tokens, windows, args.windows)
        _write_meta(args.windows, vars(args))
    print(f"wrote {args.out} ({len(tokens)} tokens from {trace.n_channels} channels)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-sorter
# ---------------------------------------------------------------------------


def cmd_train_sorter(args) -> int:
    if args.mode != "online" and not args.labels:
        raise ValueError("train-sorter --mode offline/l1 needs --labels")
    tokens = load_tokens(args.tokens)
    if args.mode == "online":
        models = train_online(tokens)
    else:
        train = train_channel_model if args.mode == "offline" else train_l1
        models = train_channels(train, matched_features(tokens, load_labels(args.labels)))
    if not models:
        raise ValueError("no channel produced enough events to train on")
    store_models(models, args.out)
    _write_meta(args.out, vars(args), extra={"n_channels": len(models)})
    print(f"wrote {args.out} ({len(models)} channel models, mode={args.mode})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sort / eval-sort
# ---------------------------------------------------------------------------


def cmd_sort(args) -> int:
    tokens = load_tokens(args.tokens)
    models = load_models(args.models)
    modeled = np.isin(tokens.channel, list(models))
    channel = tokens.channel[modeled]
    labels = classify_by_channel(models, channel, tokens.f1[modeled],
                                 tokens.f2[modeled])
    rows = [{"ch": ch, "label": label, "t": t} for ch, label, t in
            zip(channel.tolist(), labels.tolist(), tokens.t[modeled].tolist())]
    skipped = len(tokens) - len(rows)
    store_records(rows, args.out)
    _write_meta(args.out, vars(args),
                extra={"n_sorted": len(rows), "n_unmodeled": skipped,
                       **_recorded_rate(args.tokens)})
    print(f"wrote {args.out} ({len(rows)} sorted events, {skipped} skipped)")
    return EXIT_OK


def cmd_eval_sort(args) -> int:
    trace = load_trace(args.trace)
    labels = load_labels(args.labels)
    models = load_models(args.models)
    check_model_channels(models, trace.n_channels)
    _, _, channels = calibrate(trace, labels)
    rows = []
    for ch, model in sorted(models.items()):
        feats, labs, n_det, n_truth = channels[ch]
        pred = model.classify_many(feats[:, 0], feats[:, 1])
        rows.append({"channel": ch, "model": model.kind, "params": model.to_json(),
                     "n_detected": n_det, "n_truth": n_truth, "n_scored": pred.size,
                     "accuracy": permutation_accuracy(pred, labs),
                     "footprint_bits": model.footprint_bits()})
    mean_acc = float(np.mean([r["accuracy"] for r in rows])) if rows else 0.0
    report = {"kind": "sort-eval", "rows": rows, "mean_accuracy": mean_acc,
              "provenance": provenance(vars(args))}
    _write_json(args.out, report)
    print(f"wrote {args.out} (mean accuracy {mean_acc:.4f} over {len(rows)} channels)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-decoder / decode
# ---------------------------------------------------------------------------


def cmd_train_decoder(args) -> int:
    session = load_session(args.session)
    train_ids, test_ids = split_trials(session, args.train_frac, args.seed)
    train_bins = trials_to_bins(session, train_ids)
    vel = session.velocity[train_bins]
    counts = session.counts[train_bins]
    trans = train_transition(vel)
    meta = {"seed": args.seed, "train_trials": train_ids, "test_trials": test_ids,
            "train_frac": args.train_frac, "session": os.path.basename(args.session),
            "config_hash": config_hash({"seed": args.seed, "filter": args.filter,
                                         "train_frac": args.train_frac,
                                         "fixed": args.fixed})}
    obs = (train_observation_standard(counts, vel) if args.filter == "kf"
           else train_ensemble(counts, vel, session.unit_channels))
    fixed = FixedPointFormat.for_matrix(obs.E) if args.fixed and obs.kind == "eokf" else None
    bundle = DecoderBundle(transition=trans, observation=obs, bin_ms=session.bin_ms,
                           fixed=fixed, meta=meta)
    store_decoder(bundle, args.out)
    print(f"wrote {args.out} (filter={args.filter}, {len(train_ids)} train / "
          f"{len(test_ids)} test trials"
          + (f", {len(obs.selected)} selected units" if obs.kind == "eokf" else "") + ")")
    return EXIT_OK


def _load_sorted_events(path: str) -> np.ndarray:
    """Sorted-event JSONL ({"ch","label","t"} rows) as an (n, 3) (t, ch, label) array."""
    return load_channel_records(path, "sorted event", dict.fromkeys(("t", "ch", "label"), Int()))


def cmd_decode(args) -> int:
    """Binned session counts go through ``run_filter``/``run_eokf``; a sorted
    event stream goes through the implant split, ``run_eokf_split``, whose
    fixed-point accumulator checks every running sum against 32 bits. Events
    are binned at the sample rate the stream's sidecar records, 30 kHz when
    it records none."""
    if (args.session is None) == (args.events is None):
        raise ValueError("decode needs exactly one of --session or --events")
    bundle = load_decoder(args.model)
    obs, bins = bundle.observation, None
    if args.events is not None:
        if bundle.kind != "eokf":
            raise ValueError("decoding a sorted event stream needs an "
                             "ensemble (eokf) decoder")
        if args.trials != "all" or args.metrics:
            raise ValueError("--trials/--metrics need --session ground truth")
        events = _load_sorted_events(args.events)
        rate = _recorded_rate(args.events).get("sample_rate", RawTrace.sample_rate)
        bin_len = bundle.bin_ms * rate // 1000
        n_bins = max(1, -(-int(events[:, 0].max() + 1) // bin_len)) if events.size else 1
        states, _, ops, _ = run_eokf_split(bundle.transition, obs, events, n_bins,
                                           bin_len, fmt=bundle.fixed,
                                           x0=bundle.x0, P0=bundle.P0)
    else:
        session = load_session(args.session)
        if args.trials == "all":
            bins = np.arange(session.n_bins)
        else:
            key = "train_trials" if args.trials == "train" else "test_trials"
            ids = bundle.meta.get(key)
            if ids is None:
                raise DatasetFormatError(
                    f"decoder has no recorded {key}; retrain or use --trials all")
            if not ids or len(set(ids)) < len(ids) or max(ids) >= len(session.trials):
                raise DatasetFormatError(f"decoder meta.{key} {ids} must name distinct "
                                         f"trials of the session's {len(session.trials)}")
            bins = trials_to_bins(session, ids)
        counts = session.counts[bins]
        if bundle.kind == "kf":
            states, ops = run_filter(bundle.transition, obs, counts,
                                     x0=bundle.x0, P0=bundle.P0)
        else:
            counts = counts[:, selection_columns(obs.selected, session.unit_channels)]
            states, _, ops = run_eokf(bundle.transition, obs, counts,
                                      x0=bundle.x0, P0=bundle.P0, fmt=bundle.fixed)
    store_decoded(args.out, states)
    _write_meta(args.out, vars(args), seed=bundle.meta.get("seed"),
                extra={"bins": None if bins is None else [int(b) for b in bins],
                       "filter": bundle.kind})
    if args.ops:
        _write_json(args.ops, {"kind": "decode-ops", "filter": bundle.kind,
                               "n_steps": int(states.shape[0]),
                               "ops": ops.as_dict(),
                               "provenance": provenance(vars(args))})
    if args.metrics:
        truth = session.velocity[bins]
        metrics = evaluate_reconstruction(states, truth)
        scalars = {k: v for k, v in metrics.items() if isinstance(v, (int, float))}
        _write_json(args.metrics, {"kind": "reconstruction",
                                   "filter": bundle.kind,
                                   "metrics": scalars,
                                   "provenance": provenance(vars(args))})
    print(f"wrote {args.out} ({states.shape[0]} bins, filter={bundle.kind})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    trace = load_trace(args.trace)
    sorters_path = os.path.join(args.models, "sorters.json")
    decoder_path = os.path.join(args.models, "decoder.json")
    models = load_models(sorters_path)
    bundle = load_decoder(decoder_path)
    if bundle.kind != "eokf":
        raise DatasetFormatError("simulate needs an ensemble (eokf) decoder")
    if args.config:
        sim_cfg = parse_sim_config(read_text(args.config))
        if sim_cfg.bin_ms != bundle.bin_ms:
            raise ConfigMismatchError(
                f"config bins at {sim_cfg.bin_ms} ms but the decoder was "
                f"trained on {bundle.bin_ms} ms bins")
    else:
        sim_cfg = SimConfig(n_channels=trace.n_channels,
                            group_size=math.gcd(SimConfig.group_size,
                                               trace.n_channels),
                            clock_hz=trace.sample_rate, bin_ms=bundle.bin_ms)
    result = run_simulation(trace, models, bundle.observation, sim_cfg)
    if args.decoded and bundle.fixed is not None:
        # the implant adds each accepted event's quantized E column into a
        # 32-bit accumulator: the running-sum check of decode --events, with
        # each event in the bin of its time
        ImplantAccumulator(bundle.observation, bundle.fixed).accumulate_bins(
            result.accepted_events, result.n_bins, sim_cfg.bin_len)
    counters = result.counters.as_dict()
    _write_json(args.counters, {
        "kind": "sim-counters", "counters": counters,
        "config": asdict(sim_cfg),
        "provenance": provenance(vars(args))})
    if args.decoded:
        ez = ensemble_ez(bundle.observation, result.counts, bundle.fixed)
        states, _ = run_filter(bundle.transition, bundle.observation, ez,
                               x0=bundle.x0, P0=bundle.P0)
        store_decoded(args.decoded, states)
        _write_meta(args.decoded, vars(args), extra={"n_bins": int(result.n_bins)})
    print(f"wrote {args.counters} (loss={counters['tokens_lost']}, "
          f"in/out={counters['input_bits']}/{counters['output_bits']})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _print_bench_table(rows) -> None:
    print(f"{'filter':8s} {'neurons':>7s} {'phase':16s} {'mult':>8s} "
          f"{'add':>8s} {'div':>6s}")
    for row in rows:
        for phase, c in row["ops"]["phases"].items():
            if c["mult"] == c["add"] == c["div"] == 0:
                continue
            tag = phase + (" *" if phase == "observe" else "")
            print(f"{row['kind']:8s} {row['n_neurons']:7d} {tag:16s} "
                  f"{c['mult']:8d} {c['add']:8d} {c['div']:6d}")
        t = row["ops"]["step_total"]
        print(f"{row['kind']:8s} {row['n_neurons']:7d} {'step total':16s} "
              f"{t['mult']:8d} {t['add']:8d} {t['div']:6d}")
    print("(* observe runs event-driven on the implant side, outside the filter step)")


def cmd_bench(args) -> int:
    kinds = ("kf", "eokf") if args.filter == "both" else (args.filter,)
    neuron_counts = [int(n) for n in str(args.neurons).split(",")]
    if any(n < 1 for n in neuron_counts):
        raise ValueError("neuron counts must be positive")
    rows = [count_ops(kind, n, args.state_dim) for n in neuron_counts for kind in kinds]
    out_rows = [{"kind": r["kind"], "n_neurons": r["n_neurons"],
                 "state_dim": r["state_dim"],
                 "ops": {"phases": r["phases"], "step_total": r["step_total"],
                         "total_with_observe": r["total_with_observe"]}}
                for r in rows]
    _print_bench_table(out_rows)
    if args.filter == "both":   # rows alternate kf, eokf for each neuron count
        for kf, eo in zip(out_rows[::2], out_rows[1::2]):
            kt, et = kf["ops"]["step_total"]["total"], eo["ops"]["step_total"]["total"]
            print(f"n={kf['n_neurons']}: eokf/kf step ratio = {et}/{kt} = "
                  f"{100.0 * et / kt:.3f}%")
    if args.out:
        _write_json(args.out, {"kind": "op-bench", "rows": out_rows,
                               "provenance": provenance(vars(args))})
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _step_total(ops: dict) -> str:
    return "+".join(str(ops["step_total"][k]) for k in ("mult", "add", "div"))


# The declared table of each artifact kind the report reads; other keys and
# other kinds are ignored.
_OPS = Obj({"step_total": Obj(dict.fromkeys(("mult", "add", "div"), Int()))})
_FILTER = {"kf", "eokf"}
REPORT_SCHEMAS = {
    "sort-eval": Obj({"rows": List(Obj({"channel": Int(0), "model": set(MODEL_KINDS),
                                        "params": Map(), "accuracy": Num(),
                                        "footprint_bits": Int()})),
                      "mean_accuracy": Num()}),
    "op-bench": Obj({"rows": List(Obj({"kind": _FILTER, "n_neurons": Int(1),
                                       "state_dim": Int(1), "ops": _OPS}))}),
    "decode-ops": Obj({"filter": _FILTER, "ops": _OPS}, {"n_steps": Int(0)}),
    "reconstruction": Obj({"metrics": Map(Num())}, {"filter": _FILTER}),
    "sim-counters": Obj({"counters": Map(Int())}, {"config": Map()}),
}


def _report_sections(name: str, kind: str, obj: dict) -> dict:
    """Report section -> (entries, CSV lines) of one artifact, checked against
    its kind's table and each row's params against its model kind's, so that
    an error names the file. A footprint that the rebuilt model does not give,
    or op counts that a fresh instrumented run does not match, raise
    ArithmeticError."""
    check(obj, REPORT_SCHEMAS[kind], name)
    if kind == "sort-eval":
        rows, mean = obj["rows"], obj["mean_accuracy"]
        for i, row in enumerate(rows):
            cls = MODEL_KINDS[row["model"]]
            check(row["params"], cls.SCHEMA, f"{name}: rows[{i}].params")
            want = cls.from_json(row["params"]).footprint_bits()
            if row["footprint_bits"] != want:
                raise ArithmeticError(
                    f"{name}: channel {row['channel']} reports {row['footprint_bits']} "
                    f"footprint bits; its {cls.kind} model has {want}")
        return {"accuracy_tables": (
                    [{"source": name, "mean_accuracy": mean, "rows": rows}],
                    [f"accuracy,{name},mean_accuracy,{mean!r}"]
                    + [f"accuracy,{name},channel_{r['channel']},{r['accuracy']!r}"
                       for r in rows]),
                "footprints": (
                    [{"source": name, "channel": r["channel"], "model": r["model"],
                      "footprint_bits": r["footprint_bits"]} for r in rows], [])}
    if kind == "op-bench":
        rows = obj["rows"]
        for r in rows:
            fresh = count_ops(r["kind"], r["n_neurons"], r["state_dim"])["step_total"]
            if fresh != r["ops"]["step_total"]:
                raise ArithmeticError(
                    f"{name}: {r['kind']} n={r['n_neurons']} op counts "
                    f"{r['ops']['step_total']} do not match instrumented {fresh}")
        return {"op_tables": ([{"source": name, "rows": rows}],
                              [f"ops,{name},{r['kind']}_n{r['n_neurons']}_step_total,"
                               f"{_step_total(r['ops'])}" for r in rows])}
    if kind == "decode-ops":
        return {"op_tables": (
            [{"source": name, "filter": obj["filter"], "n_steps": obj.get("n_steps"),
              "ops": obj["ops"]}],
            [f"ops,{name},{obj['filter']}_step_total,{_step_total(obj['ops'])}"])}
    if kind == "reconstruction":
        metrics = obj["metrics"]
        return {"reconstruction": (
            [{"source": name, "filter": obj.get("filter"), "metrics": metrics}],
            [f"reconstruction,{name},{key},{val!r}" for key, val in metrics.items()])}
    counters = obj["counters"]
    return {"sim_counters": (
        [{"source": name, "counters": counters, "config": obj.get("config")}],
        [f"sim,{name},{key},{val}" for key, val in counters.items()])}


def cmd_report(args) -> int:
    """Aggregate the artifacts in a directory. Every artifact is read and
    checked before either output is written."""
    if not os.path.isdir(args.dir):
        raise FileNotFoundError(f"{args.dir}: not a directory")
    # in CSV table order; footprints have no CSV lines
    sections = {s: ([], []) for s in ("accuracy_tables", "op_tables", "footprints",
                                      "reconstruction", "sim_counters")}
    inputs = {}
    for name in sorted(os.listdir(args.dir)):
        if not name.endswith(".json") or name.endswith(".meta.json"):
            continue
        try:
            obj = load_document(os.path.join(args.dir, name))
        except PayloadError:
            continue
        kind = obj.get("kind")
        if type(kind) is not str or kind not in REPORT_SCHEMAS:
            continue
        for section, (entries, lines) in _report_sections(name, kind, obj).items():
            sections[section][0].extend(entries)
            sections[section][1].extend(lines)
        inputs[name] = kind
    if not inputs:
        raise FileNotFoundError(
            f"{args.dir}: no report-able artifacts ({', '.join(REPORT_SCHEMAS)})")
    report = {"kind": "report", **{s: entries for s, (entries, _) in sections.items()},
              "provenance": {"inputs": inputs, "config_hash": config_hash(inputs),
                             "tool": f"nsp {__version__}"}}
    csv_lines = ["table,source,key,value"] + [
        line for _, lines in sections.values() for line in lines]
    _write_json(args.out, report)
    atomic_write_text(args.csv, "\n".join(csv_lines) + "\n")
    print(f"wrote {args.out} and {args.csv} ({len(inputs)} artifacts)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsp",
        description="96-channel spike processing: synthesis, sorting, decoding, "
                    "architecture simulation")
    parser.add_argument("--version", action="version", version=f"nsp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic datasets")
    p.add_argument("--kind", choices=("trace", "session"), required=True)
    p.add_argument("--tier", choices=("easy", "medium", "hard"))
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--rate", type=float, default=30.0)
    p.add_argument("--neurons", type=int)
    p.add_argument("--snr", type=float)
    p.add_argument("--spread", help="amplitude fractions as 'LO,HI'")
    p.add_argument("--similarity", type=float, help="waveform shape similarity 0..1")
    p.add_argument("--units", type=int, default=30)
    p.add_argument("--trials-per-target", type=int, default=5)
    p.add_argument("--bin-ms", type=int, default=100)
    p.add_argument("--untuned", type=float, default=0.0,
                   help="fraction of units with no kinematic tuning")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="output trace path (kind=trace)")
    p.add_argument("--labels", help="output labels path (kind=trace)")
    p.add_argument("--out", help="output session path (kind=session)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("detect", help="threshold detection + feature extraction")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True, help="output token stream (JSONL)")
    p.add_argument("--windows", help="also write full 32-sample windows (JSONL)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train-sorter", help="fit per-channel sorter models")
    p.add_argument("--mode", choices=("online", "offline", "l1"), required=True)
    p.add_argument("--tokens", required=True, help="token stream (JSONL)")
    p.add_argument("--labels", help="ground-truth labels (offline and l1 modes)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_sorter)

    p = sub.add_parser("sort", help="classify a token stream with trained models")
    p.add_argument("--tokens", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("eval-sort", help="score sorter models against ground truth")
    p.add_argument("--trace", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_sort)

    p = sub.add_parser("train-decoder", help="fit a movement decoder on a session")
    p.add_argument("--session", required=True)
    p.add_argument("--filter", choices=("kf", "eokf"), default="eokf")
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed", action="store_true",
                   help="attach a 16-bit fixed-point format for the implant side")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_decoder)

    p = sub.add_parser("decode", help="run a trained decoder")
    p.add_argument("--model", required=True, help="decoder model JSON")
    p.add_argument("--session", help="binned session CSV to decode")
    p.add_argument("--events", help="sorted event stream (JSONL) to decode")
    p.add_argument("--trials", choices=("all", "train", "test"), default="all")
    p.add_argument("--out", required=True, help="decoded kinematics CSV")
    p.add_argument("--ops", help="also write instrumented op counters (JSON)")
    p.add_argument("--metrics", help="also write reconstruction metrics (JSON)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="cycle-driven architecture simulation")
    p.add_argument("--trace", required=True)
    p.add_argument("--models", required=True,
                   help="directory holding sorters.json and decoder.json")
    p.add_argument("--config", help="flat key = value simulator config file")
    p.add_argument("--counters", required=True, help="output counters JSON")
    p.add_argument("--decoded", help="output decoded kinematics CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="instrumented per-step op-count table")
    p.add_argument("--filter", choices=("kf", "eokf", "both"), default="both")
    p.add_argument("--neurons", default="20",
                   help="neuron count or comma list, e.g. 20,50,100")
    p.add_argument("--state-dim", type=int, default=2)
    p.add_argument("--out", help="also write the table as JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="aggregate artifacts from a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", default="report.json")
    p.add_argument("--csv", default="report.csv")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SingularMatrixError, ClippingError, ArithmeticError,
            FloatingPointError) as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DatasetFormatError as exc:
        print(f"error (format): {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error (schema): {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
