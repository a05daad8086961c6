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
from .decode import (DecoderBundle, FixedPointFormat, bin_spikes, count_ops,
                     evaluate_reconstruction, load_decoder, run_eokf,
                     run_eokf_split, run_filter, selection_columns,
                     store_decoded, store_decoder, train_ensemble,
                     train_observation_standard, train_transition)
from .detect import (detect_trace, estimate_threshold, load_tokens, load_windows,
                     store_tokens, store_windows)
from .evaluation import (channel_feature_dataset, matched_features,
                         permutation_accuracy)
from .opcount import SingularMatrixError
from .sort_offline import (L1_BITS_PER_TEMPLATE, TREE_MODEL_BITS,
                           classify_by_channel, load_models, store_models,
                           train_channel_model, train_l1)
from .sort_online import online_footprint, train_online
from .sim import (ConfigMismatchError, SimConfig, check_model_channels,
                  parse_sim_config, run_simulation)
from .synthdata import (ClippingError, DatasetFormatError, PayloadError,
                        SessionConfig, TraceConfig, gen_reach_session,
                        gen_spike_trace, load_channel_records, load_document,
                        load_labels, load_session, load_trace, read_text,
                        split_trials, store_labels, store_records,
                        store_session, store_trace, tier_config,
                        trials_to_bins)

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
        overrides = {}
        if args.neurons is not None:
            overrides["neurons_per_channel"] = args.neurons
        if args.snr is not None:
            overrides["snr_db"] = args.snr
        if args.spread is not None:
            overrides["amp_spread"] = _parse_spread(args.spread)
        if args.similarity is not None:
            overrides["shape_similarity"] = args.similarity
        if overrides:
            cfg = replace(cfg, **overrides)
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
                extra={"config": {"kind": "session", "n_units": scfg.n_units,
                                  "trials_per_target": scfg.trials_per_target,
                                  "bin_ms": scfg.bin_ms,
                                  "untuned_fraction": scfg.untuned_fraction}})
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
                       "n_tokens": len(tokens)})
    if args.windows:
        store_windows(tokens, windows, args.windows)
        _write_meta(args.windows, vars(args))
    print(f"wrote {args.out} ({len(tokens)} tokens from {trace.n_channels} channels)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-sorter
# ---------------------------------------------------------------------------


def cmd_train_sorter(args) -> int:
    if args.mode == "online":
        if not args.tokens:
            raise ValueError("train-sorter --mode online needs --tokens")
        models = train_online(load_tokens(args.tokens))
    else:
        if not args.labels or not (args.windows or args.trace):
            raise ValueError("train-sorter --mode offline/l1 needs --labels and "
                             "--trace or --windows")
        labels = load_labels(args.labels)
        if args.windows:
            _, tokens = load_windows(args.windows)
        else:
            trace = load_trace(args.trace)
            _, tokens = detect_trace(trace, [estimate_threshold(row) for row in trace.data])
        train = train_channel_model if args.mode == "offline" else train_l1
        models = {ch: train(f, l) for ch, (f, l) in matched_features(tokens, labels).items()
                  if f.shape[0] >= 2}
    if not models:
        raise ValueError("no channel produced enough events to train on")
    store_models(models, args.out)
    _write_meta(args.out, vars(args), seed=getattr(args, "seed", None),
                extra={"n_channels": len(models)})
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
                extra={"n_sorted": len(rows), "n_unmodeled": skipped})
    print(f"wrote {args.out} ({len(rows)} sorted events, {skipped} skipped)")
    return EXIT_OK


def cmd_eval_sort(args) -> int:
    trace = load_trace(args.trace)
    labels = load_labels(args.labels)
    models = load_models(args.models)
    check_model_channels(models, trace.n_channels)

    def eval_channel(ch):
        model = models[ch]
        feats, labs, n_det, n_truth = channel_feature_dataset(trace, labels, ch)
        pred = model.classify_many(feats[:, 0], feats[:, 1])
        row = {"channel": ch, "model": model.kind,
               "n_detected": n_det, "n_truth": n_truth,
               "n_scored": pred.size,
               "accuracy": permutation_accuracy(pred, labs),
               "footprint_bits": model.footprint_bits()}
        if model.kind == "l1":
            row["n_templates"] = len(model.templates)
        if model.kind == "online":
            row["n_cuts"] = [len(cuts) for cuts in model.boundaries]
        return row

    rows = [eval_channel(ch) for ch in sorted(models)]
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


def _counts_to_events(counts_selected: np.ndarray, bin_len: int,
                      selected) -> np.ndarray:
    """Expand per-bin selected-unit counts into (t, ch, unit) event rows.

    Rows come bin-major, then in *selected* column order; each bin's events
    sit at the bin's first sample.
    """
    counts = np.asarray(counts_selected, dtype=np.int64)
    n_bins, s = counts.shape
    pairs = np.asarray(selected, dtype=np.int64).reshape(s, 2)
    rows = np.column_stack([np.repeat(np.arange(n_bins, dtype=np.int64) * bin_len, s),
                            np.tile(pairs, (n_bins, 1))])
    return np.repeat(rows, counts.ravel(), axis=0)


def _load_sorted_events(path: str) -> np.ndarray:
    """Sorted-event JSONL ({"ch","label","t"} rows) as an (n, 3) (t, ch, label) array."""
    return load_channel_records(path, "sorted event", {"t": int, "ch": int, "label": int})


def cmd_decode(args) -> int:
    if (args.session is None) == (args.events is None):
        raise ValueError("decode needs exactly one of --session or --events")
    bundle = load_decoder(args.model)
    obs, bin_len = bundle.observation, bundle.bin_ms * 30000 // 1000
    events = counts = bins = session = None
    if args.events is not None:
        if bundle.kind != "eokf":
            raise ValueError("decoding a sorted event stream needs an "
                             "ensemble (eokf) decoder")
        if args.trials != "all" or args.metrics:
            raise ValueError("--trials/--metrics need --session ground truth")
        events = _load_sorted_events(args.events)
        n_bins = max(1, -(-int(events[:, 0].max() + 1) // bin_len)) if events.size else 1
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
            bins = trials_to_bins(session, ids)
        counts, n_bins = session.counts[bins], len(bins)
        if bundle.kind == "eokf":
            counts = counts[:, selection_columns(obs.selected, session.unit_channels)]
    if bundle.kind == "kf":
        states, ops = run_filter(bundle.transition, obs, counts,
                                 x0=bundle.x0, P0=bundle.P0)
    elif args.split == "implant":
        if events is None:
            events = _counts_to_events(counts, bin_len, obs.selected)
        states, _, ops, _ = run_eokf_split(bundle.transition, obs, events, n_bins,
                                           bin_len, fmt=bundle.fixed,
                                           x0=bundle.x0, P0=bundle.P0)
    else:
        if counts is None:
            counts = bin_spikes(events, n_bins, bin_len, obs.selected)
        states, _, ops = run_eokf(bundle.transition, obs, counts,
                                  x0=bundle.x0, P0=bundle.P0, fmt=bundle.fixed)
    store_decoded(args.out, states)
    _write_meta(args.out, vars(args), seed=bundle.meta.get("seed"),
                extra={"bins": None if bins is None else [int(b) for b in bins],
                       "filter": bundle.kind,
                       "split": args.split if bundle.kind == "eokf" else None})
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
    counters = result.counters.as_dict()
    _write_json(args.counters, {
        "kind": "sim-counters", "counters": counters,
        "config": asdict(sim_cfg),
        "provenance": provenance(vars(args))})
    if args.decoded:
        states, _ = run_filter(bundle.transition, bundle.observation, result.ez,
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
    if args.filter == "both":
        for n in neuron_counts:
            kf = next(r for r in out_rows
                      if r["kind"] == "kf" and r["n_neurons"] == n)
            eo = next(r for r in out_rows
                      if r["kind"] == "eokf" and r["n_neurons"] == n)
            kt = kf["ops"]["step_total"]["total"]
            et = eo["ops"]["step_total"]["total"]
            print(f"n={n}: eokf/kf step ratio = {et}/{kt} = {100.0 * et / kt:.3f}%")
    if args.out:
        _write_json(args.out, {"kind": "op-bench", "rows": out_rows,
                               "provenance": provenance(vars(args))})
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _crosscheck_footprints(name: str, rows) -> None:
    """Reported footprints must equal what the model rules give."""
    for row in rows:
        bits = row.get("footprint_bits")
        if bits is None:
            continue
        if row.get("model") == "tree" and bits != TREE_MODEL_BITS:
            raise ArithmeticError(
                f"{name}: channel {row.get('channel')} reports a {bits}-bit "
                f"tree model; the format is {TREE_MODEL_BITS} bits")
        if row.get("model") == "l1":
            want = L1_BITS_PER_TEMPLATE * int(row.get("n_templates", 0))
            if bits != want:
                raise ArithmeticError(
                    f"{name}: channel {row.get('channel')} reports {bits} "
                    f"L1 bits; templates say {want}")
        if row.get("model") == "online":
            n1, n2 = row.get("n_cuts", (0, 0))
            want = online_footprint(int(n1), int(n2))
            if bits != want:
                raise ArithmeticError(
                    f"{name}: channel {row.get('channel')} reports {bits} "
                    f"online bits; its cuts say {want}")


def _crosscheck_opcounts(name: str, rows) -> None:
    """Benched op counts must match a fresh instrumented run (no drift)."""
    for row in rows:
        fresh = count_ops(row["kind"], row["n_neurons"], row["state_dim"])
        if fresh["step_total"] != row["ops"]["step_total"]:
            raise ArithmeticError(
                f"{name}: {row['kind']} n={row['n_neurons']} op counts "
                f"{row['ops']['step_total']} do not match instrumented "
                f"{fresh['step_total']}")


def cmd_report(args) -> int:
    if not os.path.isdir(args.dir):
        raise FileNotFoundError(f"{args.dir}: not a directory")
    report = {"kind": "report", "accuracy_tables": [], "op_tables": [],
              "footprints": [], "reconstruction": [], "sim_counters": []}
    inputs = {}
    for name in sorted(os.listdir(args.dir)):
        if not name.endswith(".json") or name.endswith(".meta.json"):
            continue
        path = os.path.join(args.dir, name)
        try:
            obj = load_document(path)
        except PayloadError:
            continue
        kind = obj.get("kind")
        if kind == "sort-eval":
            _crosscheck_footprints(name, obj.get("rows", []))
            report["accuracy_tables"].append({"source": name,
                                              "mean_accuracy": obj.get("mean_accuracy"),
                                              "rows": obj.get("rows", [])})
            report["footprints"].extend(
                {"source": name, "channel": r.get("channel"),
                 "model": r.get("model"), "footprint_bits": r["footprint_bits"]}
                for r in obj.get("rows", []) if "footprint_bits" in r)
        elif kind == "op-bench":
            _crosscheck_opcounts(name, obj.get("rows", []))
            report["op_tables"].append({"source": name, "rows": obj.get("rows", [])})
        elif kind == "decode-ops":
            report["op_tables"].append({"source": name, "filter": obj.get("filter"),
                                        "n_steps": obj.get("n_steps"),
                                        "ops": obj.get("ops")})
        elif kind == "reconstruction":
            report["reconstruction"].append({"source": name,
                                             "filter": obj.get("filter"),
                                             "metrics": obj.get("metrics")})
        elif kind == "sim-counters":
            report["sim_counters"].append({"source": name,
                                           "counters": obj.get("counters"),
                                           "config": obj.get("config")})
        else:
            continue
        inputs[name] = kind
    if not inputs:
        raise FileNotFoundError(
            f"{args.dir}: no report-able artifacts (sort-eval, op-bench, "
            "decode-ops, reconstruction, sim-counters)")
    report["provenance"] = {"inputs": inputs, "config_hash": config_hash(inputs),
                            "tool": f"nsp {__version__}"}
    _write_json(args.out, report)
    csv_lines = ["table,source,key,value"]
    for tab in report["accuracy_tables"]:
        csv_lines.append(f"accuracy,{tab['source']},mean_accuracy,{tab['mean_accuracy']!r}")
        for r in tab["rows"]:
            csv_lines.append(f"accuracy,{tab['source']},"
                             f"channel_{r['channel']},{r['accuracy']!r}")
    for tab in report["op_tables"]:
        if "rows" in tab:
            for r in tab["rows"]:
                t = r["ops"]["step_total"]
                csv_lines.append(
                    f"ops,{tab['source']},{r['kind']}_n{r['n_neurons']}_step_total,"
                    f"{t['mult']}+{t['add']}+{t['div']}")
        else:
            t = tab["ops"]["step_total"]
            csv_lines.append(f"ops,{tab['source']},{tab['filter']}_step_total,"
                             f"{t['mult']}+{t['add']}+{t['div']}")
    for rec in report["reconstruction"]:
        for key, val in rec["metrics"].items():
            if isinstance(val, (int, float)):
                csv_lines.append(f"reconstruction,{rec['source']},{key},{val!r}")
    for sc in report["sim_counters"]:
        for key, val in sc["counters"].items():
            csv_lines.append(f"sim,{sc['source']},{key},{val}")
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
    p.add_argument("--trace")
    p.add_argument("--labels")
    p.add_argument("--windows", help="windows JSONL instead of raw trace")
    p.add_argument("--tokens", help="token stream (online mode)")
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
    p.add_argument("--split", choices=("monolithic", "implant"),
                   default="monolithic")
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
