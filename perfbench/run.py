"""Benchmark runner: one seeded workload, one run, one JSON line of metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

The load is a single-process, single-threaded batch replay of recorded data.
With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead, and writes every span to
``perfbench/out/``. Metric names and units come from ``BENCHMARK.json``. The
last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count the correctness checks of the run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    # one BLAS thread: the box has two cores and the load is single-threaded;
    # set before numpy is first imported, below
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from spans import Tracer, median_over  # noqa: E402  (after the thread settings)
from speedref import Pacer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPS = 5    # set-ups per run; setup_s is their median
MIN_REPS = 3      # least calibrate and stream batches of an untraced run
BATCH_S = 0.2     # least duration of one timed batch of calls
MIN_PASSES = 2    # least untraced and traced passes of a traced run

# spans whose per-pass total is reported as "<name>.s"
TIMED_LAYERS = (
    "detect.estimate_threshold", "evaluation.channel_feature_dataset",
    "sort_offline.train_channel_model", "detect.detect_trace",
    "sort_online.train_online", "decode.train_ensemble",
    "decode.train_observation_standard", "sim.build_schedule",
    "sim.Simulator.run", "decode.run_kf", "decode.run_eokf_split.float",
    "decode.run_eokf_split.fixed", "decode.run_eokf",
)
SETUP_LAYERS = ("synthdata.gen_spike_trace", "synthdata.gen_reach_session")
SIM_COUNTERS = ("cycles", "detections", "gated_tokens", "sorts", "stall_cycles",
                "decoder_collisions", "tokens_lost", "late_tokens")
SORTERS = ("sort_offline.classify_spike", "sort_online.classify")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters


def _retain_freed_memory() -> None:
    """Keep freed heap memory mapped (glibc only).

    numpy allocates a fresh buffer for every large temporary. With glibc's
    defaults each one is mapped and unmapped again, so every call page-faults
    it back in; in a virtual machine a minor fault costs about a microsecond
    and that cost swings with the host's load, which moved the decoder's
    calibration time by 2x between otherwise identical runs.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not mallopt(M_MMAP_THRESHOLD, 1 << 30):
        mallopt(M_MMAP_THRESHOLD, 32 << 20)   # glibc's documented maximum
    mallopt(M_TRIM_THRESHOLD, 2**31 - 1)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat(pacer, fn, args, budget_s: float) -> tuple:
    """Batches of calls to *fn* until *budget_s* has passed and MIN_REPS
    batches are done; a batch lasts at least BATCH_S.

    Returns (per-batch results, wall seconds per call, scaled seconds per call).
    """
    outs, walls, scaled = [], [], []
    reps = 1
    deadline = perf_counter() + budget_s
    while len(outs) < MIN_REPS or perf_counter() < deadline:
        out, wall, t, _ = pacer.time(fn, *args, reps=reps)
        outs.append(out)
        walls.append(wall)
        scaled.append(t)
        reps = max(1, math.ceil(BATCH_S / wall))
    return outs, walls, scaled


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> dict:
    """Run one workload.

    Returns {"values": metric values, "checks": [(name, ok)]}, plus "raw",
    the end-to-end values from unscaled wall-clock times and the median
    reference-loop time, when untraced.
    """
    from workloads import WORKLOADS   # imports nsp, found via the path main() sets

    wl = WORKLOADS[workload](**(sizes or {}))
    tracer = Tracer(trace)
    pacer = Pacer()
    scale = {}    # pass id -> reference scale factor of that pass

    setup_wall, setup_t, inp = [], [], None
    for i in range(SETUP_REPS):
        inp = None   # free the previous inputs before synthesising again
        tracer.pass_id = f"setup-{i}"
        inp, wall, t, scale[tracer.pass_id] = pacer.time(wl.setup, seed, tracer)
        setup_wall.append(wall)
        setup_t.append(t)
    if not trace:
        return _untraced(wl, inp, seconds, pacer, setup_wall, setup_t)
    result = _traced(wl, inp, seconds, pacer, tracer, scale)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"))
    return result


def _untraced(wl, inp, seconds, pacer, setup_wall, setup_t) -> dict:
    """Repeated calibrations, then repeated stream passes, tracing off."""
    off = Tracer(False)
    models_out, cal_wall, cal_t = _repeat(pacer, wl.calibrate, (inp, off),
                                          seconds / 2)
    models = models_out[-1]
    wl.prepare(inp, models)
    outs, stream_wall, stream_t = _repeat(pacer, wl.stream, (inp, models, off),
                                          seconds / 2)
    out = outs[-1]
    ref = wl.reference(inp, models, off)
    checks = wl.checks(inp, models, out, ref) + [
        ("stream.repeats_exactly", all(o.same(outs[0]) for o in outs[1:]))]

    def e2e(setup, cal, stream):
        stream_med = statistics.median(stream)
        return {"setup_s": statistics.median(setup),
                "calibrate_s": statistics.median(cal),
                "stream_rtf": wl.recorded_seconds(inp) / stream_med,
                "events_per_s": wl.events(out) / stream_med,
                "peak_rss_mb": _peak_rss_mb()}

    raw = e2e(setup_wall, cal_wall, stream_wall)
    raw["reference_s"] = statistics.median(pacer.reference_times)
    return {"values": e2e(setup_t, cal_t, stream_t), "raw": raw, "checks": checks}


def _traced(wl, inp, seconds, pacer, tracer, scale) -> dict:
    """Alternating untraced and traced passes of the same work."""
    off = Tracer(False)

    def one_pass(tr):
        with tr.span("pass"):
            models = wl.calibrate(inp, tr)
            wl.prepare(inp, models)
            out = wl.stream(inp, models, tr)
            ref = wl.reference(inp, models, tr)
        return models, out, ref

    walls = {False: [], True: []}
    last, outs, traced_ids = {}, [], []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or min(map(len, walls.values())) < MIN_PASSES:
        traced = i % 2 == 1
        tracer.pass_id = f"pass-{i}"
        (models, out, ref), _, t, scale[tracer.pass_id] = pacer.time(
            one_pass, tracer if traced else off)
        walls[traced].append(t)
        last[traced] = (out, ref)
        outs.append(out)
        if traced:
            traced_ids.append(tracer.pass_id)
        i += 1
    if hasattr(wl, "latency_sample"):
        tracer.pass_id = "sample"
        _, _, _, scale["sample"] = pacer.time(wl.latency_sample, inp, models, tracer)

    out, ref = last[True]
    checks = wl.checks(inp, models, out, ref) + [
        ("stream.repeats_exactly", all(o.same(outs[0]) for o in outs[1:])),
        ("trace.outputs_equal_untraced", out.same(last[False][0]))]
    values = _layer_values(tracer, scale, traced_ids, out)
    values["kf_rtf"] = (wl.recorded_seconds(inp) / values["decode.run_kf.s"]
                        if values["decode.run_kf.s"] else 0.0)
    values.update({"decode.kf.step_ops": 0, "decode.eokf.step_ops": 0})
    values.update(wl.op_counts(inp, models))
    values["evaluation.matched"] = getattr(models, "matched", 0)
    values["evaluation.unmatched"] = getattr(models, "unmatched", 0)
    values.update({"sort_accuracy": 0.0, "decode_mse": 0.0, "kf_mse": 0.0,
                   "sim_loss_frac": 0.0})
    values.update(wl.quality(inp, models, out, ref))
    values["trace.overhead_s"] = (statistics.median(walls[True])
                                  - statistics.median(walls[False]))
    values["trace.spans"] = len(tracer.spans)
    return {"values": values, "checks": checks}


def _layer_values(tracer, scale: dict, traced_ids: list, out) -> dict:
    """Span times, simulator counters and sorter statistics of a traced run.

    Span times are medians over passes, each pass scaled by its factor.
    """
    passes = tracer.per_pass()
    for pid, rows in passes.items():
        for row in rows.values():
            row[0] *= scale[pid]
            row[1] *= scale[pid]
    setup_ids = [f"setup-{i}" for i in range(SETUP_REPS)]
    values = {f"{name}.s": median_over(passes, setup_ids, name, 0)
              for name in SETUP_LAYERS}
    values.update({f"{name}.s": median_over(passes, traced_ids, name, 0)
                   for name in TIMED_LAYERS})
    run_s = values["sim.Simulator.run.s"]
    values["sim.Simulator.run.self_s"] = median_over(passes, traced_ids,
                                                     "sim.Simulator.run", 1)

    c = out.counters
    for key in SIM_COUNTERS:
        values[f"sim.{key}"] = c.get(key, 0)
    values["sim.rate_reduction"] = (c["input_bits"] / c["output_bits"]
                                    if c.get("output_bits") else 0.0)
    cycles = c.get("cycles", 0)
    values["sim.cycles_per_s"] = cycles / run_s if run_s else 0.0
    values["sim.step_calls_per_cycle"] = (out.extra["step_calls"] / cycles
                                          if cycles else 0.0)
    values["detect.windows"] = out.extra.get("windows", 0)

    stats = out.extra.get("classify")
    for name in SORTERS:
        calls = stats.calls if stats is not None and stats.name == name else 0
        values[f"{name}.calls"] = calls
        values[f"{name}.us_per_call"] = (
            1e6 * median_over(passes, traced_ids, name, 0) / calls if calls else 0.0)
        values[f"{name}.outlier_frac"] = stats.outliers / calls if calls else 0.0
    tree_calls = values["sort_offline.classify_spike.calls"]
    values["sort_offline.classify_spike.ops"] = (
        (stats.ops.compares + stats.ops.addsubs + stats.ops.lookups) / tree_calls
        if tree_calls else 0.0)

    def step_us(name):
        return [1e6 * scale[pid] * d for pid, d in tracer.durations(name)
                if pid == "sample" or pid in traced_ids]

    kf_steps, eokf_steps = step_us("decode.kf_step"), step_us("decode.eokf_step")
    values["decode.kf_step.p50_us"] = statistics.median(kf_steps) if kf_steps else 0.0
    values["decode.kf_step.p99_us"] = (statistics.quantiles(kf_steps, n=100)[98]
                                       if len(kf_steps) >= 2 else 0.0)
    values["decode.eokf_step.p50_us"] = (statistics.median(eokf_steps)
                                         if eokf_steps else 0.0)
    return values


def report(bench: dict, result: dict, trace: bool) -> dict:
    """The result line: every metric BENCHMARK.json names for this mode."""
    checks = result["checks"]
    failed = [name for name, ok in checks if not ok]
    values = {**result["values"], "checks_run": len(checks),
              "checks_failed": len(failed)}
    names = bench["per_layer"] if trace else bench["end_to_end"]
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain", "fabric-dense", "decode-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nsp" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"perfbench: no package source under {ROOT / 'src'} or no "
              f"{bench_path.name}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    _retain_freed_memory()

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, ok in result["checks"]:
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    if "raw" in result:
        print("unscaled wall clock: " + json.dumps(result["raw"]))
    print(json.dumps(report(bench, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
