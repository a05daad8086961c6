"""Self-test of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest -q perfbench``. It
checks that every metric BENCHMARK.json names is emitted, that each layer's
metrics are non-zero exactly on the workloads that run that layer, that all
correctness checks pass, and that the exact counts repeat for one seed and
move with another.
"""

import functools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TINY = {
    "chain": dict(n_channels=32, duration_s=2.0, session_units=96,
                  trials_per_target=2),
    "fabric-dense": dict(n_channels=64, duration_s=2.0),
    "decode-long": dict(n_units=48, trials_per_target=4),
}

SIM = {"sim.build_schedule.s", "detect.windows", "sim.Simulator.run.s",
       "sim.Simulator.run.self_s", "sim.cycles_per_s", "sim.step_calls_per_cycle",
       "sim.cycles", "sim.detections", "sim.sorts", "sim.rate_reduction",
       "decode.eokf_step.p50_us", "decode.eokf.step_ops", "sort_accuracy"}
SPLIT = {"decode.run_eokf_split.float.s", "decode.run_eokf_split.fixed.s",
         "decode.run_eokf.s", "decode.train_ensemble.s", "decode_mse",
         "decode.eokf_step.p50_us", "decode.eokf.step_ops",
         "synthdata.gen_reach_session.s"}
ALWAYS = {"checks_run", "trace.spans"}

# per-layer metrics that must be non-zero on each workload: the layer map
RUNS_ON = {
    "chain": ALWAYS | SIM | SPLIT | {
        "synthdata.gen_spike_trace.s", "detect.estimate_threshold.s",
        "evaluation.channel_feature_dataset.s", "evaluation.matched",
        "sort_offline.train_channel_model.s", "sim.gated_tokens",
        "sort_offline.classify_spike.calls", "sort_offline.classify_spike.us_per_call",
        "sort_offline.classify_spike.ops"},
    "fabric-dense": ALWAYS | SIM | {
        "synthdata.gen_spike_trace.s", "detect.estimate_threshold.s",
        "detect.detect_trace.s", "sort_online.train_online.s",
        "sort_online.classify.calls", "sort_online.classify.us_per_call"},
    "decode-long": ALWAYS | SPLIT | {
        "decode.train_observation_standard.s", "decode.run_kf.s",
        "decode.kf_step.p50_us", "decode.kf_step.p99_us", "decode.kf.step_ops",
        "kf_rtf", "kf_mse"},
}
# metrics that may read zero even where their layer runs
MAY_BE_ZERO = {"evaluation.unmatched", "sort_offline.classify_spike.outlier_frac",
               "sort_online.classify.outlier_frac", "sim.stall_cycles",
               "sim.decoder_collisions", "sim.tokens_lost", "sim.late_tokens",
               "sim_loss_frac", "trace.overhead_s", "checks_failed"}

# deterministic functions of the seed and the sizes
SEEDED = ["sim.cycles", "sim.detections", "sim.gated_tokens", "sim.sorts",
          "sim.stall_cycles", "sim.decoder_collisions", "sim.tokens_lost",
          "sim.late_tokens", "sim.rate_reduction", "detect.windows",
          "evaluation.matched", "evaluation.unmatched",
          "sort_offline.classify_spike.calls", "sort_online.classify.calls",
          "sort_accuracy", "decode_mse", "kf_mse", "sim_loss_frac"]
OP_COUNTS = ["decode.kf.step_ops", "decode.eokf.step_ops",
             "sort_offline.classify_spike.ops"]


def _run(workload: str, seed: int, trace: bool) -> dict:
    result = bench.run(workload, seed, 0.01, trace, TINY[workload])
    return bench.report(SPEC, result, trace)


cached_run = functools.lru_cache(maxsize=None)(_run)


def _values(line: dict) -> dict:
    return {k: v["value"] for k, v in line["metrics"].items()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_and_checks_pass(workload, trace):
    line = cached_run(workload, 1, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    json.dumps(line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(workload):
    assert all(v > 0 for v in _values(cached_run(workload, 1, False)).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_are_nonzero_exactly_where_the_layer_runs(workload):
    vals = _values(cached_run(workload, 1, True))
    nonzero = {k for k, v in vals.items() if v != 0}
    assert RUNS_ON[workload] - nonzero == set()
    assert nonzero - RUNS_ON[workload] - MAY_BE_ZERO == set()
    assert vals["checks_failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_seed_and_move_with_another(workload):
    a = _values(cached_run(workload, 1, True))
    again = _values(_run(workload, 1, True))
    other = _values(cached_run(workload, 2, True))
    assert {k: a[k] for k in SEEDED + OP_COUNTS} == {k: again[k] for k in SEEDED + OP_COUNTS}
    # op counts depend on the sizes only, never on the data
    assert {k: a[k] for k in OP_COUNTS} == {k: other[k] for k in OP_COUNTS}
    moved = {k for k in SEEDED if a[k] != other[k]}
    quality = {"chain": {"sim.detections", "sort_accuracy", "decode_mse"},
               "fabric-dense": {"sim.detections", "sort_accuracy"},
               "decode-long": {"decode_mse", "kf_mse"}}[workload]
    assert quality <= moved
