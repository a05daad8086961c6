"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the repository root:

    python3 perfbench/collect.py --seeds 1-10 [--workloads chain,decode-long]
        [--trace] [--seconds 20] [--out results.json]

Runs are sequential, one fresh process each. For every workload and metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``), and the
spread: the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RAW_PREFIX = "unscaled wall clock: "
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    raw = [ln for ln in lines if ln.startswith(RAW_PREFIX)]
    if raw:
        out["raw"] = json.loads(raw[-1][len(RAW_PREFIX):])
    return out


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    results = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds]
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], "values": vals, **summarise(vals)}
            if "raw" in runs[0]:
                raw = [r["raw"][name] for r in runs]
                metrics[name]["raw"] = {"values": raw, **summarise(raw)}
        results[workload] = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
                             "failed": sum(r["failed"] for r in runs),
                             "metrics": metrics}
        if "raw" in runs[0]:
            results[workload]["reference_s"] = [r["raw"]["reference_s"] for r in runs]
        print(f"== {workload}: correct={results[workload]['correct']} "
              f"failed={results[workload]['failed']}")
        if "reference_s" in results[workload]:
            print(f"  reference loop, median per run: "
                  f"{summarise(results[workload]['reference_s'])['median']:.5f} s")
        for name, m in metrics.items():
            bound = bounds.get(name)
            tail = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:42s} median {m['median']:<14.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f}{tail}")
            if "raw" in m:
                print(f"  {'  unscaled':42s} median {m['raw']['median']:<14.6g} "
                      f"spread {m['raw']['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
