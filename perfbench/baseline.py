"""Run the benchmark over many seeds and record its baseline.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py

For each workload in BENCHMARK.json this runs the benchmark command
``RUNS`` times untraced, each with another seed, and ``TRACE_RUNS`` times
traced, then records per (metric, workload) the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread --
the interquartile distance as a share of the median -- next to the
metric's bound.  It then runs the same untraced seeds a second time and
records, per end-to-end metric, that set's median and spread and how much
worse its median is than the first (a share of the first median; negative
when it is better).  Both go into ``perfbench/baseline.json`` under
``"baseline"`` and ``"repeat"``, keeping the file's other sections.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "baseline.json"
RUNS = 10
TRACE_RUNS = 1
FIRST_SEED = 1


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def run_set(spec: dict, workload: str, trace: int, runs: int) -> dict:
    """``runs`` seeded runs: per metric its summary and unit, plus the
    summed operation counts."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    for seed in range(FIRST_SEED, FIRST_SEED + runs):
        result = run_once(spec["command"], workload, seed, spec["run_seconds"], trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} trace={trace} seed={seed}: correct={result['correct']}",
              file=sys.stderr)
    metrics = {}
    for name, series in values.items():
        metrics[name] = summarize(series)
        metrics[name]["unit"] = units[name]
    return {"metrics": metrics, "operations": {"attempted": attempted, "failed": failed}}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    baseline, repeat = {}, {}
    for workload in workloads:
        first = run_set(spec, workload, 0, RUNS)
        traced = run_set(spec, workload, 1, TRACE_RUNS)
        for name, summary in first["metrics"].items():
            summary["bound"] = end_to_end[name]["bound"]
        baseline[workload] = {
            "end_to_end": first["metrics"],
            "per_layer": traced["metrics"],
            "end_to_end_operations": first["operations"],
            "per_layer_operations": traced["operations"],
        }
    # the second set runs after every first set, as a later run would
    for workload in workloads:
        second = run_set(spec, workload, 0, RUNS)["metrics"]
        repeat[workload] = {}
        for name, summary in second.items():
            metric = end_to_end[name]
            before = baseline[workload]["end_to_end"][name]["median"]
            change = (summary["median"] - before) / before
            repeat[workload][name] = {
                "median": summary["median"],
                "spread": summary["spread"],
                "worse_than_baseline": change if metric["better"] == "lower" else -change,
                "bound": metric["bound"],
            }

    document = json.loads(OUT.read_text()) if OUT.exists() else {}
    document["baseline"] = baseline
    document["baseline_seeds"] = {
        "first": FIRST_SEED, "runs": RUNS, "trace_runs": TRACE_RUNS,
    }
    document["repeat"] = {
        "about": f"a second set of {RUNS} untraced runs (seeds {FIRST_SEED}-"
                 f"{FIRST_SEED + RUNS - 1}) of the same code, against the baseline",
        "runs": repeat,
    }
    OUT.write_text(json.dumps(document, indent=2) + "\n")
    for workload in workloads:
        for name, summary in baseline[workload]["end_to_end"].items():
            again = repeat[workload][name]
            print(f"{workload:9s} {name:26s} median {summary['median']:>12.6g} "
                  f"spread {summary['spread']:.3f}/{again['spread']:.3f} "
                  f"worse {again['worse_than_baseline']:+.3f} bound {summary['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
