"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {replay,campaign,fuzz} \\
        --seed N --seconds S --trace {0,1}

Prints each metric by name and unit, then, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Everything the run writes
(model caches, shared objects, checkpoint shards, compiler temporaries)
lives under ``.perfbench_work/`` in the checkout and is removed on exit.
Exits with code 2, printing no result, when the program's sources are
not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("replay", "campaign", "fuzz")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str):
    if name == "replay":
        from perfbench.replay import Replay

        return Replay()
    if name == "campaign":
        from perfbench.campaign import Campaign

        return Campaign()
    from perfbench.fuzzing import Fuzz

    return Fuzz()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # the C compiler and every tempfile of the program stay in the checkout
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.harness import run_workload

        result, problems = run_workload(
            make_workload(args.workload), args.seed, args.seconds,
            bool(args.trace), workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
