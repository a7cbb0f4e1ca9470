"""The benchmark's own tests.

Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench -q

* a tiny run of each workload prints exactly the metrics BENCHMARK.json
  names, with their units, and passes its checks;
* a deliberately corrupted count registers as a failed operation on every
  workload, so the checks really check;
* without the program's sources the command fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.campaign import Campaign
from perfbench.fuzzing import Fuzz
from perfbench.harness import HostSpeed, Ledger, Samples, Setup, make_backend
from perfbench.replay import Replay
from repro.fuzz import FuzzHarness

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in proc.stdout.splitlines()), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fuzz", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


class _Corrupting:
    """A simulation whose cover counts come back flipped between zero and
    non-zero."""

    def __init__(self, sim) -> None:
        self._sim = sim

    def fork(self):
        return _Corrupting(self._sim.fork())

    def cover_counts(self, *lane):
        return {name: 0 if count else 1
                for name, count in self._sim.cover_counts(*lane).items()}

    def __getattr__(self, name):
        return getattr(self._sim, name)


class _CorruptingBackend:
    def __init__(self, backend) -> None:
        self._backend = backend

    def compile_state(self, state, counter_width=None):
        return _Corrupting(self._backend.compile_state(state, counter_width))

    def __getattr__(self, name):
        return getattr(self._backend, name)


def _round(workload, tmp_path, corrupt) -> Ledger:
    """Set up ``workload``, corrupt one unit, run one round."""
    host = HostSpeed()
    setup = workload.setup(workload.make_inputs(3), Setup(tmp_path, host, None))
    corrupt(setup)
    ledger = Ledger()
    workload.run_round(setup, ledger, Samples(host), None, 0)
    return ledger


def _corrupt_template(backend):
    def corrupt(setup):
        for unit, template in setup.templates.items():
            if unit[1] == backend:
                setup.templates[unit] = _Corrupting(template)
    return corrupt


def _corrupt_leg(leg, backend):
    def corrupt(setup):
        for (design, name), entry in setup.legs.items():
            if name == leg:
                entry.harness = FuzzHarness(
                    setup.states[design],
                    backend=_CorruptingBackend(make_backend(backend, setup.cache)),
                    max_cycles=entry.harness.max_cycles,
                )
    return corrupt


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        (Replay(designs=("TLRAM",), backends=("c", "verilator")),
         _corrupt_template("verilator")),
        (Campaign(designs=("TLRAM",), backends=("c", "verilator")),
         _corrupt_template("verilator")),
        (Fuzz(designs=("I2C",), legs=("c", "verilator")),
         _corrupt_leg("verilator", "verilator")),
        (Fuzz(designs=("I2C",), legs=("c", "lanes")),
         _corrupt_leg("lanes", "swarm")),
    ],
    ids=["replay", "campaign", "fuzz-scalar", "fuzz-lanes"],
)
def test_corrupted_count_is_a_failed_operation(workload, corrupt, tmp_path):
    ledger = _round(workload, tmp_path, corrupt)
    assert ledger.attempted > 0
    assert ledger.failed > 0, "a corrupted count passed the output check"


@pytest.mark.parametrize(
    "workload",
    [Replay(designs=("TLRAM",), backends=("c", "verilator")),
     Campaign(designs=("TLRAM",), backends=("c", "verilator")),
     Fuzz(designs=("I2C",), legs=("c", "verilator", "lanes"))],
    ids=["replay", "campaign", "fuzz"],
)
def test_uncorrupted_round_passes(workload, tmp_path):
    ledger = _round(workload, tmp_path, lambda setup: None)
    assert ledger.attempted > 0 and ledger.failed == 0, ledger.problems
