"""§3's claim in benchmark form: five backends, one cover primitive.

Measures per-backend throughput on the same instrumented design and
asserts exact cover-count parity, plus the qualitative startup/throughput
trade-offs the paper describes (Treadle, the tree-walking interpreter:
no build cost, slower; Verilator-like: build cost, faster).  Also
reports the integration-effort proxy: lines of cover-support code each
backend owns (the treadle JIT, verilator and essent share one emitter,
``pysim.py``, counted once).
"""

from pathlib import Path

import pytest

from repro.backends import (
    EssentBackend,
    FireSimBackend,
    TreadleBackend,
    VerilatorBackend,
)
from repro.coverage import instrument
from repro.designs.gcd import Gcd
from repro.hcl import elaborate

from .conftest import write_result

SRC = Path(__file__).parent.parent / "src" / "repro" / "backends"

_throughput = {}
_counts = {}


def drive(sim, rounds=40):
    sim.poke("reset", 1)
    sim.step()
    sim.poke("reset", 0)
    sim.poke("resp_ready", 1)
    for i in range(rounds):
        sim.poke("req_valid", 1)
        sim.poke("req_bits", ((i * 7 + 3) << 16) | (i * 13 + 1))
        while not sim.peek("req_ready"):
            sim.step()
        sim.step()
        sim.poke("req_valid", 0)
        while not sim.peek("resp_valid"):
            sim.step()
        sim.step()
    return sim.cover_counts()


BACKENDS = {
    "treadle": lambda state: TreadleBackend(jit=False).compile_state(state),
    "verilator": lambda state: VerilatorBackend().compile_state(state),
    "essent": lambda state: EssentBackend().compile_state(state),
    "firesim": lambda state: FireSimBackend(counter_width=16).compile_state(state),
}


@pytest.fixture(scope="module")
def gcd_state():
    state, _db = instrument(elaborate(Gcd()), metrics=["line", "fsm", "ready_valid"])
    return state


@pytest.mark.benchmark(group="backend-parity")
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_backend_throughput_and_parity(benchmark, backend, gcd_state):
    sim = BACKENDS[backend](gcd_state)

    def run():
        if hasattr(sim, "fork"):
            return drive(sim.fork())
        return drive(BACKENDS[backend](gcd_state))

    counts = benchmark(run)
    _throughput[backend] = benchmark.stats.stats.median
    _counts[backend] = counts

    if len(_counts) == len(BACKENDS):
        reference = _counts["treadle"]
        for name, c in _counts.items():
            assert c == reference, f"{name} diverged from treadle"
        # compiled simulation is faster than interpretation
        assert _throughput["verilator"] < _throughput["treadle"]

        effort = {
            "treadle (native counters)": _count_cover_lines("treadle.py"),
            "scalar Python emitter (shared)": _count_cover_lines("pysim.py"),
            "verilator (coverage.dat)": _count_cover_lines("verilator.py"),
            "essent (activity gate)": _count_cover_lines("essent.py"),
            "firesim (scan chain pass)": _count_cover_lines("firesim/scanchain.py"),
            "formal (BMC queries)": _count_cover_lines("formal/bmc.py"),
        }
        lines = ["per-backend run time (median, same workload) and cover support LoC:"]
        for name in BACKENDS:
            lines.append(f"  {name:<10} {_throughput[name] * 1e3:>8.2f} ms")
        lines.append("")
        lines.append("backend cover-support footprint (file LoC, upper bound):")
        for name, loc in effort.items():
            lines.append(f"  {name:<28} {loc:>5} lines")
        lines.append("(paper: Treadle ~200 lines / <1 week; ESSENT 60 lines / 5h)")
        write_result("backend_parity", "\n".join(lines))


def _count_cover_lines(rel_path: str) -> int:
    text = (SRC / rel_path).read_text()
    return sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    )
