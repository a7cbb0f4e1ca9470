"""Value coverage and the ``cover-values`` limitation study (§6, Figure 12).

The paper's one admitted limitation: covering *every value* of a w-bit
signal with the single cover primitive requires ``2**w`` cover statements —
an exponential blowup — whereas a hypothetical ``cover-values`` primitive
lowers to an array-indexed counter in software or a block RAM on the FPGA.

This module provides both sides of that comparison:

* :class:`CoverValuesNaivePass` — the blowup: one cover per value.
* *value probes* — the efficient implementation, supported natively by the
  treadle interpreter, the scalar Python tier (treadle JIT, verilator,
  essent) and the ``c`` backend: ``sim.watch_values(signal)`` before
  stepping, ``sim.value_histogram(signal)`` after — one histogram per
  signal, one array update per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..ir.namespace import Namespace
from ..ir.nodes import TRUE, Cover, Module, Ref, UIntLiteral, prim
from ..ir.traversal import declared_names, walk_stmts
from ..ir.types import UIntType, bit_width
from ..passes.base import CompileState, Pass, PassError
from .common import CoverageDB
from .line import find_clock

METRIC = "cover_values"

#: refuse to emit more covers than this per signal (the blowup guard)
MAX_NAIVE_COVERS = 1 << 16


class CoverValuesNaivePass(Pass):
    """Lower value coverage to plain cover statements (exponential!).

    ``targets`` maps module names to signal names whose full value range
    should be covered.  This is deliberately the *bad* implementation the
    paper warns about; its cost is what the Figure 12 bench measures.
    """

    def __init__(self, targets: dict[str, Iterable[str]], db: Optional[CoverageDB] = None) -> None:
        self.targets = {m: list(sigs) for m, sigs in targets.items()}
        self.db = db if db is not None else CoverageDB()

    def run(self, state: CompileState) -> CompileState:
        for module in state.circuit.modules:
            signals = self.targets.get(module.name)
            if signals:
                self._instrument(module, signals)
        state.metadata[METRIC] = self.db
        return state

    def _instrument(self, module: Module, signals: list[str]) -> None:
        clock = find_clock(module)
        if clock is None:
            raise PassError(f"module {module.name} has no clock")
        types = {p.name: p.type for p in module.ports}
        for stmt in module.body:
            if hasattr(stmt, "name") and hasattr(stmt, "type"):
                types[stmt.name] = stmt.type
            elif hasattr(stmt, "name") and hasattr(stmt, "value"):
                types[stmt.name] = stmt.value.tpe
        ns = Namespace(declared_names(module))
        for stmt in walk_stmts(module.body):
            if isinstance(stmt, Cover):
                ns.fresh(stmt.name)
        for signal in signals:
            tpe = types.get(signal)
            if tpe is None:
                raise PassError(f"no signal {signal!r} in {module.name}")
            width = bit_width(tpe)
            if (1 << width) > MAX_NAIVE_COVERS:
                raise PassError(
                    f"cover-values on {signal} would need {1 << width} covers; "
                    f"use a backend value probe instead"
                )
            ref = Ref(signal, tpe)
            for value in range(1 << width):
                name = ns.fresh(f"cv_{signal}_{value}")
                pred = prim("eq", ref, UIntLiteral(value, width))
                module.body.append(Cover(name, clock, pred, TRUE))
                self.db.add(
                    METRIC, module.name, name, {"signal": signal, "value": value}
                )


@dataclass
class ValueCoverageReport:
    """Values seen per signal (from either implementation)."""

    signal: str
    width: int
    histogram: dict[int, int]

    @property
    def seen(self) -> int:
        return sum(1 for c in self.histogram.values() if c > 0)

    @property
    def total(self) -> int:
        return 1 << self.width

    def format(self) -> str:
        return (
            f"value coverage of {self.signal}: {self.seen}/{self.total} values seen"
        )


def naive_report(db: CoverageDB, counts, module: str, signal: str, width: int) -> ValueCoverageReport:
    """Assemble a value report from the naive per-value cover counts."""
    histogram: dict[int, int] = {}
    for mod, cover_name, payload in db.covers_of(METRIC):
        if mod == module and payload["signal"] == signal:
            # counts are keyed canonically; naive use assumes top-level module
            histogram[payload["value"]] = counts.get(cover_name, 0)
    return ValueCoverageReport(signal, width, histogram)


def probe_report(signal: str, width: int, histogram: dict[int, int]) -> ValueCoverageReport:
    """Assemble a value report from a backend value probe."""
    return ValueCoverageReport(signal, width, dict(histogram))
