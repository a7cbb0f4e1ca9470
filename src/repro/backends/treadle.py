"""Treadle-like backend: a tree-walking IR interpreter, JIT-compiled by default.

Mirrors the role of Treadle in the paper (§3.1): zero build time, modest
throughput, runs directly on the IR, preferred for short runs and unit
tests.  Cover support is native — a saturating counter per cover statement,
sampled at each rising clock edge (the ~200-lines-of-Scala integration the
paper describes maps to the ``_sample_covers`` method here).

Two execution modes share the same model and public behavior:

* the **tree-walking interpreter** (:class:`TreadleSimulation`,
  ``TreadleBackend(jit=False)``, CLI ``--no-jit``) — the executable
  semantics reference, and
* a **JIT fast path** (the default): the scalar Python tier of
  :mod:`repro.backends.pysim`, the same generated class verilator runs.
  Property tests pin the two modes against each other cycle-for-cycle;
  the interpreter stays the arbiter.
"""

from __future__ import annotations

from typing import Optional

from ..ir.nodes import Expr, MemRead, Mux, PrimOp, Ref, SIntLiteral, UIntLiteral
from ..ir.ops import OPS
from ..ir.types import bit_width, mask, value_of
from ..runtime.telemetry import StepMeter, obs
from .api import CoverCounts, StepResult, metered_step, saturate
from .model import CircuitModel, build_model
from .modelcache import CacheEntry, ModelCache, compile_cached
from .pysim import PySimulation, compile_python


class TreadleSimulation:
    """Interpreting simulation of one circuit instance (the reference)."""

    def __init__(self, model: CircuitModel, counter_width: Optional[int] = None) -> None:
        self._model = model
        self._counter_width = counter_width
        self._values: dict[str, int] = {}
        self._mems: dict[str, list[int]] = {
            m.name: [0] * m.depth for m in model.memories
        }
        self._counts: dict[str, int] = {c.name: 0 for c in model.covers}
        self._dirty = True
        self._stopped: Optional[StepResult] = None
        self._value_probes: dict[str, dict[int, int]] = {}
        self._input_names = {p.name for p in model.inputs}
        self._meter = StepMeter("treadle")
        self.cycle = 0
        for port in model.inputs:
            self._values[port.name] = 0
        for reg in model.registers:
            self._values[reg.name] = 0

    # -- public API ----------------------------------------------------------

    def poke(self, port: str, value: int) -> None:
        width = self._model.widths.get(port)
        if width is None or port not in self._input_names:
            raise KeyError(f"no such input port: {port}")
        self._values[port] = value & mask(width)
        self._dirty = True

    def peek(self, port: str) -> int:
        if port not in self._model.port_names:
            raise KeyError(f"no such port: {port}")
        self._settle()
        return self._values.get(port, 0)

    def peek_internal(self, name: str) -> int:
        """Debug access to any internal signal."""
        self._settle()
        return self._values[name]

    def step(self, cycles: int = 1) -> StepResult:
        return metered_step(
            self._meter, lambda: self._step(cycles), lambda r: r.cycles
        )

    def _step(self, cycles: int) -> StepResult:
        done = 0
        for _ in range(cycles):
            if self._stopped is not None:
                return StepResult(done, True, self._stopped.stop_name, self._stopped.exit_code)
            self._settle()
            self._sample_covers()
            for signal, histogram in self._value_probes.items():
                value = self._values[signal]
                histogram[value] = histogram.get(value, 0) + 1
            stop = self._check_stops()
            self._commit_state()
            self.cycle += 1
            done += 1
            self._dirty = True
            if stop is not None:
                self._stopped = stop
                return StepResult(done, True, stop.stop_name, stop.exit_code)
        return StepResult(done)

    def cover_counts(self) -> CoverCounts:
        return {name: saturate(count, self._counter_width) for name, count in self._counts.items()}

    def watch_values(self, signal: str) -> None:
        """Efficient ``cover-values``: histogram a signal's value per cycle.

        The §6 alternative to exponential per-value cover statements —
        implemented "in software by indexing into an array of counters".
        """
        if signal not in self._model.widths:
            raise KeyError(f"no such signal: {signal}")
        self._value_probes.setdefault(signal, {})

    def value_histogram(self, signal: str) -> dict[int, int]:
        """Snapshot of a watched signal's value -> occurrences histogram."""
        return dict(self._value_probes[signal])

    @property
    def stopped(self) -> bool:
        """Whether a stop statement has halted this simulation."""
        return self._stopped is not None

    @property
    def stop_latch(self):
        """The latched stop (opaque), or None while running.

        The FireSim driver clears it to clock a scan-out after the target
        stopped and then puts back the value it read.
        """
        return self._stopped

    @stop_latch.setter
    def stop_latch(self, latch) -> None:
        """Restore a latch read from :attr:`stop_latch`, or clear it (None)."""
        self._stopped = latch

    def fork(self) -> "TreadleSimulation":
        """A fresh simulation of the same design (shares the static model)."""
        return TreadleSimulation(self._model, self._counter_width)

    # -- internals -------------------------------------------------------------

    def _settle(self) -> None:
        if not self._dirty:
            return
        values = self._values
        for name, expr in self._model.comb:
            values[name] = self._eval(expr)
        self._dirty = False

    def _eval(self, expr: Expr) -> int:
        kind = type(expr)
        if kind is Ref:
            return self._values[expr.name]
        if kind is UIntLiteral:
            return expr.value
        if kind is SIntLiteral:
            return expr.value & mask(expr.width)
        if kind is PrimOp:
            args = [self._eval(a) for a in expr.args]
            return OPS[expr.op].evaluate(args, [a.tpe for a in expr.args], expr.consts)
        if kind is Mux:
            chosen = expr.tval if self._eval(expr.cond) else expr.fval
            raw = self._eval(chosen)
            # encode the chosen arm into the mux's (possibly wider) type
            return _encode(value_of(raw, chosen.tpe), expr.type)
        if kind is MemRead:
            memory = self._mems[expr.mem]
            addr = self._eval(expr.addr)
            return memory[addr] if addr < len(memory) else 0
        raise TypeError(f"cannot evaluate {expr!r}")

    def _sample_covers(self) -> None:
        counts = self._counts
        for cover in self._model.covers:
            if self._eval(cover.en) and self._eval(cover.pred):
                counts[cover.name] += 1

    def _check_stops(self) -> Optional[StepResult]:
        for stop in self._model.stops:
            if self._eval(stop.en) and self._eval(stop.pred):
                return StepResult(0, True, stop.name, stop.exit_code)
        return None

    def _commit_state(self) -> None:
        values = self._values
        next_values: list[tuple[str, int]] = []
        for reg in self._model.registers:
            if reg.reset is not None and self._eval(reg.reset):
                assert reg.init is not None
                raw = self._eval(reg.init)
                raw = _encode(value_of(raw, reg.init.tpe), _reg_type(reg))
            else:
                raw = self._eval(reg.next)
                raw = _encode(value_of(raw, reg.next.tpe), _reg_type(reg))
            next_values.append((reg.name, raw))
        mem_writes: list[tuple[str, int, int]] = []
        for memory in self._model.memories:
            for write in memory.writes:
                if self._eval(write.en):
                    addr = self._eval(write.addr)
                    if addr < memory.depth:
                        data = self._eval(write.data) & mask(memory.width)
                        mem_writes.append((memory.name, addr, data))
        for name, raw in next_values:
            values[name] = raw
        for name, addr, data in mem_writes:
            self._mems[name][addr] = data


def _reg_type(reg):
    from ..ir.types import SIntType, UIntType

    return SIntType(reg.width) if reg.signed else UIntType(reg.width)


def _encode(value: int, tpe) -> int:
    return value & mask(bit_width(tpe))


class TreadleBackend:
    """Factory for treadle simulations.

    ``jit=True`` (the default) builds the scalar Python tier
    (:func:`~repro.backends.pysim.compile_python`); ``jit=False`` is the
    pure tree-walking reference (CLI ``--no-jit``).  ``cache`` overrides
    the process-default :class:`~repro.backends.modelcache.ModelCache`.
    """

    name = "treadle"

    def __init__(self, jit: bool = True, cache: Optional[ModelCache] = None) -> None:
        self.jit = jit
        self._cache = cache

    def compile(self, circuit, counter_width: Optional[int] = None):
        return self._compile(circuit, counter_width)

    def compile_state(self, state, counter_width: Optional[int] = None):
        """Build a simulation from an already-lowered CompileState."""
        return self._compile(state, counter_width)

    def _compile(self, circuit_or_state, counter_width) -> "TreadleSimulation | PySimulation":
        if self.jit:
            return compile_python(
                self.name, circuit_or_state, counter_width, self._cache, ("jit",)
            )

        def build() -> CacheEntry:
            with obs.span("compile", cat="compile", backend=self.name):
                model = build_model(circuit_or_state)
            return CacheEntry(key="", backend=self.name, model=model, source=None)

        entry = compile_cached(circuit_or_state, self.name, build, cache=self._cache)
        return TreadleSimulation(entry.model, counter_width)
