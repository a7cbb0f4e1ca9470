"""Treadle-like backend: a tree-walking IR interpreter, JIT-compiled by default.

Mirrors the role of Treadle in the paper (§3.1): zero build time, modest
throughput, runs directly on the IR, preferred for short runs and unit
tests.  Cover support is native — a saturating counter per cover statement,
sampled at each rising clock edge (the ~200-lines-of-Scala integration the
paper describes maps to the ``_sample_covers`` method here).

Two execution modes share the same model, state dictionaries, and public
behavior:

* the original **tree-walking interpreter** (``TreadleBackend(jit=False)``,
  CLI ``--no-jit``) — the executable semantics reference, and
* a **JIT fast path** (the default): the module's topologically-ordered
  settle schedule is lowered through :mod:`repro.backends.pycodegen` into
  three compiled closures — ``settle`` (comb sweep), ``tick`` (one clock
  edge with cover sampling), and a fused ``run`` loop used when no value
  probes are active.  Property tests pin the two modes against each other
  cycle-for-cycle; the interpreter stays the arbiter.
"""

from __future__ import annotations

from typing import Optional

from ..ir.nodes import Expr, MemRead, Mux, PrimOp, Ref, SIntLiteral, UIntLiteral
from ..ir.ops import OPS
from ..ir.types import bit_width, is_signed, mask, value_of
from ..runtime.telemetry import StepMeter, obs
from .api import CoverCounts, StepResult, metered_step, saturate
from .model import CircuitModel, build_model
from .modelcache import CacheEntry, ModelCache, compile_cached
from .pycodegen import RUNTIME_HELPERS, CodeBuilder, _s, gen_expr, predicate, pynames


def _fit(text: str, tpe, width: int) -> str:
    """Re-encode an expression's raw value into a ``width``-bit register.

    Mirrors the interpreter's commit path (``_encode(value_of(...))``):
    narrower signed sources sign-extend, wider sources truncate, matching
    widths pass through untouched (the common case after lowering).
    """
    w = bit_width(tpe)
    if is_signed(tpe) and w < width:
        return f"({_s(text, w)} & {mask(width)})"
    if w > width:
        return f"({text} & {mask(width)})"
    return text


def generate_jit_source(model: CircuitModel) -> str:
    """Generate the compiled settle/tick/run closures for ``model``.

    The generated functions operate directly on the simulation's state
    dictionaries (``values``, ``mems``, ``counts``), so interpreter-mode
    facilities — ``peek_internal``, value probes, ``fork`` — keep working
    unchanged: ``settle`` writes every combinational signal back into
    ``values``, and ``tick`` commits register/memory state exactly like
    the interpreter's collect-then-apply ``_commit_state``.
    """
    all_names = (
        [p.name for p in model.inputs]
        + [r.name for r in model.registers]
        + [name for name, _ in model.comb]
    )
    py = pynames(all_names)
    mems = {m.name: f"m_{i}" for i, m in enumerate(model.memories)}

    def gen(expr) -> str:
        return gen_expr(expr, lambda n: py[n], lambda n: mems[n])

    b = CodeBuilder()
    b.emit('"""Generated by repro.backends.treadle (JIT) — do not edit."""')
    for line in RUNTIME_HELPERS.strip().splitlines():
        b.emit(line)
    b.emit()

    state_names = [p.name for p in model.inputs] + [
        r.name for r in model.registers
    ]

    def load(names: list[str]) -> None:
        for name in names:
            b.emit(f"{py[name]} = values[{name!r}]")
        for memory in model.memories:
            b.emit(f"{mems[memory.name]} = mems[{memory.name!r}]")

    def emit_effects(fused: bool) -> None:
        """Covers, stops, register nexts, memory writes, state commit."""
        for cover in model.covers:
            b.emit(f"if {predicate(gen, cover.pred, cover.en)}:")
            b.depth += 1
            b.emit(f"counts[{cover.name!r}] += 1")
            b.depth -= 1
        if not fused:
            b.emit("stop = None")
        keyword = "if"
        for index, stop in enumerate(model.stops):
            b.emit(f"{keyword} {predicate(gen, stop.pred, stop.en)}:")
            b.depth += 1
            b.emit(f"stop = {index}")
            b.depth -= 1
            keyword = "elif"
        for i, reg in enumerate(model.registers):
            next_text = _fit(gen(reg.next), reg.next.tpe, reg.width)
            if reg.reset is not None and reg.init is not None:
                init_text = _fit(gen(reg.init), reg.init.tpe, reg.width)
                b.emit(
                    f"n_{i} = {init_text} if {gen(reg.reset)} else {next_text}"
                )
            else:
                b.emit(f"n_{i} = {next_text}")
        for memory in model.memories:
            for write in memory.writes:
                addr = gen(write.addr)
                data = f"{gen(write.data)} & {mask(memory.width)}"
                en = gen(write.en)
                guard = (
                    f"{en} and ({addr}) < {memory.depth}"
                    if memory.needs_write_guard
                    else en
                )
                b.emit(f"if {guard}: {mems[memory.name]}[{addr}] = {data}")
        for i, reg in enumerate(model.registers):
            if fused:
                b.emit(f"{py[reg.name]} = n_{i}")
            else:
                b.emit(f"values[{reg.name!r}] = n_{i}")

    # -- settle: one combinational sweep, written back into `values` --------
    b.emit("def settle(values, mems):")
    b.depth += 1
    load(state_names)
    for name, expr in model.comb:
        b.emit(f"{py[name]} = {gen(expr)}")
        b.emit(f"values[{name!r}] = {py[name]}")
    if not (state_names or model.comb or model.memories):
        b.emit("pass")
    b.depth -= 1
    b.emit()

    # -- tick: one settled clock edge (used on the value-probe path) --------
    b.emit("def tick(values, mems, counts):")
    b.depth += 1
    load(state_names + [name for name, _ in model.comb])
    emit_effects(fused=False)
    b.emit("return stop")
    b.depth -= 1
    b.emit()

    # -- run: the fused hot loop (no per-cycle dict traffic) ----------------
    b.emit("def run(values, mems, counts, cycles):")
    b.depth += 1
    load(state_names)
    b.emit("done = 0")
    b.emit("stop = None")
    b.emit("for _ in range(cycles):")
    b.depth += 1
    for name, expr in model.comb:
        b.emit(f"{py[name]} = {gen(expr)}")
    emit_effects(fused=True)
    b.emit("done += 1")
    if model.stops:
        b.emit("if stop is not None: break")
    b.depth -= 1
    for reg in model.registers:
        b.emit(f"values[{reg.name!r}] = {py[reg.name]}")
    b.emit("return done, stop")
    b.depth -= 1
    return b.source()


class _JitPlan:
    """The exec'd closures for one model — built once, shared by forks."""

    __slots__ = ("source", "settle", "tick", "run")

    def __init__(self, source: str) -> None:
        self.source = source
        namespace: dict = {}
        exec(compile(source, "<generated-treadle-jit>", "exec"), namespace)
        self.settle = namespace["settle"]
        self.tick = namespace["tick"]
        self.run = namespace["run"]


class TreadleSimulation:
    """Interpreting simulation of one circuit instance.

    With ``plan`` set, stepping runs the compiled closures instead of the
    tree walker; peeks, pokes, value probes, and cover counts behave
    identically in both modes.
    """

    def __init__(
        self,
        model: CircuitModel,
        counter_width: Optional[int] = None,
        plan: Optional[_JitPlan] = None,
    ) -> None:
        self._model = model
        self._counter_width = counter_width
        self._plan = plan
        self._values: dict[str, int] = {}
        # Padded allocation in both modes: masked addresses stay in range
        # for the generated code's unguarded reads, and the pad slots are
        # never written (writes are guarded to `depth`), so interpreter
        # reads of them return the same 0 they always did.
        self._mems: dict[str, list[int]] = {
            m.name: [0] * m.padded_depth for m in model.memories
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
        if self._plan is not None:
            return self._step_jit(cycles)
        return self._step_interp(cycles)

    def _step_interp(self, cycles: int) -> StepResult:
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

    def _step_jit(self, cycles: int) -> StepResult:
        plan = self._plan
        assert plan is not None
        if cycles > 0 and self._stopped is not None:
            halted = self._stopped
            return StepResult(0, True, halted.stop_name, halted.exit_code)
        values, mems, counts = self._values, self._mems, self._counts
        if not self._value_probes:
            done, stop_index = plan.run(values, mems, counts, cycles)
            self.cycle += done
            if done:
                self._dirty = True
            if stop_index is not None:
                stop = self._model.stops[stop_index]
                self._stopped = StepResult(0, True, stop.name, stop.exit_code)
                return StepResult(done, True, stop.name, stop.exit_code)
            return StepResult(done)
        # Value probes need the settled pre-edge values every cycle, so
        # this path ticks one edge at a time (still compiled, no tree walk).
        done = 0
        for _ in range(cycles):
            if self._dirty:
                plan.settle(values, mems)
                self._dirty = False
            for signal, histogram in self._value_probes.items():
                value = values[signal]
                histogram[value] = histogram.get(value, 0) + 1
            stop_index = plan.tick(values, mems, counts)
            self.cycle += 1
            done += 1
            self._dirty = True
            if stop_index is not None:
                stop = self._model.stops[stop_index]
                self._stopped = StepResult(0, True, stop.name, stop.exit_code)
                return StepResult(done, True, stop.name, stop.exit_code)
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
        return TreadleSimulation(self._model, self._counter_width, plan=self._plan)

    # -- internals -------------------------------------------------------------

    def _settle(self) -> None:
        if not self._dirty:
            return
        if self._plan is not None:
            self._plan.settle(self._values, self._mems)
        else:
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
    """Factory for interpreting simulations.

    ``jit=True`` (the default) compiles the settle schedule into closures
    via :func:`generate_jit_source`; ``jit=False`` is the pure
    tree-walking reference (CLI ``--no-jit``).  ``cache`` overrides the
    process-default :class:`~repro.backends.modelcache.ModelCache`.
    """

    name = "treadle"

    def __init__(self, jit: bool = True, cache: Optional[ModelCache] = None) -> None:
        self.jit = jit
        self._cache = cache

    def compile(self, circuit, counter_width: Optional[int] = None) -> TreadleSimulation:
        return self._compile(circuit, counter_width)

    def compile_state(self, state, counter_width: Optional[int] = None) -> TreadleSimulation:
        """Build a simulation from an already-lowered CompileState."""
        return self._compile(state, counter_width)

    def _compile(self, circuit_or_state, counter_width) -> TreadleSimulation:
        def build() -> CacheEntry:
            with obs.span("compile", cat="compile", backend=self.name):
                model = build_model(circuit_or_state)
                source = generate_jit_source(model) if self.jit else None
            return CacheEntry(key="", backend=self.name, model=model, source=source)

        entry = compile_cached(
            circuit_or_state,
            self.name,
            build,
            cache=self._cache,
            options=("jit",) if self.jit else (),
        )
        plan = None
        if self.jit:
            plan = entry.runtime.get("plan")
            if plan is None:
                source = entry.source or generate_jit_source(entry.model)
                plan = entry.runtime["plan"] = _JitPlan(source)
        return TreadleSimulation(entry.model, counter_width, plan=plan)
