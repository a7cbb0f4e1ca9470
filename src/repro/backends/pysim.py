"""The scalar Python tier: one generated class per model, one wrapper.

``TreadleBackend(jit=True)``, ``VerilatorBackend`` and ``EssentBackend``
all compile a model through :func:`generate_source` into one Python
module and run it behind :class:`PySimulation`:

* state (inputs, registers, memories) lives in instance attributes and
  cover counts in a ``counters`` list;
* ``settle()`` sweeps the combinational schedule once and stores every
  combinational signal, so peeks and ``peek_internal`` read attributes;
* ``run(cycles)`` is a locals-only loop over the same schedule as the
  interpreter's ``step``: settle, covers, first firing stop, then the
  register and memory commit.

The only per-backend difference is ESSENT's activity gate (§3.5), an
emitter setting chosen by the backend name: the gated module skips the
combinational sweep on cycles whose inputs, registers and memories are
unchanged since the previous cycle of the same ``run`` call.

Counters never saturate in the generated loop; :meth:`cover_counts`
merges covers that share a canonical name and then applies
:func:`~repro.backends.api.saturate`, exactly like the interpreter and
the ``c`` tier.  ``counter_width`` is therefore not part of the cache key.
"""

from __future__ import annotations

import time
from typing import Optional

from ..ir.types import bit_width, is_signed, mask
from ..runtime.telemetry import StepMeter, obs
from .api import CoverCounts, StepResult, metered_step, saturate
from .model import CircuitModel, build_model, memory_commit
from .modelcache import CacheEntry, ModelCache, compile_cached
from .pycodegen import RUNTIME_HELPERS, CodeBuilder, _s, gen_expr, predicate, pynames

#: backends whose generated module carries the activity gate
GATED_BACKENDS = frozenset({"essent"})


def signal_attrs(model: CircuitModel) -> dict[str, str]:
    """Signal name -> attribute/local name in the generated module."""
    return pynames(
        [p.name for p in model.inputs]
        + [r.name for r in model.registers]
        + [name for name, _ in model.comb]
    )


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


def generate_source(model: CircuitModel, gated: bool = False) -> str:
    """Generate the ``GeneratedSim`` module source for ``model``."""
    attr = signal_attrs(model)
    mems = {m.name: f"m_{i}" for i, m in enumerate(model.memories)}
    memories = {m.name: m for m in model.memories}

    def gen(expr) -> str:
        return gen_expr(expr, attr.__getitem__, mems.__getitem__, memories)

    state = [p.name for p in model.inputs] + [r.name for r in model.registers]
    b = CodeBuilder()
    b.emit('"""Generated by repro.backends.pysim — do not edit."""')
    for line in RUNTIME_HELPERS.strip().splitlines():
        b.emit(line)
    b.emit()
    b.emit("class GeneratedSim:")
    b.depth += 1

    b.emit("def __init__(self):")
    b.depth += 1
    for name in state:
        b.emit(f"self.{attr[name]} = 0")
    for memory in model.memories:
        b.emit(f"self.{mems[memory.name]} = [0] * {memory.padded_depth}")
    b.emit(f"self.counters = [0] * {len(model.covers)}")
    b.emit("self.cycle = 0")
    b.emit("self.halted = None")
    if gated:
        b.emit("self.evals = 0")
        b.emit("self.skips = 0")
    b.depth -= 1
    b.emit()

    def load() -> None:
        for name in state:
            b.emit(f"{attr[name]} = self.{attr[name]}")
        for memory in model.memories:
            b.emit(f"{mems[memory.name]} = self.{mems[memory.name]}")

    b.emit("def settle(self):")
    b.depth += 1
    load()
    for name, expr in model.comb:
        b.emit(f"{attr[name]} = {gen(expr)}")
        b.emit(f"self.{attr[name]} = {attr[name]}")
    if not (state or model.memories or model.comb):
        b.emit("pass")
    b.depth -= 1
    b.emit()

    b.emit("def run(self, cycles):")
    b.depth += 1
    b.emit("cnt = self.counters")
    load()
    b.emit("done = 0")
    if model.stops:
        b.emit("stop = None")
    if gated:
        b.emit("evals = 0")
        b.emit("prev_sig = None")
        b.emit("mem_dirty = True")
    # `done` ends at the number of edges executed, with or without a break
    b.emit("for done in range(1, cycles + 1):")
    b.depth += 1
    loop_start = len(b.lines)
    if gated:
        signature = "".join(f"{attr[name]}, " for name in state)
        b.emit(f"sig = ({signature})")
        b.emit("if mem_dirty or sig != prev_sig:")
        b.depth += 1
        b.emit("prev_sig = sig")
        b.emit("mem_dirty = False")
        b.emit("evals += 1")
    for name, expr in model.comb:
        b.emit(f"{attr[name]} = {gen(expr)}")
    if gated:
        b.depth -= 1
    for index, cover in enumerate(model.covers):
        b.emit(f"if {predicate(gen, cover.pred, cover.en)}: cnt[{index}] += 1")
    keyword = "if"
    for index, stop in enumerate(model.stops):
        b.emit(f"{keyword} {predicate(gen, stop.pred, stop.en)}: stop = {index}")
        keyword = "elif"
    for i, reg in enumerate(model.registers):
        next_text = _fit(gen(reg.next), reg.next.tpe, reg.width)
        if reg.reset is not None and reg.init is not None:
            init_text = _fit(gen(reg.init), reg.init.tpe, reg.width)
            b.emit(f"n_{i} = {init_text} if {gen(reg.reset)} else {next_text}")
        else:
            b.emit(f"n_{i} = {next_text}")
    # every write's operands are evaluated before the first store (see
    # memory_commit); staged ones go through temporaries to keep that
    commit = memory_commit(model)
    operands = []
    for k, (memory, write, staged) in enumerate(commit):
        addr = gen(write.addr)
        data = gen(write.data)
        if bit_width(write.data.tpe) > memory.width:
            data = f"{data} & {mask(memory.width)}"
        en = gen(write.en)
        if "en" in staged:
            b.emit(f"we_{k} = {en}")
            en = f"we_{k}"
        if "addr" in staged:
            b.emit(f"wa_{k} = {addr}")
            addr = f"wa_{k}"
        if "data" in staged:
            b.emit(f"wd_{k} = {data}")
            data = f"wd_{k}"
        operands.append((en, addr, data))
    for (memory, write, _), (en, addr, data) in zip(commit, operands):
        if memory.write_needs_guard(write.addr):
            en = f"{en} and ({addr}) < {memory.depth}"
        b.emit(f"if {en}:")
        b.depth += 1
        b.emit(f"{mems[memory.name]}[{addr}] = {data}")
        if gated:
            b.emit("mem_dirty = True")
        b.depth -= 1
    for i, reg in enumerate(model.registers):
        b.emit(f"{attr[reg.name]} = n_{i}")
    if model.stops:
        b.emit("if stop is not None: break")
    if len(b.lines) == loop_start:
        b.emit("pass")
    b.depth -= 1
    for reg in model.registers:
        b.emit(f"self.{attr[reg.name]} = {attr[reg.name]}")
    b.emit("self.cycle += done")
    if model.stops:
        b.emit("self.halted = stop")
    if gated:
        b.emit("self.evals += evals")
        b.emit("self.skips += done - evals")
    b.emit("return done")
    return b.source()


class PySimulation:
    """The Simulation protocol over one ``GeneratedSim`` instance.

    Shared by the treadle JIT, verilator and essent; ``backend_name``
    labels spans and step meters.  Behaves like the interpreter
    (:class:`~repro.backends.treadle.TreadleSimulation`) in every
    observable way: outputs, ``peek_internal``, value probes, stops,
    ``step(0)`` and merged, saturated cover counts.
    """

    def __init__(
        self,
        model: CircuitModel,
        counter_width: Optional[int],
        cls: type,
        attr: dict[str, str],
        source: Optional[str],
        backend_name: str,
    ) -> None:
        self._model = model
        self._counter_width = counter_width
        self._cls = cls
        self._attr = attr
        self.source = source
        self.backend_name = backend_name
        self._sim = cls()
        self._inputs = {p.name for p in model.inputs}
        self._ports = model.port_names
        self._widths = model.widths
        self._cover_names = [c.name for c in model.covers]
        self._unique_covers = len(set(self._cover_names)) == len(self._cover_names)
        self._probes: dict[str, dict[int, int]] = {}
        self._dirty = True
        self._meter = StepMeter(backend_name)
        self.build_seconds = 0.0

    def poke(self, port: str, value: int) -> None:
        if port not in self._inputs:
            raise KeyError(f"no such input port: {port}")
        setattr(self._sim, self._attr[port], value & mask(self._widths[port]))
        self._dirty = True

    def peek(self, port: str) -> int:
        if port in self._inputs:
            return getattr(self._sim, self._attr[port])
        if port not in self._ports:
            raise KeyError(f"no such port: {port}")
        if self._dirty:
            self._sim.settle()
            self._dirty = False
        return getattr(self._sim, self._attr[port])

    def peek_internal(self, name: str) -> int:
        """Debug access to any internal signal."""
        if self._dirty:
            self._sim.settle()
            self._dirty = False
        return getattr(self._sim, self._attr[name])

    def step(self, cycles: int = 1) -> StepResult:
        sim = self._sim
        if sim.halted is not None:
            return self._halted(0) if cycles > 0 else StepResult(0)
        if self._probes:
            return metered_step(
                self._meter, lambda: self._step_probed(cycles), lambda r: r.cycles
            )
        # replay and fuzzing call step(1) per cycle: skip the closure
        # and the metering call when telemetry is off
        if obs.enabled:
            done = metered_step(self._meter, lambda: sim.run(cycles))
        else:
            done = sim.run(cycles)
        self._dirty = True
        if sim.halted is not None:
            return self._halted(done)
        return StepResult(done)

    def _step_probed(self, cycles: int) -> StepResult:
        """One edge at a time: settle, read the probes, ``run(1)``."""
        sim, attr = self._sim, self._attr
        probes = [(attr[signal], histogram) for signal, histogram in self._probes.items()]
        done = 0
        for _ in range(cycles):
            sim.settle()
            for name, histogram in probes:
                value = getattr(sim, name)
                histogram[value] = histogram.get(value, 0) + 1
            done += sim.run(1)
            if sim.halted is not None:
                break
        self._dirty = True
        return StepResult(done) if sim.halted is None else self._halted(done)

    def _halted(self, done: int) -> StepResult:
        stop = self._model.stops[self._sim.halted]
        return StepResult(done, True, stop.name, stop.exit_code)

    def cover_counts(self) -> CoverCounts:
        counters = self._sim.counters
        if self._unique_covers and self._counter_width is None:
            return dict(zip(self._cover_names, counters))
        merged: dict[str, int] = {}
        for name, count in zip(self._cover_names, counters):
            merged[name] = merged.get(name, 0) + count
        return {
            name: saturate(count, self._counter_width)
            for name, count in merged.items()
        }

    def watch_values(self, signal: str) -> None:
        """Efficient ``cover-values``: histogram a signal's value per cycle.

        The §6 alternative to exponential per-value cover statements —
        implemented "in software by indexing into an array of counters".
        """
        if signal not in self._attr:
            raise KeyError(f"no such signal: {signal}")
        self._probes.setdefault(signal, {})

    def value_histogram(self, signal: str) -> dict[int, int]:
        """Snapshot of a watched signal's value -> occurrences histogram."""
        return dict(self._probes[signal])

    @property
    def activity_stats(self) -> tuple[int, int]:
        """(evaluated cycles, skipped cycles) of an activity-gated module."""
        return self._sim.evals, self._sim.skips

    @property
    def cycle(self) -> int:
        """Rising clock edges executed since construction."""
        return self._sim.cycle

    @property
    def stopped(self) -> bool:
        """Whether a stop statement has halted this simulation."""
        return self._sim.halted is not None

    @property
    def stop_latch(self):
        """The latched stop (opaque), or None while running.

        The FireSim driver clears it to clock a scan-out after the target
        stopped and then puts back the value it read.
        """
        return self._sim.halted

    @stop_latch.setter
    def stop_latch(self, latch) -> None:
        """Restore a latch read from :attr:`stop_latch`, or clear it (None)."""
        self._sim.halted = latch

    def fork(self) -> "PySimulation":
        """A fresh simulation of the same design, skipping recompilation."""
        clone = object.__new__(PySimulation)
        clone.__dict__.update(self.__dict__)
        clone._sim = self._cls()
        clone._probes = {}
        clone._dirty = True
        clone._meter = StepMeter(self.backend_name)
        return clone


def compile_python(
    backend: str,
    circuit_or_state,
    counter_width: Optional[int] = None,
    cache: Optional[ModelCache] = None,
    options: tuple = (),
) -> PySimulation:
    """Build (or fetch from the model cache) the generated module and wrap it.

    ``backend`` names the cache space and the telemetry label; it also
    selects the activity gate (:data:`GATED_BACKENDS`).  The exec'd class
    is memoized on the cache entry, so later hits and forks skip ``exec``.
    """
    started = time.perf_counter()
    gated = backend in GATED_BACKENDS

    def build() -> CacheEntry:
        with obs.span("compile", cat="compile", backend=backend):
            model = build_model(circuit_or_state)
            source = generate_source(model, gated)
        return CacheEntry(key="", backend=backend, model=model, source=source)

    entry = compile_cached(
        circuit_or_state, backend, build, cache=cache, options=options
    )
    loaded = entry.runtime.get("cls")
    if loaded is None:
        model = entry.model
        source = entry.source or generate_source(model, gated)
        namespace: dict = {}
        exec(compile(source, f"<generated {model.name}>", "exec"), namespace)
        loaded = entry.runtime["cls"] = (namespace["GeneratedSim"], signal_attrs(model))
    cls, attr = loaded
    sim = PySimulation(entry.model, counter_width, cls, attr, entry.source, backend)
    sim.build_seconds = time.perf_counter() - started
    return sim
