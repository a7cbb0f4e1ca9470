"""Verilator-like backend: compile the circuit to Python code (§3.2).

Mirrors Verilator's role in the paper: the circuit is lowered, flattened
and *compiled* — here to a single specialized Python module that is then
``exec``'d — trading startup time for throughput.  Cover statements map to
in-line counter increments, exactly like the SystemVerilog cover statements
Verilator implements for the paper's flow.

The backend also reproduces two Verilator-specific artifacts:

* a *built-in line coverage* mode (``native_line_coverage=True``) that
  instruments internally, standing in for ``verilator --coverage-line``
  in the Figure-8 overhead comparison, and
* the ``coverage.dat`` file format plus the converter that re-associates
  its entries with our canonical cover names (the paper's §3.2 converter,
  upstreamed to chiseltest).
"""

from __future__ import annotations

import io
import re
import time
from typing import Optional

from ..ir.nodes import Circuit
from ..ir.types import mask
from ..runtime.telemetry import StepMeter, obs
from .api import CoverCounts, StepResult, metered_step, saturate
from .model import CircuitModel, build_model
from .modelcache import CacheEntry, ModelCache, compile_cached
from .pycodegen import RUNTIME_HELPERS, CodeBuilder, gen_expr, predicate, pynames


def generate_source(
    model: CircuitModel,
    counter_width: Optional[int],
    value_probes: tuple[str, ...] = (),
) -> str:
    """Generate the specialized simulation module source for ``model``."""
    all_names = (
        [p.name for p in model.inputs]
        + [r.name for r in model.registers]
        + [name for name, _ in model.comb]
    )
    py = pynames(all_names)
    mems = {m.name: f"m_{i}" for i, m in enumerate(model.memories)}

    def ref(name: str) -> str:
        return py[name]

    def memref(name: str) -> str:
        return mems[name]

    def gen(expr) -> str:
        return gen_expr(expr, ref, memref)

    b = CodeBuilder()
    b.emit('"""Generated by repro.backends.verilator — do not edit."""')
    for line in RUNTIME_HELPERS.strip().splitlines():
        b.emit(line)
    b.emit()
    b.emit("class GeneratedSim:")
    b.depth += 1

    # -- __init__ ------------------------------------------------------------
    b.emit("def __init__(self):")
    b.depth += 1
    for port in model.inputs:
        b.emit(f"self.{py[port.name]} = 0")
    for reg in model.registers:
        b.emit(f"self.{py[reg.name]} = 0")
    for memory in model.memories:
        b.emit(f"self.{mems[memory.name]} = [0] * {memory.padded_depth}")
    b.emit(f"self.counters = [0] * {len(model.covers)}")
    for i, _probe in enumerate(value_probes):
        b.emit(f"self.hist_{i} = {{}}")
    b.emit("self.cycle = 0")
    b.emit("self.halted = None")
    b.depth -= 1
    b.emit()

    def emit_comb(assign_outputs: bool) -> None:
        for port in model.inputs:
            b.emit(f"{py[port.name]} = self.{py[port.name]}")
        for reg in model.registers:
            b.emit(f"{py[reg.name]} = self.{py[reg.name]}")
        for memory in model.memories:
            b.emit(f"{mems[memory.name]} = self.{mems[memory.name]}")
        for name, expr in model.comb:
            b.emit(f"{py[name]} = {gen(expr)}")
        if assign_outputs:
            for port in model.outputs:
                b.emit(f"self.o_{py[port.name]} = {py[port.name]}")

    # -- _settle: combinational evaluation for peeks ----------------------------
    b.emit("def settle(self):")
    b.depth += 1
    emit_comb(assign_outputs=True)
    if not model.comb and not model.inputs and not model.registers:
        b.emit("pass")
    b.depth -= 1
    b.emit()

    # -- run(cycles) --------------------------------------------------------------
    b.emit("def run(self, cycles):")
    b.depth += 1
    b.emit("cnt = self.counters")
    for i, _probe in enumerate(value_probes):
        b.emit(f"hist_{i} = self.hist_{i}")
    b.emit("done = 0")
    for port in model.inputs:
        b.emit(f"{py[port.name]} = self.{py[port.name]}")
    for reg in model.registers:
        b.emit(f"{py[reg.name]} = self.{py[reg.name]}")
    for memory in model.memories:
        b.emit(f"{mems[memory.name]} = self.{mems[memory.name]}")
    b.emit("for _ in range(cycles):")
    b.depth += 1
    for name, expr in model.comb:
        b.emit(f"{py[name]} = {gen(expr)}")
    # value probes: the efficient cover-values implementation (§6)
    for i, probe in enumerate(value_probes):
        b.emit(f"_v = {py[probe]}")
        b.emit(f"hist_{i}[_v] = hist_{i}.get(_v, 0) + 1")
    # covers
    sat = None if counter_width is None else (1 << counter_width) - 1
    for index, cover in enumerate(model.covers):
        cond = predicate(gen, cover.pred, cover.en)
        b.emit(f"if {cond}:")
        b.depth += 1
        if sat is None:
            b.emit(f"cnt[{index}] += 1")
        else:
            b.emit(f"_n = cnt[{index}] + 1")
            b.emit(f"if _n <= {sat}: cnt[{index}] = _n")
        b.depth -= 1
    # stops
    stop_commit = False
    for index, stop in enumerate(model.stops):
        cond = predicate(gen, stop.pred, stop.en)
        b.emit(f"if {cond}: self.halted = {index}")
        stop_commit = True
    # register next values
    for i, reg in enumerate(model.registers):
        next_text = gen(reg.next)
        if reg.reset is not None and reg.init is not None:
            b.emit(f"n_{i} = {gen(reg.init)} if {gen(reg.reset)} else {next_text}")
        else:
            b.emit(f"n_{i} = {next_text}")
    # memory writes
    for memory in model.memories:
        for write in memory.writes:
            addr = gen(write.addr)
            data = gen(write.data)
            en = gen(write.en)
            guard = f"{en} and ({addr}) < {memory.depth}" if memory.needs_write_guard else en
            b.emit(f"if {guard}: {mems[memory.name]}[{addr}] = {data}")
    # commit
    for i, reg in enumerate(model.registers):
        b.emit(f"{py[reg.name]} = n_{i}")
    b.emit("done += 1")
    if stop_commit:
        b.emit("if self.halted is not None: break")
    b.depth -= 1
    # write back state
    for reg in model.registers:
        b.emit(f"self.{py[reg.name]} = {py[reg.name]}")
    b.emit("self.cycle += done")
    b.emit("return done")
    b.depth -= 1
    b.depth -= 1
    return b.source()


class VerilatorSimulation:
    """Wrapper implementing the standard Simulation protocol."""

    #: backend label used for spans/meters; essent overrides via subclassing
    backend_name = "verilator"

    def __init__(
        self,
        model: CircuitModel,
        counter_width: Optional[int] = None,
        value_probes: tuple[str, ...] = (),
        *,
        entry: Optional[CacheEntry] = None,
    ) -> None:
        self._model = model
        self._counter_width = counter_width
        self._value_probes = tuple(value_probes)
        started = time.perf_counter()
        cls = entry.runtime.get("cls") if entry is not None else None
        if cls is None:
            source = entry.source if entry is not None else None
            if source is None:
                with obs.span("compile", cat="compile", backend=self.backend_name,
                              design=model.name):
                    source = self._generate(model, counter_width, self._value_probes)
            self.source = source
            namespace: dict = {}
            exec(compile(source, f"<generated {model.name}>", "exec"), namespace)
            cls = namespace["GeneratedSim"]
            if entry is not None:
                # memoized per process: forks and later cache hits skip exec
                entry.runtime["cls"] = cls
        else:
            self.source = entry.source
        self._sim = cls()
        self.build_seconds = time.perf_counter() - started
        self._py = pynames(
            [p.name for p in model.inputs]
            + [r.name for r in model.registers]
            + [name for name, _ in model.comb]
        )
        self._inputs = {p.name for p in model.inputs}
        self._outputs = {p.name for p in model.outputs}
        self._widths = model.widths
        self._dirty = True
        self._meter = StepMeter(self.backend_name)

    @staticmethod
    def _generate(model, counter_width, value_probes) -> str:
        return generate_source(model, counter_width, value_probes)

    def poke(self, port: str, value: int) -> None:
        if port not in self._inputs:
            raise KeyError(f"no such input port: {port}")
        setattr(self._sim, self._py[port], value & mask(self._widths[port]))
        self._dirty = True

    def peek(self, port: str) -> int:
        if port in self._inputs:
            return getattr(self._sim, self._py[port])
        if port not in self._outputs:
            raise KeyError(f"no such port: {port}")
        if self._dirty:
            self._sim.settle()
            self._dirty = False
        return getattr(self._sim, "o_" + self._py[port])

    def step(self, cycles: int = 1) -> StepResult:
        if self._sim.halted is not None:
            stop = self._model.stops[self._sim.halted]
            return StepResult(0, True, stop.name, stop.exit_code)
        done = metered_step(self._meter, lambda: self._sim.run(cycles))
        self._dirty = True
        if self._sim.halted is not None:
            stop = self._model.stops[self._sim.halted]
            return StepResult(done, True, stop.name, stop.exit_code)
        return StepResult(done)

    def cover_counts(self) -> CoverCounts:
        counters = self._sim.counters
        return {
            cover.name: saturate(counters[i], self._counter_width)
            for i, cover in enumerate(self._model.covers)
        }

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

    def value_histogram(self, signal: str) -> dict[int, int]:
        """Histogram from a value probe (efficient cover-values, §6)."""
        index = self._value_probes.index(signal)
        return dict(getattr(self._sim, f"hist_{index}"))

    def fork(self) -> "VerilatorSimulation":
        """A fresh simulation of the same design, skipping recompilation."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._sim = type(self._sim)()
        clone._dirty = True
        clone._meter = StepMeter(self.backend_name)
        return clone


class VerilatorBackend:
    """Factory for compiled simulations."""

    name = "verilator"
    simulation_cls = VerilatorSimulation

    def __init__(self, cache: Optional[ModelCache] = None) -> None:
        self._cache = cache

    def compile(
        self,
        circuit: Circuit,
        counter_width: Optional[int] = None,
        value_probes: tuple[str, ...] = (),
    ) -> VerilatorSimulation:
        return self._compile(circuit, counter_width, value_probes)

    def compile_state(
        self,
        state,
        counter_width: Optional[int] = None,
        value_probes: tuple[str, ...] = (),
    ) -> VerilatorSimulation:
        return self._compile(state, counter_width, value_probes)

    def _compile(self, circuit_or_state, counter_width, value_probes):
        probes = tuple(value_probes)
        cls = self.simulation_cls

        def build() -> CacheEntry:
            with obs.span("compile", cat="compile", backend=self.name):
                model = build_model(circuit_or_state)
                source = cls._generate(model, counter_width, probes)
            return CacheEntry(key="", backend=self.name, model=model, source=source)

        entry = compile_cached(
            circuit_or_state,
            self.name,
            build,
            cache=self._cache,
            counter_width=counter_width,
            options=probes,
        )
        return cls(entry.model, counter_width, probes, entry=entry)

    def compile_with_native_coverage(
        self, circuit: Circuit, counter_width: Optional[int] = None
    ):
        """Built-in line coverage, like ``verilator --coverage-line``.

        Instruments internally (invisible to the user's compiler pipeline)
        and reports through :func:`write_coverage_dat`.  Used as the
        baseline of the Figure-8 overhead comparison.
        """
        from ..coverage import instrument

        state, db = instrument(circuit, metrics=["line"])
        sim = VerilatorSimulation(build_model(state), counter_width)
        return sim, db


# -- the Verilator coverage.dat format and converter (§3.2) ---------------------


def write_coverage_dat(counts: CoverCounts, out: io.TextIOBase) -> None:
    """Serialize counts in a ``coverage.dat``-style annotated format."""
    out.write("# SystemC::Coverage-3\n")
    for name, count in sorted(counts.items()):
        hier, _, point = name.rpartition(".")
        out.write(f"C '\x01n\x02{point}\x01h\x02{hier or 'TOP'}\x01page\x02v_user' {count}\n")


def parse_coverage_dat(text: str) -> CoverCounts:
    """Parse the coverage.dat format back into a raw entry map."""
    counts: CoverCounts = {}
    pattern = re.compile(r"^C '(.*)' (\d+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        fields: dict[str, str] = {}
        for chunk in match.group(1).split("\x01"):
            if "\x02" in chunk:
                key, _, value = chunk.partition("\x02")
                fields[key] = value
        name = fields.get("n", "")
        hier = fields.get("h", "")
        key = f"{hier}.{name}" if hier and hier != "TOP" else name
        counts[key] = counts.get(key, 0) + int(match.group(2))
    return counts


def convert_coverage_dat(text: str, expected: Optional[set[str]] = None) -> CoverCounts:
    """Re-associate coverage.dat entries with canonical cover names.

    The converter the paper describes: Verilator's custom format is parsed
    and joined back against the cover statements in the source IR, producing
    the exact same map as the natively-integrated backends.
    """
    raw = parse_coverage_dat(text)
    if expected is None:
        return raw
    out = {name: raw.get(name, 0) for name in expected}
    return out
