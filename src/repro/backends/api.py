"""The simulator-independent coverage interface (§3 of the paper).

Every backend — software interpreter, compiled simulator, FPGA-accelerated
model, formal engine — implements a single contract:

* it can simulate any synchronous circuit expressible in the IR, and
* it implements the ``cover`` primitive: a saturating counter, keyed by the
  cover statement's name joined with its instance path, incremented on every
  rising clock edge where the covered predicate is true.

Coverage results are plain ``dict[str, int]`` maps from canonical
hierarchical cover names to counts, which is what makes results from
different backends trivially mergeable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence, runtime_checkable

from ..ir.nodes import Circuit

#: canonical coverage result: hierarchical cover name -> saturating count
CoverCounts = dict[str, int]


def saturate(count: int, counter_width: Optional[int]) -> int:
    """Clamp a count to the maximum value of a ``counter_width``-bit counter.

    ``count`` is a raw non-negative event count; the return value is the
    same count, or ``2**counter_width - 1`` if it would overflow the
    hardware counter being modeled.  ``counter_width=None`` means
    unbounded software counters (no clamping).  Pure function, safe from
    any thread.
    """
    if counter_width is None:
        return count
    limit = (1 << counter_width) - 1
    return count if count < limit else limit


@dataclass
class StepResult:
    """Outcome of advancing the simulation by some clock cycles.

    ``cycles`` is the number of rising clock edges actually executed in
    this call — less than requested when a ``stop`` statement fired, and
    ``0`` when the simulation was already halted (re-stepping a halted
    simulation reports the original ``stop_name``/``exit_code`` again
    without advancing).  ``stop_name`` is the canonical hierarchical name
    of the stop that fired, and ``exit_code`` its FIRRTL exit value
    (non-zero conventionally means assertion failure).
    """

    cycles: int
    stopped: bool = False
    stop_name: Optional[str] = None
    exit_code: int = 0


class SimulationFault(RuntimeError):
    """Base class for contained backend failures.

    Raised by (or on behalf of) a misbehaving simulation; the run
    orchestrator (:mod:`repro.runtime`) converts these into structured
    :class:`RunFailure` records instead of letting them kill a campaign.
    """


class SimulationCrash(SimulationFault):
    """The backend process/model died mid-run."""


class SimulationTimeout(SimulationFault):
    """A ``step()`` call exceeded its wall-clock budget (hang)."""


class ScanChainCorruption(SimulationFault):
    """A FireSim scan-out read back inconsistent bits (CRC mismatch)."""


@dataclass
class RunFailure:
    """One failed attempt of one job, as recorded by the executor."""

    job_id: str
    backend: str
    kind: str  # crash | timeout | scan-corruption | error
    attempt: int
    cycle: Optional[int] = None
    message: str = ""

    def format(self) -> str:
        """One-line human-readable rendering for logs and reports."""
        where = f" at cycle {self.cycle}" if self.cycle is not None else ""
        return (
            f"[{self.job_id}/{self.backend}] attempt {self.attempt}: "
            f"{self.kind}{where}: {self.message}"
        )

    @staticmethod
    def kind_of(error: BaseException) -> str:
        """Classify an exception into a stable failure-kind string."""
        if isinstance(error, SimulationTimeout):
            return "timeout"
        if isinstance(error, ScanChainCorruption):
            return "scan-corruption"
        if isinstance(error, SimulationCrash):
            return "crash"
        return "error"


@runtime_checkable
class Simulation(Protocol):
    """A live simulation instance.

    Ports are addressed by their top-level names; values are raw
    (non-negative) bit patterns — an N-bit signed port carries its
    two's-complement encoding in ``[0, 2**N)``, never a negative int.

    Instances are **not** thread-safe: one simulation belongs to one
    thread (the executor gives every worker its own instance, sharing
    only immutable compiled artifacts between them).  Methods may raise
    :class:`SimulationFault` subclasses when the underlying engine
    crashes or hangs; those are contained by the run orchestrator.

    Per-cycle stimulus goes through :func:`run_inputs`; a simulation
    may also define ``run_inputs(matrix)`` to run a whole
    :class:`InputMatrix` natively, with the same results.
    """

    def poke(self, port: str, value: int) -> None:
        """Drive a top-level input with a raw bit pattern.

        ``value`` is masked to the port's width (extra high bits are
        dropped, matching Verilog assignment semantics); it takes effect
        at the next combinational settle or clock edge.  Raises
        ``KeyError`` if ``port`` is not a top-level input.
        """
        ...

    def peek(self, port: str) -> int:
        """Sample a top-level port (input or output) as a raw bit pattern.

        Settles combinational logic first, so the value reflects all
        pokes since the last edge.  The result is always non-negative;
        reinterpret signed ports yourself.  Raises ``KeyError`` for an
        unknown port name.
        """
        ...

    def step(self, cycles: int = 1) -> StepResult:
        """Advance by ``cycles`` rising clock edges.

        Returns early if a ``stop`` statement fires, with
        ``StepResult.cycles`` counting only the edges executed.
        ``cycles <= 0`` is a no-op returning ``StepResult(0)``.  May
        raise :class:`SimulationTimeout` (wall-clock budget exceeded) or
        :class:`SimulationCrash` (engine died) on misbehaving designs.
        """
        ...

    def cover_counts(self) -> CoverCounts:
        """Saturating cover counters keyed by canonical hierarchical name.

        Counts are cumulative edges-where-predicate-held since the last
        reset, clamped per :func:`saturate` when a ``counter_width`` was
        requested at compile time.  Reading does not perturb the
        counters; the returned dict is a snapshot the caller owns.
        """
        ...


class InputMatrix:
    """Per-cycle stimulus for :func:`run_inputs`: one row per clock edge.

    ``ports`` names the driven top-level inputs (the columns); each row
    holds one raw value per port, in that order.  Inputs not listed are
    *held*: they keep whatever value the simulation has when the matrix
    runs.  Treat a matrix as immutable once built, so it can be replayed
    on any number of simulations; ``packed`` is where a native backend
    caches its own encoding of the rows (see
    :meth:`repro.backends.cbackend.CSimulation.run_inputs`), so repeated
    runs pay for packing once.
    """

    __slots__ = ("ports", "rows", "packed")

    def __init__(self, ports: Sequence[str], rows: Sequence[Sequence[int]]) -> None:
        self.ports = tuple(ports)
        self.rows = rows
        self.packed: dict = {}


def run_inputs(sim: Simulation, matrix: InputMatrix) -> StepResult:
    """Drive ``matrix`` into ``sim``, one row per rising clock edge.

    The batched stimulus entry point every replay and fuzz execution
    goes through.  A simulation with a native ``run_inputs(matrix)``
    method (the ``c`` backend) runs the whole matrix in one call; every
    other backend gets :func:`poke_and_step`.  Either way the outcome is
    bit-identical to poking each row and calling ``step(1)``: the same
    cover counts, ``cycle`` and port values.  The returned
    :class:`StepResult` aggregates the run: ``cycles`` counts the edges
    executed, and once a ``stop`` fires the remaining rows are not
    stepped and the stop's name and exit code are reported (``cycles``
    is 0 if the simulation had already stopped).  Driven inputs always
    end at the last row's values, stopped or not.  Raises ``KeyError``
    for a column that is not a top-level input.
    """
    native = getattr(sim, "run_inputs", None)
    if native is not None:
        return native(matrix)
    return poke_and_step(sim, matrix)


def poke_and_step(sim: Simulation, matrix: InputMatrix) -> StepResult:
    """:func:`run_inputs` over the plain protocol: ``poke`` + ``step(1)``.

    Pokes only the inputs whose value changed since the previous row.
    """
    poke, step = sim.poke, sim.step
    ports = matrix.ports
    previous: Sequence = (None,) * len(ports)
    done = 0
    for row in matrix.rows:
        for port, value, old in zip(ports, row, previous):
            if value != old:
                poke(port, value)
        previous = row
        result = step(1)
        done += result.cycles
        if result.stopped:
            for port, value, old in zip(ports, matrix.rows[-1], row):
                if value != old:
                    poke(port, value)
            return StepResult(done, True, result.stop_name, result.exit_code)
    return StepResult(done)


class SimulatorBackend(Protocol):
    """A factory turning circuits into simulations.

    Backends are cheap to construct and safe to share across threads;
    the :class:`Simulation` objects they hand out are not (see that
    protocol's notes).  Compilation may be arbitrarily expensive —
    backends route it through :func:`repro.backends.modelcache.compile_cached`
    so repeated compiles of the same circuit hit the model cache.
    """

    name: str

    def compile(self, circuit: Circuit, counter_width: Optional[int] = None) -> Simulation:
        """Compile ``circuit`` into a fresh, reset simulation instance.

        ``counter_width`` bounds cover counters to that many bits
        (``None`` = unbounded software counters).  Raises
        ``ValueError``/``KeyError`` on malformed circuits; backends with
        native toolchains (verilator, c) degrade to a slower tier with a
        ``RuntimeWarning`` rather than raise when the toolchain is
        missing.
        """
        ...

    def compile_state(self, state, counter_width: Optional[int] = None) -> Simulation:
        """Like :meth:`compile`, but from an already-lowered CompileState.

        Skips re-running the lowering pipeline when the caller (the
        instrumentation flow, the model cache) already holds the lowered
        form; semantics, units, and failure modes are those of
        :meth:`compile`.  The state is treated as immutable — backends
        that must transform it (e.g. FireSim's scan-chain insertion)
        work on a copy.
        """
        ...


@dataclass
class BackendInfo:
    """Registry entry describing a backend (mirrors the paper's Table of §3)."""

    name: str
    description: str
    kind: str  # interpreter | compiled | fpga | formal
    startup_cost: str  # qualitative: none | compile | synthesis


def has_port(sim: Simulation, port: str) -> bool:
    """Whether ``sim`` exposes a top-level port named ``port``.

    Probes via ``peek`` — every backend raises ``KeyError`` for unknown
    ports, which is the only portable signal the protocol offers.
    """
    try:
        sim.peek(port)
    except KeyError:
        return False
    return True


def metered_step(meter, run: Callable[[], object], cycles_of=None):
    """Run one ``step()`` batch, crediting wall time and cycles to ``meter``.

    The one telemetry wrapper every software backend's hot loop shares:
    one attribute check when telemetry is disabled, one timed call and a
    :class:`~repro.runtime.telemetry.StepMeter` credit when enabled.
    Time is wall-clock seconds (``time.perf_counter``), cycles are clock
    edges; together they feed the ``repro_backend_cycles_per_second``
    gauge.  ``cycles_of`` extracts the cycle count from ``run``'s
    result; by default the result itself is the count (backends whose
    generated ``run`` returns a plain integer).  Thread-safety is the
    meter's concern: :class:`StepMeter` adds are not atomic, so each
    simulation owns its own meter.  Exceptions from ``run`` propagate
    unchanged with nothing credited.
    """
    if not obs.enabled:
        return run()
    started = time.perf_counter()
    result = run()
    cycles = cycles_of(result) if cycles_of is not None else result
    meter.add(cycles, time.perf_counter() - started)
    return result


def reset_and_run(sim: Simulation, cycles: int, reset_cycles: int = 1) -> StepResult:
    """Common harness helper: hold reset (if the design has one), then run.

    Designs without a top-level ``reset`` port simply skip the reset phase
    rather than blowing up the harness.  Raises ``ValueError`` on
    non-positive ``cycles`` or negative ``reset_cycles``; anything the
    underlying ``step`` raises propagates.
    """
    if cycles <= 0:
        raise ValueError(f"cycles must be positive, got {cycles}")
    if reset_cycles < 0:
        raise ValueError(f"reset_cycles must be non-negative, got {reset_cycles}")
    if reset_cycles and has_port(sim, "reset"):
        sim.poke("reset", 1)
        sim.step(reset_cycles)
        sim.poke("reset", 0)
    return sim.step(cycles)


# Imported last: repro.runtime.executor imports this module while the
# runtime package initializes, so a top-of-file import would hit a cycle
# before the protocol types above exist.  telemetry itself has no
# intra-package imports and is always initialized first.
from ..runtime.telemetry import obs  # noqa: E402
