"""The measurement loop shared by every workload.

One run of one workload:

1. make the seeded inputs (not timed);
2. set up ``SETUP_REPS`` times from nothing -- elaborate, instrument,
   cold-compile every backend into an empty model-cache directory -- and
   report the median as ``setup_s``;
3. run *rounds* until ``--seconds`` have passed.  A round runs every
   (design, backend) unit of the workload once; a unit whose operation is
   shorter than ``QUANTUM_S`` repeats it until the quantum is filled, so
   every sample is long enough to beat timer noise.  Workloads whose
   throughput depends on the stimulus draw fresh seeded inputs for every
   round (the same for every backend of the round), so a run averages
   over many inputs.  Every operation's output is checked; a failed
   check or an exception is a failed operation.  A unit's rate is its
   cycles over its calibrated seconds, summed over the run.

Every timed interval is divided by the host's slowness over it, measured
by :class:`HostSpeed`, so the reported seconds and rates are those of a
nominal host (see there for why).

With ``--trace 1`` the set-up runs once with the program's telemetry on,
and the rounds alternate untraced and traced; the traced rounds wrap
every simulation in a :class:`~perfbench.probe.SimProbe`.  Per-layer
seconds are reported per traced round.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from collections import defaultdict
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.backends import BACKENDS, ModelCache
from repro.coverage import all_cover_names, instrument
from repro.fuzz import metric_filter
from repro.hcl import elaborate
from repro.runtime.telemetry import obs

from .probe import CallStats, Clock, contained_seconds, span_seconds

SETUP_REPS = 3
QUANTUM_S = 0.15
SWARM_LANES = 64

#: iterations of the reference loop, and the seconds it takes on the
#: nominal host (uncontended, on a 2-vCPU Intel Xeon VM under CPython 3.11)
REF_ITERATIONS = 12000
REF_NOMINAL_S = 0.0025

#: the scalar backends every workload times, by metric name
SCALAR_BACKENDS = ("c", "treadle-jit", "verilator", "essent")


def make_backend(name: str, cache: ModelCache):
    """A backend from the public registry, by benchmark name."""
    if name == "treadle-jit":
        return BACKENDS["treadle"](jit=True, cache=cache)
    if name == "swarm":
        return BACKENDS["swarm"](lanes=SWARM_LANES, cache=cache)
    return BACKENDS[name](cache=cache)


def reference_loop() -> int:
    """Fixed pure-Python work that no part of the program touches."""
    table: dict[int, int] = {}
    total = 0
    for i in range(REF_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
        total += len(table) if i & 7 else key
    return total


class HostSpeed:
    """Measures how slow the host is running, by timing a reference loop.

    The shared machines this benchmark runs on change speed by tens of
    percent within seconds (other tenants share the cores and caches);
    the raw time of the same simulation then varies by 30-50% between
    runs.  So every timed interval ends with a run of
    :func:`reference_loop` (a *probe*), and is divided by the host's
    *slowness* over it: the mean of its closing probe and the one before,
    over ``REF_NOMINAL_S``.  The speed changes fast enough that only the
    probes right next to an interval track it; a run of many short
    intervals averages out what they miss.  Reported seconds and rates
    are those of a host that runs the loop in ``REF_NOMINAL_S``.  The
    loop shares no code with the program, so a change to the program
    moves the reported figures and the calibration never does.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0
        self.probe()

    def probe(self) -> int:
        """Time one reference loop now; returns the probe's index."""
        started = perf_counter()
        reference_loop()
        elapsed = perf_counter() - started
        self.probes.append(elapsed)
        self.spent += elapsed
        return len(self.probes) - 1

    def slowness(self, index: int) -> float:
        """The host's slowness over the interval probe ``index`` closes."""
        return (self.probes[index - 1] + self.probes[index]) / (2 * REF_NOMINAL_S)

    def median_slowness(self) -> float:
        return statistics.median(self.probes) / REF_NOMINAL_S


class Setup:
    """What one set-up builds: instrumented designs and compiled models.

    Every set-up owns a fresh model-cache directory, so its compiles are
    cold.  Each step runs in a :meth:`segment`; :attr:`seconds` is their
    calibrated sum.  ``clock`` (traced set-up only) also gets the raw
    seconds of each compile.
    """

    def __init__(self, workdir: Path, host: HostSpeed,
                 clock: Optional[Clock]) -> None:
        self.workdir = workdir
        self.host = host
        self.clock = clock
        self.cache = ModelCache(workdir / "models")
        self.states: dict[str, object] = {}
        self.dbs: dict[str, object] = {}
        self.segments: list[tuple[float, int]] = []
        host.probe()  # opens the first segment

    @property
    def seconds(self) -> float:
        return sum(raw / self.host.slowness(index) for raw, index in self.segments)

    @contextmanager
    def segment(self, timer: str = ""):
        started = perf_counter()
        yield
        elapsed = perf_counter() - started
        self.segments.append((elapsed, self.host.probe()))
        if timer and self.clock is not None:
            self.clock.seconds[timer] += elapsed
            self.clock.calls[timer] += 1

    def instrument(self, design: str, module, metrics, minimize=False) -> None:
        with self.segment():
            state, db = instrument(
                elaborate(module), metrics=metrics, minimize=minimize)
        self.states[design] = state
        self.dbs[design] = db

    def compile(self, design: str, backend: str):
        made = make_backend(backend, self.cache)
        with self.segment(f"compile.{backend}"):
            return made.compile_state(self.states[design])

    def line_covered(self, design: str, counts) -> int:
        """Line cover points of ``design`` that ``counts`` hit."""
        line = metric_filter(self.dbs[design], self.states[design], "line")
        return sum(1 for count in line(counts).values() if count > 0)

    def instrument_counts(self) -> dict[str, float]:
        """Materialized cover counters and covers elided by minimization."""
        return {
            "coverage.covers": sum(
                len(all_cover_names(s.circuit)) for s in self.states.values()
            ),
            "analysis.covers_elided": sum(
                len(recipes) for db in self.dbs.values()
                for recipes in db.recipes.values()
            ),
        }


class Ledger:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 10:
                self.problems.append(what)


class Tracer:
    """Everything the traced rounds collect, kept in memory."""

    def __init__(self) -> None:
        self.clock = Clock()
        self.calls: dict[tuple[str, str], CallStats] = defaultdict(CallStats)
        #: workload-specific counts (executions, queue entries, ...)
        self.counts: dict[str, int] = defaultdict(int)

    def stats(self, design: str, backend: str) -> CallStats:
        return self.calls[(design, backend)]

    def backend_stats(self, backend: str) -> CallStats:
        total = CallStats()
        for (_design, name), stats in self.calls.items():
            if name == backend:
                total.add(stats)
        return total

    def call_seconds(self) -> float:
        return sum(stats.seconds for stats in self.calls.values())


class Samples:
    """Per-unit (cycles, seconds, ops) samples, one per round.

    :meth:`add` is called right after a unit's timed loop and probes the
    host there; seconds are calibrated when read.
    """

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.raw: dict[tuple, list[tuple[int, float, int, int]]] = defaultdict(list)

    def add(self, unit: tuple, cycles: int, seconds: float, ops: int = 1) -> None:
        self.raw[unit].append((cycles, seconds, ops, self.host.probe()))

    def calibrated(self, unit: tuple) -> list[tuple[int, float, int]]:
        """The unit's (cycles, calibrated seconds, ops) samples."""
        slowness = self.host.slowness
        return [(c, s / slowness(i), n) for c, s, n, i in self.raw.get(unit, ())]

    def rate(self, unit: tuple) -> float:
        """Cycles per calibrated second over all the unit's samples."""
        samples = self.calibrated(unit)
        seconds = sum(s for _, s, _ in samples)
        return sum(c for c, _, _ in samples) / seconds if seconds else 0.0

    def ops_rate(self, unit: tuple) -> float:
        """Operations per calibrated second over all the unit's samples."""
        samples = self.calibrated(unit)
        seconds = sum(s for _, s, _ in samples)
        return sum(n for _, _, n in samples) / seconds if seconds else 0.0

    def seconds(self, unit: tuple) -> float:
        return sum(s for _, s, _ in self.calibrated(unit))


def geomean(values) -> float:
    """Geometric mean; 0 when any value is 0 (a unit that never ran)."""
    values = list(values)
    if min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, inputs, workdir: Path, host: HostSpeed,
                clock: Optional[Clock] = None):
    """One set-up; returns it and its raw wall time."""
    started = perf_counter()
    setup = workload.setup(inputs, Setup(workdir, host, clock))
    return setup, perf_counter() - started


def _trace_overhead(untraced: Samples, traced: Samples) -> float:
    """How much longer the untraced rounds' work takes when traced.

    Per unit, the traced and untraced rates are compared and weighted by
    the unit's untraced time.
    """
    base = stretched = 0.0
    for unit in untraced.raw:
        if not traced.rate(unit):
            continue  # the unit failed in its traced round
        seconds = untraced.seconds(unit)
        base += seconds
        stretched += seconds * untraced.rate(unit) / traced.rate(unit)
    return stretched / base - 1.0 if base else 0.0


def setup_layers(setup, events, setup_wall: float) -> dict[str, float]:
    """Frontend and build layers of one traced set-up."""
    passes = contained_seconds(events, "instrument", "pass:")
    minimize = passes.pop("pass:MinimizeCoversPass", 0.0)
    instrument_s = span_seconds(events, "instrument")
    cc_build = span_seconds(events, "cc-build")
    metrics = {
        "hcl.elaborate_s": span_seconds(events, "elaborate"),
        "coverage.instrument_s": instrument_s - minimize - sum(passes.values()),
        "analysis.minimize_s": minimize,
        "backends.cc_build_s": cc_build,
    }
    for name in PASSES:
        metrics[f"passes.{name}_s"] = passes.get(f"pass:{name}", 0.0)
    compile_total = 0.0
    for backend in SCALAR_BACKENDS + ("swarm",):
        seconds = setup.clock.seconds.get(f"compile.{backend}", 0.0)
        compile_total += seconds
        if backend == "c":
            seconds -= cc_build
        metrics[f"backends.compile_s.{backend}"] = seconds
    metrics.update(setup.instrument_counts())
    metrics["backends.model_cache_misses"] = setup.cache.misses
    accounted = metrics["hcl.elaborate_s"] + instrument_s + compile_total
    metrics["runtime.setup_unaccounted_frac"] = 1.0 - accounted / setup_wall
    return metrics


def run_layers(workload, setup, tracer: Tracer, rounds: int, wall: float,
               events) -> dict[str, float]:
    """Run-time layers of the traced rounds, in seconds per round."""
    per = 1.0 / rounds
    clock = tracer.clock
    metrics: dict[str, float] = {}
    readout = CallStats()
    scalar = CallStats()
    for backend in SCALAR_BACKENDS + ("swarm",):
        stats = tracer.backend_stats(backend)
        readout.add(stats)
        if backend != "swarm":
            scalar.add(stats)
        metrics[f"backends.poke_s.{backend}"] = stats.port_s * per
        metrics[f"backends.step_s.{backend}"] = stats.step_s * per
    metrics["backends.readout_s"] = readout.readout_s * per
    metrics["backends.readouts"] = readout.readouts * per
    metrics["backends.fork_s"] = readout.fork_s * per
    metrics["runtime.cycles_per_step_call"] = (
        scalar.cycles / scalar.step_calls if scalar.step_calls else 0.0
    )
    for design in ALL_DESIGNS:
        stats = CallStats()
        for backend in SCALAR_BACKENDS:
            stats.add(tracer.stats(design, backend))
        metrics[f"backends.calls_per_cycle.{design}"] = (
            stats.calls / stats.cycles if stats.cycles else 0.0
        )
    layers = workload.run_layers(setup, tracer, events)
    metrics.update({name: value * per if name in EXTENSIVE else value
                    for name, value in layers.items()})
    metrics["bench.check_s"] = clock.seconds["check"] * per
    self_times = (
        tracer.call_seconds() + clock.seconds["check"]
        + sum(v for k, v in layers.items() if k in SELF_TIME_LAYERS)
    )
    metrics["runtime.unaccounted_frac"] = 1.0 - self_times / wall
    metrics["runtime.traced_wall_s"] = wall * per
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, list[str]]:
    """One benchmark run: the result object run.py prints last, and the
    first few failed checks."""
    inputs = workload.make_inputs(seed)
    ledger = Ledger()
    obs.disable()
    obs.reset()
    host = HostSpeed()
    if not trace:
        setup_times = []
        for rep in range(SETUP_REPS):
            setup = None  # let the previous set-up go before the next
            gc.collect()
            setup, _ = timed_setup(workload, inputs, workdir / f"setup{rep}", host)
            setup_times.append(setup.seconds)
        samples = Samples(host)
        deadline = perf_counter() + seconds
        for index in count():
            gc.collect()
            workload.run_round(setup, ledger, samples, None, index)
            if perf_counter() >= deadline:
                break
        metrics = {}
        for backend in SCALAR_BACKENDS:
            metrics[f"cycles_per_s.{backend}"] = (
                geomean(samples.rate((d, backend)) for d in workload.designs),
                "1/s",
            )
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        tracer = Tracer()
        obs.enable()
        gc.collect()
        spent = host.spent
        setup, setup_wall = timed_setup(
            workload, inputs, workdir / "setup", host, Clock())
        setup_wall -= host.spent - spent  # calibration probes are no layer
        setup_events = obs.tracer.drain()
        obs.disable()
        workload.prepare_trace(setup, tracer)
        untraced, traced = Samples(host), Samples(host)
        traced_rounds, traced_wall = 0, 0.0
        deadline = perf_counter() + seconds
        # a traced round repeats the untraced round before it, inputs and all
        for index in count():
            gc.collect()
            workload.run_round(setup, ledger, untraced, None, index)
            gc.collect()
            obs.enable()
            started, spent = perf_counter(), host.spent
            workload.run_round(setup, ledger, traced, tracer, index)
            traced_wall += perf_counter() - started - (host.spent - spent)
            obs.disable()
            traced_rounds += 1
            if perf_counter() >= deadline:
                break
        run_events = obs.tracer.drain()
        values = setup_layers(setup, setup_events, setup_wall)
        values.update(run_layers(workload, setup, tracer, traced_rounds,
                                 traced_wall, run_events))
        values.update(workload.rate_layers(setup, untraced))
        values["runtime.trace_overhead_frac"] = _trace_overhead(untraced, traced)
        values["coverage.line_covered"] = workload.line_covered(setup)
        # per-layer seconds are raw; calibrate them by the run's median
        # slowness (rates come calibrated per sample)
        slowness = host.median_slowness()
        metrics = {
            name: (values.get(name, 0.0) / (slowness if unit == "s" else 1.0), unit)
            for name, unit in PER_LAYER
        }
    obs.reset()
    return {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, ledger.problems


# -- the metric catalogue (mirrored by BENCHMARK.json) ---------------------------

END_TO_END = [
    *[(f"cycles_per_s.{b}", "1/s") for b in SCALAR_BACKENDS],
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

REPLAY_DESIGNS = ("riscv-mini", "TLRAM", "serv-chisel", "NeuroProc")
ALL_DESIGNS = REPLAY_DESIGNS + ("I2C",)

#: the instrumentation pipeline's passes (``MinimizeCoversPass`` is
#: reported as ``analysis.minimize_s``)
PASSES = ("CheckForms", "LineCoveragePass", "ExpandWhens", "ConstProp",
          "DeadCodeElimination", "FsmCoveragePass", "ToggleCoveragePass")

#: workload layers whose seconds are self times (disjoint from the
#: simulation calls and from each other), summed for the accounting
SELF_TIME_LAYERS = {
    *[f"vcd.driver_self_s.{b}" for b in SCALAR_BACKENDS],
    "runtime.checkpoint_s", "runtime.merge_s", "runtime.job_s",
    "runtime.campaign_self_s", "coverage.reconstruct_s", "coverage.report_s",
    "fuzz.decode_s", "fuzz.execute_s", "fuzz.feedback_s", "fuzz.afl_self_s",
    "bench.preload_s",
}

#: workload layers that sum over the traced rounds (reported per round)
EXTENSIVE = SELF_TIME_LAYERS | {"runtime.checkpoints"}

PER_LAYER = [
    ("hcl.elaborate_s", "s"),
    *[(f"passes.{name}_s", "s") for name in PASSES],
    ("coverage.instrument_s", "s"),
    ("analysis.minimize_s", "s"),
    *[(f"backends.compile_s.{b}", "s") for b in SCALAR_BACKENDS + ("swarm",)],
    ("backends.cc_build_s", "s"),
    ("coverage.covers", "count"),
    ("coverage.line_covered", "count"),
    ("analysis.covers_elided", "count"),
    ("backends.model_cache_misses", "count"),
    ("runtime.setup_unaccounted_frac", "frac"),
    *[(f"vcd.driver_self_s.{b}", "s") for b in SCALAR_BACKENDS],
    *[(f"backends.poke_s.{b}", "s") for b in SCALAR_BACKENDS + ("swarm",)],
    *[(f"backends.step_s.{b}", "s") for b in SCALAR_BACKENDS + ("swarm",)],
    ("backends.readout_s", "s"),
    ("backends.readouts", "count"),
    ("backends.fork_s", "s"),
    *[(f"backends.calls_per_cycle.{d}", "calls/cycle") for d in ALL_DESIGNS],
    *[(f"vcd.cycles_per_s.{d}.{b}", "1/s")
      for d in REPLAY_DESIGNS for b in SCALAR_BACKENDS],
    ("runtime.checkpoint_s", "s"),
    ("runtime.checkpoints", "count"),
    ("runtime.merge_s", "s"),
    ("runtime.job_s", "s"),
    ("runtime.campaign_self_s", "s"),
    ("runtime.cycles_per_step_call", "cycles/call"),
    ("coverage.reconstruct_s", "s"),
    ("coverage.report_s", "s"),
    ("fuzz.decode_s", "s"),
    ("fuzz.execute_s", "s"),
    ("fuzz.feedback_s", "s"),
    ("fuzz.afl_self_s", "s"),
    ("fuzz.cycles_per_exec", "cycles/exec"),
    ("fuzz.new_coverage_frac", "frac"),
    ("fuzz.lane_occupancy_frac", "frac"),
    *[(f"fuzz.execs_per_s.{leg}", "1/s") for leg in SCALAR_BACKENDS + ("lanes",)],
    ("fuzz.covered.lanes", "count"),
    ("bench.check_s", "s"),
    ("bench.preload_s", "s"),
    ("runtime.trace_overhead_frac", "frac"),
    ("runtime.unaccounted_frac", "frac"),
    ("runtime.traced_wall_s", "s"),
]
