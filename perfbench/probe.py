"""Benchmark-side tracing: aggregate call timers and span analysis.

Only the traced run (``--trace 1``) uses this module.  It adds no span
per cycle: every public call into a simulation is timed and counted into
a :class:`CallStats` bucket per (design, backend), and every other layer
the benchmark calls into gets a named :class:`Clock` timer.  The
program's own telemetry spans (``elaborate``, ``pass:*``, ``instrument``,
``compile``, ``cc-build``, ``job``, ``checkpoint``, ``merge``, ...) are
kept in memory by ``repro.runtime.telemetry.obs`` and read once, at the
end, by :func:`span_seconds` and :func:`contained_seconds`.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class CallStats:
    """Time and call counts of the public calls into one simulation.

    ``port`` covers ``poke``/``peek`` and the swarm lane controls,
    ``readout`` covers ``cover_counts``.
    """

    __slots__ = ("port_s", "port_calls", "step_s", "step_calls", "cycles",
                 "readout_s", "readouts", "fork_s", "forks")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def calls(self) -> int:
        return self.port_calls + self.step_calls + self.readouts + self.forks

    @property
    def seconds(self) -> float:
        return self.port_s + self.step_s + self.readout_s + self.fork_s

    def add(self, other: "CallStats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class SimProbe:
    """Wraps one simulation, timing each public call into ``stats``."""

    __slots__ = ("_sim", "_stats")

    def __init__(self, sim, stats: CallStats) -> None:
        self._sim = sim
        self._stats = stats

    def poke(self, port, value):
        started = perf_counter()
        self._sim.poke(port, value)
        stats = self._stats
        stats.port_s += perf_counter() - started
        stats.port_calls += 1

    def peek(self, port):
        started = perf_counter()
        value = self._sim.peek(port)
        stats = self._stats
        stats.port_s += perf_counter() - started
        stats.port_calls += 1
        return value

    def step(self, cycles=1):
        started = perf_counter()
        result = self._sim.step(cycles)
        stats = self._stats
        stats.step_s += perf_counter() - started
        stats.step_calls += 1
        stats.cycles += result.cycles
        return result

    def cover_counts(self, *lane):
        started = perf_counter()
        counts = self._sim.cover_counts(*lane)
        stats = self._stats
        stats.readout_s += perf_counter() - started
        stats.readouts += 1
        return counts

    def fork(self):
        started = perf_counter()
        sim = self._sim.fork()
        stats = self._stats
        stats.fork_s += perf_counter() - started
        stats.forks += 1
        return type(self)(sim, stats)

    def __getattr__(self, name):
        return getattr(self._sim, name)


class LaneProbe(SimProbe):
    """A :class:`SimProbe` for swarm simulations (adds the lane calls).

    Kept apart so a scalar probe never grows ``poke_lanes``, which the
    fuzz harness uses to tell a lane-batched backend from a scalar one.
    """

    __slots__ = ()

    def poke_lanes(self, port, values):
        started = perf_counter()
        self._sim.poke_lanes(port, values)
        stats = self._stats
        stats.port_s += perf_counter() - started
        stats.port_calls += 1

    def retire_lane(self, lane):
        started = perf_counter()
        self._sim.retire_lane(lane)
        stats = self._stats
        stats.port_s += perf_counter() - started
        stats.port_calls += 1

    def lane_active(self, lane):
        started = perf_counter()
        active = self._sim.lane_active(lane)
        stats = self._stats
        stats.port_s += perf_counter() - started
        stats.port_calls += 1
        return active


def probe(sim, stats: CallStats) -> SimProbe:
    """The right probe for ``sim`` (lane-batched or scalar)."""
    cls = LaneProbe if hasattr(sim, "poke_lanes") else SimProbe
    return cls(sim, stats)


class ProbeBackend:
    """A backend whose simulations come back wrapped in probes."""

    def __init__(self, backend, stats: CallStats) -> None:
        self._backend = backend
        self._stats = stats

    def compile_state(self, state, counter_width=None):
        return probe(self._backend.compile_state(state, counter_width), self._stats)

    def __getattr__(self, name):
        return getattr(self._backend, name)


class Clock:
    """Named aggregate timers: total seconds and call count per name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    @contextmanager
    def time(self, name: str):
        started = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - started
            self.calls[name] += 1

    def wrap(self, name: str, fn):
        """``fn`` with every call credited to timer ``name``."""
        seconds, calls = self.seconds, self.calls

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - started
                calls[name] += 1

        return timed


def timing(clock, name: str):
    """``clock.time(name)``, or a no-op when untraced (``clock`` None)."""
    return clock.time(name) if clock is not None else nullcontext()


# -- the program's own spans ---------------------------------------------------------


def _complete(events):
    return [e for e in events if e.get("ph") == "X"]


def span_seconds(events, name: str) -> float:
    """Total duration of the program's spans called ``name``."""
    return sum(e["dur"] for e in _complete(events) if e["name"] == name) / 1e6


def span_count(events, name: str) -> int:
    return sum(1 for e in _complete(events) if e["name"] == name)


def contained_seconds(events, outer: str, prefix: str) -> dict[str, float]:
    """Seconds of spans named ``prefix*`` nested inside ``outer`` spans,
    by name.  Nesting is time containment on one thread, as in the
    trace-event format the program writes."""
    spans = _complete(events)
    outers = [e for e in spans if e["name"] == outer]
    totals: dict[str, float] = defaultdict(float)
    for event in spans:
        if not event["name"].startswith(prefix):
            continue
        start, end = event["ts"], event["ts"] + event["dur"]
        for box in outers:
            if (box["tid"] == event["tid"] and box["ts"] <= start
                    and end <= box["ts"] + box["dur"]):
                totals[event["name"]] += event["dur"] / 1e6
                break
    return dict(totals)
