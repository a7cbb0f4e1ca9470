"""rfuzz-style fuzzing harness: bytes in, coverage counts out (§5.4).

Following rfuzz and RTL Fuzz Lab, a fuzz input is an opaque byte string
that the harness deterministically decodes into per-cycle values for every
top-level input port: each clock cycle consumes ``ceil(total_input_bits/8)``
bytes, sliced bitwise across the ports.  The design is reset once, then
driven until the input bytes run out (a partial trailing chunk is
zero-padded and still counts as a cycle, so every appended byte changes
the decoded stimulus).

The *feedback* function is pluggable: because every metric is just cover
statements behind the shared API, any instrumented metric — line, toggle,
FSM, ready/valid, rfuzz's own mux toggle — can serve as the fuzzer's
coverage map.  That interchangeability is the point of §5.4.

When the backend is a :class:`~repro.backends.swarm.SwarmBackend`,
:meth:`FuzzHarness.execute_batch` packs up to ``lanes`` queue entries
into one swarm simulation: each input becomes one lane, lanes retire as
their bytes run out (or their design stops), and the per-lane counts are
bit-identical to running each input through :meth:`FuzzHarness.execute`
scalar-style — the batch is purely a throughput multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from ..backends.api import CoverCounts, InputMatrix, run_inputs
from ..coverage.common import CoverageDB, InstanceTree
from ..passes.base import CompileState


@dataclass
class PortSpec:
    name: str
    width: int


class FuzzHarness:
    """Compiles the instrumented design once; executes byte-string inputs.

    ``lanes`` > 1 selects the bit-parallel swarm backend (when ``backend``
    is None) so :meth:`execute_batch` runs that many inputs per settle.
    A backend that cannot ``fork()`` its compiled template is routed
    through the content-addressed model cache, so N executions still cost
    exactly one compile.
    """

    def __init__(
        self,
        state: CompileState,
        backend=None,
        max_cycles: int = 512,
        reset_cycles: int = 1,
        lanes: int = 1,
    ) -> None:
        if backend is None:
            if lanes > 1:
                from ..backends.swarm import SwarmBackend

                backend = SwarmBackend(lanes=lanes)
            else:
                from ..backends.verilator import VerilatorBackend

                backend = VerilatorBackend()
        from ..backends.model import build_model
        from ..backends.modelcache import ModelCache, default_cache

        self._model = build_model(state)
        self._backend = backend
        # Arm an in-memory model cache before the first compile: if the
        # template turns out not to fork(), every execution re-enters
        # backend.compile_state, and without a cache each one would be a
        # full recompile inside the fuzz loop.
        if (
            hasattr(backend, "compile_state")
            and getattr(backend, "_cache", False) is None
            and default_cache() is None
        ):
            backend._cache = ModelCache()
        self._template = backend.compile_state(state) if hasattr(backend, "compile_state") else None
        self._state = state
        self.max_cycles = max_cycles
        self.reset_cycles = reset_cycles
        self.lanes = (
            getattr(backend, "lanes", 1)
            if hasattr(self._template, "poke_lanes")
            else 1
        )
        self._input_names = {p.name for p in self._model.inputs}
        self.ports = [
            PortSpec(p.name, self._model.widths[p.name])
            for p in self._model.inputs
            if p.name not in ("clock", "reset")
        ]
        self._columns = tuple(p.name for p in self.ports)
        #: per-port (shift, mask) into one cycle's little-endian integer
        self._fields = []
        shift = 0
        for port in self.ports:
            self._fields.append((shift, (1 << port.width) - 1))
            shift += port.width
        self.bits_per_cycle = shift
        self.bytes_per_cycle = max((self.bits_per_cycle + 7) // 8, 1)
        self._reset_columns = ("reset",) + self._columns
        self._reset_row = (1,) + (0,) * len(self.ports)
        self.executions = 0
        self.cycles_executed = 0

    def decode(self, data: bytes) -> list[dict[str, int]]:
        """Deterministically decode bytes into per-cycle input vectors.

        Ceil division: a partial trailing chunk is zero-padded into a
        full cycle rather than dropped, so appending a single byte to an
        input always changes the decoded stimulus.
        """
        return [dict(zip(self._columns, row)) for row in self.decode_rows(data)]

    def decode_rows(self, data: bytes) -> list[tuple[int, ...]]:
        """:meth:`decode` as rows of values in :attr:`ports` order."""
        n_cycles, columns = self._decode_columns(data)
        if not columns:
            return [()] * n_cycles
        return list(zip(*columns))

    def _decode_columns(self, data: bytes) -> tuple[int, list[list[int]]]:
        """The decoded cycle count and one value list per port.

        The data is padded once to whole cycles; each cycle is one
        ``int.from_bytes`` that every port's field is sliced out of.
        """
        step = self.bytes_per_cycle
        n_cycles = min(max(-(-len(data) // step), 1), self.max_cycles)
        size = n_cycles * step
        data = data[:size].ljust(size, b"\0")
        from_bytes = int.from_bytes
        cycles = [from_bytes(data[at : at + step], "little") for at in range(0, size, step)]
        return n_cycles, [
            [(value >> shift) & field for value in cycles]
            for shift, field in self._fields
        ]

    def _fresh_sim(self):
        template = self._template
        if template is not None and hasattr(template, "fork"):
            return template.fork()
        if hasattr(self._backend, "compile_state"):
            # warm by construction: __init__ armed a model cache before
            # the template compile, so this is a cache hit, not a rebuild
            return self._backend.compile_state(self._state)
        raise RuntimeError("backend cannot create simulations from a compile state")

    def _reset(self, sim) -> None:
        if self.reset_cycles and "reset" in self._input_names:
            sim.poke("reset", 1)
            sim.step(self.reset_cycles)
            sim.poke("reset", 0)

    def execute(self, data: bytes) -> CoverCounts:
        """Run one fuzz input from reset; returns this run's cover counts.

        Reset and stimulus are one matrix: ``reset_cycles`` rows with
        ``reset`` high and every data port 0 (a fresh simulation's
        inputs are 0 already), then the decoded rows with ``reset`` low,
        so the whole execution is a single :func:`run_inputs` call.
        """
        sim = self._fresh_sim()
        reset = max(self.reset_cycles, 0) if "reset" in self._input_names else 0
        if reset:
            n_cycles, columns = self._decode_columns(data)
            rows = [self._reset_row] * reset
            rows += zip(repeat(0, n_cycles), *columns)
            matrix = InputMatrix(self._reset_columns, rows)
        else:
            matrix = InputMatrix(self._columns, self.decode_rows(data))
        result = run_inputs(sim, matrix)
        # a row counts as executed when its edge was attempted: a design
        # that stops during reset still spends the first decoded row
        self.cycles_executed += max(result.cycles - reset, 1)
        self.executions += 1
        return sim.cover_counts()

    def execute_batch(self, batch: list[bytes]) -> list[CoverCounts]:
        """Counts for each input, packing ``lanes`` inputs per swarm step.

        On a scalar backend this degrades to a loop over
        :meth:`execute`; either way the returned list is index-aligned
        with ``batch`` and bit-identical between the two paths.
        """
        if self.lanes <= 1:
            return [self.execute(data) for data in batch]
        results: list[CoverCounts] = []
        for start in range(0, len(batch), self.lanes):
            results.extend(self._execute_swarm(batch[start : start + self.lanes]))
        return results

    def _execute_swarm(self, chunk: list[bytes]) -> list[CoverCounts]:
        """One packed run: lane *l* replays ``chunk[l]`` scalar-exactly."""
        sim = self._fresh_sim()
        n = len(chunk)
        for lane in range(n, sim.lanes):
            sim.retire_lane(lane)
        self._reset(sim)
        frames = [self.decode_rows(data) for data in chunk]
        done = [False] * n
        cycle = 0
        while True:
            live = []
            for lane in range(n):
                if done[lane]:
                    continue
                if cycle >= len(frames[lane]):
                    # bytes ran out: freeze the lane's counts, exactly
                    # where the scalar run would have returned them
                    sim.retire_lane(lane)
                    done[lane] = True
                    continue
                live.append(lane)
            if not live:
                break
            for column, port in enumerate(self.ports):
                sim.poke_lanes(
                    port.name,
                    [
                        frames[lane][cycle][column]
                        if not done[lane] and cycle < len(frames[lane])
                        else 0
                        for lane in range(n)
                    ],
                )
            sim.step(1)
            # every live lane attempted this cycle — including a lane
            # that turns out to have already stopped, matching the
            # scalar loop's step-then-check accounting
            self.cycles_executed += len(live)
            for lane in live:
                if not sim.lane_active(lane):
                    done[lane] = True
            cycle += 1
        self.executions += n
        return [sim.cover_counts(lane) for lane in range(n)]


def metric_filter(db: CoverageDB, state: CompileState, metric: str) -> Callable[[CoverCounts], CoverCounts]:
    """Build a filter keeping only the covers one metric contributed.

    Canonical count keys resolve through the instance tree back to
    (module, local-name) pairs, which are then matched against the metric's
    metadata — mixing and matching feedback metrics is a dictionary filter.
    Each key is resolved once, the first time the filter sees it; a key
    that names no instance raises ``KeyError`` on every sight.
    """
    tree = InstanceTree(state.circuit)
    wanted = {(module, cover_name) for module, cover_name, _payload in db.covers_of(metric)}

    class Verdicts(dict):
        """Key -> keep; a miss resolves the key and caches the verdict."""

        def __missing__(self, key: str) -> bool:
            keep = self[key] = tree.resolve(key) in wanted
            return keep

    verdicts = Verdicts()

    def filter_counts(counts: CoverCounts) -> CoverCounts:
        return {key: count for key, count in counts.items() if verdicts[key]}

    return filter_counts
