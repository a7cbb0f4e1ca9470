"""Input-replay testbenches (the paper's overhead-isolation harness).

``record_inputs`` runs a real testbench once under any backend while
recording the top-level inputs; ``InputReplay`` then drives a fresh
simulation from the recording — "a minimal testbench that only replays the
top-level inputs from the VCD", isolating raw simulator throughput from
stimulus generation for the Table 2 / Figure 8 measurements.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..backends.api import CoverCounts, InputMatrix, StepResult, run_inputs
from .reader import VcdData, parse_vcd
from .writer import VcdRecorder


def record_inputs(sim, input_widths: dict[str, int], drive: Callable, cycles: int) -> str:
    """Run ``drive(sim, cycle)`` for each cycle, recording inputs to VCD text.

    ``drive`` pokes whatever stimulus it likes before each clock edge.
    """
    recorder = VcdRecorder(sim, input_widths)
    for cycle in range(cycles):
        drive(sim, cycle)
        recorder.cycle()
    return recorder.finish()


class InputReplay:
    """Replays recorded input vectors into a simulation.

    The recording becomes one :class:`~repro.backends.api.InputMatrix`
    (a column per recorded signal, a row per cycle), built once and
    reused by every :meth:`run`, so a backend that packs the matrix for
    a native call packs it once, not once per replay.
    """

    def __init__(self, vcd_text_or_data, inputs: Optional[list[str]] = None) -> None:
        data = (
            vcd_text_or_data
            if isinstance(vcd_text_or_data, VcdData)
            else parse_vcd(vcd_text_or_data)
        )
        self.data = data
        names = inputs if inputs is not None else list(data.signals)
        self.names = names
        self.matrix = InputMatrix(
            names, [tuple(v[n] for n in names) for v in data.as_cycles(names)]
        )

    @property
    def cycles(self) -> int:
        return len(self.matrix.rows)

    def run(self, sim, cycles: Optional[int] = None) -> StepResult:
        """Drive each recorded vector for one edge, for ``cycles`` (default all).

        Goes through :func:`~repro.backends.api.run_inputs`, so a stop
        ends the replay early; the returned :class:`StepResult` says how
        many edges ran and which stop fired.  Recorded inputs end at the
        last replayed vector's values either way.  Inputs the recording
        lacks keep the simulation's values.
        """
        matrix = self.matrix
        if cycles is not None and cycles < self.cycles:
            matrix = InputMatrix(self.names, matrix.rows[: max(cycles, 0)])
        return run_inputs(sim, matrix)


def replay_counts(backend, state_or_circuit, replay: InputReplay) -> CoverCounts:
    """Compile with ``backend``, run the replay, return cover counts."""
    if hasattr(backend, "compile_state") and not hasattr(state_or_circuit, "module_names"):
        sim = backend.compile_state(state_or_circuit)
    else:
        sim = backend.compile(state_or_circuit)
    replay.run(sim)
    return sim.cover_counts()
