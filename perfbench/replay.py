"""``replay``: the paper's §5.1 harness on every §5.1 design.

Each design's seeded testbench is recorded to VCD once (not timed), then
replayed through ``InputReplay`` on every scalar backend: a fresh
``fork()`` per replay, one ``poke`` per changed input and one ``step(1)``
per cycle, then one ``cover_counts()``.  The driver and the
Python/backend boundary carry most of the cost here, so this workload is
the one that moves when poke/step overhead changes.

Check: per design, every replay's counts are bit-identical to the first
replay's, whichever backend ran it.
"""

from __future__ import annotations

from time import perf_counter

from .harness import QUANTUM_S, REPLAY_DESIGNS, SCALAR_BACKENDS
from .probe import probe
from .stimulus import BENCH_DESIGNS, record_replay

METRICS = ("line", "toggle")


class Replay:
    name = "replay"

    def __init__(self, designs=REPLAY_DESIGNS, backends=SCALAR_BACKENDS) -> None:
        self.designs = tuple(designs)
        self.backends = tuple(backends)

    def make_inputs(self, seed: int) -> dict:
        return {design: record_replay(design, seed) for design in self.designs}

    def setup(self, inputs, setup):
        setup.replays = inputs
        setup.templates = {}
        setup.reference = {}
        for design in self.designs:
            setup.instrument(design, BENCH_DESIGNS[design].factory(), METRICS)
            for backend in self.backends:
                setup.templates[(design, backend)] = setup.compile(design, backend)
        return setup

    def prepare_trace(self, setup, tracer) -> None:
        """Nothing to prebuild: traced rounds wrap each template."""

    def run_round(self, setup, ledger, samples, tracer, index) -> None:
        for design in self.designs:
            replay = setup.replays[design]
            for backend in self.backends:
                template = setup.templates[(design, backend)]
                run = replay.run
                if tracer is not None:
                    template = probe(template, tracer.stats(design, backend))
                    run = tracer.clock.wrap(f"replay.{backend}", replay.run)
                cycles = ops = 0
                elapsed = 0.0
                while elapsed < QUANTUM_S:
                    try:
                        started = perf_counter()
                        sim = template.fork()
                        run(sim)
                        counts = sim.cover_counts()
                        elapsed += perf_counter() - started
                    except Exception as error:  # a failed operation
                        ledger.record(False, f"replay {design}/{backend}: {error!r}")
                        break
                    ops += 1
                    cycles += replay.cycles
                    self._check(setup, ledger, tracer, design, backend, counts)
                if ops:
                    samples.add((design, backend), cycles, elapsed, ops)

    def _check(self, setup, ledger, tracer, design, backend, counts) -> None:
        started = perf_counter()
        reference = setup.reference.setdefault(design, counts)
        ledger.record(
            counts == reference,
            f"replay {design}/{backend}: counts differ from the first replay",
        )
        if tracer is not None:
            tracer.clock.seconds["check"] += perf_counter() - started

    def line_covered(self, setup) -> int:
        return sum(setup.line_covered(design, counts)
                   for design, counts in setup.reference.items())

    def run_layers(self, setup, tracer, events) -> dict[str, float]:
        layers = {}
        for backend in self.backends:
            stats = tracer.backend_stats(backend)
            layers[f"vcd.driver_self_s.{backend}"] = (
                tracer.clock.seconds[f"replay.{backend}"] - stats.port_s - stats.step_s
            )
        return layers

    def rate_layers(self, setup, samples) -> dict[str, float]:
        return {
            f"vcd.cycles_per_s.{design}.{backend}": samples.rate((design, backend))
            for design in self.designs
            for backend in self.backends
        }
