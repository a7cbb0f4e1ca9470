"""VCD write/parse roundtrip and the input-replay methodology."""

import io

from hypothesis import given, settings, strategies as st

from repro.backends import TreadleBackend, VerilatorBackend
from repro.hcl import Module, elaborate
from repro.vcd import InputReplay, VcdRecorder, VcdWriter, parse_vcd, record_inputs


class TestWriterReader:
    def test_roundtrip_simple(self):
        writer = VcdWriter({"a": 1, "b": 8})
        writer.sample(0, {"a": 1, "b": 0x55})
        writer.sample(1, {"a": 0, "b": 0x55})
        writer.sample(2, {"a": 0, "b": 0xAA})
        text = writer.finish(3)
        data = parse_vcd(text)
        assert data.signals == {"a": 1, "b": 8}
        assert data.value_at("a", 0) == 1
        assert data.value_at("a", 1) == 0
        assert data.value_at("b", 1) == 0x55
        assert data.value_at("b", 2) == 0xAA
        assert data.end_time == 3

    def test_only_changes_written(self):
        writer = VcdWriter({"x": 4})
        writer.sample(0, {"x": 3})
        writer.sample(1, {"x": 3})
        writer.sample(2, {"x": 3})
        text = writer.finish(3)
        # one change record only
        assert text.count("b11 ") == 1

    def test_undeclared_signal_rejected(self):
        import pytest

        writer = VcdWriter({"x": 4})
        with pytest.raises(KeyError):
            writer.sample(0, {"y": 1})

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 255)), min_size=1, max_size=40))
    def test_roundtrip_property(self, frames):
        writer = VcdWriter({"bit": 1, "byte": 8})
        for time, (bit, byte) in enumerate(frames):
            writer.sample(time, {"bit": bit, "byte": byte})
        data = parse_vcd(writer.finish(len(frames)))
        cycles = data.as_cycles(["bit", "byte"])
        assert len(cycles) == len(frames)
        for (bit, byte), cycle in zip(frames, cycles):
            assert cycle == {"bit": bit, "byte": byte}

    def test_x_and_z_values_parse_as_zero(self):
        text = (
            "$var wire 4 ! sig $end\n$enddefinitions $end\n"
            "#0\nbx10z !\n#1\n"
        )
        data = parse_vcd(text)
        assert data.value_at("sig", 0) == 0b0100


class _Accumulator(Module):
    def build(self, m):
        en = m.input("en")
        data = m.input("data", 8)
        total = m.output("total", 16)
        acc = m.reg("acc", 16, init=0)
        with m.when(en):
            acc <<= acc + data
        total <<= acc
        m.cover(acc > 100, "past_hundred")


class TestReplay:
    def test_record_and_replay_equivalence(self):
        """The Table 2 methodology: record once, replay gives same coverage."""
        import random

        rng = random.Random(9)
        circuit = elaborate(_Accumulator())
        original = TreadleBackend().compile(circuit)

        def drive(sim, cycle):
            sim.poke("reset", 1 if cycle == 0 else 0)
            sim.poke("en", rng.randint(0, 1))
            sim.poke("data", rng.randint(0, 255))

        vcd_text = record_inputs(
            original, {"reset": 1, "en": 1, "data": 8}, drive, cycles=80
        )
        original_counts = original.cover_counts()

        replay = InputReplay(vcd_text)
        assert replay.cycles == 80
        fresh = VerilatorBackend().compile(circuit)
        replay.run(fresh)
        assert fresh.cover_counts() == original_counts

    def test_partial_replay(self):
        circuit = elaborate(_Accumulator())
        sim = TreadleBackend().compile(circuit)
        writer = VcdRecorder(sim, {"reset": 1, "en": 1, "data": 8})
        sim.poke("en", 1)
        sim.poke("data", 1)
        writer.cycle(10)
        replay = InputReplay(writer.finish())
        fresh = TreadleBackend().compile(circuit)
        replay.run(fresh, cycles=5)
        assert fresh.peek("total") == 5


    def test_replay_stops_with_the_design_and_reports_it(self):
        """A stop mid-replay ends it: the run returns the aggregate
        result, steps nothing more, and leaves the recorded inputs at the
        last vector's values, on every scalar backend."""
        import warnings

        from repro.backends import BACKENDS, StepResult

        circuit = elaborate(_HaltingAccumulator())
        sim = TreadleBackend().compile(circuit)
        writer = VcdRecorder(sim, {"en": 1, "data": 8})
        sim.poke("en", 1)
        for value in (60, 50, 7, 9):
            sim.poke("data", value)
            writer.cycle(1)
        sim.poke("en", 0)
        writer.cycle(3)
        replay = InputReplay(writer.finish())
        assert replay.cycles == 7
        for name, backend in BACKENDS.items():
            if name == "swarm":
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fresh, stepped = backend().compile(circuit), backend().compile(circuit)
            # acc is 110 after the second edge; the stop fires on the third
            assert replay.run(fresh) == StepResult(3, True, "over", 2), name
            assert fresh.cycle == 3, name
            assert (fresh.peek("en"), fresh.peek("data")) == (0, 9), name
            for row in replay.matrix.rows:
                for port, value in zip(replay.names, row):
                    stepped.poke(port, value)
                stepped.step(1)
            assert fresh.cover_counts() == stepped.cover_counts(), name


class _HaltingAccumulator(Module):
    def build(self, m):
        en = m.input("en")
        data = m.input("data", 8)
        total = m.output("total", 16)
        acc = m.reg("acc", 16, init=0)
        with m.when(en):
            acc <<= acc + data
        total <<= acc
        m.cover(acc > 100, "past_hundred")
        m.stop(acc > 100, 2, "over")
