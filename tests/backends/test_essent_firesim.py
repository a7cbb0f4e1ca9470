"""ESSENT activity gating and the FireSim scan chain / resource model."""

import pytest

from repro.backends import (
    EssentBackend,
    StepResult,
    TreadleBackend,
    VerilatorBackend,
)
from repro.backends.firesim import (
    CoverageScanChainPass,
    FireSimBackend,
    ScanChainInfo,
    coverage_counter_resources,
    estimate_fmax,
    estimate_module,
)
from repro.hcl import Module, elaborate
from repro.passes import PassError, lower
from repro.runtime import Checkpointer, Executor, RunJob


class _Gated(Module):
    def build(self, m):
        en = m.input("en")
        data = m.input("data", 8)
        out = m.output("out", 8)
        acc = m.reg("acc", 8, init=0)
        with m.when(en):
            acc <<= acc + data
        out <<= acc
        m.cover(acc == 0x10, "sixteen")


class TestEssent:
    def test_activity_gating_skips_idle_cycles(self):
        sim = EssentBackend().compile(elaborate(_Gated()))
        sim.poke("reset", 1)
        sim.step()
        sim.poke("reset", 0)
        sim.poke("en", 0)
        sim.poke("data", 5)
        sim.step(100)  # nothing changes: comb sweep should be skipped
        evals, skips = sim.activity_stats
        assert skips > 80
        assert sim.peek("out") == 0

    def test_gating_does_not_change_results(self):
        a = EssentBackend().compile(elaborate(_Gated()))
        b = TreadleBackend().compile(elaborate(_Gated()))
        import random

        rng = random.Random(5)
        for cycle in range(200):
            frame = {
                "reset": 1 if cycle == 0 else 0,
                "en": rng.randint(0, 1) if cycle % 10 == 0 else 0,
                "data": rng.randint(0, 255) if cycle % 20 == 0 else 17,
            }
            for sim in (a, b):
                for name, value in frame.items():
                    sim.poke(name, value)
            assert a.peek("out") == b.peek("out")
            a.step()
            b.step()
        assert a.cover_counts() == b.cover_counts()


class TestScanChainPass:
    def test_requires_flat_circuit(self):
        class Parent(Module):
            def build(self, m):
                child = m.instance("c", _Gated())
                child.en <<= 0
                child.data <<= 0
                out = m.output("o", 8)
                out <<= child.out

        state = lower(elaborate(Parent()))  # not flattened
        with pytest.raises(PassError):
            CoverageScanChainPass(8).run(state)

    def test_removes_covers_adds_ports(self):
        state = lower(elaborate(_Gated()), flatten=True)
        chain_pass = CoverageScanChainPass(8)
        out = chain_pass.run(state)
        from repro.ir import Cover

        assert not any(isinstance(s, Cover) for s in out.circuit.top.body)
        port_names = {p.name for p in out.circuit.top.ports}
        assert {"cover_en", "scan_en", "scan_in", "scan_out"} <= port_names
        assert chain_pass.info.chain == ["sixteen"]

    def test_decode_rejects_wrong_length(self):
        info = ScanChainInfo(4, ["a", "b"])
        with pytest.raises(ValueError):
            info.decode([0] * 7)

    def test_decode_order(self):
        info = ScanChainInfo(2, ["first", "second"])
        # first bit out is the MSB of the LAST counter
        bits = [1, 0, 0, 1]  # second = 0b10 = 2, first = 0b01 = 1
        assert info.decode(bits) == {"second": 2, "first": 1}

    def test_counter_saturates_in_hardware(self):
        state = lower(elaborate(_Gated()), flatten=True)
        firesim = FireSimBackend(counter_width=2).compile_state(state)
        firesim.poke("reset", 1)
        firesim.step()
        firesim.poke("reset", 0)
        firesim.poke("en", 0)
        firesim.poke("data", 0)
        # acc stays 0 -> cover 'sixteen' is false; drive acc to 0x10 once
        # instead: cover pred is acc==16; hold en so acc cycles through all
        firesim.poke("en", 1)
        firesim.poke("data", 0)
        # acc stays 0 + 0 = 0 ... choose data so acc==16 often: data=16, then
        # acc alternates 16,32,... only first hit counts; simpler: data=0 and
        # poke acc directly is impossible -> drive data=16 then 0
        firesim.poke("data", 16)
        firesim.step()
        firesim.poke("data", 0)
        firesim.step(20)  # acc stays 16: cover true every cycle, saturates at 3
        assert firesim.cover_counts()["sixteen"] == 3


class _Halting(Module):
    def build(self, m):
        en = m.input("en")
        data = m.input("data", 8)
        total = m.output("total", 16)
        acc = m.reg("acc", 16, init=0)
        with m.when(en):
            acc <<= acc + data
        total <<= acc
        m.cover(en, "enabled")
        m.cover(acc > 100, "past_hundred")
        m.stop(acc > 100, 2, "over")


def _c_host():
    from repro.backends.cbackend import CBackend, find_compiler

    if find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    return CBackend()


class TestFireSimStop:
    """A stopped target still scans out its counts, on every host."""

    @pytest.mark.parametrize("host", [
        VerilatorBackend, TreadleBackend, lambda: TreadleBackend(jit=False),
        _c_host,
    ], ids=["verilator", "treadle-jit", "treadle", "c"])
    def test_stop_parity_with_the_interpreter(self, host):
        state = lower(elaborate(_Halting()), flatten=True)
        firesim = FireSimBackend(host_backend=host()).compile_state(state)
        reference = TreadleBackend(jit=False).compile_state(
            state, counter_width=16)
        results = []
        for sim in (firesim, reference):
            sim.poke("reset", 1)
            sim.step()
            sim.poke("reset", 0)
            sim.poke("en", 1)
            sim.poke("data", 30)
            results.append((sim.step(10), sim.step(2)))
        assert results[0] == results[1]
        assert results[0][0] == StepResult(5, True, "over", 2)
        expected = {"enabled": 5, "past_hundred": 1}
        assert reference.cover_counts() == expected
        assert firesim.cover_counts() == expected
        # the scan leaves the stop latched and the counts intact
        assert firesim.step(3) == StepResult(0, True, "over", 2)
        assert firesim.cover_counts() == expected


class _EdgeStop(Module):
    """A free-running counter whose ``stop`` is true on one cycle only."""

    def build(self, m):
        count = m.reg("count", 8, init=0)
        count <<= count + 1
        m.cover(count[0] == 1, "odd")
        m.stop(count == 24, 0, "edge")


class _Logger(Module):
    """A running total, also written to memory every cycle."""

    def build(self, m):
        data = m.input("data", 8)
        total = m.output("total", 8)
        logged = m.output("logged", 8)
        acc = m.reg("acc", 8, init=0)
        ram = m.mem("ram", 8, 4)
        acc <<= acc + data
        ram[0] = acc
        total <<= acc
        logged <<= ram[0]
        m.cover(acc > 5, "past_five")


class TestFireSimScanPause:
    """A scan pauses the target: it neither advances the design nor lets
    a stop that is due during the scan slip by."""

    @pytest.mark.parametrize("host", [
        VerilatorBackend, TreadleBackend, _c_host,
    ], ids=["verilator", "treadle-jit", "c"])
    def test_checkpointed_job_stops_on_an_edge_inside_a_scan_window(
        self, host, tmp_path
    ):
        state = lower(elaborate(_EdgeStop()), flatten=True)
        firesim = FireSimBackend(host_backend=host())
        reference = TreadleBackend(jit=False)
        outcomes = [
            Executor(checkpointer=Checkpointer(tmp_path / name, every=10))
            .run_job(RunJob(name, name, make_sim, 60))
            for name, make_sim in (
                ("firesim", lambda: firesim.compile_state(state)),
                ("reference", lambda: reference.compile_state(
                    state, counter_width=16)),
            )
        ]
        # the boundary at cycle 20 scans 16 cycles, across the stop at 25
        assert [(o.status, o.cycles_run) for o in outcomes] == [("ok", 25)] * 2
        assert outcomes[0].counts == outcomes[1].counts == {"odd": 12}

    def test_scan_leaves_registers_and_memories_untouched(self):
        state = lower(elaborate(_Logger()), flatten=True)
        firesim = FireSimBackend(host_backend=TreadleBackend()).compile_state(state)
        firesim.poke("reset", 1)
        firesim.step()
        firesim.poke("reset", 0)
        firesim.poke("data", 3)
        firesim.step(4)
        before = (firesim.peek("total"), firesim.peek("logged"))
        assert before == (12, 9)
        assert firesim.cover_counts() == {"past_five": 2}
        assert (firesim.peek("total"), firesim.peek("logged")) == before
        firesim.step(1)
        assert (firesim.peek("total"), firesim.peek("logged")) == (15, 12)


class TestResourceModel:
    def test_counter_resources_scale_linearly(self):
        small = coverage_counter_resources(100, 8)
        double_width = coverage_counter_resources(100, 16)
        double_count = coverage_counter_resources(200, 8)
        assert double_width.ffs == 2 * small.ffs
        assert double_count.luts == 2 * small.luts

    def test_fmax_decreases_with_width(self):
        state = lower(elaborate(_Gated()), flatten=True)
        base = estimate_module(state.circuit.top)
        fmaxes = []
        for width in (1, 8, 16, 32, 48):
            est = estimate_fmax(base, n_covers=5000, counter_width=width, seed="t")
            assert est.fmax_mhz is not None
            fmaxes.append(est.fmax_mhz)
        # wide counters cannot be faster than narrow ones beyond noise
        assert fmaxes[-1] < fmaxes[0] * 1.05

    def test_overutilization_fails_to_place(self):
        state = lower(elaborate(_Gated()), flatten=True)
        base = estimate_module(state.circuit.top)
        est = estimate_fmax(base, n_covers=2_000_000, counter_width=48, seed="t")
        assert est.fmax_mhz is None
        assert est.utilization > 1.0

    def test_module_estimate_counts_state(self):
        state = lower(elaborate(_Gated()), flatten=True)
        resources = estimate_module(state.circuit.top)
        assert resources.ffs >= 8  # the accumulator register
        assert resources.luts > 0
        assert resources.logic_depth > 0
