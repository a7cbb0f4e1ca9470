"""cover-values (§6): naive blowup vs efficient backend probes."""

import pytest

from repro.backends import TreadleBackend, VerilatorBackend
from repro.coverage.covervalues import (
    CoverValuesNaivePass,
    naive_report,
    probe_report,
)
from repro.hcl import Module, elaborate
from repro.passes import CheckForms, CompileState, ExpandWhens, PassError, PassManager


class _Walker(Module):
    def build(self, m):
        step_in = m.input("step_in", 4)
        out = m.output("o", 4)
        value = m.reg("value", 4, init=0)
        value <<= value + step_in
        out <<= value


def lowered(module):
    return PassManager([CheckForms(), ExpandWhens()]).run(
        CompileState(elaborate(module))
    )


class TestNaivePass:
    def test_emits_one_cover_per_value(self):
        state = lowered(_Walker())
        naive = CoverValuesNaivePass({"_Walker": ["value"]})
        state = naive.run(state)
        assert naive.db.count("cover_values") == 16  # 2^4: the blowup

    def test_counts_match_probe(self):
        state = lowered(_Walker())
        naive = CoverValuesNaivePass({"_Walker": ["value"]})
        state = naive.run(state)
        sim = TreadleBackend().compile_state(state)
        sim.watch_values("value")
        sim.poke("reset", 1)
        sim.step()
        sim.poke("reset", 0)
        sim.poke("step_in", 3)
        sim.step(20)
        counts = sim.cover_counts()
        report_naive = naive_report(naive.db, counts, "_Walker", "value", 4)
        report_probe = probe_report("value", 4, sim.value_histogram("value"))
        assert report_naive.histogram == report_probe.histogram
        assert report_naive.seen == report_probe.seen

    def test_width_guard(self):
        class Wide(Module):
            def build(self, m):
                d = m.input("d", 20)
                out = m.output("o", 20)
                r = m.reg("r", 20, init=0)
                r <<= d
                out <<= r

        state = lowered(Wide())
        with pytest.raises(PassError):
            CoverValuesNaivePass({"Wide": ["r"]}).run(state)

    def test_unknown_signal(self):
        state = lowered(_Walker())
        with pytest.raises(PassError):
            CoverValuesNaivePass({"_Walker": ["ghost"]}).run(state)


class TestProbeBackends:
    def test_verilator_probe_matches_treadle(self):
        state = lowered(_Walker())
        t = TreadleBackend().compile_state(state)
        t.watch_values("value")
        v = VerilatorBackend().compile_state(state)
        v.watch_values("value")
        for sim in (t, v):
            sim.poke("reset", 1)
            sim.step()
            sim.poke("reset", 0)
            sim.poke("step_in", 5)
            sim.step(30)
        assert t.value_histogram("value") == v.value_histogram("value")

    def test_report_format(self):
        report = probe_report("sig", 4, {0: 3, 7: 1})
        assert "2/16" in report.format()
