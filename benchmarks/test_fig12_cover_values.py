"""Figure 12 / §6: the cover-values limitation.

Covering every value of a w-bit signal with plain cover statements needs
2**w covers (exponential blowup in both instrumentation size and run
time); a dedicated ``cover-values`` primitive lowers to a single
array-indexed counter.  We measure both implementations on progressively
wider signals.
"""

import pytest

from repro.backends import VerilatorBackend
from repro.coverage.covervalues import CoverValuesNaivePass, naive_report, probe_report
from repro.hcl import Module, elaborate
from repro.passes import CheckForms, CompileState, ExpandWhens, PassManager

from .conftest import write_result

CYCLES = 2000
WIDTHS = [2, 4, 6, 8]

_rows = {}


class _Lfsr(Module):
    def __init__(self, width):
        super().__init__()
        self.width = width

    def build(self, m):
        out = m.output("o", self.width)
        state = m.reg("state", self.width, init=1)
        taps = {2: 0b11, 4: 0b1100, 6: 0b110000, 8: 0b10111000}[self.width]
        with m.when(state[0] == 1):
            state <<= (state >> 1) ^ taps
        with m.otherwise():
            state <<= state >> 1
        out <<= state


def lowered(width):
    return PassManager([CheckForms(), ExpandWhens()]).run(
        CompileState(elaborate(_Lfsr(width)))
    )


@pytest.mark.benchmark(group="fig12-naive")
@pytest.mark.parametrize("width", WIDTHS)
def test_fig12_naive_covers(benchmark, width):
    state = lowered(width)
    naive = CoverValuesNaivePass({f"_Lfsr": ["state"]})
    state = naive.run(state)
    sim = VerilatorBackend().compile_state(state)

    def run():
        fresh = sim.fork()
        fresh.poke("reset", 1)
        fresh.step()
        fresh.poke("reset", 0)
        fresh.step(CYCLES)
        return fresh

    fresh = benchmark(run)
    _rows[("naive", width)] = (
        benchmark.stats.stats.median,
        naive.db.count("cover_values"),
    )
    report = naive_report(
        naive.db, fresh.cover_counts(), "_Lfsr", "state", width
    )
    assert report.seen >= (1 << width) - 1  # maximal LFSR (plus the pre-reset zero)
    _maybe_finish()


@pytest.mark.benchmark(group="fig12-probe")
@pytest.mark.parametrize("width", WIDTHS)
def test_fig12_value_probe(benchmark, width):
    state = lowered(width)
    sim = VerilatorBackend().compile_state(state)

    def run():
        fresh = sim.fork()
        fresh.watch_values("state")
        fresh.poke("reset", 1)
        fresh.step()
        fresh.poke("reset", 0)
        fresh.step(CYCLES)
        return fresh

    fresh = benchmark(run)
    _rows[("probe", width)] = (benchmark.stats.stats.median, 1)
    report = probe_report("state", width, fresh.value_histogram("state"))
    assert report.seen >= (1 << width) - 1
    _maybe_finish()


def _maybe_finish():
    if len(_rows) < 2 * len(WIDTHS):
        return
    lines = [
        f"{'width':>6} {'naive covers':>13} {'naive time':>11} {'probe time':>11} {'slowdown':>9}"
    ]
    for width in WIDTHS:
        naive_t, n_covers = _rows[("naive", width)]
        probe_t, _ = _rows[("probe", width)]
        lines.append(
            f"{width:>6} {n_covers:>13} {naive_t * 1e3:>10.2f}ms {probe_t * 1e3:>10.2f}ms"
            f" {naive_t / probe_t:>8.1f}x"
        )
    write_result("fig12_cover_values", "\n".join(lines))

    # exponential blowup in cover count; growing run-time gap
    assert _rows[("naive", 8)][1] == 256
    assert _rows[("probe", 8)][1] == 1
    slow_wide = _rows[("naive", 8)][0] / _rows[("probe", 8)][0]
    slow_narrow = _rows[("naive", 2)][0] / _rows[("probe", 2)][0]
    assert slow_wide > slow_narrow, "the gap must widen with signal width"
