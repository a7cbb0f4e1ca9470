"""Verilator-like backend: compile the circuit to Python code (§3.2).

Mirrors Verilator's role in the paper: the circuit is lowered, flattened
and *compiled* — here to the scalar Python tier's specialized module
(:mod:`repro.backends.pysim`), ``exec``'d once — trading startup time
for throughput.  Cover statements map to in-line counter increments,
exactly like the SystemVerilog cover statements Verilator implements
for the paper's flow.

The backend also reproduces two Verilator-specific artifacts:

* a *built-in line coverage* mode (``native_line_coverage=True``) that
  instruments internally, standing in for ``verilator --coverage-line``
  in the Figure-8 overhead comparison, and
* the ``coverage.dat`` file format plus the converter that re-associates
  its entries with our canonical cover names (the paper's §3.2 converter,
  upstreamed to chiseltest).
"""

from __future__ import annotations

import io
import re
from typing import Optional

from ..ir.nodes import Circuit
from .api import CoverCounts
from .modelcache import ModelCache
from .pysim import PySimulation, compile_python

#: the one scalar Python simulation class (shared with essent and the treadle JIT)
VerilatorSimulation = PySimulation


class VerilatorBackend:
    """Factory for compiled simulations (the scalar Python tier)."""

    name = "verilator"

    def __init__(self, cache: Optional[ModelCache] = None) -> None:
        self._cache = cache

    def compile(self, circuit: Circuit, counter_width: Optional[int] = None) -> PySimulation:
        return compile_python(self.name, circuit, counter_width, self._cache)

    def compile_state(self, state, counter_width: Optional[int] = None) -> PySimulation:
        return compile_python(self.name, state, counter_width, self._cache)

    def compile_with_native_coverage(
        self, circuit: Circuit, counter_width: Optional[int] = None
    ):
        """Built-in line coverage, like ``verilator --coverage-line``.

        Instruments internally (invisible to the user's compiler pipeline)
        and reports through :func:`write_coverage_dat`.  Used as the
        baseline of the Figure-8 overhead comparison.
        """
        from ..coverage import instrument

        state, db = instrument(circuit, metrics=["line"])
        return self.compile_state(state, counter_width), db


# -- the Verilator coverage.dat format and converter (§3.2) ---------------------


def write_coverage_dat(counts: CoverCounts, out: io.TextIOBase) -> None:
    """Serialize counts in a ``coverage.dat``-style annotated format."""
    out.write("# SystemC::Coverage-3\n")
    for name, count in sorted(counts.items()):
        hier, _, point = name.rpartition(".")
        out.write(f"C '\x01n\x02{point}\x01h\x02{hier or 'TOP'}\x01page\x02v_user' {count}\n")


def parse_coverage_dat(text: str) -> CoverCounts:
    """Parse the coverage.dat format back into a raw entry map."""
    counts: CoverCounts = {}
    pattern = re.compile(r"^C '(.*)' (\d+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        fields: dict[str, str] = {}
        for chunk in match.group(1).split("\x01"):
            if "\x02" in chunk:
                key, _, value = chunk.partition("\x02")
                fields[key] = value
        name = fields.get("n", "")
        hier = fields.get("h", "")
        key = f"{hier}.{name}" if hier and hier != "TOP" else name
        counts[key] = counts.get(key, 0) + int(match.group(2))
    return counts


def convert_coverage_dat(text: str, expected: Optional[set[str]] = None) -> CoverCounts:
    """Re-associate coverage.dat entries with canonical cover names.

    The converter the paper describes: Verilator's custom format is parsed
    and joined back against the cover statements in the source IR, producing
    the exact same map as the natively-integrated backends.
    """
    raw = parse_coverage_dat(text)
    if expected is None:
        return raw
    out = {name: raw.get(name, 0) for name in expected}
    return out
