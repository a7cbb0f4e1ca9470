"""Coverage scan-chain insertion for FPGA-accelerated simulation (§3.3).

FireSim cannot map a ``cover`` statement onto the FPGA directly, so the
paper adds a compiler pass that replaces every cover statement with a
*saturating counter* wired into a per-clock-domain *scan chain* (Figure 4).
This module reproduces that pass as real, simulable RTL:

* each cover becomes a ``width``-bit saturating counter register,
* a ``scan_en`` input switches all counters into one long shift register
  (``scan_in`` -> counter 0 -> ... -> counter N-1 -> ``scan_out``),
* a ``cover_en`` input lets the host freeze counting,
* ``scan_en`` also pauses the target: while it is high no register,
  memory write or ``stop`` of the design takes effect, so a scan neither
  advances nor halts it (FireSim's host stops the target clock; hold
  muxes model that here),
* the pass emits the chain order metadata the driver needs to re-associate
  scanned-out bits with cover names.

Because the output is ordinary RTL, the transformed design runs on any of
the software backends too — the tests verify that scanned-out counts equal
the counts a native backend reports for the same stimulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ...ir.namespace import Namespace
from ...ir.nodes import (
    TRUE,
    Circuit,
    Connect,
    Cover,
    DefRegister,
    MemWrite,
    Module,
    Mux,
    Port,
    Ref,
    Stmt,
    Stop,
    UIntLiteral,
    and_,
    not_,
    prim,
)
from ...ir.traversal import declared_names
from ...ir.types import UIntType
from ...passes.base import CompileState, Pass, PassError
from ...passes.expand_whens import has_whens
from ..model import build_model


@dataclass
class ScanChainInfo:
    """Metadata the FPGA driver needs to decode the scanned-out bitstream."""

    counter_width: int
    #: canonical cover names in chain order (counter 0 first)
    chain: list[str] = field(default_factory=list)

    @property
    def length_bits(self) -> int:
        """Total chain length in bits (counter_width x number of covers)."""
        return self.counter_width * len(self.chain)

    def decode(self, bits: list[int]) -> dict[str, int]:
        """Reconstruct counts from the serial bitstream.

        ``bits`` is the sequence read from ``scan_out``, one bit per scan
        cycle.  The first bit out is the MSB of the *last* counter in the
        chain.
        """
        if len(bits) != self.length_bits:
            raise ValueError(
                f"expected {self.length_bits} bits, got {len(bits)}"
            )
        counts: dict[str, int] = {}
        position = 0
        for name in reversed(self.chain):
            value = 0
            for _ in range(self.counter_width):
                value = (value << 1) | (bits[position] & 1)
                position += 1
            counts[name] = value
        return counts


class CoverageScanChainPass(Pass):
    """Replace cover statements with a saturating-counter scan chain.

    Requires a flat, lowered circuit (run ``InlineInstances`` first) — the
    paper's pass likewise runs in FireSim's (flat) compiler.  Adds ports:
    ``cover_en``, ``scan_en``, ``scan_in`` (inputs) and ``scan_out``
    (output).
    """

    def __init__(self, counter_width: int = 16) -> None:
        if counter_width < 1:
            raise ValueError("counter width must be at least 1")
        self.counter_width = counter_width
        self.info: Optional[ScanChainInfo] = None

    def run(self, state: CompileState) -> CompileState:
        """Rewrite covers into chained counters; fills ``self.info``."""
        circuit = state.circuit
        if len(circuit.modules) != 1:
            raise PassError("scan chain insertion requires a flattened circuit")
        module = circuit.top
        if has_whens(module):
            raise PassError("scan chain insertion requires low form")
        cover_paths = state.cover_paths or {}

        covers = [s for s in module.body if isinstance(s, Cover)]
        scan_en = Ref("scan_en", UIntType(1))
        registers = {s.name for s in module.body if isinstance(s, DefRegister)}
        body = [
            _paused(s, registers, scan_en)
            for s in module.body if not isinstance(s, Cover)
        ]
        ns = Namespace(declared_names(module))

        width = self.counter_width
        max_count = (1 << width) - 1
        clock = _find_clock(module)
        if clock is None:
            raise PassError("scan chain insertion requires a clock port")

        ports = list(module.ports)
        port_names = {p.name for p in ports}
        for name in ("cover_en", "scan_en", "scan_in"):
            if name in port_names:
                raise PassError(f"port {name} already exists")
        ports.append(Port("cover_en", "input", UIntType(1)))
        ports.append(Port("scan_en", "input", UIntType(1)))
        ports.append(Port("scan_in", "input", UIntType(1)))
        ports.append(Port("scan_out", "output", UIntType(1)))
        cover_en = Ref("cover_en", UIntType(1))
        chain_bit = Ref("scan_in", UIntType(1))

        info = ScanChainInfo(width)
        additions: list[Stmt] = []
        counter_type = UIntType(width)
        for index, cover in enumerate(covers):
            reg_name = ns.fresh(f"cc_{index}")
            counter = Ref(reg_name, counter_type)
            additions.append(DefRegister(reg_name, counter_type, clock, info=cover.info))

            fire = and_(cover.pred, cover.en, cover_en)
            saturated = prim("eq", counter, UIntLiteral(max_count, width))
            inc = prim("bits", prim("add", counter, UIntLiteral(1, width)), consts=[width - 1, 0])
            counting = Mux.make(and_(fire, not_(saturated)), inc, counter)
            shifted = prim("bits", prim("cat", counter, chain_bit), consts=[width - 1, 0])
            additions.append(Connect(counter, Mux.make(scan_en, shifted, counting)))

            info.chain.append(cover_paths.get(cover.name, cover.name))
            chain_bit = prim("bits", counter, consts=[width - 1, width - 1])

        additions.append(Connect(Ref("scan_out", UIntType(1)), chain_bit))

        new_module = Module(module.name, ports, body + additions, module.info)
        new_circuit = Circuit(circuit.main, [new_module], circuit.annotations)
        self.info = info
        new_state = CompileState(new_circuit, {}, dict(state.metadata))
        new_state.metadata["scan_chain"] = info
        return new_state


def _paused(stmt: Stmt, registers: set[str], scan_en: Ref) -> Stmt:
    """``stmt`` with its effect on the target held while ``scan_en`` is high."""
    if isinstance(stmt, Connect) and stmt.loc.name in registers:
        return replace(stmt, expr=Mux.make(scan_en, stmt.loc, stmt.expr))
    if isinstance(stmt, DefRegister) and stmt.reset is not None:
        return replace(stmt, reset=and_(stmt.reset, not_(scan_en)))
    if isinstance(stmt, (MemWrite, Stop)):
        return replace(stmt, en=and_(stmt.en, not_(scan_en)))
    return stmt


def _find_clock(module: Module):
    from ...ir.types import ClockType

    for port in module.ports:
        if isinstance(port.type, ClockType):
            return port.ref()
    return None


def insert_scan_chain(state: CompileState, counter_width: int = 16):
    """Convenience wrapper returning (new_state, chain_info)."""
    pass_ = CoverageScanChainPass(counter_width)
    new_state = pass_.run(state)
    assert pass_.info is not None
    return new_state, pass_.info
