"""Seeded stimulus for every workload, generated before anything is timed.

The program under test only ever receives the inputs made here: recorded
VCD input traces for ``replay`` (the paper's §5.1 harness), preloaded
programs, weights and held inputs for ``campaign``, and seed corpora for
``fuzz``.  Every generator takes the workload seed, so the same seed gives
the same inputs and a different seed gives different ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.backends import BACKENDS
from repro.designs.i2c import I2cPeripheral
from repro.designs.neuroproc import NeuroProc
from repro.designs.riscv_mini import RiscvMini, assemble
from repro.designs.serv import SerialGcd
from repro.designs.tlram import TlRam
from repro.hcl import elaborate
from repro.vcd import InputReplay, VcdRecorder


def design_rng(seed: int, design: str, purpose: str) -> random.Random:
    """An independent generator per (seed, design, purpose)."""
    return random.Random(f"{seed}:{design}:{purpose}")


# -- riscv-mini -----------------------------------------------------------------


def riscv_program(rng: random.Random, halting: bool) -> list[int]:
    """A Fibonacci loop through the data cache with seeded constants.

    ``halting`` ends the loop with ``ebreak`` (the replay testbench); the
    campaign variant jumps back to the start forever, so a long
    checkpointed job keeps fetching, computing and hitting the D$.
    """
    a, b = rng.randint(0, 20), rng.randint(1, 20)
    iterations = rng.randint(30, 50)
    offset = 0x80 + 4 * rng.randint(0, 15)
    tail = "ebreak" if halting else "j start"
    return assemble(
        f"""
    start:
        addi x1, x0, {a}
        addi x2, x0, {b}
        addi x3, x0, {iterations}
    loop:
        add  x4, x1, x2
        mv   x1, x2
        mv   x2, x4
        sw   x4, {offset}(x0)
        lw   x5, {offset}(x0)
        addi x3, x3, -1
        bne  x3, x0, loop
        {tail}
        """
    )


def load_riscv_program(sim, program: list[int]) -> None:
    """Write ``program`` through the memory's init port, one word a cycle."""
    sim.poke("init_en", 1)
    for offset, word in enumerate(program):
        sim.poke("init_addr", offset)
        sim.poke("init_data", word)
        sim.step()
    sim.poke("init_en", 0)


def drive_riscv_mini(sim, cycles: int, rng: random.Random) -> None:
    sim.poke("reset", 1)
    sim.step(2)
    sim.poke("reset", 0)
    load_riscv_program(sim, riscv_program(rng, halting=True))
    sim.step(cycles)


def preload_riscv_mini(sim, rng: random.Random) -> None:
    # held in reset while loading so the core starts from the first word
    sim.poke("reset", 1)
    load_riscv_program(sim, riscv_program(rng, halting=False))


# -- TLRAM ------------------------------------------------------------------------


def drive_tlram(sim, cycles: int, rng: random.Random) -> None:
    sim.poke("reset", 1)
    sim.step()
    sim.poke("reset", 0)
    sim.poke("d_ready", 1)
    for _ in range(cycles):
        sim.poke("a_valid", rng.randint(0, 1))
        sim.poke("a_opcode", rng.choice([0, 0, 4]))
        sim.poke("a_address", rng.randint(0, 255))
        sim.poke("a_data", rng.randint(0, 0xFFFFFFFF))
        sim.poke("a_mask", rng.randint(0, 15))
        sim.step()


def preload_tlram(sim, rng: random.Random) -> None:
    # one request held valid: the RAM serves it back to back
    sim.poke("d_ready", 1)
    sim.poke("a_valid", 1)
    sim.poke("a_opcode", rng.choice([0, 4]))
    sim.poke("a_address", rng.randint(0, 255))
    sim.poke("a_data", rng.randint(0, 0xFFFFFFFF))
    sim.poke("a_mask", rng.randint(1, 15))


# -- serv-chisel (bit-serial GCD) ---------------------------------------------------


def drive_serial_gcd(sim, cycles: int, rng: random.Random) -> None:
    sim.poke("reset", 1)
    sim.step()
    sim.poke("reset", 0)
    sim.poke("resp_ready", 1)
    for _ in range(cycles):
        if sim.peek("req_ready"):
            a, b = rng.randint(1, 4000), rng.randint(1, 4000)
            sim.poke("req_valid", 1)
            sim.poke("req_bits", (b << 32) | a)
        else:
            sim.poke("req_valid", 0)
        sim.step()


def preload_serial_gcd(sim, rng: random.Random) -> None:
    # one request held valid: the engine recomputes the same GCD forever
    a, b = rng.randint(1, 4000), rng.randint(1, 4000)
    sim.poke("resp_ready", 1)
    sim.poke("req_valid", 1)
    sim.poke("req_bits", (b << 32) | a)


# -- NeuroProc ------------------------------------------------------------------------


def load_weights(sim, rng: random.Random) -> None:
    sim.poke("w_en", 1)
    for address in range(16 * 16):
        sim.poke("w_addr", address)
        sim.poke("w_data", rng.randint(0, 300))
        sim.step()
    sim.poke("w_en", 0)


def drive_neuroproc(sim, cycles: int, rng: random.Random) -> None:
    sim.poke("reset", 1)
    sim.step()
    sim.poke("reset", 0)
    load_weights(sim, rng)
    done = 16 * 16 + 1
    while done < cycles:
        sim.poke("in_spikes", rng.randint(0, 0xFFFF))
        sim.poke("start", 1)
        sim.step()
        done += 1
        sim.poke("start", 0)
        while done < cycles and not sim.peek("done"):
            sim.step()
            done += 1
        sim.step(2)
        done += 2


def preload_neuroproc(sim, rng: random.Random) -> None:
    # weights loaded, one spike vector and ``start`` held: back-to-back
    # timesteps with no further input
    load_weights(sim, rng)
    sim.poke("in_spikes", rng.randint(1, 0xFFFF))
    sim.poke("start", 1)


# -- the design table --------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpec:
    """One §5.1 design: its testbench, recorded ports and campaign load.

    ``replay_cycles`` is the testbench length; ``campaign_cycles`` the
    length of one campaign job, the same on every backend so their
    reconstructed counts can be compared exactly.
    """

    factory: Callable
    widths: dict[str, int]
    drive: Callable
    replay_cycles: int
    preload: Callable
    campaign_cycles: int


BENCH_DESIGNS = {
    "riscv-mini": DesignSpec(
        RiscvMini,
        {"reset": 1, "init_en": 1, "init_addr": 10, "init_data": 32},
        drive_riscv_mini, 2500, preload_riscv_mini, 800,
    ),
    "TLRAM": DesignSpec(
        TlRam,
        {"reset": 1, "a_valid": 1, "a_opcode": 3, "a_address": 8,
         "a_data": 32, "a_mask": 4, "d_ready": 1},
        drive_tlram, 3000, preload_tlram, 4000,
    ),
    "serv-chisel": DesignSpec(
        SerialGcd,
        {"reset": 1, "req_valid": 1, "req_bits": 64, "resp_ready": 1},
        drive_serial_gcd, 4000, preload_serial_gcd, 3000,
    ),
    "NeuroProc": DesignSpec(
        NeuroProc,
        {"reset": 1, "start": 1, "in_spikes": 16, "w_en": 1, "w_addr": 8,
         "w_data": 16},
        drive_neuroproc, 4000, preload_neuroproc, 3000,
    ),
}

#: the fuzz targets: the Fig. 11 I2C peripheral and the bit-serial core
FUZZ_DESIGNS = {"I2C": I2cPeripheral, "serv-chisel": SerialGcd}


class _Recorder(VcdRecorder):
    """A :class:`VcdRecorder` the testbench drives like a simulation:
    pokes and peeks pass through, and every clock edge is recorded, so
    the replay pokes exactly what the testbench drove."""

    def poke(self, port: str, value: int) -> None:
        self.sim.poke(port, value)

    def peek(self, port: str) -> int:
        return self.sim.peek(port)

    def step(self, n: int = 1) -> None:
        self.cycle(n)


def record_replay(design: str, seed: int) -> InputReplay:
    """Run the design's seeded testbench once and record its inputs.

    The recording runs on an uninstrumented circuit with a private,
    cache-less backend, so nothing it compiles is reused by the set-up
    that is timed afterwards.
    """
    spec = BENCH_DESIGNS[design]
    sim = BACKENDS["treadle"]().compile(elaborate(spec.factory()))
    recorder = _Recorder(sim, spec.widths)
    spec.drive(recorder, spec.replay_cycles, design_rng(seed, design, "testbench"))
    return InputReplay(recorder.finish())


def fuzz_corpus(seed: int, design: str, index: int, bytes_per_cycle: int,
                cycles: int = 32, count: int = 2) -> list[bytes]:
    """Round ``index``'s ``count`` random seed inputs of ``cycles``
    decoded cycles each."""
    rng = design_rng(seed, design, f"corpus{index}")
    size = bytes_per_cycle * cycles
    return [bytes(rng.getrandbits(8) for _ in range(size)) for _ in range(count)]
