"""Native C backend: compile the settle schedule to a shared object.

The portable JIT (:mod:`repro.backends.pysim`) recovered ~56x over the
tree-walking interpreter while staying pure Python; this backend takes
the remaining headroom the ROADMAP identifies by emitting C99 from the
*same* lowered :class:`~repro.backends.model.CircuitModel`, shelling out
to a system C compiler (``cc -O2 -shared -fPIC``), and loading the
artifact through :mod:`ctypes` behind a small, stable ABI:

==================================== ========================================
symbol                               role
==================================== ========================================
``repro_create`` / ``repro_destroy`` allocate / free one simulation state
``repro_reset``                      zero all architectural state and counters
``repro_settle``                     one combinational sweep (before peeks)
``repro_step(s, n, in)``             run ``n`` rising edges, return cycles
                                     done; ``in`` is NULL or an input matrix
``repro_halted``                     fired stop index, or -1 while running
``repro_set_halted``                 set or clear that stop latch
``repro_poke`` / ``repro_peek``      write an input / read any signal by index
``repro_read_covers``                copy the raw 64-bit cover counters out
``repro_abi_version`` & friends      load-time sanity checks on the artifact
                                     (ABI version, signal, cover, value-word
                                     and matrix row-word counts)
==================================== ========================================

The input matrix (since ABI version 2) is row-major ``uint64_t`` words, one row
per edge.  A row holds every model input in ``model.inputs`` order (see
:func:`input_layout`): one word per port, or two, low word first, for a
port wider than 64 bits.  ``repro_step`` keeps a single cycle loop: with
``in`` NULL it runs on the inputs already poked (``step(n)``); otherwise
it loads and masks row ``i`` into the input locals before edge ``i``'s
settle and writes the inputs back to the state on exit.  Python fills the
columns of ports the caller does not drive (*held* ports, such as
``clock``) with their values at call time.  A stop ends the loop after
its edge, like ``step(n)``; :meth:`CSimulation.run_inputs` then pokes
the last row, so driven inputs end where a poke-and-``step(1)`` loop
would have left them.

Semantics mirror :mod:`repro.backends.pycodegen` exactly: every generated
sub-expression is the operand's *raw masked bit pattern* held in one
unsigned machine word (``uint64_t``, or ``__uint128_t`` when any
intermediate expression exceeds 64 bits), and signed interpretation is a
local inline sign-extension.  Truncating division/remainder, guarded
dynamic shifts (shifting by >= the word width is undefined behaviour in
C), and the register re-encode on commit all reproduce the interpreter's
behaviour bit-for-bit — the hypothesis parity suite pins this backend
against the interpreter the same way it pins the JIT.

Builds are keyed through the content-addressed model cache: the cache key
covers the emitted C (via the circuit fingerprint + ``CODEGEN_VERSION`` +
:data:`C_EMITTER_VERSION`) *and* the identity of the discovered compiler
(first line of ``cc --version``), so a toolchain upgrade invalidates
stale ``.so`` artifacts instead of silently reusing them.  The ``.so``
lives next to the pickled model entry (``<key>.so``) and is rebuilt from
the cached C source whenever it is missing, truncated, or fails its
load-time ABI checks.

When no C compiler is on ``PATH`` (or a circuit needs arithmetic wider
than 128 bits), :meth:`CBackend.compile` degrades gracefully to the
Treadle JIT tier with a single warning and a
``repro_backend_fallback_total`` metric increment — campaigns keep
running, just slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from array import array
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from ..ir.nodes import Expr, MemRead, Mux, PrimOp, Ref, SIntLiteral, UIntLiteral
from ..ir.types import bit_width, is_signed, mask
from ..runtime.telemetry import StepMeter, obs
from .api import (
    CoverCounts,
    InputMatrix,
    StepResult,
    metered_step,
    poke_and_step,
    saturate,
)
from .model import CircuitModel, MemoryModel, build_model, memory_commit, widest_width
from .modelcache import CacheEntry, ModelCache, compile_cached, resolve_cache
from .pycodegen import CodeBuilder, pynames
from .treadle import TreadleBackend

#: Version of the C emitter's output contract.  Mixed into the cache-key
#: options, so any change to the emitted C invalidates cached artifacts
#: without having to bump the repo-wide ``CODEGEN_VERSION``.
C_EMITTER_VERSION = 3

#: Version stamped into (and checked out of) every generated artifact.
C_ABI_VERSION = 3

#: Every value crosses the ABI as this many little-endian 64-bit words,
#: regardless of the model's word width — peek/poke are not hot paths.
VALUE_WORDS = 2

#: compiler discovery order (first hit on PATH wins)
COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: flags for the shared-object build
CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")

SO_SUFFIX = ".so"

_U64_MASK = (1 << 64) - 1


class CBackendError(RuntimeError):
    """The native toolchain failed (compile error, bad artifact)."""


class CUnsupportedCircuit(Exception):
    """The circuit needs arithmetic wider than the emitter supports."""


# -- compiler discovery ---------------------------------------------------------


def find_compiler() -> Optional[str]:
    """The first C compiler on PATH (``cc``, ``gcc``, ``clang``), or None.

    Resolution happens at compile time, never at import time, so adding a
    compiler to the environment takes effect without a restart and tests
    can fake its absence by monkeypatching ``shutil.which``.
    """
    for name in COMPILER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


@lru_cache(maxsize=8)
def compiler_id(path: str) -> str:
    """A stable identity string for the compiler at ``path``.

    The first line of ``<path> --version`` (e.g. ``cc (Debian 12.2.0-14)
    12.2.0``).  Mixed into the model-cache key so entries and ``.so``
    artifacts built by one toolchain are never reused after an upgrade —
    codegen bugs fixed by a new compiler must not survive in the cache.
    """
    try:
        proc = subprocess.run(
            [path, "--version"], capture_output=True, text=True, timeout=10
        )
        text = (proc.stdout or proc.stderr or "").strip()
    except (OSError, subprocess.SubprocessError):
        return f"unknown:{path}"
    first = text.splitlines()[0].strip() if text else ""
    return first or f"unknown:{path}"


# -- C code generation ----------------------------------------------------------


def word_width(model: CircuitModel) -> int:
    """The machine word width (64 or 128) needed to hold every value.

    Raw masked values fit their expression's own bit width, so the widest
    *sub-expression* anywhere in the model bounds the required word.
    Raises :class:`CUnsupportedCircuit` past 128 bits — the caller falls
    back to the (arbitrary-precision) JIT tier rather than miscompute.
    """
    widest = widest_width(model)
    if widest <= 64:
        return 64
    if widest <= 128:
        return 128
    raise CUnsupportedCircuit(
        f"widest intermediate value is {widest} bits (limit: 128)"
    )


def input_layout(model: CircuitModel) -> list[tuple[str, int, int]]:
    """One input-matrix row: ``(port, width, words)`` in ``model.inputs`` order.

    A port takes one ``uint64_t`` word, or two (low word first) when it
    is wider than 64 bits.
    """
    layout = []
    for port in model.inputs:
        width = model.widths[port.name]
        layout.append((port.name, width, 2 if width > 64 else 1))
    return layout


def row_words(model: CircuitModel) -> int:
    """The ``uint64_t`` words in one input-matrix row."""
    return sum(words for _, _, words in input_layout(model))


def pack_matrix(
    matrix: InputMatrix, layout, held: Sequence[int]
) -> array:
    """``matrix`` as row-major ``uint64_t`` words in ``layout`` order.

    Each value is masked to its port's width.  A layout port that the
    matrix does not drive takes the next ``held`` value (in layout
    order) in every row.  Packing is by column: each layout slot is one
    strided slice assignment, and a column is masked only when its
    extremes fall outside the port's range.
    """
    rows = matrix.rows
    n = len(rows)
    stride = sum(words for _, _, words in layout)
    out = array("Q", [0]) * (stride * n)
    if not n:
        return out
    columns = dict(zip(matrix.ports, zip(*rows)))
    held_values = iter(held)
    offset = 0
    for name, width, words in layout:
        port_mask = mask(width)
        values = columns.get(name)
        if values is None:
            value = next(held_values) & port_mask
            if value:
                out[offset::stride] = array("Q", [value & _U64_MASK]) * n
                if words == 2:
                    out[offset + 1 :: stride] = array("Q", [value >> 64]) * n
        else:
            if min(values) < 0 or max(values) > port_mask:
                values = [value & port_mask for value in values]
            if words == 2:
                out[offset::stride] = array("Q", [v & _U64_MASK for v in values])
                out[offset + 1 :: stride] = array("Q", [v >> 64 for v in values])
            else:
                out[offset::stride] = array("Q", values)
        offset += words
    return out


def signal_names(model: CircuitModel) -> list[str]:
    """The canonical peek/poke index order: inputs, registers, comb."""
    return (
        [p.name for p in model.inputs]
        + [r.name for r in model.registers]
        + [name for name, _ in model.comb]
    )


class _CExprGen:
    """Expression generator mirroring :func:`pycodegen.gen_expr` in C.

    Invariant (same as the Python generator): every emitted C expression
    has type ``uN`` and evaluates to the raw non-negative bit pattern,
    already truncated to the expression's width.  Sign interpretation is
    a local inline sign-extension into ``sN``.
    """

    def __init__(self, width: int, ref, mem, memories: dict[str, MemoryModel]):
        self.W = width
        self.ref = ref
        self.mem = mem
        self.memories = memories

    # -- literal / helper emission ------------------------------------------

    def lit(self, value: int) -> str:
        if self.W == 64:
            return f"UINT64_C(0x{value:x})"
        if value <= _U64_MASK:
            return f"((uN)UINT64_C(0x{value:x}))"
        hi, lo = value >> 64, value & _U64_MASK
        return f"((((uN)UINT64_C(0x{hi:x})) << 64) | (uN)UINT64_C(0x{lo:x}))"

    def m(self, text: str, width: int) -> str:
        """Truncate ``text`` to ``width`` bits (no-op at full word width)."""
        if width >= self.W:
            return text
        return f"(({text}) & {self.lit(mask(width))})"

    def sx(self, text: str, width: int) -> str:
        """Sign-extend a raw ``width``-bit value into an ``sN`` (inline)."""
        shift = self.W - width
        if shift == 0:
            return f"((sN)({text}))"
        return f"((sN)((uN)({text}) << {shift}) >> {shift})"

    def _signed_operand(self, expr: Expr, text: str) -> str:
        """``expr``'s numeric value as an ``sN`` (for cmp/div/rem)."""
        w = bit_width(expr.tpe)
        if is_signed(expr.tpe):
            return self.sx(text, w)
        if w >= self.W:
            raise CUnsupportedCircuit(
                f"{self.W}-bit unsigned operand in a signed context"
            )
        return f"((sN)({text}))"

    def ext(self, expr: Expr, text: str) -> str:
        """``expr``'s value as a ``uN``, sign-extended to the full word.

        For the modular ops (add/sub/mul/bitwise) sign extension to W
        bits followed by a result mask is exactly Python's arbitrary-
        precision signed arithmetic followed by the same mask.
        """
        if is_signed(expr.tpe):
            return f"((uN){self.sx(text, bit_width(expr.tpe))})"
        return text

    # -- expression dispatch -------------------------------------------------

    def gen(self, expr: Expr) -> str:
        if isinstance(expr, Ref):
            return self.ref(expr.name)
        if isinstance(expr, UIntLiteral):
            return self.lit(expr.value)
        if isinstance(expr, SIntLiteral):
            return self.lit(expr.value & mask(expr.width))
        if isinstance(expr, Mux):
            cond = self.gen(expr.cond)
            width = bit_width(expr.type)
            arms = []
            for arm in (expr.tval, expr.fval):
                text = self.gen(arm)
                if is_signed(arm.tpe) and bit_width(arm.tpe) < width:
                    text = self.m(
                        f"((uN){self.sx(text, bit_width(arm.tpe))})", width
                    )
                arms.append(text)
            return f"(({cond}) ? ({arms[0]}) : ({arms[1]}))"
        if isinstance(expr, MemRead):
            addr = self.gen(expr.addr)
            memory = self.memories[expr.mem]
            if memory.read_needs_guard(expr.addr):
                # past the padded store a read is 0, like the interpreter
                return (
                    f"((({addr}) < {self.lit(memory.depth)}) ? "
                    f"{self.mem(expr.mem)}[(size_t)({addr})] : (uN)0)"
                )
            index = self.m(addr, memory.padded_depth.bit_length() - 1)
            return f"{self.mem(expr.mem)}[(size_t)({index})]"
        if isinstance(expr, PrimOp):
            return self._primop(expr)
        raise TypeError(f"cannot generate C for {expr!r}")

    def _primop(self, expr: PrimOp) -> str:
        op = expr.op
        args = expr.args
        texts = [self.gen(a) for a in args]
        result_w = bit_width(expr.type)

        if op in ("add", "sub", "mul"):
            symbol = {"add": "+", "sub": "-", "mul": "*"}[op]
            a, b = self.ext(args[0], texts[0]), self.ext(args[1], texts[1])
            return self.m(f"({a} {symbol} {b})", result_w)
        if op in ("div", "rem"):
            if is_signed(args[0].tpe) or is_signed(args[1].tpe):
                a = self._signed_operand(args[0], texts[0])
                b = self._signed_operand(args[1], texts[1])
                fn = "_sdiv" if op == "div" else "_srem"
                return self.m(f"((uN){fn}({a}, {b}))", result_w)
            fn = "_udiv" if op == "div" else "_urem"
            return self.m(f"{fn}({texts[0]}, {texts[1]})", result_w)
        if op in ("lt", "leq", "gt", "geq", "eq", "neq"):
            symbol = {"lt": "<", "leq": "<=", "gt": ">", "geq": ">=",
                      "eq": "==", "neq": "!="}[op]
            if is_signed(args[0].tpe) or is_signed(args[1].tpe):
                a = self._signed_operand(args[0], texts[0])
                b = self._signed_operand(args[1], texts[1])
            else:
                a, b = texts[0], texts[1]
            return f"((uN)(({a}) {symbol} ({b})))"
        if op in ("and", "or", "xor"):
            symbol = {"and": "&", "or": "|", "xor": "^"}[op]
            a, b = self.ext(args[0], texts[0]), self.ext(args[1], texts[1])
            return self.m(f"({a} {symbol} {b})", result_w)
        if op == "not":
            return self.m(f"(~{self.ext(args[0], texts[0])})", result_w)
        if op == "neg":
            return self.m(f"((uN)0 - {self.ext(args[0], texts[0])})", result_w)
        if op in ("asUInt", "asSInt"):
            return texts[0]
        if op == "cat":
            lo_w = bit_width(args[1].tpe)
            return f"(({texts[0]} << {lo_w}) | {texts[1]})"
        if op == "bits":
            hi, lo = expr.consts
            if lo == 0:
                return self.m(texts[0], hi + 1)
            return self.m(f"({texts[0]} >> {lo})", hi - lo + 1)
        if op == "head":
            (count,) = expr.consts
            shift = bit_width(args[0].tpe) - count
            return self.m(f"({texts[0]} >> {shift})", count)
        if op == "tail":
            (count,) = expr.consts
            return self.m(texts[0], bit_width(args[0].tpe) - count)
        if op == "shl":
            (count,) = expr.consts
            return f"({texts[0]} << {count})"
        if op == "shr":
            (count,) = expr.consts
            w = bit_width(args[0].tpe)
            if is_signed(args[0].tpe):
                shifted = f"({self.sx(texts[0], w)} >> {min(count, self.W - 1)})"
                return self.m(f"((uN){shifted})", result_w)
            if count >= w:
                return self.lit(0)
            return f"({texts[0]} >> {count})"
        if op == "dshl":
            if is_signed(args[0].tpe):
                raw = f"(((uN){self.sx(texts[0], bit_width(args[0].tpe))}) << {texts[1]})"
                return self.m(raw, result_w)
            return f"({texts[0]} << {texts[1]})"
        if op == "dshr":
            if is_signed(args[0].tpe):
                sx = self.sx(texts[0], bit_width(args[0].tpe))
                return self.m(f"((uN)_sshr({sx}, {texts[1]}))", result_w)
            return f"_ushr({texts[0]}, {texts[1]})"
        if op == "andr":
            full = self.lit(mask(bit_width(args[0].tpe)))
            return f"((uN)({texts[0]} == {full}))"
        if op == "orr":
            return f"((uN)({texts[0]} != (uN)0))"
        if op == "xorr":
            return f"_xorr({texts[0]})"
        if op == "pad":
            w = bit_width(args[0].tpe)
            if is_signed(args[0].tpe) and w < result_w:
                return self.m(f"((uN){self.sx(texts[0], w)})", result_w)
            return texts[0]
        raise TypeError(f"cannot generate C for primop {op}")

    def fit(self, text: str, tpe, width: int) -> str:
        """Re-encode an expression's raw value into a ``width``-bit register.

        Mirrors the JIT's ``_fit``: narrower signed sources sign-extend,
        wider sources truncate, matching widths pass through untouched.
        """
        w = bit_width(tpe)
        if is_signed(tpe) and w < width:
            return self.m(f"((uN){self.sx(text, w)})", width)
        if w > width:
            return self.m(text, width)
        return text

    def predicate(self, pred: Expr, en: Expr) -> str:
        """A cover/stop firing condition, dropping a constant-true enable."""
        pred_text = self.gen(pred)
        if isinstance(en, UIntLiteral) and en.value == 1:
            return pred_text
        return f"({self.gen(en)}) && ({pred_text})"


_HELPERS_64 = """\
typedef uint64_t uN;
typedef int64_t sN;
#define WBITS 64
static inline uN _xorr(uN x) {
    return (uN)(__builtin_popcountll((unsigned long long)x) & 1);
}
"""

_HELPERS_128 = """\
typedef __uint128_t uN;
typedef __int128_t sN;
#define WBITS 128
static inline uN _xorr(uN x) {
    int bits = __builtin_popcountll((unsigned long long)(x >> 64))
             + __builtin_popcountll((unsigned long long)x);
    return (uN)(bits & 1);
}
"""

_HELPERS_COMMON = """\
static inline uN _udiv(uN a, uN b) { return b ? a / b : (uN)0; }
static inline uN _urem(uN a, uN b) { return b ? a % b : a; }
static inline sN _sdiv(sN a, sN b) { return b ? a / b : (sN)0; }
static inline sN _srem(sN a, sN b) {
    if (b == 0) return a;
    if (b == (sN)-1) return (sN)0; /* avoid the INT_MIN % -1 trap */
    return a % b;
}
static inline uN _ushr(uN x, uN s) { return s >= (uN)WBITS ? (uN)0 : x >> s; }
static inline sN _sshr(sN x, uN s) {
    return x >> (unsigned)(s > (uN)(WBITS - 1) ? (uN)(WBITS - 1) : s);
}
"""


def generate_c_source(model: CircuitModel) -> str:
    """Emit the complete C99 translation unit for ``model``.

    One ``state_t`` struct holds every signal (inputs, registers, and —
    refreshed by ``repro_settle`` — combinational values), the memories,
    the raw 64-bit cover counters, and the fired-stop index.  The hot
    ``repro_step`` loop keeps register state in locals and only touches
    the struct for covers/stops/memories, mirroring the fused JIT loop.

    Raises :class:`CUnsupportedCircuit` when any intermediate value
    exceeds 128 bits.
    """
    W = word_width(model)
    names = signal_names(model)
    ids = pynames(names)
    mem_ids = {m.name: f"m_{i}" for i, m in enumerate(model.memories)}
    memories = {m.name: m for m in model.memories}
    n_covers = len(model.covers)

    b = CodeBuilder()
    b.emit("/* Generated by repro.backends.cbackend -- do not edit. */")
    b.emit(f"/* model: {model.name}  word: {W} bits  abi: {C_ABI_VERSION} */")
    b.emit("#include <stdint.h>")
    b.emit("#include <stdlib.h>")
    b.emit("#include <string.h>")
    b.emit("#include <stddef.h>")
    b.emit()
    for line in (_HELPERS_64 if W == 64 else _HELPERS_128).splitlines():
        b.emit(line)
    for line in _HELPERS_COMMON.splitlines():
        b.emit(line)
    b.emit()

    # -- state struct -------------------------------------------------------
    b.emit("typedef struct {")
    b.depth += 1
    for name in names:
        b.emit(f"uN {ids[name]};")
    for memory in model.memories:
        b.emit(f"uN {mem_ids[memory.name]}[{memory.padded_depth}];")
    b.emit(f"uint64_t covers[{max(1, n_covers)}];")
    b.emit("int32_t halted;")
    b.depth -= 1
    b.emit("} state_t;")
    b.emit()

    # -- lifecycle ----------------------------------------------------------
    b.emit("void* repro_create(void) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)calloc(1, sizeof(state_t));")
    b.emit("if (s) s->halted = -1;")
    b.emit("return (void*)s;")
    b.depth -= 1
    b.emit("}")
    b.emit()
    b.emit("void repro_destroy(void* p) { free(p); }")
    b.emit()
    b.emit("void repro_reset(void* p) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    b.emit("memset(s, 0, sizeof(state_t));")
    b.emit("s->halted = -1;")
    b.depth -= 1
    b.emit("}")
    b.emit()

    # -- settle: one combinational sweep into the struct --------------------
    struct_gen = _CExprGen(
        W, lambda n: f"s->{ids[n]}", lambda n: f"s->{mem_ids[n]}", memories
    )
    b.emit("void repro_settle(void* p) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    if not model.comb:
        b.emit("(void)s;")
    for name, expr in model.comb:
        b.emit(f"s->{ids[name]} = {struct_gen.gen(expr)};")
    b.depth -= 1
    b.emit("}")
    b.emit()

    # -- step: the fused hot loop, optionally fed by an input matrix --------
    local_gen = _CExprGen(W, lambda n: ids[n], lambda n: mem_ids[n], memories)
    layout = input_layout(model)
    stride = row_words(model)
    b.emit("uint64_t repro_step(void* p, uint64_t cycles, const uint64_t* in) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    b.emit("if (s->halted >= 0) return 0;")
    for port in model.inputs:
        b.emit(f"uN {ids[port.name]} = s->{ids[port.name]};")
    for reg in model.registers:
        b.emit(f"uN {ids[reg.name]} = s->{ids[reg.name]};")
    for memory in model.memories:
        b.emit(
            f"uN * const {mem_ids[memory.name]} = s->{mem_ids[memory.name]};"
        )
    if n_covers:
        b.emit("uint64_t * const cov = s->covers;")
    b.emit("uint64_t done = 0;")
    b.emit("uint64_t i;")
    if not layout:
        b.emit("(void)in;")
    b.emit("for (i = 0; i < cycles; i++) {")
    b.depth += 1
    if layout:
        b.emit("if (in) {")
        b.depth += 1
        b.emit(f"const uint64_t * const r = in + i * {stride}u;")
        offset = 0
        for name, width, words in layout:
            raw = f"(uN)r[{offset}]"
            if words == 2:
                raw = f"({raw} | ((uN)r[{offset + 1}] << 64))"
            b.emit(f"{ids[name]} = {local_gen.m(raw, width)};")
            offset += words
        b.depth -= 1
        b.emit("}")
    for name, expr in model.comb:
        b.emit(f"const uN {ids[name]} = {local_gen.gen(expr)};")
    for index, cover in enumerate(model.covers):
        b.emit(f"if ({local_gen.predicate(cover.pred, cover.en)}) {{")
        b.depth += 1
        b.emit(f"cov[{index}] += 1;")
        b.depth -= 1
        b.emit("}")
    keyword = "if"
    for index, stop in enumerate(model.stops):
        b.emit(f"{keyword} ({local_gen.predicate(stop.pred, stop.en)}) {{")
        b.depth += 1
        b.emit(f"s->halted = {index};")
        b.depth -= 1
        b.emit("}")
        keyword = "else if"
    for i, reg in enumerate(model.registers):
        next_text = local_gen.fit(
            local_gen.gen(reg.next), reg.next.tpe, reg.width
        )
        if reg.reset is not None and reg.init is not None:
            init_text = local_gen.fit(
                local_gen.gen(reg.init), reg.init.tpe, reg.width
            )
            cond = local_gen.gen(reg.reset)
            b.emit(f"const uN n_{i} = ({cond}) ? ({init_text}) : ({next_text});")
        else:
            b.emit(f"const uN n_{i} = {next_text};")
    # every write's operands are evaluated before the first store (see
    # memory_commit); staged ones go through temporaries to keep that
    commit = memory_commit(model)
    operands = []
    for k, (memory, write, staged) in enumerate(commit):
        addr = local_gen.gen(write.addr)
        data = local_gen.m(local_gen.gen(write.data), memory.width)
        en = local_gen.gen(write.en)
        if "en" in staged:
            b.emit(f"const uN we_{k} = {en};")
            en = f"we_{k}"
        if "addr" in staged:
            b.emit(f"const uN wa_{k} = {addr};")
            addr = f"wa_{k}"
        if "data" in staged:
            b.emit(f"const uN wd_{k} = {data};")
            data = f"wd_{k}"
        operands.append((en, addr, data))
    for (memory, write, _), (en, addr, data) in zip(commit, operands):
        guard = (
            f"({en}) && (({addr}) < {local_gen.lit(memory.depth)})"
            if memory.write_needs_guard(write.addr)
            else en
        )
        index = local_gen.m(addr, memory.padded_depth.bit_length() - 1)
        b.emit(f"if ({guard}) {{")
        b.depth += 1
        b.emit(f"{mem_ids[memory.name]}[(size_t)({index})] = {data};")
        b.depth -= 1
        b.emit("}")
    for i, reg in enumerate(model.registers):
        b.emit(f"{ids[reg.name]} = n_{i};")
    b.emit("done += 1;")
    if model.stops:
        b.emit("if (s->halted >= 0) break;")
    b.depth -= 1
    b.emit("}")
    if layout:
        b.emit("if (in) {")
        b.depth += 1
        for name, _, _ in layout:
            b.emit(f"s->{ids[name]} = {ids[name]};")
        b.depth -= 1
        b.emit("}")
    for reg in model.registers:
        b.emit(f"s->{ids[reg.name]} = {ids[reg.name]};")
    b.emit("return done;")
    b.depth -= 1
    b.emit("}")
    b.emit()

    b.emit("int32_t repro_halted(void* p) { return ((state_t*)p)->halted; }")
    b.emit("void repro_set_halted(void* p, int32_t index) "
           "{ ((state_t*)p)->halted = index; }")
    b.emit()

    # -- poke: inputs only, value pre-masked to the port width --------------
    b.emit("void repro_poke(void* p, uint32_t idx, const uint64_t* in) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    if W == 64:
        b.emit("const uN x = (uN)in[0];")
    else:
        b.emit("const uN x = (uN)in[0] | ((uN)in[1] << 64);")
    b.emit("switch (idx) {")
    b.depth += 1
    for index, port in enumerate(model.inputs):
        masked = struct_gen.m("x", model.widths[port.name])
        b.emit(f"case {index}: s->{ids[port.name]} = {masked}; break;")
    b.emit("default: break;")
    b.depth -= 1
    b.emit("}")
    b.depth -= 1
    b.emit("}")
    b.emit()

    # -- peek: any signal (comb values valid after repro_settle) ------------
    b.emit("void repro_peek(void* p, uint32_t idx, uint64_t* out) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    b.emit("uN x = (uN)0;")
    b.emit("switch (idx) {")
    b.depth += 1
    for index, name in enumerate(names):
        b.emit(f"case {index}: x = s->{ids[name]}; break;")
    b.emit("default: break;")
    b.depth -= 1
    b.emit("}")
    b.emit("out[0] = (uint64_t)x;")
    if W == 64:
        b.emit("out[1] = 0;")
    else:
        b.emit("out[1] = (uint64_t)(x >> 64);")
    b.depth -= 1
    b.emit("}")
    b.emit()

    b.emit("void repro_read_covers(void* p, uint64_t* out) {")
    b.depth += 1
    b.emit("state_t* s = (state_t*)p;")
    if n_covers:
        b.emit(f"memcpy(out, s->covers, {n_covers} * sizeof(uint64_t));")
    else:
        b.emit("(void)s; (void)out;")
    b.depth -= 1
    b.emit("}")
    b.emit()

    # -- load-time sanity checks --------------------------------------------
    b.emit(f"uint32_t repro_abi_version(void) {{ return {C_ABI_VERSION}u; }}")
    b.emit(f"uint32_t repro_num_signals(void) {{ return {len(names)}u; }}")
    b.emit(f"uint32_t repro_num_covers(void) {{ return {n_covers}u; }}")
    b.emit(f"uint32_t repro_value_words(void) {{ return {VALUE_WORDS}u; }}")
    b.emit(f"uint32_t repro_row_words(void) {{ return {stride}u; }}")
    b.emit(f"uint32_t repro_word_bits(void) {{ return {W}u; }}")
    return b.source()


# -- shared-object build & load -------------------------------------------------

_SCRATCH: Optional[Path] = None


def _scratch_dir() -> Path:
    """Per-process artifact directory for cache-less builds."""
    global _SCRATCH
    if _SCRATCH is None:
        _SCRATCH = Path(tempfile.mkdtemp(prefix="repro-cbackend-"))
    return _SCRATCH


def _private_copy(so_path: Path) -> Path:
    """A copy of ``so_path`` under a name no ``dlopen`` has seen."""
    fd, name = tempfile.mkstemp(suffix=SO_SUFFIX, dir=_scratch_dir())
    os.close(fd)
    shutil.copyfile(so_path, name)
    return Path(name)


def _digest_path(so_path: Path) -> Path:
    return so_path.with_name(so_path.name + ".sha256")


def artifact_ok(so_path: Path) -> bool:
    """Whether a cached ``.so`` matches its sha256 sidecar.

    ``dlopen`` of a truncated ELF does not fail cleanly — glibc maps
    segments straight past end-of-file and the process dies with SIGBUS
    on first touch.  To keep the cache's "corruption can only ever cost
    a recompile, never a crash" contract for native artifacts, every
    build records a ``<key>.so.sha256`` sidecar and the loader refuses
    to ``dlopen`` any artifact whose bytes no longer match it.
    """
    try:
        expected = _digest_path(so_path).read_text().strip()
        actual = hashlib.sha256(so_path.read_bytes()).hexdigest()
    except OSError:
        return False
    return expected == actual


def build_shared_object(source: str, cc: str, out_path: Path) -> None:
    """Compile ``source`` with ``cc`` and atomically install ``out_path``.

    The object is built under a temporary name in the destination
    directory and ``os.replace``d into place, so concurrent processes
    racing on the same cache slot see either the old artifact or the new
    one — never a torn ``.so``.  Raises :class:`CBackendError` with the
    compiler's stderr on failure.
    """
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-cbuild-") as tmp:
        c_file = Path(tmp) / "model.c"
        c_file.write_text(source)
        tmp_so = out_path.with_name(f".{out_path.name}.{os.getpid()}.tmp")
        cmd = [cc, *CFLAGS, "-o", str(tmp_so), str(c_file)]
        with obs.span("cc-build", cat="compile", backend="c"):
            proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            try:
                tmp_so.unlink()
            except OSError:
                pass
            raise CBackendError(
                f"{cc} failed ({proc.returncode}):\n{proc.stderr.strip()}"
            )
        digest = hashlib.sha256(tmp_so.read_bytes()).hexdigest()
        tmp_digest = tmp_so.with_name(tmp_so.name + ".sha256")
        tmp_digest.write_text(digest + "\n")
        os.replace(tmp_so, out_path)
        os.replace(tmp_digest, _digest_path(out_path))


class _CompiledLib:
    """One loaded ``.so`` plus the name->slot maps every fork shares.

    Performs the load-time handshake: the artifact must report the
    expected ABI version, signal count, cover count, and value word
    count, or loading raises :class:`CBackendError` and the caller
    rebuilds from source.  Instances are memoized on the cache entry's
    ``runtime`` dict, so forks and later compiles skip ``dlopen``.
    """

    def __init__(self, path: Path, model: CircuitModel) -> None:
        self.path = path
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise CBackendError(f"cannot load {path}: {exc}") from exc
        try:
            lib.repro_create.restype = ctypes.c_void_p
            lib.repro_create.argtypes = []
            lib.repro_destroy.restype = None
            lib.repro_destroy.argtypes = [ctypes.c_void_p]
            lib.repro_reset.restype = None
            lib.repro_reset.argtypes = [ctypes.c_void_p]
            lib.repro_settle.restype = None
            lib.repro_settle.argtypes = [ctypes.c_void_p]
            lib.repro_step.restype = ctypes.c_uint64
            lib.repro_step.argtypes = [
                ctypes.c_void_p, ctypes.c_uint64, ctypes.c_void_p
            ]
            lib.repro_halted.restype = ctypes.c_int32
            lib.repro_halted.argtypes = [ctypes.c_void_p]
            lib.repro_set_halted.restype = None
            lib.repro_set_halted.argtypes = [ctypes.c_void_p, ctypes.c_int32]
            words = ctypes.POINTER(ctypes.c_uint64)
            lib.repro_poke.restype = None
            lib.repro_poke.argtypes = [ctypes.c_void_p, ctypes.c_uint32, words]
            lib.repro_peek.restype = None
            lib.repro_peek.argtypes = [ctypes.c_void_p, ctypes.c_uint32, words]
            lib.repro_read_covers.restype = None
            lib.repro_read_covers.argtypes = [ctypes.c_void_p, words]
            for probe in ("repro_abi_version", "repro_num_signals",
                          "repro_num_covers", "repro_value_words",
                          "repro_row_words"):
                getattr(lib, probe).restype = ctypes.c_uint32
                getattr(lib, probe).argtypes = []
        except AttributeError as exc:
            raise CBackendError(f"{path} is missing ABI symbols: {exc}") from exc
        names = signal_names(model)
        checks = (
            ("abi version", lib.repro_abi_version(), C_ABI_VERSION),
            ("signal count", lib.repro_num_signals(), len(names)),
            ("cover count", lib.repro_num_covers(), len(model.covers)),
            ("value words", lib.repro_value_words(), VALUE_WORDS),
            ("row words", lib.repro_row_words(), row_words(model)),
        )
        for what, got, want in checks:
            if got != want:
                raise CBackendError(
                    f"{path}: {what} mismatch (artifact: {got}, expected: {want})"
                )
        self._lib = lib
        self.index = {name: i for i, name in enumerate(names)}
        self.layout = tuple(input_layout(model))
        self.n_covers = len(model.covers)
        #: cover names in slot order; ``unique_covers`` allows the
        #: one-step readout (no merging of slots that share a name)
        self.cover_names = tuple(cover.name for cover in model.covers)
        self.unique_covers = len(set(self.cover_names)) == self.n_covers
        self.create = lib.repro_create
        self.destroy = lib.repro_destroy
        self.reset = lib.repro_reset
        self.settle = lib.repro_settle
        self.step = lib.repro_step
        self.halted = lib.repro_halted
        self.set_halted = lib.repro_set_halted
        self.poke = lib.repro_poke
        self.peek = lib.repro_peek
        self.read_covers = lib.repro_read_covers


class CSimulation:
    """ctypes wrapper implementing the standard Simulation protocol.

    State lives entirely inside the native artifact; this wrapper maps
    port names to ABI indices, tracks combinational staleness (settling
    before peeks exactly like the other compiled backends), applies
    counter-width saturation at read time, and feeds the shared
    ``StepMeter`` so cycles/second telemetry reports the ``c`` backend
    alongside the others.
    """

    backend_name = "c"

    def __init__(
        self,
        model: CircuitModel,
        counter_width: Optional[int] = None,
        clib: Optional[_CompiledLib] = None,
    ) -> None:
        assert clib is not None, "CSimulation requires a loaded artifact"
        self._model = model
        self._counter_width = counter_width
        self._clib = clib
        handle = clib.create()
        if not handle:
            raise MemoryError("repro_create returned NULL")
        self._handle = handle
        self._dirty = True
        self._stopped: Optional[StepResult] = None
        self._value_probes: dict[str, dict[int, int]] = {}
        self._input_names = {p.name for p in model.inputs}
        self._port_names = model.port_names
        self._buf = (ctypes.c_uint64 * VALUE_WORDS)()
        self._meter = StepMeter("c")
        self.cycle = 0

    # -- public API ----------------------------------------------------------

    def poke(self, port: str, value: int) -> None:
        """Drive a top-level input (value truncated to the port width)."""
        width = self._model.widths.get(port)
        if width is None or port not in self._input_names:
            raise KeyError(f"no such input port: {port}")
        raw = value & mask(width)
        buf = self._buf
        buf[0] = raw & _U64_MASK
        buf[1] = (raw >> 64) & _U64_MASK
        self._clib.poke(self._handle, self._clib.index[port], buf)
        self._dirty = True

    def peek(self, port: str) -> int:
        """Sample a top-level port (settles combinational logic first)."""
        if port not in self._port_names:
            raise KeyError(f"no such port: {port}")
        if port not in self._input_names:
            self._settle()
        return self._read(port)

    def peek_internal(self, name: str) -> int:
        """Debug access to any internal signal."""
        index = self._clib.index.get(name)
        if index is None:
            raise KeyError(f"no such signal: {name}")
        self._settle()
        return self._read(name)

    def step(self, cycles: int = 1) -> StepResult:
        """Advance by rising clock edges; stops early if a Stop fires."""
        return metered_step(
            self._meter, lambda: self._step(cycles), lambda r: r.cycles
        )

    def run_inputs(self, matrix: InputMatrix) -> StepResult:
        """Run one edge per matrix row in a single native ``repro_step``.

        The native form of :func:`repro.backends.api.run_inputs`, with
        the same results.  The rows are packed once per (input layout,
        held values) and cached on the matrix; held ports are read when
        the call starts.  With value probes active it falls back to
        :func:`~repro.backends.api.poke_and_step`, so histograms still
        see every cycle.
        """
        if self._value_probes:
            return poke_and_step(self, matrix)
        rows = len(matrix.rows)
        result = metered_step(
            self._meter, lambda: self._step(rows, matrix), lambda r: r.cycles
        )
        if result.stopped and result.cycles < rows:
            for port, value in zip(matrix.ports, matrix.rows[-1]):
                self.poke(port, value)
        return result

    def cover_counts(self) -> CoverCounts:
        """Saturating cover counters keyed by canonical hierarchical name."""
        clib = self._clib
        n = clib.n_covers
        raw = (ctypes.c_uint64 * max(1, n))()
        clib.read_covers(self._handle, raw)
        if clib.unique_covers and self._counter_width is None:
            return dict(zip(clib.cover_names, raw[:n]))
        merged: dict[str, int] = {}
        for name, count in zip(clib.cover_names, raw[:n]):
            merged[name] = merged.get(name, 0) + count
        return {
            name: saturate(count, self._counter_width)
            for name, count in merged.items()
        }

    def watch_values(self, signal: str) -> None:
        """Efficient ``cover-values``: histogram a signal's value per cycle."""
        if signal not in self._model.widths:
            raise KeyError(f"no such signal: {signal}")
        self._value_probes.setdefault(signal, {})

    def value_histogram(self, signal: str) -> dict[int, int]:
        """The recorded per-cycle value histogram for a watched signal."""
        return dict(self._value_probes[signal])

    @property
    def stopped(self) -> bool:
        """Whether a Stop statement has halted this simulation."""
        return self._stopped is not None

    @property
    def stop_latch(self):
        """The latched stop (opaque), or None while running.

        The FireSim driver clears it to clock a scan-out after the target
        stopped and then puts back the value it read.
        """
        if self._stopped is None:
            return None
        return self._clib.halted(self._handle), self._stopped

    @stop_latch.setter
    def stop_latch(self, latch) -> None:
        """Restore a latch read from :attr:`stop_latch`, or clear it (None)."""
        index, self._stopped = latch if latch is not None else (-1, None)
        self._clib.set_halted(self._handle, index)

    def fork(self) -> "CSimulation":
        """A fresh simulation of the same design, sharing the loaded .so."""
        return CSimulation(self._model, self._counter_width, self._clib)

    def reset_state(self) -> None:
        """Zero all architectural state, cover counters, and the stop latch."""
        self._clib.reset(self._handle)
        self._stopped = None
        self._dirty = True
        self.cycle = 0
        for histogram in self._value_probes.values():
            histogram.clear()

    # -- internals -----------------------------------------------------------

    def _settle(self) -> None:
        if self._dirty:
            self._clib.settle(self._handle)
            self._dirty = False

    def _read(self, name: str) -> int:
        buf = self._buf
        self._clib.peek(self._handle, self._clib.index[name], buf)
        return buf[0] | (buf[1] << 64)

    def _halted_result(self, done: int) -> Optional[StepResult]:
        index = self._clib.halted(self._handle)
        if index < 0:
            return None
        stop = self._model.stops[index]
        self._stopped = StepResult(0, True, stop.name, stop.exit_code)
        return StepResult(done, True, stop.name, stop.exit_code)

    def _pack(self, matrix: InputMatrix) -> int:
        """Address of ``matrix`` packed in this artifact's row layout."""
        driven = set(matrix.ports)
        unknown = driven - self._input_names
        if unknown:
            raise KeyError(f"no such input port: {min(unknown)}")
        layout = self._clib.layout
        held = tuple(
            self._read(name) for name, _, _ in layout if name not in driven
        )
        key = (layout, held)
        packed = matrix.packed.get(key)
        if packed is None:
            packed = matrix.packed[key] = pack_matrix(matrix, layout, held)
        return packed.buffer_info()[0]

    def _step(self, cycles: int, matrix: Optional[InputMatrix] = None) -> StepResult:
        if cycles > 0 and self._stopped is not None:
            halted = self._stopped
            return StepResult(0, True, halted.stop_name, halted.exit_code)
        if cycles <= 0:
            return StepResult(0)
        if not self._value_probes:
            inputs = None if matrix is None else self._pack(matrix)
            done = int(self._clib.step(self._handle, cycles, inputs))
            self.cycle += done
            if done:
                self._dirty = True
            return self._halted_result(done) or StepResult(done)
        # Value probes need the settled pre-edge values every cycle, so
        # this path steps one edge at a time (still native per edge).
        done = 0
        for _ in range(cycles):
            self._settle()
            for signal, histogram in self._value_probes.items():
                value = self._read(signal)
                histogram[value] = histogram.get(value, 0) + 1
            done += int(self._clib.step(self._handle, 1, None))
            self.cycle = self.cycle + 1
            self._dirty = True
            result = self._halted_result(done)
            if result is not None:
                return result
        return StepResult(done)

    def __del__(self) -> None:
        handle = getattr(self, "_handle", None)
        clib = getattr(self, "_clib", None)
        if handle and clib is not None:
            try:
                clib.destroy(handle)
            except Exception:
                pass
            self._handle = None


class CBackend:
    """Factory for native-code simulations.

    ``compile()`` discovers a C compiler on PATH at call time, keys the
    build through the content-addressed model cache (emitted C + compiler
    identity + codegen versions), and loads the resulting ``.so`` via
    ctypes.  With no compiler available — or a circuit whose intermediate
    values exceed 128 bits — it degrades to the Treadle JIT tier with a
    single warning per reason and a ``repro_backend_fallback_total``
    metric increment, so campaigns never fail for lack of a toolchain.
    """

    name = "c"

    def __init__(
        self,
        cache: Optional[ModelCache] = None,
        compiler: Optional[str] = None,
    ) -> None:
        self._cache = cache
        self._compiler = compiler
        self._warned: set[str] = set()
        self._fallback_backend: Optional[TreadleBackend] = None

    def compile(self, circuit, counter_width: Optional[int] = None):
        """Build a simulation for a circuit (lowering it as needed)."""
        return self._compile(circuit, counter_width)

    def compile_state(self, state, counter_width: Optional[int] = None):
        """Build a simulation from an already-lowered CompileState."""
        return self._compile(state, counter_width)

    def _compile(self, circuit_or_state, counter_width):
        cc = self._compiler or find_compiler()
        if cc is None:
            return self._fallback(circuit_or_state, counter_width, "no-compiler")
        ccid = compiler_id(cc)

        def build() -> CacheEntry:
            with obs.span("compile", cat="compile", backend=self.name):
                model = build_model(circuit_or_state)
                source = generate_c_source(model)
            return CacheEntry(key="", backend=self.name, model=model, source=source)

        try:
            entry = compile_cached(
                circuit_or_state,
                self.name,
                build,
                cache=self._cache,
                options=(f"cemit{C_EMITTER_VERSION}", f"cc:{ccid}"),
            )
        except CUnsupportedCircuit as exc:
            return self._fallback(
                circuit_or_state, counter_width, "unsupported-width", str(exc)
            )
        clib = entry.runtime.get("clib")
        if clib is None:
            clib = self._load_or_build(entry, cc)
            entry.runtime["clib"] = clib
        return CSimulation(entry.model, counter_width, clib)

    # -- internals -----------------------------------------------------------

    def _artifact_path(self, entry: CacheEntry, source: str) -> Path:
        cache = resolve_cache(self._cache)
        if cache is not None and cache.directory is not None and entry.key:
            return cache.directory / f"{entry.key}{SO_SUFFIX}"
        name = entry.key or hashlib.sha256(source.encode()).hexdigest()
        return _scratch_dir() / f"{name}{SO_SUFFIX}"

    def _load_or_build(self, entry: CacheEntry, cc: str) -> _CompiledLib:
        source = entry.source or generate_c_source(entry.model)
        so_path = self._artifact_path(entry, source)
        if artifact_ok(so_path):
            try:
                return _CompiledLib(so_path, entry.model)
            except CBackendError:
                # Truncated, corrupt, or ABI-stale artifact: rebuild it
                # from the cached source — a bad .so can only ever cost
                # a recompile, never a crash or a wrong simulation.
                # dlopen matches already-loaded objects by path, so the
                # rejected one would be handed back for so_path: load
                # the rebuilt artifact through a private copy instead.
                build_shared_object(source, cc, so_path)
                return _CompiledLib(_private_copy(so_path), entry.model)
        build_shared_object(source, cc, so_path)
        return _CompiledLib(so_path, entry.model)

    def _fallback(self, circuit_or_state, counter_width, reason, detail=""):
        if reason not in self._warned:
            self._warned.add(reason)
            extra = f" ({detail})" if detail else ""
            warnings.warn(
                f"c backend unavailable ({reason}{extra}); "
                "falling back to the treadle JIT tier",
                RuntimeWarning,
                stacklevel=3,
            )
        if obs.enabled:
            obs.inc(
                "repro_backend_fallback_total", backend=self.name, reason=reason
            )
        if self._fallback_backend is None:
            self._fallback_backend = TreadleBackend(jit=True, cache=self._cache)
        return self._fallback_backend._compile(circuit_or_state, counter_width)
