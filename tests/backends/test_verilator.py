"""Compiled backend: codegen consistency and the coverage.dat converter."""

import io

from hypothesis import given, settings, strategies as st

from repro.backends import TreadleBackend, VerilatorBackend
from repro.backends.pycodegen import RUNTIME_HELPERS, gen_expr
from repro.backends.verilator import (
    convert_coverage_dat,
    parse_coverage_dat,
    write_coverage_dat,
)
from repro.hcl import Module, elaborate
from repro.ir import Ref, SIntType, UIntType, bit_width, eval_op, mask

from ..helpers import BIN_ARITH, BIN_BITS, BIN_CMP, UNARY, expressions


class TestCodegenMatchesOps:
    """The generated Python must agree with the reference op table."""

    @settings(max_examples=300, deadline=None)
    @given(
        expressions(
            leaves=[
                Ref("va", UIntType(8)),
                Ref("vb", SIntType(6)),
                Ref("vc", UIntType(1)),
            ],
            depth=3,
        ),
        st.integers(0, 255),
        st.integers(0, 63),
        st.integers(0, 1),
    )
    def test_random_expressions(self, expr, a, b, c):
        env = {"va": a, "vb": b, "vc": c}
        code = gen_expr(expr, lambda n: n, lambda n: n)
        namespace = dict(env)
        exec(RUNTIME_HELPERS, namespace)
        generated = eval(code, namespace)

        # reference: interpret through the op table
        from repro.backends.treadle import TreadleSimulation
        from repro.backends.model import CircuitModel

        def reference(node):
            from repro.ir import MemRead, Mux, PrimOp, SIntLiteral, UIntLiteral
            from repro.ir.types import value_of

            if isinstance(node, Ref):
                return env[node.name]
            if isinstance(node, UIntLiteral):
                return node.value
            if isinstance(node, SIntLiteral):
                return node.value & mask(node.width)
            if isinstance(node, PrimOp):
                args = [reference(x) for x in node.args]
                return eval_op(node.op, args, [x.tpe for x in node.args], node.consts)
            if isinstance(node, Mux):
                chosen = node.tval if reference(node.cond) else node.fval
                raw = reference(chosen)
                return value_of(raw, chosen.tpe) & mask(bit_width(node.type))
            raise TypeError(node)

        expected = reference(expr)
        assert generated == expected, f"{code} -> {generated}, expected {expected}"


class _CoverDesign(Module):
    def build(self, m):
        a = m.input("a", 4)
        out = m.output("o", 4)
        out <<= a
        m.cover(a == 1, "one")
        m.cover(a == 2, "two")


class TestCoverageDat:
    def run_counts(self):
        sim = VerilatorBackend().compile(elaborate(_CoverDesign()))
        for value in (1, 1, 2, 3):
            sim.poke("a", value)
            sim.step()
        return sim.cover_counts()

    def test_roundtrip(self):
        counts = self.run_counts()
        buffer = io.StringIO()
        write_coverage_dat(counts, buffer)
        parsed = parse_coverage_dat(buffer.getvalue())
        assert parsed == counts

    def test_converter_fills_missing(self):
        counts = self.run_counts()
        buffer = io.StringIO()
        write_coverage_dat(counts, buffer)
        converted = convert_coverage_dat(
            buffer.getvalue(), expected={"one", "two", "never_hit"}
        )
        assert converted["one"] == 2
        assert converted["never_hit"] == 0

    def test_hierarchical_names_roundtrip(self):
        counts = {"tile0.core.c1": 5, "tile1.core.c1": 7, "top_cover": 1}
        buffer = io.StringIO()
        write_coverage_dat(counts, buffer)
        assert parse_coverage_dat(buffer.getvalue()) == counts

    def test_ignores_junk_lines(self):
        assert parse_coverage_dat("# comment\nnot a record\n") == {}


class TestBuildRunTradeoff:
    def test_build_time_recorded(self):
        sim = VerilatorBackend().compile(elaborate(_CoverDesign()))
        assert sim.build_seconds > 0

    def test_generated_source_accessible(self):
        sim = VerilatorBackend().compile(elaborate(_CoverDesign()))
        assert "class GeneratedSim" in sim.source

    def test_value_probe(self):
        circuit = elaborate(_CoverDesign())
        sim = VerilatorBackend().compile(circuit)
        sim.watch_values("a")
        for value in (3, 3, 5):
            sim.poke("a", value)
            sim.step()
        assert sim.value_histogram("a") == {3: 2, 5: 1}
