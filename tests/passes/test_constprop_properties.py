"""Property tests for the expression simplifier (``simplify_deep``).

Three invariants, driven by random expression trees:

* **idempotence** — simplifying twice changes nothing (the rewrite is a
  normal form, so the bounded fixpoint loop in ``ConstProp`` terminates
  for the right reason, not by luck);
* **type preservation** — width and signedness never change (a simplifier
  that narrows an expression corrupts every consumer downstream);
* **cross-validation against the abstract interpreter** — on all-constant
  trees the simplifier folds to a literal whose raw pattern the
  known-bits/interval/value-set interpreter independently proves; two
  implementations of the IR semantics (``simplify_expr`` via
  ``ops.eval_op`` fold order, ``absint.eval_primop`` via its transfer
  functions) must agree exactly.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.absint import AbsVal, const, eval_primop
from repro.ir import (
    Expr,
    Mux,
    PrimOp,
    Ref,
    SIntType,
    UIntType,
    bit_width,
    is_signed,
    mask,
    prim,
    print_expr,
)
from repro.ir.traversal import is_literal, literal_value
from repro.passes.constprop import simplify_deep

from ..helpers import expressions

FREE_LEAVES = [
    Ref("x", UIntType(8)),
    Ref("y", UIntType(4)),
    Ref("s", SIntType(6)),
    Ref("b", UIntType(1)),
]


def _abs_eval(expr: Expr) -> AbsVal:
    """Evaluate an all-constant expression with the abstract interpreter."""
    if is_literal(expr):
        return const(literal_value(expr), bit_width(expr.tpe))
    if isinstance(expr, Mux):
        cond = _abs_eval(expr.cond)
        arm = expr.tval if cond.const_value else expr.fval
        value = _abs_eval(arm)
        width = bit_width(expr.tpe)
        raw = value.const_value
        arm_width = bit_width(arm.tpe)
        if width > arm_width and is_signed(arm.tpe) and raw >> (arm_width - 1):
            raw |= mask(width) & ~mask(arm_width)  # sign-extend the pattern
        return const(raw, width)
    assert isinstance(expr, PrimOp), expr
    return eval_primop(expr, [_abs_eval(a) for a in expr.args])


class TestSimplifyDeep:
    @given(expressions(FREE_LEAVES, depth=3))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, expr):
        once = simplify_deep(expr)
        twice = simplify_deep(once)
        assert print_expr(twice) == print_expr(once)

    @given(expressions(FREE_LEAVES, depth=3))
    @example(prim("not", prim("not", Ref("s", SIntType(6)))))
    @settings(max_examples=200, deadline=None)
    def test_preserves_width_and_sign(self, expr):
        out = simplify_deep(expr)
        assert bit_width(out.tpe) == bit_width(expr.tpe)
        assert is_signed(out.tpe) == is_signed(expr.tpe)

    @given(expressions([], depth=3))
    @settings(max_examples=200, deadline=None)
    def test_constant_trees_fold_to_literals(self, expr):
        out = simplify_deep(expr)
        assert is_literal(out), print_expr(out)

    @given(expressions([], depth=3))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_abstract_interpreter_on_constants(self, expr):
        folded = simplify_deep(expr)
        assert is_literal(folded)
        abstract = _abs_eval(expr)
        assert abstract.is_const, f"absint lost precision on {print_expr(expr)}"
        assert literal_value(folded) == abstract.const_value, print_expr(expr)
        assert abstract.width == bit_width(folded.tpe)

    @given(expressions(FREE_LEAVES, depth=3))
    @settings(max_examples=200, deadline=None)
    def test_free_expressions_stay_sound_under_absint(self, expr):
        """Simplification must not change what the interpreter can admit.

        With free leaves mapped to ⊤, the abstraction of the simplified
        tree must still admit every value the original's abstraction
        proves — checked on the known-bits component, where disagreement
        would mean one side derives a bit the other contradicts.
        """
        from repro.analysis.absint import top

        def abs_free(e: Expr) -> AbsVal:
            if is_literal(e):
                return const(literal_value(e), bit_width(e.tpe))
            if isinstance(e, Ref):
                return top(bit_width(e.tpe))
            if isinstance(e, Mux):
                cond, t, f = abs_free(e.cond), abs_free(e.tval), abs_free(e.fval)
                width = bit_width(e.tpe)
                if cond.is_const:
                    arm = t if cond.const_value else f
                    src = e.tval if cond.const_value else e.fval
                    from repro.analysis.absint import _extend

                    return _extend(arm, is_signed(src.tpe), width)
                from repro.analysis.absint import _extend, join

                return join(
                    _extend(t, is_signed(e.tval.tpe), width),
                    _extend(f, is_signed(e.fval.tpe), width),
                )
            assert isinstance(e, PrimOp)
            return eval_primop(e, [abs_free(a) for a in e.args])

        before = abs_free(expr)
        after = abs_free(simplify_deep(expr))
        # any concretely-provable bit pattern of the simplified tree must
        # be admitted by the original abstraction and vice versa where
        # both are constant
        if before.is_const and after.is_const:
            assert before.const_value == after.const_value, print_expr(expr)
