"""Numerics rules (NUM001–NUM004).

Float-identity tests, unguarded divisions and NaN comparisons are the
three numeric bug classes that survive unit tests (they need a fault
window or an edge-case state to trigger) but corrupt campaign
statistics when they do fire mid-run. NUM004 keeps the step loop's
BLAS calls on their cheapest bit-identical entry point.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.engine import (
    FileContext,
    Rule,
    Violation,
    _condition_names,
    iter_scopes,
    walk_scope,
)

_FLOAT_CONSTANT_PATHS = frozenset(
    {"math.pi", "math.e", "math.tau", "math.inf", "numpy.pi", "numpy.e", "numpy.inf"}
)

_NAN_PATHS = frozenset({"math.nan", "numpy.nan", "numpy.NaN", "numpy.NAN"})

#: Calls whose result is safely bounded away from zero when used as a
#: denominator source (``steps = max(1, ...)`` style clamps).
_CLAMPING_CALLS = frozenset(
    {"max", "min", "abs", "clamp", "numpy.maximum", "numpy.fmax", "numpy.clip"}
)


def _is_floatish(ctx: FileContext, node: ast.expr) -> bool:
    """Syntactically float-valued: literal, float() cast, math constant."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(ctx, node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    resolved = ctx.resolve(node)
    return resolved in _FLOAT_CONSTANT_PATHS


class FloatEqualityRule(Rule):
    """NUM001: no bare ``==``/``!=`` against floats.

    After one EKF step nothing is exactly ``0.1``; identity tests on
    floats either never fire or fire on the wrong runs, silently
    reshaping Tables II–IV.
    """

    rule_id = "NUM001"
    summary = "no bare ==/!= between floats"
    fixit = (
        "compare with math.isclose/np.isclose or an explicit tolerance "
        "(abs(a - b) < eps); ordered comparisons (<, <=) are fine"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_floatish(ctx, left) or _is_floatish(ctx, right):
                    yield self.violation(
                        ctx,
                        node,
                        "exact float equality is brittle under rounding "
                        f"('{ast.unparse(node)}')",
                    )
                    break


class UnguardedDivisionRule(Rule):
    """NUM002: no unguarded division by state variables.

    Division by a runtime quantity (a norm, a rate, a duration) must be
    dominated by *some* guard on that quantity: a comparison, a clamp
    (``max``/``clamp``/``np.clip``), or a raise-style validation of a
    same-named parameter anywhere in the tree. Otherwise a fault window
    that drives the quantity to zero turns the whole run into inf/NaN.
    """

    rule_id = "NUM002"
    summary = "no unguarded division by state variables"
    fixit = (
        "guard the denominator (compare it, clamp it with max()/clamp(), "
        "or validate it with a raise) before dividing"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for _scope, body in iter_scopes(ctx.tree):
            guarded = self._guarded_names(ctx, body)
            for node in walk_scope(body):
                if not isinstance(node, ast.BinOp) or not isinstance(
                    node.op, (ast.Div, ast.FloorDiv, ast.Mod)
                ):
                    continue
                name = self._denominator_name(node.right)
                if name is None:
                    continue
                if name.isupper():
                    continue  # ALL_CAPS: a module constant, nonzero by definition
                if name in guarded or name in ctx.project.validated_names:
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"division by '{ast.unparse(node.right)}' with no guard "
                    "on its value in this scope",
                )

    @staticmethod
    def _denominator_name(node: ast.expr) -> str | None:
        """The guardable name of a denominator (None = not name-like)."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def _guarded_names(self, ctx: FileContext, body: list[ast.stmt]) -> set[str]:
        """Names this scope constrains before (or while) using them."""
        guarded: set[str] = set()
        for node in walk_scope(body):
            if isinstance(node, ast.Compare):
                for operand in [node.left, *node.comparators]:
                    guarded.update(_condition_names(operand))
            elif isinstance(node, (ast.If, ast.While, ast.Assert, ast.IfExp)):
                guarded.update(_condition_names(node.test))
            elif isinstance(node, ast.comprehension):
                for cond in node.ifs:
                    guarded.update(_condition_names(cond))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = node.value.func
                resolved = (
                    func.id
                    if isinstance(func, ast.Name)
                    else ctx.resolve(func)
                )
                if resolved in _CLAMPING_CALLS:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            guarded.add(target.id)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                # x = self.params.mass_kg — guarded iff the source
                # attribute is raise-validated somewhere in the tree.
                if node.value.attr in ctx.project.validated_names:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            guarded.add(target.id)
        # Second pass: `n = len(xs)` inherits the guard on `xs` (the
        # empty-group check is the zero check for a length).
        for node in walk_scope(body):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "len"
                and node.value.args
                and _condition_names(node.value.args[0]) & guarded
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        guarded.add(target.id)
        return guarded


class NaNComparisonRule(Rule):
    """NUM003: no ordering/equality comparisons against NaN.

    Every comparison with NaN is False (``nan != nan`` is True), so
    such tests silently select the wrong branch instead of detecting
    the bad sample.
    """

    rule_id = "NUM003"
    summary = "comparisons against NaN never hold"
    fixit = "use math.isnan(x) / np.isnan(x) to detect NaN values"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            for operand in [node.left, *node.comparators]:
                if self._is_nan(ctx, operand):
                    yield self.violation(
                        ctx,
                        node,
                        f"comparison against NaN ('{ast.unparse(node)}') is "
                        "always False by IEEE 754",
                    )
                    break

    @staticmethod
    def _is_nan(ctx: FileContext, node: ast.expr) -> bool:
        if ctx.resolve(node) in _NAN_PATHS:
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.strip().lower() in ("nan", "-nan", "+nan")
        )


#: Packages (and root modules) whose code runs inside ``UavSystem.step``.
_STEP_LOOP_PACKAGES = frozenset(
    {
        "sim",
        "sensors",
        "estimation",
        "control",
        "flightstack",
        "redundancy",
        "uspace",
        "telemetry",
        "mathutils",
        "obs",
    }
)
_STEP_LOOP_MODULES = frozenset({"system.py"})

_BLAS_WRAPPERS = frozenset({"numpy.matmul", "numpy.dot", "numpy.linalg.norm"})


class BlasDispatchRule(Rule):
    """NUM004: the step loop calls BLAS through ``ndarray.dot``.

    ``@``, ``np.matmul``, ``np.dot`` and ``np.linalg.norm`` on 1-D and
    2-D operands reach the same cblas kernel as ``ndarray.dot``
    (``np.linalg.norm`` itself is ``sqrt(x.dot(x))``), so the bits are
    the same, but each pays the ufunc or array-function layer first:
    about twice the cost of the kernel on the 3- to 15-element operands
    of the step (DESIGN.md section 11). Flags those four in the
    step-loop packages; a batched (3-D) matmul, which ``dot`` does not
    broadcast, carries a per-line suppression.
    """

    rule_id = "NUM004"
    summary = "step-loop BLAS calls go through ndarray.dot"
    fixit = (
        "call a.dot(b) (with out= for a gemv/gemm into a buffer), and "
        "math.sqrt(float(v.dot(v))) for a norm: the same BLAS kernel "
        "without the ufunc dispatch"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.package not in _STEP_LOOP_PACKAGES and ctx.rel_path not in _STEP_LOOP_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult
            ):
                yield self.violation(ctx, node, "'@' in the step loop")
            elif isinstance(node, ast.Call):
                called = ctx.resolve(node.func)
                if called in _BLAS_WRAPPERS:
                    yield self.violation(ctx, node, f"{called}() in the step loop")
