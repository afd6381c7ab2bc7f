"""Deep-copy fidelity rules (COPY001).

Campaign cases are forked from a shared pre-injection snapshot with
``copy.deepcopy``, and a fork must fly bit-identically to a fresh
vehicle. ``deepcopy`` copies a numpy view as an independent contiguous
array: the copy's "view" no longer tracks its base (writes land in an
orphan array), and its strides change (BLAS may round a dot product
differently). This rule keeps stored views out of the vehicle layers
unless their class re-derives them on copy.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.engine import FileContext, Rule, Violation

#: Layers whose objects are deep-copied as part of a flying vehicle.
_VEHICLE_PACKAGES = frozenset(
    {
        "sim",
        "estimation",
        "control",
        "sensors",
        "redundancy",
        "obs",
        "flightstack",
        "uspace",
        "telemetry",
        "missions",
    }
)

#: Methods through which a class can re-derive its views on copy.
_COPY_HOOKS = frozenset({"__deepcopy__", "__setstate__", "__reduce__", "__reduce_ex__"})

#: Array methods that return a view of their receiver.
_VIEW_METHODS = frozenset({"ravel", "reshape", "view", "transpose", "swapaxes"})


class StoredViewRule(Rule):
    """COPY001: no stored numpy view of another ``self`` array without a copy hook.

    Inside the vehicle layers this flags ``self.<name> = <view>`` in a
    class that defines none of ``__deepcopy__``, ``__setstate__``,
    ``__reduce__`` or ``__reduce_ex__``, where ``<view>`` is derived
    from another ``self`` attribute by basic slicing (a subscript
    containing ``:``), ``.T``, or a view method (``.ravel()``,
    ``.reshape()``, ``.view()``, ``.transpose()``, ``.swapaxes()``).
    Integer indexing is not flagged: on a 1-D array it reads a scalar.
    """

    rule_id = "COPY001"
    summary = "stored numpy view of a self array in a class without a copy hook"
    fixit = (
        "slice at the point of use instead of storing the view, or "
        "re-derive it in a __deepcopy__/__setstate__ hook: deepcopy turns "
        "a stored view into a detached contiguous copy"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.package not in _VEHICLE_PACKAGES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and not _has_copy_hook(node):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Violation]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if not any(_is_self_attribute(t) for t in targets):
                    continue
                if _is_view_of_self_array(value):
                    yield self.violation(
                        ctx,
                        node,
                        f"'{ast.unparse(node)}' stores a view of a self "
                        f"array in class '{cls.name}', which has no copy "
                        "hook; a deep copy detaches it",
                    )


def _has_copy_hook(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in _COPY_HOOKS
        for item in cls.body
    )


def _is_self_attribute(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_view_of_self_array(node: ast.expr) -> bool:
    """True for a view-producing step applied to a ``self.<attr>`` chain."""
    if isinstance(node, ast.Subscript):
        return _has_slice(node.slice) and _rooted_at_self_attribute(node.value)
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return _rooted_at_self_attribute(node.value)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _VIEW_METHODS
    ):
        return _rooted_at_self_attribute(node.func.value)
    return False


def _has_slice(index: ast.expr) -> bool:
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return any(isinstance(part, ast.Slice) for part in parts)


def _rooted_at_self_attribute(node: ast.expr) -> bool:
    """True when ``node`` is ``self.<attr>``, possibly followed by
    further attribute, subscript or view-method steps
    (``self.a.ravel()``); a copying call such as ``.copy()`` ends it."""
    while True:
        if _is_self_attribute(node):
            return True
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _VIEW_METHODS
        ):
            node = node.func.value
        else:
            return False
