"""Observability-plane rules (OBS001).

The obs package (PR 5) rides along inside the deterministic hot loop
under a strict read-only contract: instrumentation may look at the
vehicle but must never draw randomness or write into it, or the
bit-exactness guarantee (golden step traces identical with obs enabled
and disabled) silently dies. This rule makes that contract structural.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.engine import FileContext, Rule, Violation, iter_scopes, walk_scope

#: Attribute calls that mutate their receiver in place; calling one on
#: an object reached *through a function parameter* writes observed
#: state just as surely as an assignment does.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear",
        "update", "setdefault", "popitem", "add", "discard",
        "sort", "reverse", "fill",
    }
)

#: Receiver names that a method may legitimately mutate.
_OWN_NAMES = frozenset({"self", "cls"})

#: Modules outside ``obs/`` held to the same contract: the flight
#: recorder's row writer reads the live vehicle every tick as the
#: observer's black box.
_OBS_MODULES = frozenset({"telemetry/recorder.py"})


class ObsReadOnlyRule(Rule):
    """OBS001: obs code must not draw randomness or mutate observed state.

    Inside ``repro/obs/`` and ``telemetry/recorder.py`` (whose row
    writer is the observer's black box) this flags (a) any call into
    ``random`` or ``numpy.random`` — including RNG construction, which
    would desync the injected-generator stream counts between
    obs-enabled and obs-disabled runs — and (b) assignments, augmented assignments,
    deletes, or in-place mutating method calls targeting an attribute
    or subscript chain rooted at a function parameter other than
    ``self``/``cls`` (the observed system or event objects
    handed to observer hooks). Local variables and ``self`` state are
    free: observers own their rings, registries, and span stacks.
    """

    rule_id = "OBS001"
    summary = "obs code drawing randomness or mutating observed state"
    fixit = (
        "observers are read-only passengers: copy what you need into "
        "obs-owned state (self....) instead of writing through the "
        "observed object, and never touch random/numpy.random"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.package != "obs" and ctx.rel_path not in _OBS_MODULES:
            return
        yield from self._check_randomness(ctx)
        yield from self._check_param_mutation(ctx)

    # -- (a) randomness -------------------------------------------------

    def _check_randomness(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved == "random" or resolved.startswith("random.") or (
                resolved.startswith("numpy.random")
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"'{ast.unparse(node.func)}(...)' draws or constructs "
                    "randomness inside the observability plane",
                    fixit=(
                        "obs code must be RNG-free — the sim's injected "
                        "generator streams must count identically with obs "
                        "enabled and disabled"
                    ),
                )

    # -- (b) mutation of observed objects -------------------------------

    def _check_param_mutation(self, ctx: FileContext) -> Iterator[Violation]:
        for scope, body in iter_scopes(ctx.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = self._param_names(scope)
            if not params:
                continue
            for node in walk_scope(body):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        root = self._chain_root(target)
                        if root in params:
                            yield self.violation(
                                ctx,
                                node,
                                f"assignment into '{ast.unparse(target)}' "
                                f"mutates parameter '{root}' — obs hooks "
                                "must leave observed state untouched",
                            )
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        root = self._chain_root(target)
                        if root in params:
                            yield self.violation(
                                ctx,
                                node,
                                f"'del {ast.unparse(target)}' mutates "
                                f"parameter '{root}'",
                            )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _MUTATING_METHODS
                    ):
                        root = self._chain_root(func.value)
                        if root in params:
                            yield self.violation(
                                ctx,
                                node,
                                f"'.{func.attr}()' mutates parameter "
                                f"'{root}' in place",
                            )

    @staticmethod
    def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
        args = fn.args
        names = {
            a.arg
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *( [args.vararg] if args.vararg else [] ),
                *( [args.kwarg] if args.kwarg else [] ),
            )
        }
        return frozenset(names - _OWN_NAMES)

    @staticmethod
    def _chain_root(node: ast.expr) -> str | None:
        """Name at the root of an Attribute/Subscript chain, else None.

        A bare ``Name`` target returns ``None`` too: rebinding a local
        that happens to shadow a parameter does not mutate the caller's
        object.
        """
        if not isinstance(node, (ast.Attribute, ast.Subscript)):
            return None
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None
