"""reprolint: domain-aware static analysis for the repro tree.

A custom AST analyzer that knows this simulator's invariants —
determinism (DET001–004), numeric robustness and step-loop BLAS dispatch (NUM001–004), fault-model
exhaustiveness and persistence (FM001–002), the atomic-write
contract (IO001), the observability read-only contract (OBS001), and
deep-copy fidelity of the vehicle layers (COPY001). Run it with::

    python -m repro.staticcheck src/repro [--format json]

Per-line suppression: append ``# reprolint: disable=RULE1,RULE2`` to
the offending line (use sparingly, with a justification in a nearby
comment). Tier-1 tests run the analyzer over ``src/repro`` via
``tests/test_staticcheck_repo.py``, so the tree must stay clean.
"""

from __future__ import annotations

from repro.staticcheck.engine import (
    ReprolintError,
    Rule,
    RunReport,
    Violation,
    run_reprolint,
)
from repro.staticcheck.report import render_json, render_text
from repro.staticcheck.rules_contracts import RawWriteRule
from repro.staticcheck.rules_copy import StoredViewRule
from repro.staticcheck.rules_determinism import (
    GeneratorInjectionRule,
    GlobalRandomRule,
    SetIterationRule,
    WallClockRule,
)
from repro.staticcheck.rules_faultmodel import ExhaustiveDispatchRule, SpecRoundTripRule
from repro.staticcheck.rules_numerics import (
    BlasDispatchRule,
    FloatEqualityRule,
    NaNComparisonRule,
    UnguardedDivisionRule,
)
from repro.staticcheck.rules_obs import ObsReadOnlyRule

#: Registered rule classes, in report order.
ALL_RULES: tuple[type[Rule], ...] = (
    GlobalRandomRule,
    WallClockRule,
    SetIterationRule,
    GeneratorInjectionRule,
    FloatEqualityRule,
    UnguardedDivisionRule,
    NaNComparisonRule,
    BlasDispatchRule,
    ExhaustiveDispatchRule,
    SpecRoundTripRule,
    RawWriteRule,
    ObsReadOnlyRule,
    StoredViewRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in ALL_RULES]


__all__ = [
    "ALL_RULES",
    "ReprolintError",
    "Rule",
    "RunReport",
    "Violation",
    "all_rules",
    "render_json",
    "render_text",
    "run_reprolint",
]
