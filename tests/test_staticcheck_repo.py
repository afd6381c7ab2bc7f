"""reprolint over the real tree — the tier-1 enforcement gate.

The first test is the contract: ``src/repro`` must be clean under the
full rule registry, so any change that reintroduces a banned pattern
fails the ordinary test run. The mutation tests prove the gate has
teeth: deliberately breaking an invariant in a copy of the real source
must produce the corresponding violation.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.staticcheck import all_rules, render_json, render_text, run_reprolint
from repro.staticcheck.__main__ import main as staticcheck_main
from repro.staticcheck.rules_faultmodel import ExhaustiveDispatchRule, SpecRoundTripRule

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"


def test_repro_tree_is_clean():
    report = run_reprolint([SRC_TREE])
    assert report.clean, "\n" + render_text(report)
    assert report.files_scanned > 50
    assert len(report.rule_ids) == 13


def test_cli_exits_zero_and_emits_json_on_clean_tree(capsys):
    exit_code = staticcheck_main([str(SRC_TREE), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["clean"] is True
    assert payload["violation_count"] == 0
    assert len(payload["rules"]) == 13


def test_cli_exit_codes_on_violation_and_error(tmp_path, capsys):
    bad = tmp_path / "sim"
    bad.mkdir()
    (bad / "mod.py").write_text("import time\n\ndef f():\n    return time.time()\n")
    assert staticcheck_main([str(tmp_path)]) == 1
    assert "DET002" in capsys.readouterr().out
    assert staticcheck_main([str(tmp_path / "missing")]) == 2


def test_cli_list_rules(capsys):
    assert staticcheck_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in out


def _mutated_tree(
    tmp_path: Path, filename: str, old: str, new: str, subdir: str = "core"
) -> Path:
    """Copy one real source package with one file textually mutated."""
    dest_root = tmp_path / subdir
    dest_root.mkdir()
    for src_file in sorted((SRC_TREE / subdir).glob("*.py")):
        text = src_file.read_text()
        if src_file.name == filename:
            assert old in text, f"mutation anchor missing from {filename}"
            text = text.replace(old, new)
        (dest_root / src_file.name).write_text(text)
    return tmp_path


def test_removing_a_fault_branch_fails_fm001(tmp_path):
    """The acceptance criterion: delete one FaultType branch from
    FaultBehavior.apply and the dispatch-exhaustiveness rule must fire."""
    root = _mutated_tree(
        tmp_path,
        "faults.py",
        "        if kind == FaultType.MIN:\n            return np.full(3, -r)\n",
        "",
    )
    report = run_reprolint([root], rules=[ExhaustiveDispatchRule()])
    fm001 = [v for v in report.violations if v.rule_id == "FM001"]
    assert fm001, render_json(report)
    assert any("FaultType.MIN" in v.message for v in fm001)


def test_removing_a_fault_scope_branch_fails_fm001(tmp_path):
    """FaultScope.affects_member is an FM001-guarded dispatch: a new
    scope member without an explicit branch must fail the lint."""
    root = _mutated_tree(
        tmp_path,
        "faults.py",
        "        if self.scope is FaultScope.PRIMARY_ONLY:\n"
        "            return member_index == 0\n",
        "",
    )
    report = run_reprolint([root], rules=[ExhaustiveDispatchRule()])
    fm001 = [v for v in report.violations if v.rule_id == "FM001"]
    assert fm001, render_json(report)
    assert any("FaultScope.PRIMARY_ONLY" in v.message for v in fm001)


def test_removing_a_recovery_state_description_fails_fm001(tmp_path):
    """RECOVERY_STATE_DESCRIPTIONS is a dict-literal dispatch over
    RecoveryState; dropping an entry must fail the lint."""
    root = _mutated_tree(
        tmp_path,
        "recovery.py",
        '    RecoveryState.DEGRADED: "no healthy member; median + '
        'complementary attitude fallback",\n',
        "",
        subdir="redundancy",
    )
    report = run_reprolint([root], rules=[ExhaustiveDispatchRule()])
    fm001 = [v for v in report.violations if v.rule_id == "FM001"]
    assert fm001, render_json(report)
    assert any("RecoveryState.DEGRADED" in v.message for v in fm001)


def test_dropping_a_spec_field_from_serializer_fails_fm002(tmp_path):
    root = _mutated_tree(
        tmp_path,
        "results.py",
        '        "noise_fraction": spec.noise_fraction,\n',
        "",
    )
    report = run_reprolint([root], rules=[SpecRoundTripRule()])
    fm002 = [v for v in report.violations if v.rule_id == "FM002"]
    assert fm002, render_json(report)
    assert any("noise_fraction" in v.message for v in fm002)
