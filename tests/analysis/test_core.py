"""The rule engine itself: suppressions, findings, reports."""

from __future__ import annotations

import json

from repro.analysis import render_json, render_text
from repro.analysis.core import (
    SUPPRESSION_RULE_ID,
    Finding,
    SourceFile,
    all_rules,
    apply_suppressions,
    scan_suppressions,
)

# A file the headroom-guard rule trips on (line 4): a deferred sum
# reduced by the modulus with no 2**63 check in scope.
_UNGUARDED = (
    "def unmask(vectors, modulus):\n"
    "    acc = vectors[0]\n"
    "    for v in vectors[1:]:\n"
    "        acc += v\n"
    "    acc %= modulus\n"
    "    return acc\n"
)


def _load(tmp_path, text, name="m.py"):
    path = tmp_path / name
    path.write_text(text)
    return SourceFile.load(path, tmp_path)


class TestSuppressionParsing:
    def test_valid_allow_comment_parses(self, tmp_path):
        src = _load(
            tmp_path,
            "x = 1  # repro: allow[headroom-guard] two terms never near 2**63\n",
        )
        sups, meta = scan_suppressions(src)
        assert meta == []
        (s,) = sups
        assert (s.rule, s.line) == ("headroom-guard", 1)
        assert s.reason == "two terms never near 2**63"

    def test_missing_reason_is_a_finding(self, tmp_path):
        src = _load(tmp_path, "x = 1  # repro: allow[headroom-guard]\n")
        sups, meta = scan_suppressions(src)
        assert sups == []
        (f,) = meta
        assert f.rule == SUPPRESSION_RULE_ID
        assert "no reason" in f.message

    def test_unknown_rule_id_is_a_finding(self, tmp_path):
        src = _load(tmp_path, "x = 1  # repro: allow[no-such-rule] why\n")
        sups, meta = scan_suppressions(src)
        assert sups == []
        (f,) = meta
        assert f.rule == SUPPRESSION_RULE_ID
        assert "no-such-rule" in f.message

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        # Prose *about* the grammar (as this package's own docs) must
        # not parse as a suppression or a malformed one.
        src = _load(
            tmp_path,
            '"""Docs: write ``# repro: allow[rule-id] reason``."""\nx = 1\n',
        )
        sups, meta = scan_suppressions(src)
        assert sups == [] and meta == []

    def test_suppression_covers_same_line_and_line_below(self):
        from repro.analysis.core import Suppression

        sup = Suppression(file="m.py", line=4, rule="r", reason="why")
        same = Finding(file="m.py", line=4, rule="r", message="x")
        below = Finding(file="m.py", line=5, rule="r", message="x")
        far = Finding(file="m.py", line=6, rule="r", message="x")
        other_rule = Finding(file="m.py", line=4, rule="q", message="x")
        kept, n = apply_suppressions([same, below, far, other_rule], [sup])
        assert kept == [far, other_rule] and n == 2

    def test_meta_findings_are_unsuppressible(self):
        from repro.analysis.core import Suppression

        sup = Suppression(
            file="m.py", line=1, rule=SUPPRESSION_RULE_ID, reason="nope"
        )
        meta = Finding(
            file="m.py", line=1, rule=SUPPRESSION_RULE_ID, message="bad"
        )
        kept, n = apply_suppressions([meta], [sup])
        assert kept == [meta] and n == 0


class TestReports:
    def _result(self, check_repo):
        return check_repo({"src/repro/mod.py": _UNGUARDED})

    def test_text_report_lines(self, check_repo):
        result = self._result(check_repo)
        text = render_text(result)
        assert "src/repro/mod.py:4: [headroom-guard]" in text
        assert text.strip().endswith("0 suppressed")

    def test_json_report_schema(self, check_repo):
        result = self._result(check_repo)
        doc = json.loads(render_json(result))
        assert doc["version"] == 1
        assert isinstance(doc["root"], str)
        assert doc["clean"] is False
        rule_ids = {r["id"] for r in doc["rules"]}
        assert len(rule_ids) >= 5
        for r in doc["rules"]:
            assert set(r) == {"id", "description", "invariants"}
            assert isinstance(r["invariants"], list)
        for f in doc["findings"]:
            assert set(f) == {"file", "line", "rule", "message"}
            assert isinstance(f["line"], int)
        assert doc["counts"] == {
            "files": result.files_checked,
            "findings": len(result.findings),
        }
        assert "baselined" not in doc

    def test_registry_has_five_rules_with_invariants(self):
        rules = all_rules()
        assert len(rules) >= 5
        for rule in rules.values():
            assert rule.id and rule.description
            assert rule.invariants, f"{rule.id} claims no invariant"
