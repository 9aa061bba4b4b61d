"""The checker on its own repository: clean, and for stated reasons.

This is the dogfood gate the CI ``analysis`` job replicates: running
``repro.cli check`` over the real tree must produce zero non-baselined
findings, with the rule set fully loaded.  It also pins the *shape* of
the current suppression inventory, so a suppression added without
thought shows up as a diff here.
"""

from __future__ import annotations

import json

from repro.analysis import render_json, run_check
from repro.analysis.baseline import DEFAULT_BASELINE_NAME, load_baseline
from repro.analysis.runner import default_root


def test_real_tree_is_clean():
    result = run_check()
    assert result.clean, "\n".join(
        f"{f.file}:{f.line}: [{f.rule}] {f.message}" for f in result.findings
    )
    assert len(result.rules) >= 6
    assert result.files_checked > 50


def test_committed_baseline_is_empty():
    # The tree was brought to zero findings in the PR that introduced
    # the checker; the baseline exists as the grandfathering mechanism
    # but currently grandfathers nothing.  If this fails, either fix
    # the finding or make a deliberate baseline entry — don't bypass.
    keys = load_baseline(default_root() / DEFAULT_BASELINE_NAME)
    assert keys == set()


def test_suppression_inventory_is_the_documented_two():
    # Every inline allow in the tree, by (file, rule) — both are
    # parity-twin exemptions whose fast twin is not a same-named def.
    from repro.analysis.core import scan_suppressions
    from repro.analysis.runner import discover_sources

    root = default_root()
    inventory = []
    for src in discover_sources(root):
        sups, meta = scan_suppressions(src)
        assert meta == [], f"malformed suppression in {src.rel}"
        inventory.extend((s.file, s.rule) for s in sups)
        for s in sups:
            assert s.reason, f"{s.file}:{s.line} has an empty reason"
    assert sorted(inventory) == [
        ("src/repro/secagg/masking.py", "parity-twin"),
        ("src/repro/secagg/masking.py", "parity-twin"),
    ]


def test_json_report_on_real_tree_is_valid_and_clean():
    doc = json.loads(render_json(run_check()))
    assert doc["clean"] is True
    assert doc["findings"] == []
    assert doc["counts"]["findings"] == 0
    assert {r["id"] for r in doc["rules"]} >= {
        "parity-twin",
        "headroom-guard",
        "strict-decoder",
        "async-hygiene",
        "determinism",
        "zero-copy",
    }
