"""Shared fixture machinery: build a throwaway mini-repo and check it.

The rule fixtures are *string snippets*, not committed ``.py`` files —
a real fixture file with a deliberate bare ``except:`` would fail the
repo's own ruff gate.  ``make_repo`` materialises the snippets under
``tmp_path`` in the same ``src/repro/...`` layout the runner discovers,
so every trip/no-trip case exercises the full pipeline: discovery,
parsing, rules, suppressions.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import run_check


@pytest.fixture
def make_repo(tmp_path):
    """Write ``{relpath: source}`` files into a fresh repo skeleton and
    return its root.  A ``pyproject.toml`` marks the root the same way
    the real checkout does."""

    def _make(files: dict[str, str]) -> Path:
        root = tmp_path / "repo"
        (root / "src" / "repro").mkdir(parents=True, exist_ok=True)
        (root / "pyproject.toml").write_text("[project]\nname='x'\n")
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return root

    return _make


@pytest.fixture
def check_repo(make_repo):
    """``files -> CheckResult`` — the one-call harness the rule tests use."""

    def _check(files: dict[str, str]):
        return run_check(root=make_repo(files))

    return _check


def findings_for(result, rule_id: str):
    """The result's findings for one rule."""
    return [f for f in result.findings if f.rule == rule_id]
