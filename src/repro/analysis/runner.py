"""Orchestration: discover sources, run rules, render text/JSON.

The checked tree is ``<root>/src/repro`` (every ``.py``), with
``<root>/tests`` loaded as raw text for the cross-checking rules.  The
root defaults to the repository this package lives in, so
``python -m repro.cli check`` works from any working directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import (
    CheckContext,
    Finding,
    Rule,
    SourceFile,
    all_rules,
    apply_suppressions,
    scan_suppressions,
)

#: Bumped when the JSON output shape changes.
REPORT_VERSION = 1


@dataclass
class CheckResult:
    root: Path
    rules: dict[str, Rule]
    #: Findings not covered by an inline suppression — these fail the
    #: check.
    findings: list[Finding]
    #: Count of findings silenced by inline allow-comments.
    suppressed: int = 0
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def default_root() -> Path:
    """The repository this package was loaded from.

    Walks up from the package directory to the first ancestor holding a
    ``pyproject.toml`` — the layout is ``<root>/src/repro/analysis``,
    so this finds the checkout whether or not cwd is inside it.
    """
    here = Path(__file__).resolve()
    for ancestor in here.parents:
        if (ancestor / "pyproject.toml").is_file():
            return ancestor
    return Path.cwd()


def discover_sources(root: Path) -> list[SourceFile]:
    src_dir = root / "src" / "repro"
    if not src_dir.is_dir():
        raise FileNotFoundError(f"{src_dir} does not exist — not a repo root?")
    return [
        SourceFile.load(path, root)
        for path in sorted(src_dir.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]


def run_check(root: Path | None = None) -> CheckResult:
    """Run every registered rule over the tree at ``root``."""
    root = (root or default_root()).resolve()
    rules = all_rules()
    sources = discover_sources(root)
    ctx = CheckContext(root=root, sources=sources)

    findings: list[Finding] = []
    for rule in rules.values():
        findings.extend(rule.check(ctx))

    suppressions = []
    for src in sources:
        sups, meta = scan_suppressions(src)
        suppressions.extend(sups)
        findings.extend(meta)

    kept, suppressed = apply_suppressions(findings, suppressions)
    kept.sort()

    return CheckResult(
        root=root,
        rules=rules,
        findings=kept,
        suppressed=suppressed,
        files_checked=len(sources),
    )


def render_text(result: CheckResult) -> str:
    lines = []
    for f in result.findings:
        lines.append(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    lines.append(
        f"checked {result.files_checked} files with "
        f"{len(result.rules)} rules: {len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed"
    )
    return "\n".join(lines)


def render_json(result: CheckResult) -> str:
    def row(f: Finding) -> dict:
        return {"file": f.file, "line": f.line, "rule": f.rule,
                "message": f.message}

    doc = {
        "version": REPORT_VERSION,
        "root": str(result.root),
        "rules": [
            {
                "id": rule.id,
                "description": rule.description,
                "invariants": list(rule.invariants),
            }
            for rule in result.rules.values()
        ],
        "findings": [row(f) for f in result.findings],
        "suppressed": result.suppressed,
        "counts": {
            "files": result.files_checked,
            "findings": len(result.findings),
        },
        "clean": result.clean,
    }
    return json.dumps(doc, indent=2)
