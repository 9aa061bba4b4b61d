"""headroom-guard: deferred modular accumulation carries the 2**63 guard.

The hot planes (``MaskAccumulator``, ``XNoiseServer.remove_excess_noise``)
sum ring vectors raw in int64 and reduce once at the end — sound only
while ``n_terms * (modulus - 1) < 2**63``.  ARCHITECTURE.md invariants
9, 11 and 15 require every such accumulator to check that bound and
fall back to per-term reduction when it fails.  (An accumulation done
in C — ``expand_uniform(..., out=acc)`` — is invisible here, so it must
sit in the scope whose guard it relies on.)

Detection is scope-based.  A *deferred accumulator* is a target that
receives a ``+=``/``-=`` somewhere in a scope and a ``%=``-by-modulus
reduction somewhere in the same scope:

- local names are judged per *function* (the guard must sit in the same
  function, as in ``remove_excess_noise``);
- ``self.attr`` targets are judged per *class* (the accumulate, the
  reduce, and the guard may live in different methods, as in
  ``MaskAccumulator.__init__`` / ``_fold`` / ``finish``).

The reducing operand must *name* the modulus (its terminal identifier
contains ``modulus``), which keeps big-int field arithmetic
(``% self.field.p`` in Shamir, where Python ints cannot overflow) out
of scope.  A deferred accumulator in a guard-free scope is a finding.

This is a dominance *approximation* (lexical same-scope presence, not a
CFG walk) — precise enough for this codebase's shapes, and any
deliberate exception can say so with an allow-comment.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    CheckContext,
    Finding,
    Rule,
    SourceFile,
    contains_pow_2_63,
    dotted_name,
    register,
    target_path,
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names_modulus(node: ast.AST) -> bool:
    name = dotted_name(node)
    return name is not None and "modulus" in name.rsplit(".", 1)[-1].lower()


def _scan(scope: ast.AST) -> tuple[dict[str, int], set[str], bool]:
    """One scope's (accumulate targets → first line), reduce targets,
    and whether the 2**63 bound appears in any comparison."""
    accumulates: dict[str, int] = {}
    reduces: set[str] = set()
    guarded = False
    for node in ast.walk(scope):
        if isinstance(node, ast.AugAssign):
            path = target_path(node.target)
            if path is None:
                continue
            if isinstance(node.op, (ast.Add, ast.Sub)):
                accumulates.setdefault(path, node.lineno)
            elif isinstance(node.op, ast.Mod) and _names_modulus(node.value):
                reduces.add(path)
        elif isinstance(node, ast.Compare) and contains_pow_2_63(node):
            guarded = True
    return accumulates, reduces, guarded


@register
class HeadroomGuardRule(Rule):
    id = "headroom-guard"
    description = (
        "a += / -= accumulator reduced later by %= modulus must sit in a "
        "scope that compares against the 2**63 int64 headroom bound"
    )
    invariants = ("9", "11", "15")

    def check(self, ctx: CheckContext) -> Iterable[Finding]:
        for src in ctx.sources:
            for node in ast.walk(src.tree):
                if isinstance(node, _DEFS):
                    yield from self._report(
                        src, node, node.name, attr_targets=False
                    )
                elif isinstance(node, ast.ClassDef):
                    yield from self._report(
                        src, node, f"class {node.name}", attr_targets=True
                    )

    def _report(
        self,
        src: SourceFile,
        scope: ast.AST,
        label: str,
        *,
        attr_targets: bool,
    ) -> Iterable[Finding]:
        accumulates, reduces, guarded = _scan(scope)
        if guarded:
            return
        for path in sorted(accumulates.keys() & reduces):
            if path.startswith("self.") != attr_targets:
                continue
            yield self.finding(
                src, accumulates[path],
                f"deferred accumulator {path!r} in {label} is reduced by "
                f"%= modulus but the scope never checks the "
                f"n_terms * (modulus - 1) < 2**63 headroom bound",
            )
