"""headroom-guard: deferred modular accumulation carries the 2**63 guard.

The hot planes (``MaskAccumulator``, ``XNoiseServer.remove_excess_noise``)
sum ring vectors raw in int64 and reduce once at the end — sound only
while ``n_terms * (modulus - 1) < 2**63``.  ARCHITECTURE.md invariants
9, 11 and 15 require every such accumulator to check that bound and
fall back to per-term reduction when it fails.

Detection is scope-based.  A *deferred accumulator* is a target that is
accumulated into somewhere in a scope and reduced by the modulus
somewhere in the same scope:

- an *accumulate* is ``+=`` / ``-=``, or a call to one of the in-place
  fold kernels with the target as ``out=`` (``unpack_add`` — a packed
  masked input joining a sum — ``expand_uniform``, the PG slot's
  ``expand``, ``expand_uniform_batch``, ``skellam_noise_from_seed``): the addition
  happens in C or numpy, the headroom is still the caller's;
- a *reduce* is ``%= modulus``, ``&= modulus - 1`` (the same reduction
  over a power-of-two ring) or handing the target to
  ``pack_low_bits_into``, whose pack keeps the low bits only;
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


#: Calls that add into their ``out=`` argument in place.
_FOLD_CALLS = {
    "unpack_add", "expand_uniform", "expand", "expand_uniform_batch", "skellam_noise_from_seed",
}
#: Calls that reduce their first argument mod ``2**bits`` on the way out.
_REDUCING_CALLS = {"pack_low_bits_into"}


def _names_modulus(node: ast.AST) -> bool:
    name = dotted_name(node)
    return name is not None and "modulus" in name.rsplit(".", 1)[-1].lower()


def _is_modulus_mask(node: ast.AST) -> bool:
    """``modulus - 1``: the ``&=`` operand that reduces over ``2**b``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and _names_modulus(node.left)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
    )


def _call_name(node: ast.Call) -> str | None:
    name = dotted_name(node.func)
    return None if name is None else name.rsplit(".", 1)[-1]


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
            elif isinstance(node.op, ast.BitAnd) and _is_modulus_mask(node.value):
                reduces.add(path)
        elif isinstance(node, ast.Call) and _call_name(node) in _FOLD_CALLS:
            for keyword in node.keywords:
                path = target_path(keyword.value) if keyword.arg == "out" else None
                if path is not None:
                    accumulates.setdefault(path, node.lineno)
        elif isinstance(node, ast.Call) and _call_name(node) in _REDUCING_CALLS:
            path = target_path(node.args[0]) if node.args else None
            if path is not None:
                reduces.add(path)
        elif isinstance(node, ast.Compare) and contains_pow_2_63(node):
            guarded = True
    return accumulates, reduces, guarded


@register
class HeadroomGuardRule(Rule):
    id = "headroom-guard"
    description = (
        "an accumulator (+= / -= / an in-place fold kernel's out=) reduced "
        "later by the modulus (%=, &= modulus - 1, the reducing pack) must "
        "sit in a scope that compares against the 2**63 int64 headroom bound"
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
                f"the modulus but the scope never checks the "
                f"n_terms * (modulus - 1) < 2**63 headroom bound",
            )
