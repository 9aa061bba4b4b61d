"""parity-twin: every ``*_reference`` function has a live fast twin.

The repo's performance discipline (ARCHITECTURE.md invariants 9–11)
keeps each optimized hot path next to the original scalar code as an
executable specification: ``share`` / ``share_reference``,
``collect_unmask`` / ``collect_unmask_reference``,
``expand_uniform`` / ``expand_uniform_reference``.  Nothing used to
stop a refactor from silently deleting one side of a pair, renaming it
out of sync, or dropping the parity test.  (A specification *class* is
out of scope: ``PRGReference`` specifies module functions —
``counter_stream``, ``expand_uniform`` — not a class of its own.)  This
rule checks, for every reference function or method under
``src/repro``:

1. a fast twin with the un-suffixed name exists in the same scope
   (the class for methods, the module for functions — twins live side
   by side by convention);
2. the reference's argument names begin with the fast twin's whole
   argument-name tuple (a signature drift means the parity test can no
   longer call both sides the same way); what may follow is what an
   oracle has to be *told* because the fast side holds it as state it
   does not keep — ``collect_unmask_reference(messages, vectors)``
   beside a ``collect_unmask(messages)`` whose server folded the vectors
   away on arrival;
3. at least one file under ``tests/`` names *both* twins (word-bounded
   match), i.e. a pinning test exists.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.core import (
    CheckContext,
    Finding,
    Rule,
    SourceFile,
    arg_names,
    register,
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _twin_name(name: str) -> str | None:
    """``share_reference`` → ``share``."""
    if name.endswith("_reference") and len(name) > len("_reference"):
        return name[: -len("_reference")]
    return None


def _scope_lookup(body: list[ast.stmt], name: str) -> ast.AST | None:
    for node in body:
        if isinstance(node, (*_DEFS, ast.ClassDef)) and node.name == name:
            return node
    return None


@register
class ParityTwinRule(Rule):
    id = "parity-twin"
    description = (
        "every *_reference def has a same-scope fast twin whose argument "
        "names it begins with, and a test file names both"
    )
    invariants = ("9", "10", "11", "15")

    def check(self, ctx: CheckContext) -> Iterable[Finding]:
        for src in ctx.sources:
            yield from self._check_file(ctx, src)

    def _check_file(self, ctx: CheckContext, src: SourceFile) -> Iterable[Finding]:
        # (reference node, enclosing body to search for the twin)
        scopes: list[tuple[ast.AST, list[ast.stmt]]] = []
        for node in src.tree.body:
            if isinstance(node, _DEFS):
                scopes.append((node, src.tree.body))
            elif isinstance(node, ast.ClassDef):
                scopes.extend(
                    (sub, node.body) for sub in node.body if isinstance(sub, _DEFS)
                )

        for node, body in scopes:
            twin = _twin_name(node.name)  # type: ignore[union-attr]
            if twin is None:
                continue
            twin_node = _scope_lookup(body, twin)
            if twin_node is None:
                yield self.finding(
                    src, node,
                    f"{node.name} has no fast twin {twin!r} in the same "
                    f"scope",
                )
                continue
            if isinstance(twin_node, _DEFS):
                ref_args, fast_args = arg_names(node), arg_names(twin_node)
                if ref_args[: len(fast_args)] != fast_args:
                    yield self.finding(
                        src, node,
                        f"{node.name} signature {ref_args} differs from "
                        f"twin {twin}{fast_args} — the parity test can no "
                        f"longer drive both sides identically",
                    )
            if not self._test_names_both(ctx, node.name, twin):
                yield self.finding(
                    src, node,
                    f"no file under tests/ names both {node.name!r} and "
                    f"{twin!r} — the pair has no pinning test",
                )

    @staticmethod
    def _test_names_both(ctx: CheckContext, ref: str, twin: str) -> bool:
        ref_re = re.compile(rf"\b{re.escape(ref)}\b")
        twin_re = re.compile(rf"\b{re.escape(twin)}\b")
        return any(
            ref_re.search(text) and twin_re.search(text)
            for text in ctx.test_texts.values()
        )
