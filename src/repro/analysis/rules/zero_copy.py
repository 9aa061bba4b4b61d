"""zero-copy: the encode hot paths never re-copy payload bytes.

The single-buffer writer discipline (ARCHITECTURE.md, "The hot path";
invariant 9): ``encode_value_into`` lands ndarray data via one
``memoryview`` copy, ``encode_payload_frame`` stamps the header into
the same buffer as the body.  A stray
``.tobytes()`` or a per-byte Python loop quietly reintroduces the
copies the refactor removed — and the parity tests, which compare
*values* not allocations, would never notice.

Inside every ``encode_*``/``fill_*``/``pack_*`` function of ``wire/codecs.py``, ``wire/frame.py`` and ``wire/bitpack.py`` — and inside the encoder of every codec the
registry binds ``in_place`` (the bulk carriers that promise to write
straight into the frame buffer), whichever module it lives in — this
rule flags:

1. any ``.tobytes()`` call (ndarray data must travel as a
   ``memoryview``);
2. ``for … in range(len(…))`` loops — the classic per-element copy
   shape;
3. loops that ``.append()`` a subscripted element — a byte-at-a-time
   copy in Python-land.

Scoping by registration is what keeps the dominant payload in view: the
masked-input encoder lives in ``secagg/codec.py``, and a filename scope
of ``wire/*.py`` once let a four-copy version of it pass.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    CheckContext,
    Finding,
    Rule,
    SourceFile,
    functions_matching,
    register,
    registered_codecs,
)

_SCOPE_FILES = (
    "src/repro/wire/codecs.py",
    "src/repro/wire/frame.py",
    "src/repro/wire/bitpack.py",
)


def _is_hot_encoder(name: str) -> bool:
    return name.startswith(("encode_", "fill_", "pack_"))


def _is_range_len(call: ast.AST) -> bool:
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Call)
        and isinstance(call.args[0].func, ast.Name)
        and call.args[0].func.id == "len"
    )


def _appends_subscript(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and node.args
            and any(
                isinstance(sub, ast.Subscript)
                for sub in ast.walk(node.args[0])
            )
        ):
            return True
    return False


@register
class ZeroCopyRule(Rule):
    id = "zero-copy"
    description = (
        "no .tobytes() and no per-byte loops inside the "
        "encode paths of wire/codecs.py, wire/frame.py, wire/bitpack.py "
        "and every codec registered in_place"
    )
    invariants = ("6", "9", "12")

    def check(self, ctx: CheckContext) -> Iterable[Finding]:
        for src in ctx.sources:
            if src.rel not in _SCOPE_FILES:
                continue
            for fn in functions_matching(src.tree, _is_hot_encoder):
                yield from self._check_encoder(src, fn)
        for codec in registered_codecs(ctx):
            if not codec.in_place or codec.rel in _SCOPE_FILES:
                continue
            src = ctx.source(codec.rel)
            for fn in functions_matching(
                src.tree, lambda name: name == codec.encoder
            ):
                yield from self._check_encoder(src, fn)

    def _check_encoder(self, src: SourceFile, fn: ast.AST) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "tobytes"
            ):
                yield self.finding(
                    src, node,
                    f".tobytes() in encode hot path {fn.name} — land the "
                    f"data through a memoryview into the output buffer",
                )
            elif isinstance(node, ast.For):
                if _is_range_len(node.iter):
                    yield self.finding(
                        src, node,
                        f"range(len(...)) loop in encode hot path "
                        f"{fn.name} — a per-element Python copy",
                    )
                elif _appends_subscript(node):
                    yield self.finding(
                        src, node,
                        f"loop in encode hot path {fn.name} appends "
                        f"subscripted elements — a byte-at-a-time copy",
                    )
