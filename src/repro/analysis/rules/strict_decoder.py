"""strict-decoder: wire decoders fail loudly with ``ValueError``.

The wire contract (ARCHITECTURE.md, "The wire layer") is that decoding
is strict and total — truncation, trailing garbage, wrong versions,
unknown tags all *raise*, never misparse, hang, or quietly return
nothing.  For every ``decode_*``/``unpack_*`` function in
``repro/wire/`` and in every module the codec registry binds a decoder
from — scoped by registration, not by filename — and for each bound
decoder itself, whatever its name (``Share.from_bytes``,
``WireRecord.from_bytes``), this rule requires:

1. no bare ``except:`` anywhere in the function;
2. no ``except Exception``/``BaseException`` handler that swallows (a
   handler must ``raise`` — re-wrapping into ``ValueError`` is the
   sanctioned idiom);
3. no silent ``return None`` (explicit or bare ``return``);
4. the function raises a ``ValueError`` (or a subclass such as
   ``CodecError``) on some path — directly, or via another function in
   the same module that does (transitive closure over module-local
   calls, so ``decode_payload`` may delegate its failures to
   ``decode_whole_value``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    CheckContext,
    Finding,
    Rule,
    SourceFile,
    dotted_name,
    register,
    registered_codecs,
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_SCOPE_DIRS = ("src/repro/wire/",)

#: Exception names accepted as the ValueError family even without a
#: local ClassDef (module-local subclasses are discovered from the AST);
#: ``CodecError`` is the wire layer's own subclass, imported by the
#: registered codec modules.
_VALUE_ERROR_NAMES = {"ValueError", "CodecError"}

_DECODER_PREFIXES = ("decode_", "unpack_")


def _in_scope(rel: str) -> bool:
    return any(rel.startswith(d) for d in _SCOPE_DIRS)


def _value_error_classes(tree: ast.Module) -> set[str]:
    """Module-local exception classes rooted at ``ValueError``."""
    names = set(_VALUE_ERROR_NAMES)
    changed = True
    while changed:
        changed = False
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name in names:
                continue
            bases = {dotted_name(b) for b in node.bases}
            if bases & names:
                names.add(node.name)
                changed = True
    return names


def _raises_value_error(fn: ast.AST, ve_names: set[str]) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Raise):
            continue
        if node.exc is None:  # bare re-raise inside a handler
            return True
        exc = node.exc
        name = dotted_name(exc.func if isinstance(exc, ast.Call) else exc)
        if name is not None and name.rsplit(".", 1)[-1] in ve_names:
            return True
    return False


def _called_local_names(fn: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None:
                names.add(name.rsplit(".", 1)[-1])
    return names


@register
class StrictDecoderRule(Rule):
    id = "strict-decoder"
    description = (
        "every decode_*/unpack_* in repro/wire/ and the modules of "
        "registered codecs, and every registered decoder, raises "
        "ValueError on malformed input — no bare except, no swallowing "
        "handler, no silent None return"
    )
    invariants = ("5", "6", "12")

    def check(self, ctx: CheckContext) -> Iterable[Finding]:
        bound: dict[str, set[str]] = {}
        for codec in registered_codecs(ctx):
            bound.setdefault(codec.rel, set()).add(codec.decoder)
        for src in ctx.sources:
            if _in_scope(src.rel) or src.rel in bound:
                yield from self._check_module(src, bound.get(src.rel, set()))

    def _check_module(
        self, src: SourceFile, bound_decoders: set[str]
    ) -> Iterable[Finding]:
        ve_names = _value_error_classes(src.tree)
        module_fns = {
            node.name: node
            for node in ast.walk(src.tree)
            if isinstance(node, _DEFS)
        }
        # Transitive closure: which module functions can raise the family?
        raising = {
            name for name, fn in module_fns.items()
            if _raises_value_error(fn, ve_names)
        }
        changed = True
        while changed:
            changed = False
            for name, fn in module_fns.items():
                if name in raising:
                    continue
                if _called_local_names(fn) & raising:
                    raising.add(name)
                    changed = True

        for name, fn in module_fns.items():
            if not name.startswith(_DECODER_PREFIXES) and name not in bound_decoders:
                continue
            yield from self._check_decoder(src, fn, name in raising)

    def _check_decoder(
        self, src: SourceFile, fn: ast.AST, can_raise: bool
    ) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield self.finding(
                        src, node,
                        f"{fn.name} has a bare except: — malformed input "
                        f"must raise, not be swallowed",
                    )
                    continue
                caught = dotted_name(node.type)
                if caught in ("Exception", "BaseException") and not any(
                    isinstance(sub, ast.Raise) for sub in ast.walk(node)
                ):
                    yield self.finding(
                        src, node,
                        f"{fn.name} catches {caught} without re-raising — "
                        f"decode failures must surface as ValueError",
                    )
            elif isinstance(node, ast.Return):
                if node.value is None or (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is None
                ):
                    yield self.finding(
                        src, node,
                        f"{fn.name} returns None — a decoder either parses "
                        f"or raises, it never half-answers",
                    )
        if not can_raise:
            yield self.finding(
                src, fn,
                f"{fn.name} never raises ValueError (directly or via a "
                f"module-local helper) — a total decoder must fail loudly "
                f"on malformed input",
            )
