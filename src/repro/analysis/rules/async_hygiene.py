"""async-hygiene: the engine's event loop never blocks or leaks tasks.

The engine (``repro/engine/``) is the one async substrate every round
runs through, and the wire layer (``repro/wire/``) holds the coroutines
it awaits on every socket — the stream readers and the link;
a blocking call inside any of them stalls every concurrent client, and
a fire-and-forget task is lost to cancellation and exception
reporting.  Two checks over ``async def`` bodies:

1. no call to a known blocking API (``time.sleep``, ``subprocess.*``,
   ``os.system``, ``os.popen``, ``socket.create_connection``,
   ``urllib.request.urlopen``, builtin ``open``/``input``) — the async
   counterparts exist for all of them;
2. every ``create_task`` / ``ensure_future`` result is consumed —
   assigned, awaited, returned, or passed onward — never discarded as a
   bare expression statement, where the task object (and its eventual
   exception) is dropped on the floor.
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
)

_SCOPE_DIRS = ("src/repro/engine/", "src/repro/wire/")

_BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "socket.create_connection",
    "urllib.request.urlopen",
}
_BLOCKING_PREFIXES = ("subprocess.",)
_BLOCKING_BUILTINS = {"open", "input"}

_SPAWN_NAMES = {"create_task", "ensure_future"}


@register
class AsyncHygieneRule(Rule):
    id = "async-hygiene"
    description = (
        "no blocking calls inside engine coroutines; every "
        "create_task/ensure_future result is stored, awaited, or returned"
    )
    invariants = ("2a",)

    def check(self, ctx: CheckContext) -> Iterable[Finding]:
        for src in ctx.sources:
            if not src.rel.startswith(_SCOPE_DIRS):
                continue
            for node in ast.walk(src.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    yield from self._check_coroutine(src, node)
            yield from self._check_spawns(src)

    def _check_coroutine(
        self, src: SourceFile, fn: ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if (
                name in _BLOCKING_CALLS
                or name.startswith(_BLOCKING_PREFIXES)
                or name in _BLOCKING_BUILTINS
            ):
                yield self.finding(
                    src, node,
                    f"blocking call {name}() inside async def {fn.name} — "
                    f"this stalls the whole event loop",
                )

    def _check_spawns(self, src: SourceFile) -> Iterable[Finding]:
        """Spawn results must be consumed wherever they appear (the rule
        is cheap enough to enforce module-wide, sync helpers included)."""
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            name = dotted_name(call.func)
            if name is not None and name.rsplit(".", 1)[-1] in _SPAWN_NAMES:
                yield self.finding(
                    src, node,
                    f"{name}(...) result is discarded — store, await, or "
                    f"cancel the task so its exceptions cannot vanish",
                )
