"""determinism: traced paths draw randomness through ``derive_rng``.

Executed traces must be deterministic functions of the master seed
(ARCHITECTURE.md invariants 2a, 8, 10): every rng in ``engine/``,
``sim/``, ``fleet/``, and ``crypto/`` is derived via
:func:`repro.utils.rng.derive_rng`, and virtual time — never the wall
clock — stamps traced events.  Flagged inside those packages:

1. any call through the stdlib ``random`` module (``random.random()``,
   ``random.shuffle()``, …) — a hidden global-state stream;
2. ``np.random.*`` module-level calls (the legacy global generator);
   ``np.random.default_rng(seed)`` is the sanctioned construction, but
   *unseeded* ``default_rng()`` is still a finding;
3. wall-clock reads (``time.time()``, ``datetime.now()``,
   ``datetime.utcnow()``) — traced timing flows from the virtual-time
   arbiter, not the host clock.

Anywhere under ``src/repro`` but the entropy module, so is any read of
the OS CSPRNG (importing ``secrets``, or calling a ``secrets`` function,
``os.urandom`` or ``random.SystemRandom`` under any import alias): key
material comes from a suite's ``EntropySource``, so a seeded round
replays (invariant 20).
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

_SCOPE_DIRS = (
    "src/repro/engine/",
    "src/repro/sim/",
    "src/repro/fleet/",
    "src/repro/crypto/",
)

#: The one module that may read the OS CSPRNG.
_ENTROPY_MODULE = "src/repro/crypto/entropy.py"
_OS_ENTROPY = ("os.urandom", "random.SystemRandom")

_WALL_CLOCK = {"time.time", "datetime.now", "datetime.utcnow",
               "datetime.datetime.now", "datetime.datetime.utcnow"}

#: ``np.random`` / ``numpy.random`` attribute chains.
_NP_RANDOM_PREFIXES = ("np.random.", "numpy.random.")


def _in_scope(rel: str) -> bool:
    return any(rel.startswith(d) for d in _SCOPE_DIRS)


@register
class DeterminismRule(Rule):
    id = "determinism"
    description = (
        "engine/sim/fleet/crypto draw randomness via derive_rng — no "
        "stdlib random, no global np.random, no unseeded default_rng, "
        "no wall-clock reads in traced paths; only the entropy module "
        "reads the OS CSPRNG"
    )
    invariants = ("2a", "8", "10", "20")

    def check(self, ctx: CheckContext) -> Iterable[Finding]:
        for src in ctx.sources:
            if src.rel.startswith("src/repro/") and src.rel != _ENTROPY_MODULE:
                yield from self._check_os_entropy(src)
            if not _in_scope(src.rel):
                continue
            imports_random = any(
                isinstance(node, ast.Import)
                and any(alias.name == "random" for alias in node.names)
                for node in ast.walk(src.tree)
            )
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                yield from self._check_call(src, node, name, imports_random)

    def _check_os_entropy(self, src: SourceFile) -> Iterable[Finding]:
        # Local name → the dotted name it was imported as, so an alias
        # (``import os as o``, ``from os import urandom``) resolves.
        imported: dict[str, str] = {}
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname, a.name) for a in node.names if a.asname)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        for node in ast.walk(src.tree):
            name = dotted_name(node.func) if isinstance(node, ast.Call) else None
            if name:
                head, dot, rest = name.partition(".")
                name = imported.get(head, head) + dot + rest
            if (isinstance(node, ast.ImportFrom) and node.module == "secrets") or (
                isinstance(node, ast.Import) and any(a.name == "secrets" for a in node.names)
            ):
                name = "secrets.<import>"
            if name and (name.startswith("secrets.") or name in _OS_ENTROPY):
                yield self.finding(src, node, f"{name} reads the OS CSPRNG outside "
                                   f"crypto/entropy.py — draw from an EntropySource")

    def _check_call(
        self, src: SourceFile, call: ast.Call, name: str, imports_random: bool
    ) -> Iterable[Finding]:
        if name == "random.SystemRandom":
            return  # _check_os_entropy's finding
        if imports_random and name.startswith("random."):
            yield self.finding(
                src, call,
                f"{name}() uses the stdlib global random stream — derive "
                f"a generator with utils.rng.derive_rng instead",
            )
            return
        if name in _WALL_CLOCK:
            yield self.finding(
                src, call,
                f"{name}() reads the wall clock in a traced path — timing "
                f"must come from the virtual-time arbiter",
            )
            return
        for prefix in _NP_RANDOM_PREFIXES:
            if not name.startswith(prefix):
                continue
            fn = name[len(prefix):]
            if fn == "default_rng":
                if not call.args and not call.keywords:
                    yield self.finding(
                        src, call,
                        "np.random.default_rng() without a seed is "
                        "nondeterministic — pass a derive_rng-derived seed",
                    )
            elif fn not in ("Generator", "SeedSequence", "BitGenerator",
                            "PCG64", "Philox"):
                yield self.finding(
                    src, call,
                    f"np.random.{fn}() draws from the global generator — "
                    f"use a derive_rng stream instead",
                )
            return
