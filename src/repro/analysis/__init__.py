"""AST-based invariant checker for this repository's own source.

The codebase rests on the invariants documented in ARCHITECTURE.md
("Invariants the test suite pins"); some have a *shape* a parser can
see: every deferred-reduction accumulator carries the
``n_terms * (modulus - 1) < 2**63`` headroom guard, every wire decoder
fails loudly with ``ValueError``, the encode hot paths never re-copy
payload bytes, coroutines never block, and every traced path draws
randomness through :func:`repro.utils.rng.derive_rng`.

``python -m repro.cli check`` runs a rule engine over ``src/repro`` and
mechanically enforces the *shape* of that discipline:

- :mod:`repro.analysis.core` — ``Finding``, the rule registry, source
  loading, and inline suppressions
  (``# repro: allow[rule-id] reason`` — the reason is mandatory);
- :mod:`repro.analysis.rules` — one module per rule (headroom-guard,
  strict-decoder, async-hygiene, determinism, zero-copy);
- :mod:`repro.analysis.runner` — orchestration and text/JSON output;
- :mod:`repro.analysis.invariants` — the invariant → rule/test map
  asserted by ``tests/analysis/test_invariant_map.py``.

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from repro.analysis.core import Finding, Rule, all_rules, register
from repro.analysis.runner import (
    CheckResult,
    default_root,
    render_json,
    render_text,
    run_check,
)

__all__ = [
    "CheckResult",
    "Finding",
    "Rule",
    "all_rules",
    "default_root",
    "register",
    "render_json",
    "render_text",
    "run_check",
]
