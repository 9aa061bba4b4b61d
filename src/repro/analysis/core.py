"""Rule engine: findings, registry, source loading, suppressions.

A rule sees the whole checked tree at once (:class:`CheckContext`), not
one file at a time — several rules are cross-file by nature (the
parity-twin rule cross-checks ``tests/``).  Every rule yields
:class:`Finding` values; the runner applies inline suppressions and the
committed baseline afterwards, so rules stay pure.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Inline suppression: a comment reading ``repro: allow[rule-id] reason``
#: on the finding's line or the line directly above it.  The reason
#: string is mandatory; an allow without one is itself a finding.
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rule>[^\]]*)\]\s*(?P<reason>.*)$"
)

#: Rule id for the checker's own meta-findings (malformed suppressions).
SUPPRESSION_RULE_ID = "suppression"


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: where, which rule, and what is wrong.

    ``file`` is repo-relative (posix separators) so findings — and the
    baseline keyed on them — are stable across checkouts.  Baseline
    matching ignores ``line``: line numbers drift with unrelated edits.
    """

    file: str
    line: int
    rule: str
    message: str

    def key(self) -> tuple[str, str, str]:
        """The line-independent identity used for baseline matching."""
        return (self.rule, self.file, self.message)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    file: str
    line: int
    rule: str
    reason: str


@dataclass
class SourceFile:
    """One checked file, parsed once and shared by every rule."""

    path: Path
    rel: str
    text: str
    tree: ast.Module

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(root).as_posix()
        return cls(path=path, rel=rel, text=text, tree=ast.parse(text, filename=rel))


@dataclass
class CheckContext:
    """Everything a rule may consult."""

    root: Path
    sources: list[SourceFile]
    #: Raw text of every ``tests/**/*.py`` file, keyed by relative path —
    #: the parity-twin rule greps these for pinning tests.
    test_texts: dict[str, str] = field(default_factory=dict)

    def source(self, rel: str) -> SourceFile | None:
        for src in self.sources:
            if src.rel == rel:
                return src
        return None


class Rule:
    """Base class: subclasses set ``id``/``description``/``invariants``
    and implement :meth:`check`.

    ``invariants`` names the ARCHITECTURE.md invariant labels ("1"…"11",
    "2a") the rule mechanically enforces — the invariant map meta-test
    keeps that claim honest.
    """

    id: str = ""
    description: str = ""
    invariants: tuple[str, ...] = ()

    def check(self, ctx: CheckContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, src: SourceFile, node: ast.AST | int, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(file=src.rel, line=line, rule=self.id, message=message)


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register one rule."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> dict[str, Rule]:
    """The registry, importing the rule modules on first use."""
    import repro.analysis.rules  # noqa: F401  — registration side effect

    return dict(_REGISTRY)


def known_rule_ids() -> set[str]:
    return set(all_rules()) | {SUPPRESSION_RULE_ID}


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def scan_suppressions(
    src: SourceFile,
) -> tuple[list[Suppression], list[Finding]]:
    """Parse every allow-comment in one file.

    Returns the valid suppressions plus meta-findings for malformed
    ones: a missing reason string or an unknown rule id is itself a
    finding (rule id :data:`SUPPRESSION_RULE_ID`) — a suppression that
    cannot say *why* is exactly the silent drift the checker exists to
    stop.
    """
    suppressions: list[Suppression] = []
    findings: list[Finding] = []
    valid = known_rule_ids()
    # Tokenize so only *real* comments count — a docstring quoting the
    # allow-comment grammar (this package documents itself) is prose,
    # not a suppression.
    tokens = tokenize.generate_tokens(io.StringIO(src.text).readline)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        lineno = tok.start[0]
        m = _ALLOW_RE.search(tok.string)
        if m is None:
            continue
        rule = m.group("rule").strip()
        reason = m.group("reason").strip()
        if rule not in valid:
            findings.append(Finding(
                file=src.rel, line=lineno, rule=SUPPRESSION_RULE_ID,
                message=f"suppression names unknown rule {rule!r}",
            ))
            continue
        if not reason:
            findings.append(Finding(
                file=src.rel, line=lineno, rule=SUPPRESSION_RULE_ID,
                message=f"suppression of {rule!r} has no reason string",
            ))
            continue
        suppressions.append(
            Suppression(file=src.rel, line=lineno, rule=rule, reason=reason)
        )
    return suppressions, findings


def apply_suppressions(
    findings: Iterable[Finding], suppressions: Iterable[Suppression]
) -> tuple[list[Finding], int]:
    """Drop findings an allow-comment covers (same line or line above).

    Returns ``(kept, suppressed_count)``.  Meta-findings about the
    suppression comments themselves are never suppressible.
    """
    covered: set[tuple[str, str, int]] = set()
    for s in suppressions:
        covered.add((s.rule, s.file, s.line))
        covered.add((s.rule, s.file, s.line + 1))
    kept: list[Finding] = []
    suppressed = 0
    for f in findings:
        if f.rule != SUPPRESSION_RULE_ID and (f.rule, f.file, f.line) in covered:
            suppressed += 1
            continue
        kept.append(f)
    return kept, suppressed


# ---------------------------------------------------------------------------
# Shared AST helpers used by several rules
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def target_path(node: ast.AST) -> str | None:
    """A stable key for an assignment target: ``x`` or ``self._acc`` or
    ``x[...]`` reduced to its base path (subscripts are collapsed —
    ``acc[i] += v`` still accumulates into ``acc``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return dotted_name(node)


def contains_pow_2_63(node: ast.AST) -> bool:
    """True if the expression mentions ``2**63`` (or its literal value)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and sub.value == 2**63:
            return True
        if (
            isinstance(sub, ast.BinOp)
            and isinstance(sub.op, ast.Pow)
            and isinstance(sub.left, ast.Constant) and sub.left.value == 2
            and isinstance(sub.right, ast.Constant) and sub.right.value == 63
        ):
            return True
    return False


def arg_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """The ordered argument-name tuple two twins must share."""
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args]
    if a.vararg:
        names.append("*" + a.vararg.arg)
    names.extend(x.arg for x in a.kwonlyargs)
    if a.kwarg:
        names.append("**" + a.kwarg.arg)
    return tuple(names)


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def functions_matching(
    tree: ast.Module, pred: Callable[[str], bool]
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """All (possibly nested) functions whose name satisfies ``pred``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and pred(
            node.name
        ):
            yield node


# ---------------------------------------------------------------------------
# The codec registry, read from source
# ---------------------------------------------------------------------------

#: The module whose ``register_codec(...)`` calls define the wire contract.
CODEC_REGISTRY_FILE = "src/repro/wire/codecs.py"


@dataclass(frozen=True)
class RegisteredCodec:
    """One ``register_codec(cls, tag, owner.encode, owner.decode, …)``
    call whose body functions live in another module of the tree —
    ``owner`` an imported module or a class imported from one."""

    rel: str
    encoder: str
    decoder: str
    in_place: bool


def registered_codecs(ctx: CheckContext) -> list[RegisteredCodec]:
    """Typed codecs the registry module binds from other modules.

    The wire rules scope by *registration*, not by filename: a codec
    body lives wherever its message type does, and what makes it wire
    code is the ``register_codec`` call naming it.  Resolves
    ``owner.function`` arguments through the registry module's
    ``from package import owner`` imports: ``owner`` is a module
    (``package/owner.py``) or a class of the module ``package.py``.
    """
    registry = ctx.source(CODEC_REGISTRY_FILE)
    if registry is None:
        return []
    modules: dict[str, str] = {}
    for node in ast.walk(registry.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            package = "src/" + node.module.replace(".", "/")
            for alias in node.names:
                as_module = f"{package}/{alias.name}.py"
                modules[alias.asname or alias.name] = (
                    as_module if ctx.source(as_module) else package + ".py"
                )
    found = []
    for call in iter_calls(registry.tree):
        if dotted_name(call.func) != "register_codec" or len(call.args) < 4:
            continue
        encoder, decoder = dotted_name(call.args[2]), dotted_name(call.args[3])
        if not encoder or not decoder or "." not in encoder or "." not in decoder:
            continue
        alias, encode_name = encoder.rsplit(".", 1)
        decode_alias, decode_name = decoder.rsplit(".", 1)
        rel = modules.get(alias)
        if rel is None or decode_alias != alias or ctx.source(rel) is None:
            continue
        in_place = any(
            kw.arg == "in_place"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )
        found.append(RegisteredCodec(rel, encode_name, decode_name, in_place))
    return found
