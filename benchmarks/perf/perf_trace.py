"""Wall-clock spans around the program's layers, applied from outside.

The program (``src/repro``) carries no instrumentation, so the traced
pass wraps the layers' public callables from here: every entry of
:data:`WRAPS` names a span, a module and a qualified name, and
:meth:`Tracer.install` rebinds that attribute to a recording wrapper —
methods on their class, module-level functions in their module *and in
every loaded* ``repro.*`` *module that imported them by name*.  An entry
that no longer resolves is listed in :attr:`Tracer.unresolved` and its
metrics read 0; it never raises, so a later change that deletes a layer
does not break the benchmark.

A span is ``[name, start, end, parent, round, attr]``.  The current
span lives in a :mod:`contextvars` variable: coroutines and the tasks
they spawn keep separate stacks, so a client handler running in a
dialer task is parented to the engine round that spawned the task.  The
process has one thread and only the root and the engine round are
``async`` spans, so sibling spans never overlap and a span's *self time*
is its duration minus its direct children's.  Self times of all spans
under one root therefore sum to that root's duration: the layer table
adds up to the round's wall clock by construction, and whatever no wrap
claims lands in its nearest wrapped ancestor — ultimately
``engine.self`` (event loop, arbiter, listener, socket I/O).

Metric names derive from span names: ``<span>_s`` is the span's self
time per traced round; counters carry their full metric name.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perf_trace_current_span", default=None
)

#: Root span of a plain SecAgg round (there is no session above the engine).
ENGINE_SPAN = "engine.self"
#: Root span of a session round; the engine round nests inside it.
SESSION_SPAN = "core.session.self"
CLIENT_HANDLE_SPAN = "api.client_handle_self"
FLEET_BUILD_SPAN = "fleet.build"

#: Server operations with a row of their own; the rest (roster
#: broadcast, consistency bookkeeping, XNoise's remove_noise shell)
#: share ``secagg.server.other``.
_SERVER_OP_ROWS = ("route_shares", "collect_masked", "collect_unmask")
SERVER_SPAN_PREFIX = "secagg.server."

#: Workflow stage → the server operation whose completion closes it.
STAGE_CLOSERS = (
    ("advertise_keys", "collect_advertise"),
    ("share_keys", "route_shares"),
    ("masked_input", "collect_masked"),
    ("unmask", "collect_unmask"),
    ("noise_removal", "remove_noise"),
)


def _server_span(op: str) -> str:
    return SERVER_SPAN_PREFIX + (op if op in _SERVER_OP_ROWS else "other")


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Wrap:
    """One wrapped callable.

    ``count(args, kwargs, result)`` returns ``{metric: increment}``;
    ``attr(args, kwargs)`` a label stored on the span.  ``returns_op``
    marks the one factory seam: the callable returns a server-operation
    method, and it is that method which gets the span (named after the
    operation).
    """

    span: str
    module: str
    qualname: str
    count: Optional[Callable[[tuple, dict, Any], dict]] = None
    attr: Optional[Callable[[tuple, dict], Any]] = None
    returns_op: bool = False


def _calls(metric: str) -> Callable[[tuple, dict, Any], dict]:
    return lambda args, kwargs, result: {metric: 1}


WRAPS: tuple[Wrap, ...] = (
    # crypto
    Wrap("crypto.dh.agree", "repro.crypto.dh", "KeyAgreement.agree",
         count=_calls("crypto.dh.agree_calls")),
    Wrap("crypto.dh.generate", "repro.crypto.dh", "KeyAgreement.generate"),
    Wrap("crypto.shamir.share", "repro.crypto.shamir", "ShamirSecretSharing.share",
         count=_calls("crypto.shamir.share_calls")),
    Wrap("crypto.shamir.reconstruct", "repro.crypto.shamir",
         "ShamirSecretSharing.reconstruct",
         count=_calls("crypto.shamir.reconstruct_secrets")),
    Wrap("crypto.shamir.reconstruct", "repro.crypto.shamir",
         "ShamirSecretSharing.reconstruct_many",
         count=lambda a, k, r: {"crypto.shamir.reconstruct_secrets": len(r)}),
    Wrap("crypto.ae.encrypt", "repro.crypto.ae", "AuthenticatedEncryption.encrypt",
         count=_calls("crypto.ae.calls")),
    Wrap("crypto.ae.decrypt", "repro.crypto.ae", "AuthenticatedEncryption.decrypt",
         count=_calls("crypto.ae.calls")),
    Wrap("crypto.prg.expand", "repro.crypto.prg", "expand_uniform",
         count=lambda a, k, r: {
             "crypto.prg.expand_calls": 1,
             "crypto.prg.expand_elements": _arg(a, k, 1, "length"),
         }),
    # The batch entry point expands through expand_uniform (counted
    # there); its own span only collects the per-batch allocation.
    Wrap("crypto.prg.expand", "repro.crypto.prg", "expand_uniform_batch"),
    # secagg
    Wrap("secagg.client.advertise_keys", "repro.secagg.client",
         "SecAggClient.advertise_keys"),
    Wrap("secagg.client.share_keys", "repro.secagg.client", "SecAggClient.share_keys"),
    Wrap("secagg.client.masked_input", "repro.secagg.client",
         "SecAggClient.masked_input"),
    Wrap("secagg.client.unmask", "repro.secagg.client", "SecAggClient.unmask"),
    Wrap(SERVER_SPAN_PREFIX + "op", "repro.api.protocol",
         "ProtocolServer.operation_method", returns_op=True),
    Wrap("secagg.codec.encode_masked_input", "repro.secagg.codec",
         "encode_masked_input"),
    Wrap("secagg.codec.decode_masked_input", "repro.secagg.codec",
         "decode_masked_input"),
    # xnoise
    Wrap("xnoise.noise_from_seed", "repro.xnoise.protocol", "skellam_noise_from_seed",
         count=lambda a, k, r: {
             "xnoise.noise_from_seed_calls": 1,
             "xnoise.noise_elements": _arg(a, k, 2, "dimension"),
         }),
    Wrap("xnoise.client.masked_input", "repro.xnoise.protocol",
         "XNoiseClient.masked_input"),
    Wrap("xnoise.server.remove_excess_noise", "repro.xnoise.protocol",
         "XNoiseServer.remove_excess_noise",
         count=lambda a, k, r: {"xnoise.server.removed_components": r[1]}),
    # dp
    Wrap("dp.skellam.encode_signal", "repro.dp.skellam",
         "SkellamMechanism.encode_signal"),
    Wrap("dp.skellam.decode", "repro.dp.skellam", "SkellamMechanism.decode"),
    Wrap("dp.accountant.epsilon", "repro.dp.accountant", "RdpAccountant.epsilon"),
    # fl
    Wrap("fl.local_train", "repro.fl.client", "LocalTrainer.compute_update",
         count=_calls("fl.local_train_calls")),
    Wrap("fl.evaluate", "repro.fl.server", "FedAvgServer.evaluate"),
    Wrap("fl.apply_update", "repro.fl.server", "FedAvgServer.apply_update_sum"),
    # wire
    Wrap("wire.encode_frame", "repro.wire.codecs", "encode_payload_frame",
         count=lambda a, k, r: {"wire.frames": 1, "wire.encoded_bytes": len(r)}),
    Wrap("wire.decode_payload", "repro.wire.codecs", "decode_payload"),
    # api
    Wrap(CLIENT_HANDLE_SPAN, "repro.api.protocol", "ProtocolClient.handle",
         attr=lambda a, k: _arg(a, k, 1, "request")),
    # engine
    Wrap(ENGINE_SPAN, "repro.engine.core", "RoundEngine.run_round"),
    Wrap(ENGINE_SPAN, "repro.engine.core", "RoundEngine.run_chunked_round"),
    # fleet (set-up only: runs before any round, so never a table row)
    Wrap(FLEET_BUILD_SPAN, "repro.fleet.fleet", "Fleet.build"),
)

#: Every span name whose self time is a row of the layer table.
TABLE_SPANS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [w.span for w in WRAPS if not w.returns_op and w.span != FLEET_BUILD_SPAN]
        + [_server_span(op) for op in _SERVER_OP_ROWS]
        + [_server_span("other"), SESSION_SPAN]
    )
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Wrappers call straight through while this is False, so one
        #: process can alternate traced and untraced rounds.
        self.enabled = False
        self.round_id: Optional[int] = None
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.unresolved: list[str] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str, attr: Any = None):
        span = [name, 0.0, 0.0, _CURRENT.get(), self.round_id, attr]
        token = _CURRENT.set(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span, token

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span by hand (the harness's round roots)."""
        if not self.enabled:
            yield
            return
        span, token = self._open(name)
        try:
            yield
        finally:
            span[2] = perf_counter()
            _CURRENT.reset(token)

    def _count(self, increments: dict) -> None:
        for metric, value in increments.items():
            self.counters[metric] = self.counters.get(metric, 0) + value

    def _traced(self, fn: Callable, name: str, count=None, attr=None) -> Callable:
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not self.enabled:
                    return await fn(*args, **kwargs)
                span, token = self._open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    _CURRENT.reset(token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span, token = self._open(name, attr(args, kwargs) if attr else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                _CURRENT.reset(token)
            if count is not None:
                self._count(count(args, kwargs, result))
            return result

        return traced

    def _traced_op_factory(self, fn: Callable) -> Callable:
        """``operation_method(op)`` → the method it returns, in a span."""

        @functools.wraps(fn)
        def operation_method(server, op):
            method = fn(server, op)
            if not self.enabled:
                return method
            return self._traced(method, _server_span(op), attr=lambda a, k: op)

        return operation_method

    # -- installation ----------------------------------------------------
    def install(self, wraps: tuple[Wrap, ...] = WRAPS) -> None:
        for wrap in wraps:
            try:
                self._install_one(wrap)
            except (ImportError, AttributeError):
                self.unresolved.append(f"{wrap.module}:{wrap.qualname}")

    def _install_one(self, wrap: Wrap) -> None:
        module = importlib.import_module(wrap.module)
        *owners, attr = wrap.qualname.split(".")
        owner: Any = module
        for part in owners:
            owner = getattr(owner, part)
        original = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        if wrap.returns_op:
            replacement: Any = self._traced_op_factory(original)
        elif isinstance(original, classmethod):
            replacement = classmethod(self._traced(original.__func__, wrap.span))
        else:
            replacement = self._traced(original, wrap.span, wrap.count, wrap.attr)
        setattr(owner, attr, replacement)
        if owner is module:
            # ``from module import name`` copies: rebind every one.
            for name, other in list(sys.modules.items()):
                if (
                    other is not module
                    and name.startswith("repro")
                    and vars(other).get(attr) is original
                ):
                    setattr(other, attr, replacement)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span (duration minus direct children)."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                own[parent] -= span[2] - span[1]
        return own

    def layer_table(self, round_ids: set[int]) -> dict[str, float]:
        """``{span name: self seconds}`` summed over the given rounds."""
        table: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span[4] in round_ids:
                table[span[0]] = table.get(span[0], 0.0) + own
        return table

    def inclusive(
        self, round_ids: Optional[set[int]], select: Callable[[list], bool]
    ) -> float:
        """Summed durations of the selected spans (``None``: set-up spans)."""
        return sum(
            span[2] - span[1]
            for span in self.spans
            if select(span)
            and (span[4] is None if round_ids is None else span[4] in round_ids)
        )

    def stage_walls(self, round_ids: set[int]) -> dict[str, float]:
        """Wall clock between successive stage-closing server operations.

        Per round: the clock starts when the engine round starts; a
        stage ends when its closing operation last completes (chunked
        rounds close every stage once per chunk).  A stage the workflow
        does not have contributes 0.
        """
        totals = {stage: 0.0 for stage, _ in STAGE_CLOSERS}
        for rid in round_ids:
            spans = [s for s in self.spans if s[4] == rid]
            starts = [s[1] for s in spans if s[0] == ENGINE_SPAN]
            if not starts:
                continue
            previous = min(starts)
            for stage, closer in STAGE_CLOSERS:
                ends = [
                    s[2] for s in spans
                    if s[0].startswith(SERVER_SPAN_PREFIX) and s[5] == closer
                ]
                if ends:
                    totals[stage] += max(ends) - previous
                    previous = max(ends)
        return totals

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, rid, attr) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "round": rid, "attr": attr,
                }))
                handle.write("\n")
