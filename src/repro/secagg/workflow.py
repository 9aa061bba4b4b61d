"""SecAgg as a declared workflow for the unified round engine.

The Fig.-5 protocol, expressed through the Appendix-D programming
interface: every client stage method becomes a routine-table entry, and
the server state machine becomes a :class:`ProtocolServer` whose
coordination methods narrow each stage to the live participant set with
:class:`repro.engine.Targeted` results.  Dropout is *not* modelled here —
it is injected by wrapping the engine's transport in
:class:`repro.engine.DropoutTransport` with :func:`secagg_stage_of`, the
role the old synchronous ``SecAggDriver`` loop used to play inline.
Neither are bytes counted here: a round on a byte-reporting transport
leaves its measured per-stage traffic in ``engine.trace``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.protocol import ProtocolClient, ProtocolServer
from repro.engine import Targeted
from repro.secagg.client import SecAggClient
from repro.secagg.server import SecAggServer
from repro.secagg.types import (
    RoundResult,
    STAGE_ADVERTISE,
    STAGE_SHARE_KEYS,
    STAGE_MASKED_INPUT,
    STAGE_CONSISTENCY,
    STAGE_UNMASK,
    STAGE_NOISE_REMOVAL,
)

#: Operation name → Fig.-5 stage constant (dropout-injection points).
STAGE_OF_OP = {
    "advertise_keys": STAGE_ADVERTISE,
    "share_keys": STAGE_SHARE_KEYS,
    "masked_input": STAGE_MASKED_INPUT,
    "consistency_check": STAGE_CONSISTENCY,
    "unmask": STAGE_UNMASK,
    "noise_shares": STAGE_NOISE_REMOVAL,
}


def secagg_stage_of(op: str) -> Optional[int]:
    """Stage lookup for :class:`repro.engine.DropoutTransport`."""
    return STAGE_OF_OP.get(op)


def with_dropout(transport, schedule) -> "DropoutTransport":
    """Wrap a transport in SecAgg dropout middleware (``None`` → none)."""
    from repro.engine import DropoutTransport
    from repro.secagg.driver import DropoutSchedule

    return DropoutTransport(
        transport, schedule or DropoutSchedule(), secagg_stage_of
    )


class SecAggWorkflowClient(ProtocolClient):
    """Routine table around one :class:`SecAggClient` and its input."""

    def __init__(self, inner: SecAggClient, update_ring: np.ndarray):
        super().__init__(inner.id)
        self.inner = inner
        self.update_ring = update_ring

    def set_routine(self) -> dict:
        return {
            "advertise_keys": self._advertise_keys,
            "share_keys": self._share_keys,
            "masked_input": self._masked_input,
            "consistency_check": self._consistency_check,
            "unmask": self._unmask,
            "noise_shares": self._noise_shares,
        }

    def _advertise_keys(self, _payload):
        return self.inner.advertise_keys()

    def _share_keys(self, payload):
        return self.inner.share_keys(*payload)  # (roster, neighbors)

    def _masked_input(self, inbox):
        return self.inner.masked_input(inbox, self.update_ring)

    def _consistency_check(self, u3):
        return self.inner.consistency_check(u3)

    def _unmask(self, payload):
        return self.inner.unmask(*payload)  # (u4, signatures, dropped, survivors)

    def _noise_shares(self, labels):
        return self.inner.shares_of_extra_secret(labels)


class SecAggWorkflowServer(ProtocolServer):
    """Declared Fig.-5 workflow around one :class:`SecAggServer`."""

    def __init__(self, inner: SecAggServer):
        self.inner = inner
        self.config = inner.config

    # ------------------------------------------------------------------
    def set_graph_dict(self) -> dict:
        """Fig. 5 as declared operations: eight in a semi-honest round,
        ten in a malicious one — ConsistencyCheck is its bracketed,
        malicious-only exchange."""
        ops = [
            ("advertise_keys", "c-comp", []),
            ("collect_advertise", "s-comp", ["advertise_keys"]),
            ("share_keys", "c-comp", ["collect_advertise"]),
            ("route_shares", "s-comp", ["share_keys"]),
            ("masked_input", "c-comp", ["route_shares"]),
            ("collect_masked", "s-comp", ["masked_input"]),
        ]
        if self.config.malicious:
            ops += [
                ("consistency_check", "c-comp", ["collect_masked"]),
                ("collect_consistency", "s-comp", ["consistency_check"]),
            ]
        unmask_after = ops[-1][0]
        ops += [
            ("unmask", "c-comp", [unmask_after]),
            ("collect_unmask", "s-comp", ["unmask"]),
        ]
        return {op: {"resource": r, "deps": d} for op, r, d in ops}

    # ------------------------------------------------------------------
    # Coordination methods (one per declared s-comp operation)
    # ------------------------------------------------------------------
    def collect_advertise(self, responses: dict) -> Targeted:
        return Targeted(self.inner.collect_advertise(responses))

    def route_shares(self, responses: dict) -> Targeted:
        inboxes = self.inner.route_shares(responses)
        return Targeted({u: inboxes[u] for u in sorted(inboxes)})

    def receive_response(self, op: str, client_id: int, response):
        """The engine's arrival seam: a masked input is folded into the
        sum the moment its frame lands, and what the engine keeps in its
        place is the receipt — admitted or not."""
        if op == "masked_input":
            return self.inner.admit_masked(client_id, response)
        return response

    def collect_masked(self, receipts: dict) -> Targeted:
        u3 = self.inner.collect_masked()
        if not self.config.malicious:
            return self._unmask_requests()
        return Targeted({u: list(u3) for u in u3})

    def collect_consistency(self, responses: dict) -> Targeted:
        self.inner.collect_consistency(responses)
        return self._unmask_requests()

    def _unmask_requests(self) -> Targeted:
        request = self.inner.unmask_request()
        return Targeted({u: request for u in self.inner.u4})

    def collect_unmask(self, responses: dict) -> RoundResult:
        return self.inner.round_result(self.inner.collect_unmask(responses))
