"""The SecAgg server state machine (Fig. 5, server side).

The server is *untrusted*: it routes messages, tracks the per-stage
participant sets U1 ⊇ U2 ⊇ U3 ⊇ U4 ⊇ U5, and finally unmasks the sum

    z = Σ_{u∈U3} y_u − Σ_{u∈U3} p_u + Σ_{u∈U3, v∈U2\\U3} p_{v,u}

by reconstructing dropped clients' mask keys and survivors' self-mask
seeds from Shamir shares.  It learns the aggregate only — the privacy
argument lives in the client's refusal to reveal both secrets of any one
peer.

It also *holds* the aggregate only.  A masked input is folded into the
round's one accumulator the moment it is admitted
(:meth:`SecAggServer.admit_masked`) and is gone: after
MaskedInputCollection the server has Σ y_u, one ``int64[d]``, and no
client's vector — O(d) memory at any cohort size, and nothing of an
individual to leak.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.crypto.dh import DHKeyPair
from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.crypto.suite import Suite
from repro.secagg.graph import masking_graph
from repro.secagg.masking import MaskAccumulator
from repro.secagg.types import (
    AdvertiseKeysMsg,
    MaskedInputMsg,
    ProtocolAbort,
    RoundResult,
    SecAggConfig,
    UnmaskingMsg,
)


class SecAggServer:
    """One round's server state; every primitive is reached through ``suite``."""

    def __init__(
        self,
        config: SecAggConfig,
        pki: Optional[PublicKeyInfrastructure] = None,
        round_index: int = 0,
        suite: Optional[Suite] = None,
    ):
        self.config = config
        self.pki = pki
        self.round_index = round_index
        self.suite = suite or Suite.for_group(config.dh_group)
        self.roster: dict[int, AdvertiseKeysMsg] = {}
        self._s_publics: dict[int, int] = {}  # the roster's s^PK as elements
        self.graph: dict[int, set[int]] = {}
        self.u1: list[int] = []
        self.u2: list[int] = []
        self.u3: list[int] = []
        self.u4: list[int] = []
        self.u5: list[int] = []
        #: Σ y_u over the admitted masked inputs (``None`` until the first).
        self._sum: Optional[MaskAccumulator] = None
        #: u → whether u's masked input was admitted, for every U2
        #: client one arrived from (the first arrival decides).
        self._receipts: dict[int, bool] = {}
        self._consistency_sigs: Optional[dict[int, object]] = None

    # ------------------------------------------------------------------
    def collect_advertise(
        self, messages: dict[int, AdvertiseKeysMsg]
    ) -> dict[int, AdvertiseKeysMsg]:
        """Fix U1 and the masking graph over it; return the ShareKeys
        request, the roster every client of U1 is sent — never one a
        client would refuse for a key of the wrong width.

        The graph is :func:`~repro.secagg.graph.masking_graph` of U1,
        the one each client computes from the same roster, so the
        request carries no neighbourhood.
        """
        if len(messages) < self.config.threshold:
            raise ProtocolAbort(
                f"only {len(messages)} advertisements; threshold "
                f"{self.config.threshold} unmet"
            )
        for u, msg in messages.items():
            try:
                self.suite.ka.decode_public(msg.c_public)
                self._s_publics[u] = self.suite.ka.decode_public(msg.s_public)
            except ValueError as exc:
                raise ProtocolAbort(f"bad public key from {u}: {exc}") from exc
        self.roster = dict(messages)
        self.u1 = sorted(messages)
        self.graph = masking_graph(
            self.u1, self.config.graph_degree, self.config.graph_seed
        )
        return dict(self.roster)

    # ------------------------------------------------------------------
    def route_shares(
        self, outboxes: dict[int, dict[int, bytes]]
    ) -> dict[int, dict[int, bytes]]:
        """Fix U2; deliver each ciphertext to its addressee."""
        senders = [u for u in outboxes if u in self.roster]
        if len(senders) < self.config.threshold:
            raise ProtocolAbort(f"only {len(senders)} share lists; below threshold")
        self.u2 = sorted(senders)
        inboxes: dict[int, dict[int, bytes]] = {u: {} for u in self.u2}
        for sender in self.u2:
            for recipient, blob in outboxes[sender].items():
                if recipient in inboxes:
                    inboxes[recipient][sender] = blob
        return inboxes

    # ------------------------------------------------------------------
    def admit_masked(self, u: int, msg: MaskedInputMsg) -> bool:
        """The one door a masked input enters the sum by; ``True`` iff it did.

        ``msg`` arrived from client ``u`` (the connection it came in on,
        not what it claims).  It is admitted when ``u`` is in U2 and
        nothing arrived from it before, its ``sender`` is ``u``, its
        ``bits`` and ``count`` are this round's, and its stream is
        exactly ``count`` elements with zero pad bits — so every element
        is in the ring by construction.  An admitted input is added
        into the round's one accumulator here and not kept; anything
        else is refused *before* it touches the sum, and its sender is
        left out of U3 — recovered like any client that dropped after
        ShareKeys.

        The accumulator is sized for the most terms the round can still
        fold — |U2| inputs, |U2| self masks, one pairwise mask per edge
        inside U2 — so its headroom guard decides once, here.
        """
        if u not in self.u2 or u in self._receipts:
            return False
        admitted = (
            isinstance(msg, MaskedInputMsg)
            and msg.sender == u
            and msg.bits == self.config.bits
            and msg.count == self.config.dimension
        )
        if admitted:
            if self._sum is None:
                members = set(self.u2)
                edges = sum(len(self.graph.get(v, set()) & members) for v in members)
                self._sum = MaskAccumulator.zeros(
                    self.config.dimension,
                    self.config.modulus,
                    n_terms=1 + 2 * len(members) + edges // 2,
                    prg=self.suite.prg,
                )
            try:
                self._sum.add_packed(msg.packed)
            except ValueError:
                admitted = False
        self._receipts[u] = admitted
        return admitted

    def collect_masked(self) -> list[int]:
        """Fix U3 — the clients whose inputs :meth:`admit_masked` took
        into the sum — and, in a semi-honest round, U4 = U3: there is
        no ConsistencyCheck exchange to narrow it.

        Below threshold the round aborts by name, counting the arrivals
        that were refused.
        """
        good = sorted(u for u, admitted in self._receipts.items() if admitted)
        if len(good) < self.config.threshold:
            malformed = sorted(set(self._receipts) - set(good))
            detail = f" ({len(malformed)} malformed: {malformed})" if malformed else ""
            raise ProtocolAbort(
                f"only {len(good)} masked inputs{detail}; below threshold"
            )
        self.u3 = good
        if not self.config.malicious:
            self.u4 = list(self.u3)
        return list(self.u3)

    # ------------------------------------------------------------------
    def collect_consistency(self, signatures: dict[int, object]) -> list[int]:
        """Fix U4; its signature set goes out with the Unmasking request
        for mutual verification."""
        good = {u: s for u, s in signatures.items() if u in self.u3 and s is not None}
        if len(good) < self.config.threshold:
            raise ProtocolAbort(f"only {len(good)} consistency sigs; below threshold")
        self.u4 = sorted(good)
        self._consistency_sigs = good
        return list(self.u4)

    def unmask_request(self) -> tuple:
        """The Unmasking request, ``SecAggClient.unmask``'s arguments:
        ``(U4, U4's signatures or None, U2 \\ U3, U3)``."""
        return (
            list(self.u4),
            self._consistency_sigs,
            self.dropped_after_masking,
            list(self.u3),
        )

    @property
    def dropped_after_masking(self) -> list[int]:
        """U2 \\ U3 — clients whose pairwise masks must be reconstructed."""
        return sorted(set(self.u2) - set(self.u3))

    # ------------------------------------------------------------------
    def collect_unmask(self, messages: dict[int, UnmaskingMsg]) -> np.ndarray:
        """Fix U5, reconstruct masks, and return the unmasked ring sum.

        The unmasking plane.  The round's entire mask-cancellation sum

            z = Σ_{u∈U3} y_u − Σ_{u∈U3} PRG(b_u) − Σ γ_{v,u}·PRG(s_{v,u})

        is one :class:`MaskAccumulator`: it already holds Σ y_u (every
        admitted input was added as it arrived), and every ``(seed, ±1)``
        term folds into it raw (the pairwise sign γ folds into the sum,
        no mask is ever a vector) before it reduces once — or per term
        when the ring leaves no int64 headroom; the guard, and the
        ``config.workers`` fan-out of the seed folds, are the
        accumulator's.  Secrets are reconstructed one by one, survivors'
        b_u then dropped clients' s^SK, so a failed reconstruction
        aborts naming the first secret short of shares.  The aggregate
        is bit-identical at every ``workers`` setting and to the serial
        one-reduction-per-mask specification (pinned by test).
        """
        good = self._accept_unmask(messages)
        ss = self.suite.ss(self.config.threshold)
        # Survivors' self masks subtract; a dropped u's pairwise mask
        # p_{v,u} = γ·PRG(s_{v,u}) with γ = +1 iff v > u is *subtracted*,
        # so the raw expansion folds with sign −γ.
        terms: list[tuple[bytes, int]] = [
            (
                self._reconstruct(
                    ss,
                    [m.b_shares[u] for m in good.values() if u in m.b_shares],
                    f"self-mask seed of {u}",
                ),
                -1,
            )
            for u in self.u3
        ]
        for u in self.dropped_after_masking:
            sk_bytes = self._reconstruct(
                ss,
                [m.s_sk_shares[u] for m in good.values() if u in m.s_sk_shares],
                f"mask key of {u}",
            )
            pair = DHKeyPair(secret=int.from_bytes(sk_bytes, "big"), public=0)
            survivors = sorted(self.graph.get(u, set()) & set(self.u3))
            seeds = self.suite.ka.agree(pair, [self._s_publics[v] for v in survivors])
            terms.extend((seed, -1 if v > u else 1) for v, seed in zip(survivors, seeds))

        self._sum.fold_seeds(terms, self.config.workers)
        return self._sum.finish()

    # ------------------------------------------------------------------
    def round_result(
        self, aggregate: np.ndarray, result_cls: type = RoundResult, **extra
    ) -> RoundResult:
        """The round's outcome: ``aggregate`` plus the participant sets."""
        return result_cls(
            aggregate=aggregate,
            u1=list(self.u1),
            u2=list(self.u2),
            u3=list(self.u3),
            u4=list(self.u4),
            u5=list(self.u5),
            **extra,
        )

    def _accept_unmask(
        self, messages: dict[int, UnmaskingMsg]
    ) -> dict[int, UnmaskingMsg]:
        """Shared stage-4 validation: fix U5, return the good responses."""
        good = {u: m for u, m in messages.items() if u in self.u4}
        if len(good) < self.config.threshold:
            raise ProtocolAbort(f"only {len(good)} unmask responses; below threshold")
        self.u5 = sorted(good)
        return good

    def _reconstruct(
        self, ss: ShamirSecretSharing, shares: list[Share], what: str
    ) -> bytes:
        try:
            return ss.reconstruct(shares)
        except ValueError as exc:
            raise ProtocolAbort(f"cannot reconstruct {what}: {exc}") from exc
