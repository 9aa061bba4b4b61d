"""The SecAgg client state machine (Fig. 5, user side).

One instance lives for one aggregation round.  The stage methods must be
called in protocol order; each validates the server's broadcast before
responding, raising :class:`ProtocolAbort` on any inconsistency — the
"otherwise abort" arms of Fig. 5.

Malicious-mode behaviour (signature generation/verification and the
ConsistencyCheck stage) activates when the config says so and a PKI is
supplied.  A semi-honest round has no ConsistencyCheck exchange: the
Unmasking request carries U3 and :meth:`SecAggClient.unmask` adopts it
through the same checks.

The class exposes three extension points used by XNoise
(:mod:`repro.xnoise.protocol`):

- ``extra_secrets`` — labelled byte secrets Shamir-shared along with the
  mask key and self-mask seed in ShareKeys (XNoise: the noise-component
  seeds g_{u,k});
- :meth:`revealed_seeds` — what Unmasking discloses directly, asked once
  U3 is fixed (XNoise: the excess components' seeds);
- :meth:`shares_of_extra_secret` — disclose held shares of peers' extra
  secrets on request (XNoise: ExcessiveNoiseRemoval).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.crypto.ae import AEError
from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.shamir import Share
from repro.crypto.signature import SchnorrSigner
from repro.crypto.suite import Suite
from repro.secagg.masking import MaskAccumulator
from repro.secagg.types import (
    AdvertiseKeysMsg,
    DealingShape,
    MaskedInputMsg,
    ProtocolAbort,
    SecAggConfig,
    SharePayload,
    UnmaskingMsg,
)


#: What one peer's ShareKeys payload leaves with its recipient:
#: ``(share of s^SK, share of b, shares of the extra secrets)``.
_HeldShares = tuple[Share, Share, dict[str, Share]]

#: Byte width of the self-mask seed b_u.
_B_SEED_BYTES = 32


def _advertise_message_bytes(msg: AdvertiseKeysMsg) -> bytes:
    """The signed ``c^PK ∥ s^PK`` — unambiguous only at one fixed key
    width, which verifiers check before the signature."""
    return msg.c_public + msg.s_public


def consistency_message(round_index: int, u3: list[int]) -> bytes:
    """The ``r ∥ U3`` byte string signed in ConsistencyCheck."""
    body = ",".join(str(u) for u in sorted(u3))
    return f"round:{round_index}|u3:{body}".encode("utf-8")


class SecAggClient:
    """One sampled client's view of a round, on ``suite.for_party(client_id, round_index)``."""

    def __init__(
        self,
        client_id: int,
        config: SecAggConfig,
        signer: Optional[SchnorrSigner] = None,
        pki: Optional[PublicKeyInfrastructure] = None,
        round_index: int = 0,
        extra_secrets: dict[str, bytes] | None = None,
        suite: Optional[Suite] = None,
    ):
        if config.malicious and (signer is None or pki is None):
            raise ValueError("malicious mode requires a signer and a PKI")
        self.id = client_id
        self.config = config
        self.round_index = round_index
        self.suite = (suite or Suite.for_group(config.dh_group)).for_party(client_id, round_index)
        self._signer = signer
        self._pki = pki
        self.extra_secrets = dict(extra_secrets or {})

        self._c_pair = self.suite.ka.generate(self.suite.entropy)
        self._s_pair = self.suite.ka.generate(self.suite.entropy)
        self._b_seed: bytes = b""
        self._peer_keys: dict[int, tuple[int, int]] = {}  # peer -> (c^PK, s^PK)
        # Each pairwise c-channel key is agreed and keyed into its AE
        # once a round: in ShareKeys, the whole neighbourhood in one
        # call, to encrypt; the same object decrypts in Unmasking.
        self._c_channels: dict[int, object] = {}
        self._shape: Optional[DealingShape] = None
        self._neighbors: set[int] = set()
        self._received_ciphertexts: dict[int, bytes] = {}
        self._payloads: Optional[dict[int, _HeldShares]] = None
        self._u2: set[int] = set()
        self._u3: set[int] = set()

    # ------------------------------------------------------------------
    # Stage 0 — AdvertiseKeys
    # ------------------------------------------------------------------
    def advertise_keys(self) -> AdvertiseKeysMsg:
        """Generate the two key pairs and advertise the public halves."""
        msg = AdvertiseKeysMsg(
            sender=self.id,
            c_public=self.suite.ka.public_bytes(self._c_pair),
            s_public=self.suite.ka.public_bytes(self._s_pair),
        )
        if self.config.malicious:
            assert self._signer is not None
            sig = self._signer.sign(_advertise_message_bytes(msg), self.suite.entropy)
            msg = dataclasses.replace(msg, signature=sig)
        return msg

    # ------------------------------------------------------------------
    # Stage 1 — ShareKeys
    # ------------------------------------------------------------------
    def share_keys(
        self, roster: dict[int, AdvertiseKeysMsg], neighbors
    ) -> dict[int, bytes]:
        """Validate the roster and distribute encrypted shares.

        ``neighbors`` is this client's own neighbourhood in the masking
        graph — a collection of roster ids, the whole roster but itself
        under the complete graph — as the server sends it; nothing is
        cut for a set that was not checked against the roster first.

        Returns ``recipient id → AE ciphertext``.  Shares of the masking
        key s^SK, the self-mask seed b_u, and every extra secret are cut
        with the same threshold t among this client's graph neighbors.
        """
        if self.id not in roster:
            raise ProtocolAbort(f"client {self.id} missing from roster")
        if len(roster) < self.config.threshold:
            raise ProtocolAbort(
                f"roster of {len(roster)} below threshold {self.config.threshold}"
            )
        # Keys leave their wire form here, once; any other width is
        # refused before duplicates are compared or signatures checked.
        ka, entropy = self.suite.ka, self.suite.entropy
        peer_keys: dict[int, tuple[int, int]] = {}
        for peer, msg in roster.items():
            try:
                peer_keys[peer] = (
                    ka.decode_public(msg.c_public),
                    ka.decode_public(msg.s_public),
                )
            except ValueError as exc:
                raise ProtocolAbort(f"bad public key from {peer}: {exc}") from exc
        flat = [k for pair in peer_keys.values() for k in pair]
        if len(set(flat)) != len(flat):
            raise ProtocolAbort("duplicate public keys in roster")
        if self.config.malicious:
            assert self._pki is not None
            for peer, msg in roster.items():
                if msg.signature is None or not self._pki.verifier(peer).verify(
                    _advertise_message_bytes(msg), msg.signature
                ):
                    raise ProtocolAbort(f"bad key signature from {peer}")

        if not isinstance(neighbors, (list, tuple, set, frozenset)) or not all(
            type(v) is int for v in neighbors
        ):
            raise ProtocolAbort("neighbors must be a collection of client ids")
        neighbor_set = set(neighbors)
        if self.id in neighbor_set:
            raise ProtocolAbort(f"client {self.id} listed as its own neighbor")
        strangers = sorted(neighbor_set - roster.keys())
        if strangers:
            raise ProtocolAbort(f"neighbors {strangers} missing from roster")

        self._peer_keys = peer_keys
        self._c_channels = {}
        self._neighbors = neighbor_set
        if len(self._neighbors) < self.config.threshold:
            raise ProtocolAbort(
                f"only {len(self._neighbors)} neighbors; threshold "
                f"{self.config.threshold} unsatisfiable"
            )

        self._b_seed = entropy.token_bytes(_B_SEED_BYTES)
        # Fig. 5 cuts shares over all of U1 including the dealer itself;
        # the dealer keeps its own share and may reveal it in Unmasking.
        holder_ids = sorted(self._neighbors | {self.id})
        neighbor_ids = sorted(self._neighbors)
        key_width = ka.group.secret_bytes
        s_sk_bytes = self._s_pair.secret.to_bytes(key_width, "big")
        # Every client of a round deals this shape; its recipients parse
        # what they hold against their own.
        self._shape = DealingShape(
            (key_width, _B_SEED_BYTES, *map(len, self.extra_secrets.values())),
            tuple(self.extra_secrets),
        )
        s_shares, b_shares, *extras = self.suite.ss(self.config.threshold).share(
            [s_sk_bytes, self._b_seed, *self.extra_secrets.values()], holder_ids, entropy
        )
        extra_shares: dict[str, dict[int, Share]] = dict(zip(self.extra_secrets, extras))
        self._own_shares = (
            s_shares[self.id],
            b_shares[self.id],
            {label: shares[self.id] for label, shares in extra_shares.items()},
        )

        c_keys = ka.agree(self._c_pair, [self._peer_keys[v][0] for v in neighbor_ids])
        self._c_channels = {
            peer: self.suite.ae(key) for peer, key in zip(neighbor_ids, c_keys)
        }
        ciphertexts: dict[int, bytes] = {}
        for peer in neighbor_ids:
            payload = SharePayload(
                sender=self.id,
                recipient=peer,
                s_sk_share=s_shares[peer],
                b_share=b_shares[peer],
                extra_shares={lbl: shares[peer] for lbl, shares in extra_shares.items()},
            )
            ciphertexts[peer] = self._c_channels[peer].encrypt(payload.to_bytes(), entropy)
        return ciphertexts

    def _c_channel(self, peer: int):
        """The AE keyed with the c-channel key shared with ``peer``:
        agreed in ShareKeys for every neighbour, on first use for anyone
        else."""
        channel = self._c_channels.get(peer)
        if channel is None:
            (key,) = self.suite.ka.agree(self._c_pair, [self._peer_keys[peer][0]])
            channel = self._c_channels[peer] = self.suite.ae(key)
        return channel

    # ------------------------------------------------------------------
    # Stage 2 — MaskedInputCollection
    # ------------------------------------------------------------------
    def masked_input(
        self,
        ciphertexts: dict[int, bytes],
        update_ring: np.ndarray,
        *,
        owned: bool = False,
    ) -> MaskedInputMsg:
        """Store routed ciphertexts and upload the masked input.

        ``update_ring`` is the already DP-encoded vector, taken mod
        ``2**b``.  With ``owned`` the caller gives the ``int64`` array
        up: the masks are folded into it in place instead of into a
        copy (XNoise's freshly perturbed signal).
        """
        update_ring = np.asarray(update_ring, dtype=np.int64)
        if update_ring.shape != (self.config.dimension,):
            raise ProtocolAbort(
                f"input shape {update_ring.shape} != ({self.config.dimension},)"
            )
        self._received_ciphertexts = dict(ciphertexts)
        self._payloads = None
        self._u2 = (set(ciphertexts) & set(self._peer_keys)) | {self.id}
        if len(self._u2) < self.config.threshold:
            raise ProtocolAbort(
                f"|U2| = {len(self._u2)} below threshold {self.config.threshold}"
            )

        peers = sorted(self._neighbors & self._u2)
        # Input + self mask + one pairwise mask per live neighbor, summed
        # with one deferred reduction (int64 headroom guard inside).
        # Each seed's expansion is added into the sum as it is drawn —
        # no mask vector exists — with the pairwise sign γ
        # (p_{u,v} = γ·PRG(s_{u,v}), γ = +1 iff u > v) folded in:
        # subtracting the raw expansion equals adding ``(−PRG(s)) % R``.
        # The sum leaves as its ring-width bit stream, reduced by the
        # pack: the masked input is never a vector again.
        acc = MaskAccumulator(
            update_ring, self.config.modulus, n_terms=2 + len(peers), owned=owned,
            prg=self.suite.prg,
        )
        acc.fold_seed(self._b_seed, 1)
        seeds = self.suite.ka.agree(self._s_pair, [self._peer_keys[peer][1] for peer in peers])
        for peer, seed in zip(peers, seeds):
            acc.fold_seed(seed, 1 if self.id > peer else -1)
        return MaskedInputMsg(
            sender=self.id,
            bits=self.config.bits,
            count=self.config.dimension,
            packed=acc.finish_packed(),
        )

    # ------------------------------------------------------------------
    # Stage 3 — ConsistencyCheck (an exchange in malicious mode only)
    # ------------------------------------------------------------------
    def consistency_check(self, u3: list[int]):
        """Fix U3; in malicious mode sign ``r ∥ U3`` so the server cannot
        equivocate about survivors."""
        self._u3 = set(u3)
        if len(self._u3) < self.config.threshold:
            raise ProtocolAbort(f"|U3| = {len(self._u3)} below threshold")
        if self.id not in self._u3:
            raise ProtocolAbort("server excluded me from U3 I contributed to")
        if not self.config.malicious:
            return None
        assert self._signer is not None
        return self._signer.sign(consistency_message(self.round_index, u3), self.suite.entropy)

    # ------------------------------------------------------------------
    # Stage 4 — Unmasking
    # ------------------------------------------------------------------
    def unmask(
        self,
        u4: list[int],
        u4_signatures: dict[int, object] | None,
        dropped: list[int],
        survivors: list[int],
    ) -> UnmaskingMsg:
        """Reveal shares: mask keys of the dropped, self-mask seeds of survivors.

        The dropped/survivor lists must be disjoint — revealing both
        secrets of one client would expose its input, so the client
        refuses (this is the critical privacy invariant of SecAgg).
        """
        dropped_set, survivor_set = set(dropped), set(survivors)
        if dropped_set & survivor_set:
            raise ProtocolAbort("server requested both secrets of one client")
        if not self.config.malicious:
            # No ConsistencyCheck exchange ran: the survivor list *is*
            # U3, adopted here through the same checks.
            self.consistency_check(survivors)
        elif survivor_set != self._u3:
            # Survivor list must be exactly the U3 the client signed.
            raise ProtocolAbort("survivor list inconsistent with U3")
        if dropped_set & self._u3:
            # With a k-regular graph the client only sees its neighborhood
            # slice of U2, so it cannot check membership — but a "dropped"
            # client that the client knows survived is a lying server.
            raise ProtocolAbort("dropped list overlaps the survivor set U3")
        if len(u4) < self.config.threshold:
            raise ProtocolAbort(f"|U4| = {len(u4)} below threshold")
        if not set(u4) <= self._u3:
            raise ProtocolAbort("U4 must be a subset of U3")
        if self.config.malicious:
            assert self._pki is not None
            if u4_signatures is None:
                raise ProtocolAbort("missing consistency signatures")
            expect = consistency_message(self.round_index, sorted(self._u3))
            for peer in u4:
                sig = u4_signatures.get(peer)
                if sig is None or not self._pki.verifier(peer).verify(expect, sig):
                    raise ProtocolAbort(f"bad consistency signature from {peer}")

        payloads = self._decrypt_payloads()
        s_sk_shares = {
            peer: payloads[peer][0] for peer in dropped_set if peer in payloads
        }
        b_shares = {
            peer: payloads[peer][1] for peer in survivor_set if peer in payloads
        }
        return UnmaskingMsg(
            sender=self.id,
            s_sk_shares=s_sk_shares,
            b_shares=b_shares,
            revealed_seeds=self.revealed_seeds(),
        )

    # ------------------------------------------------------------------
    # XNoise extension hooks
    # ------------------------------------------------------------------
    def revealed_seeds(self) -> dict[int, bytes]:
        """Seeds Unmasking discloses directly; asked after U3 is fixed."""
        return {}

    def shares_of_extra_secret(
        self, label_for: dict[int, list[str]]
    ) -> dict[int, dict[str, Share]]:
        """Disclose held shares of peers' labelled extra secrets.

        ``label_for`` maps peer id → labels requested.  Used by XNoise's
        ExcessiveNoiseRemoval to recover the noise seeds of survivors that
        dropped before revealing them (§3.2).
        """
        payloads = self._decrypt_payloads()
        response: dict[int, dict[str, Share]] = {}
        for peer, labels in label_for.items():
            if peer not in payloads:
                continue
            extras = payloads[peer][2]
            found = {lbl: extras[lbl] for lbl in labels if lbl in extras}
            if found:
                response[peer] = found
        return response

    # ------------------------------------------------------------------
    def _decrypt_payloads(self) -> dict[int, _HeldShares]:
        """Decrypt and authenticate all stored ShareKeys ciphertexts.

        Includes this client's own (never-encrypted) shares of its own
        secrets, mirroring Fig. 5's SS.share over all of U1.  Each
        ciphertext is authenticated and parsed once a round: the result
        is kept for the next caller (Unmasking, then XNoise's
        ExcessiveNoiseRemoval), and only a complete result is kept, so
        a bad ciphertext aborts every stage that asks.  Each plaintext
        is parsed against this client's own dealing shape: a peer that
        dealt other labels or widths, or a payload routed elsewhere,
        aborts by name.
        """
        if self._payloads is not None:
            return self._payloads
        out: dict[int, _HeldShares] = {}
        if hasattr(self, "_own_shares"):
            out[self.id] = self._own_shares
        for peer, blob in self._received_ciphertexts.items():
            if peer == self.id or peer not in self._peer_keys:
                continue
            try:
                payload = SharePayload.from_bytes(
                    self._c_channel(peer).decrypt(blob), self._shape, peer, self.id
                )
            except (AEError, ValueError) as exc:
                raise ProtocolAbort(f"bad ciphertext from {peer}: {exc}") from exc
            out[peer] = (payload.s_sk_share, payload.b_share, payload.extra_shares)
        self._payloads = out
        return out
