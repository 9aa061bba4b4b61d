"""Shamir t-out-of-n secret sharing over GF(p).

XNoise secret-shares the noise-component seeds across sampled clients
before aggregation (§3.2), and SecAgg secret-shares the masking key
``s^SK`` and the self-mask seed ``b_u`` (Fig. 5, ShareKeys).  Both use the
classic Shamir scheme [Shamir'79]: the secret is the constant term of a
random degree-(t−1) polynomial; any t shares reconstruct it by Lagrange
interpolation, fewer reveal nothing.

Secrets here are byte strings (seeds, serialized keys).  A byte secret is
chunked so each chunk fits one field element; every chunk is shared with
an independent polynomial.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.crypto.field import FIELD, PrimeField
from repro.utils.bytesio import bytes_to_int, chunk_bytes, int_to_bytes


@dataclass(frozen=True)
class Share:
    """One participant's share of a byte-string secret.

    ``x`` is the participant's evaluation point (non-zero field element,
    typically its 1-based client index) and ``ys`` holds one polynomial
    evaluation per secret chunk.  ``secret_len`` lets reconstruction strip
    the length padding.
    """

    x: int
    ys: tuple[int, ...]
    secret_len: int

    def to_bytes(self) -> bytes:
        """``x u64 ∥ secret_len u32 ∥ count u16 ∥ count × y u128``, big-endian.

        The widths are fixed, so every out-of-range field is validated
        here and raises a ``ValueError`` naming the field — never a raw
        ``OverflowError`` from ``int.to_bytes``.
        """
        if not 0 <= self.x < 1 << 64:
            raise ValueError(f"share field 'x' = {self.x} outside [0, 2**64)")
        if not 0 <= self.secret_len < 1 << 32:
            raise ValueError(
                f"share field 'secret_len' = {self.secret_len} outside [0, 2**32)"
            )
        if len(self.ys) >= 1 << 16:
            raise ValueError(
                f"share field 'ys' has {len(self.ys)} evaluations (max {(1 << 16) - 1})"
            )
        for i, y in enumerate(self.ys):
            if not 0 <= y < 1 << 128:
                raise ValueError(f"share field 'ys[{i}]' = {y} outside [0, 2**128)")
        parts = [
            self.x.to_bytes(8, "big"),
            self.secret_len.to_bytes(4, "big"),
            len(self.ys).to_bytes(2, "big"),
        ]
        parts += [y.to_bytes(16, "big") for y in self.ys]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Share":
        """Strict inverse of :meth:`to_bytes`."""
        if len(data) < 14:
            raise ValueError("share encoding too short")
        count = int.from_bytes(data[12:14], "big")
        body = data[14:]
        if len(body) != 16 * count:
            raise ValueError("share encoding length mismatch")
        return cls(
            x=int.from_bytes(data[:8], "big"),
            ys=tuple(
                int.from_bytes(body[i : i + 16], "big")
                for i in range(0, len(body), 16)
            ),
            secret_len=int.from_bytes(data[8:12], "big"),
        )


class ShamirSecretSharing:
    """t-out-of-n sharing of byte-string secrets.

    Parameters
    ----------
    threshold:
        Minimum number of shares needed to reconstruct (t ≥ 1).
    field:
        The prime field to operate in; defaults to GF(2**127 − 1).
    """

    # Distinct share-holder sets seen per instance before the Lagrange
    # cache resets.  An unmask round reconstructs ~n secrets over a
    # handful of responder sets; 256 is far above any realistic round.
    _LAGRANGE_CACHE_CAP = 256

    def __init__(self, threshold: int, field: PrimeField = FIELD):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.field = field
        self._lagrange_cache: dict[tuple[int, ...], list[int]] = {}

    def share(self, secret: bytes, participant_ids: list[int]) -> dict[int, Share]:
        """Split ``secret`` into one share per participant id.

        ``participant_ids`` must be distinct positive integers (they become
        the polynomial evaluation points, so 0 — the secret's position — is
        forbidden).
        """
        # Coerce to Python ints: NumPy integers overflow inside the
        # big-int polynomial arithmetic.
        ids = [int(i) for i in participant_ids]
        if len(set(ids)) != len(ids):
            raise ValueError("participant ids must be distinct")
        if any(i <= 0 or i >= self.field.p for i in ids):
            raise ValueError("participant ids must be in [1, p)")
        if len(ids) < self.threshold:
            raise ValueError(
                f"need at least threshold={self.threshold} participants, got {len(ids)}"
            )
        polys = self._sample_polynomials(secret)
        return self._evaluate_shares(polys, ids, len(secret))

    def share_reference(
        self, secret: bytes, participant_ids: list[int]
    ) -> dict[int, Share]:
        """Retained scalar reference for :meth:`share` (a modulo per
        Horner step via ``field.eval_poly``).

        Shares are random, so the parity pin is on the deterministic
        evaluation step: :meth:`_evaluate_shares` must equal
        :meth:`_evaluate_shares_reference` for any polynomials.
        """
        ids = [int(i) for i in participant_ids]
        if len(set(ids)) != len(ids):
            raise ValueError("participant ids must be distinct")
        if any(i <= 0 or i >= self.field.p for i in ids):
            raise ValueError("participant ids must be in [1, p)")
        if len(ids) < self.threshold:
            raise ValueError(
                f"need at least threshold={self.threshold} participants, got {len(ids)}"
            )
        polys = self._sample_polynomials(secret)
        return self._evaluate_shares_reference(polys, ids, len(secret))

    def _sample_polynomials(self, secret: bytes) -> list[list[int]]:
        """One random degree-(t−1) polynomial per secret chunk."""
        chunks = chunk_bytes(secret, self.field.capacity_bytes) or [b""]
        polys = []
        for chunk in chunks:
            constant = bytes_to_int(chunk) if chunk else 0
            coeffs = [constant] + [
                self.field.random_element() for _ in range(self.threshold - 1)
            ]
            polys.append(coeffs)
        return polys

    def _evaluate_shares(
        self, polys: list[list[int]], ids: list[int], secret_len: int
    ) -> dict[int, Share]:
        """Deferred-reduction Horner: one modulo per (participant, chunk)
        instead of one per coefficient.  The evaluation point is a small
        client index, so each Horner step multiplies the accumulator by
        a few-bit integer — the accumulator grows by ~log2(x) bits per
        step and a single final reduction is cheaper than t − 1
        interleaved ones (measured ~2× across cohort sizes).
        Bit-identical to :meth:`_evaluate_shares_reference` (polynomial
        evaluation mod p is unique); pinned by test."""
        p = self.field.p
        out: dict[int, Share] = {}
        for pid in ids:
            ys = []
            for coeffs in polys:
                acc = 0
                for c in reversed(coeffs):
                    acc = acc * pid + c
                ys.append(acc % p)
            out[pid] = Share(x=pid, ys=tuple(ys), secret_len=secret_len)
        return out

    def _evaluate_shares_reference(
        self, polys: list[list[int]], ids: list[int], secret_len: int
    ) -> dict[int, Share]:
        """Retained scalar evaluation: per-chunk Horner per participant."""
        return {
            pid: Share(
                x=pid,
                ys=tuple(self.field.eval_poly(coeffs, pid) for coeffs in polys),
                secret_len=secret_len,
            )
            for pid in ids
        }

    def reconstruct(self, shares: list[Share]) -> bytes:
        """Recover the secret from at least ``threshold`` shares.

        Raises ``ValueError`` if fewer than ``threshold`` distinct shares
        are supplied or the shares are structurally inconsistent.

        The Lagrange-at-zero coefficients are computed once for the
        chosen evaluation points and reused across every chunk, with one
        deferred reduction per chunk (bit-identical to
        :meth:`reconstruct_reference`; pinned by test).  Coefficients
        are additionally memoized per instance keyed by the x-coordinate
        tuple, so repeated reconstructions over the same share-holder
        set — the common case in an unmask round, where every secret is
        held by the same responder set — skip the modular-inverse work
        entirely.
        """
        use, n_chunks, secret_len = self._select_shares(shares)
        lagrange = self._lagrange_cached(tuple(s.x for s in use))
        return self._interpolate_chunks(use, n_chunks, secret_len, lagrange)

    def reconstruct_many(self, share_lists: list[list[Share]]) -> list[bytes]:
        """Recover one secret per share list, amortizing Lagrange setup.

        The coordinator's batched recovery entry point: an unmask round
        reconstructs |U3| self-mask seeds plus |U2\\U3| mask keys, and
        every one of them is typically held by the same responder set —
        so the Lagrange-at-zero coefficients (one modular inverse per
        share) are computed once per distinct x-tuple and reused across
        the whole batch.  Element ``i`` is bit-identical to
        ``reconstruct(share_lists[i])`` (pinned by test), including
        which ``ValueError`` a malformed list raises and in which order.
        """
        out: list[bytes] = []
        for shares in share_lists:
            use, n_chunks, secret_len = self._select_shares(shares)
            lagrange = self._lagrange_cached(tuple(s.x for s in use))
            out.append(
                self._interpolate_chunks(use, n_chunks, secret_len, lagrange)
            )
        return out

    def _interpolate_chunks(
        self,
        use: list[Share],
        n_chunks: int,
        secret_len: int,
        lagrange: list[int],
    ) -> bytes:
        """Interpolate every chunk at zero with one reduction per chunk."""
        p = self.field.p
        chunks: list[bytes] = []
        remaining = secret_len
        for chunk_idx in range(n_chunks):
            value = (
                sum(coef * s.ys[chunk_idx] for coef, s in zip(lagrange, use))
                % p
            )
            size = min(self.field.capacity_bytes, remaining)
            chunks.append(int_to_bytes(value, size) if size else b"")
            remaining -= size
        return b"".join(chunks)

    def _lagrange_cached(self, xs: tuple[int, ...]) -> list[int]:
        """Memoized :meth:`_lagrange_at_zero` (fast paths only — the
        reference twin recomputes per call, as the spec is written)."""
        coeffs = self._lagrange_cache.get(xs)
        if coeffs is None:
            if len(self._lagrange_cache) >= self._LAGRANGE_CACHE_CAP:
                self._lagrange_cache.clear()
            coeffs = self._lagrange_at_zero(list(xs))
            self._lagrange_cache[xs] = coeffs
        return coeffs

    def reconstruct_reference(self, shares: list[Share]) -> bytes:
        """Retained scalar reference for :meth:`reconstruct` (modulo per
        Lagrange term)."""
        use, n_chunks, secret_len = self._select_shares(shares)
        lagrange = self._lagrange_at_zero([s.x for s in use])
        chunks: list[bytes] = []
        remaining = secret_len
        for chunk_idx in range(n_chunks):
            value = 0
            for coef, s in zip(lagrange, use):
                value = (value + coef * s.ys[chunk_idx]) % self.field.p
            size = min(self.field.capacity_bytes, remaining)
            chunks.append(int_to_bytes(value, size) if size else b"")
            remaining -= size
        return b"".join(chunks)

    def _select_shares(
        self, shares: list[Share]
    ) -> tuple[list[Share], int, int]:
        """Validate and pick the ``threshold`` shares reconstruction uses."""
        distinct: dict[int, Share] = {}
        for s in shares:
            existing = distinct.get(s.x)
            if existing is not None and existing != s:
                raise ValueError(f"conflicting shares for x={s.x}")
            distinct[s.x] = s
        if len(distinct) < self.threshold:
            raise ValueError(
                f"need {self.threshold} shares to reconstruct, got {len(distinct)}"
            )
        use = list(distinct.values())[: self.threshold]
        n_chunks = len(use[0].ys)
        secret_len = use[0].secret_len
        if any(len(s.ys) != n_chunks or s.secret_len != secret_len for s in use):
            raise ValueError("shares disagree on secret shape")
        return use, n_chunks, secret_len

    def _lagrange_at_zero(self, xs: list[int]) -> list[int]:
        """Lagrange basis coefficients L_i(0) for the evaluation points."""
        coeffs = []
        for i, xi in enumerate(xs):
            num, den = 1, 1
            for j, xj in enumerate(xs):
                if i == j:
                    continue
                num = (num * (-xj)) % self.field.p
                den = (den * (xi - xj)) % self.field.p
            coeffs.append((num * self.field.inv(den)) % self.field.p)
        return coeffs


def random_seed(nbytes: int = 32) -> bytes:
    """Sample a fresh random seed (the ``b_u`` / ``g_{u,k}`` values of Fig. 5)."""
    return secrets.token_bytes(nbytes)
