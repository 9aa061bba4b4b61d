"""Shamir t-out-of-n secret sharing over GF(p).

XNoise secret-shares the noise-component seeds across sampled clients
before aggregation (§3.2), and SecAgg secret-shares the masking key
``s^SK`` and the self-mask seed ``b_u`` (Fig. 5, ShareKeys).  Both use the
classic Shamir scheme [Shamir'79]: the secret is the constant term of a
random degree-(t−1) polynomial; any t shares reconstruct it by Lagrange
interpolation, fewer reveal nothing.

Secrets here are byte strings (seeds, serialized keys).  A byte secret is
chunked so each chunk fits one field element; every chunk is shared with
an independent polynomial.  A dealer hands all of its secrets to one
:meth:`ShamirSecretSharing.share` call, which draws every random
coefficient from one entropy read and evaluates every chunk at a holder's
point in one packed Horner pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource
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
        ``struct.error`` or ``OverflowError`` from the packing.
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
        head = _SHARE_HEADER.pack(self.x, self.secret_len, len(self.ys))
        return head + b"".join([y.to_bytes(16, "big") for y in self.ys])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Share":
        """Strict inverse of :meth:`to_bytes`."""
        n, head = len(data), _SHARE_HEADER.size
        if n < head:
            raise ValueError("share encoding too short")
        x, secret_len, count = _SHARE_HEADER.unpack_from(data)
        if n != head + 16 * count:
            raise ValueError("share encoding length mismatch")
        return cls(
            x=x,
            ys=tuple([int.from_bytes(data[i : i + 16], "big") for i in range(head, n, 16)]),
            secret_len=secret_len,
        )


#: ``x u64 ∥ secret_len u32 ∥ count u16``: the fixed head of a Share.
_SHARE_HEADER = struct.Struct(">QIH")


def chunk_count(secret_len: int, field: PrimeField = FIELD) -> int:
    """Field chunks :meth:`ShamirSecretSharing.share` cuts a secret of
    ``secret_len`` bytes into: one per ``field.capacity_bytes``, and one
    zero chunk for an empty secret."""
    return -(-secret_len // field.capacity_bytes) or 1


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

    def share(
        self, secret_list: Sequence[bytes], participant_ids: list[int],
        entropy: EntropySource = SYSTEM_ENTROPY,
    ) -> list[dict[int, Share]]:
        """Split every secret of ``secret_list`` into one share per
        participant id: element ``i`` of the result is secret ``i``'s
        ``{id: Share}``.

        One dealer pass: the ids and secrets are checked before any
        randomness is drawn, every random coefficient of every chunk comes
        from one :meth:`_draw_coefficients` read, and each participant's
        evaluations of all chunks from one :meth:`_evaluate_shares` pass.
        ``participant_ids`` must be distinct positive integers (they become
        the polynomial evaluation points, so 0 — the secret's position — is
        forbidden).
        """
        ids = self._holder_ids(participant_ids)
        constants, shapes = self._chunk_secrets(secret_list)
        step = self.threshold - 1
        draws = self._draw_coefficients(len(constants) * step, entropy)
        polys = [
            [constant, *draws[i * step : (i + 1) * step]]
            for i, constant in enumerate(constants)
        ]
        return self._cut_shares(self._evaluate_shares(polys, ids), shapes)

    def share_reference(
        self, secret_list: Sequence[bytes], participant_ids: list[int],
        entropy: EntropySource = SYSTEM_ENTROPY,
    ) -> list[dict[int, Share]]:
        """Retained scalar reference for :meth:`share`: one
        ``entropy.randbelow(p)`` per coefficient and one ``field.eval_poly``
        (a modulo per Horner step) per chunk and participant.

        Shares are random, so the parity pins are on the deterministic
        evaluation step — :meth:`_evaluate_shares` must equal
        :meth:`_evaluate_shares_reference` for any polynomials — and on
        what :meth:`_draw_coefficients` accepts and redraws.
        """
        ids = self._holder_ids(participant_ids)
        constants, shapes = self._chunk_secrets(secret_list)
        polys = [
            [constant] + [entropy.randbelow(self.field.p) for _ in range(self.threshold - 1)]
            for constant in constants
        ]
        return self._cut_shares(self._evaluate_shares_reference(polys, ids), shapes)

    def _holder_ids(self, participant_ids: list[int]) -> list[int]:
        """The evaluation points, checked: distinct, in [1, p), at least t."""
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
        return ids

    def _chunk_secrets(
        self, secret_list: Sequence[bytes]
    ) -> tuple[list[int], list[tuple[int, int]]]:
        """Every secret's chunks as field constants, in order, and each
        secret's ``(byte length, chunk count)``.  An empty secret is one
        zero chunk."""
        if isinstance(secret_list, (bytes, bytearray, memoryview, str)):
            raise TypeError("share() takes a list of secrets, not one secret")
        capacity = self.field.capacity_bytes
        constants: list[int] = []
        shapes: list[tuple[int, int]] = []
        for secret in secret_list:
            chunks = chunk_bytes(secret, capacity) or [b""]
            constants += [bytes_to_int(chunk) for chunk in chunks]
            shapes.append((len(secret), len(chunks)))
        return constants, shapes

    def _draw_coefficients(self, count: int, entropy: EntropySource) -> list[int]:
        """``count`` uniform elements of GF(p) from one ``token_bytes`` read.

        Each ``element_bytes``-wide big-endian word of the read is masked
        to p's bit length and redrawn while it is ≥ p — rejection
        sampling of ``p.bit_length()``-bit words, so each is uniform.
        On 2**127 − 1 the one value redrawn is p itself.
        """
        p = self.field.p
        width = self.field.element_bytes
        mask = (1 << p.bit_length()) - 1
        pool = entropy.token_bytes(width * count)
        words = [
            int.from_bytes(pool[k : k + width], "big") & mask
            for k in range(0, len(pool), width)
        ]
        for k, word in enumerate(words):
            while word >= p:
                word = words[k] = int.from_bytes(entropy.token_bytes(width), "big") & mask
        return words

    def _evaluate_shares(
        self, polys: list[list[int]], ids: list[int]
    ) -> dict[int, list[int]]:
        """Every chunk polynomial at every id: one packed Horner pass per id.

        Coefficient j of chunk i sits in slot i of one integer per degree
        j.  Evaluated over the integers, a chunk at x is at most
        (p − 1)·Σ_{j<t} x^j < 2**(bitlen(p) + (t − 1)·bitlen(max id) + 1),
        and a slot is that wide, so no slot carries into the next: Horner
        over the packed integers evaluates every chunk at once, and each
        slot is reduced mod p once.  Bit-identical to
        :meth:`_evaluate_shares_reference` (polynomial evaluation mod p
        is unique); pinned by test.
        """
        p = self.field.p
        slot = p.bit_length() + (self.threshold - 1) * max(ids).bit_length() + 1
        mask = (1 << slot) - 1
        offsets = range(0, slot * len(polys), slot)
        columns = [sum(c << k for c, k in zip(column, offsets)) for column in zip(*polys)]
        out: dict[int, list[int]] = {}
        for pid in ids:
            acc = 0
            for column in reversed(columns):
                acc = acc * pid + column
            out[pid] = [(acc >> k & mask) % p for k in offsets]
        return out

    def _evaluate_shares_reference(
        self, polys: list[list[int]], ids: list[int]
    ) -> dict[int, list[int]]:
        """Retained scalar evaluation: per-chunk Horner per participant."""
        return {pid: [self.field.eval_poly(coeffs, pid) for coeffs in polys] for pid in ids}

    @staticmethod
    def _cut_shares(
        evaluations: dict[int, list[int]], shapes: list[tuple[int, int]]
    ) -> list[dict[int, Share]]:
        """Split each participant's chunk evaluations back into one
        :class:`Share` per secret."""
        out: list[dict[int, Share]] = []
        start = 0
        for secret_len, count in shapes:
            out.append({
                pid: Share(x=pid, ys=tuple(ys[start : start + count]), secret_len=secret_len)
                for pid, ys in evaluations.items()
            })
            start += count
        return out

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

