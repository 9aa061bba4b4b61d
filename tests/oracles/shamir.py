"""Shamir dealing and reconstruction as first written: one modulo a step.

:func:`share_reference` draws one ``entropy.randbelow(p)`` per
coefficient and evaluates every chunk polynomial with :func:`eval_poly`
(a modulo per Horner step) per holder; :func:`reconstruct_reference`
reduces after every Lagrange term and recomputes the basis per call.
They take the :class:`~repro.crypto.shamir.ShamirSecretSharing` whose
fast paths they specify and reuse its checks and share cutting, so what
they pin is the arithmetic: :meth:`ShamirSecretSharing._evaluate_shares`
and :meth:`ShamirSecretSharing.reconstruct` must equal them bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource
from repro.crypto.field import PrimeField
from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.utils.bytesio import int_to_bytes


def eval_poly(field: PrimeField, coeffs: list[int], x: int) -> int:
    """Evaluate a polynomial with ``coeffs[0]`` the constant term (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % field.p
    return acc


def evaluate_shares_reference(
    ss: ShamirSecretSharing, polys: list[list[int]], ids: list[int]
) -> dict[int, list[int]]:
    """Per-chunk Horner per participant."""
    return {pid: [eval_poly(ss.field, coeffs, pid) for coeffs in polys] for pid in ids}


def share_reference(
    ss: ShamirSecretSharing, secret_list: Sequence[bytes], participant_ids: list[int],
    entropy: EntropySource = SYSTEM_ENTROPY,
) -> list[dict[int, Share]]:
    """Scalar dealer: one ``randbelow(p)`` per coefficient.

    Shares are random, so the parity pins are on the deterministic
    evaluation step — the fast evaluation must equal
    :func:`evaluate_shares_reference` for any polynomials — and on what
    both dealers accept and refuse.
    """
    ids = ss._holder_ids(participant_ids)
    constants, shapes = ss._chunk_secrets(secret_list)
    polys = [
        [constant] + [entropy.randbelow(ss.field.p) for _ in range(ss.threshold - 1)]
        for constant in constants
    ]
    return ss._cut_shares(evaluate_shares_reference(ss, polys, ids), shapes)


def reconstruct_reference(ss: ShamirSecretSharing, shares: list[Share]) -> bytes:
    """Scalar reconstruction: a modulo per Lagrange term, no cache."""
    use, n_chunks, secret_len = ss._select_shares(shares)
    lagrange = ss._lagrange_at_zero([s.x for s in use])
    p = ss.field.p
    chunks: list[bytes] = []
    remaining = secret_len
    for chunk_idx in range(n_chunks):
        value = 0
        for coef, s in zip(lagrange, use):
            value = (value + coef * s.ys[chunk_idx]) % p
        size = min(ss.field.capacity_bytes, remaining)
        chunks.append(int_to_bytes(value, size) if size else b"")
        remaining -= size
    return b"".join(chunks)
