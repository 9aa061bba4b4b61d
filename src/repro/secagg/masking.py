"""Pairwise and self masks over Z_{2^b}.

SecAgg hides each input under two kinds of one-time pads (Fig. 5,
MaskedInputCollection):

- *pairwise masks* p_{u,v} = γ·PRG(s_{u,v}) with γ = +1 if u > v else −1,
  so p_{u,v} + p_{v,u} = 0 and all pairwise masks cancel in the sum of a
  complete survivor set;
- a *self mask* p_u = PRG(b_u) that protects u's input if the server
  learns u's pairwise secrets while unmasking a *dropped* u — survivors'
  self masks are only removed via their secret-shared b_u.

Both masks are expanded from 32-byte seeds by the counter-mode PRG,
exactly as the deployed protocol does, so a mask is never materialized
on the wire — nor in memory: :meth:`MaskAccumulator.fold_seed` has the
suite's PG slot (by default :func:`repro.crypto.prg.expand_uniform`)
add a seed's signed expansion straight into the running sum.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from repro.crypto.prg import COUNTER_PRG, CounterPRG
from repro.wire.bitpack import pack_low_bits_into, packed_stream, unpack_add, unpack_bits


class MaskAccumulator:
    """Signed sum of a base vector and ``n`` masks mod R, reduced once.

    MaskedInputCollection adds the self mask plus one pairwise mask per
    live neighbor to the encoded input; the coordinator's unmask plane
    *subtracts* reconstructed masks from the survivor sum.  Reducing
    after *every* term walks the full vector k + 1 extra times; instead
    the terms fold raw into int64 (:meth:`add` / :meth:`sub`) and reduce
    once at :meth:`finish`.

    Over a ring ``2**b`` — every ring a round uses — a reduction is
    ``& (modulus − 1)``, a quarter of the cost of numpy's signed 64-bit
    ``%`` and equal to it for negative sums too (pinned by test), and
    the sum can enter and leave in wire form: :meth:`add_packed` folds a
    received bit stream without unpacking it into a vector,
    :meth:`finish_packed` packs the deferred sum with the reduction
    fused into the pack.  A general modulus keeps ``%``.

    The base is reduced into the ring on the way in, so the headroom
    proof below covers any base: one ``&`` pass into a fresh array, or
    in place when the caller gives its buffer up (``owned=True`` — the
    accumulator then folds into ``base`` itself and no copy is made).

    Headroom proof: each term is in ``[0, modulus)``, so the running
    signed sum of ``n_terms`` terms has magnitude at most
    ``n_terms · (modulus − 1)``; the deferral guard requires exactly
    ``n_terms · (modulus − 1) < 2**63``, so int64 never overflows —
    with the paper's ring bit-width b ≤ 24 and any realistic cohort the
    guard always passes.  When it fails the accumulator falls back to
    per-term reduction; the two paths are bit-identical (pinned by
    test) because ``(Σ ±xᵢ) mod R`` equals the left-fold of
    ``(· ± xᵢ) mod R``, and both Python's and NumPy's ``%`` map
    negative values into ``[0, R)``.

    Subtraction folds the pairwise-mask sign γ into the accumulation:
    instead of materializing ``(−PRG(s)) % R`` (a full extra vector
    pass) and adding it, callers ``sub`` the raw expansion —
    ``(x + ((−b) mod R)) mod R == (x − b) mod R``.
    """

    def __init__(
        self, base: np.ndarray, modulus: int, n_terms: int, *,
        owned: bool = False, prg: CounterPRG = COUNTER_PRG,
    ):
        self._configure(modulus, n_terms, prg)
        if owned:
            if not (isinstance(base, np.ndarray) and base.dtype == np.int64):
                raise ValueError("an owned base must be an int64 array")
            self._acc = base
            self._reduce()
        elif self._bits is not None:
            self._acc = np.asarray(base, dtype=np.int64) & (self._modulus - 1)
        else:
            self._acc = np.asarray(base, dtype=np.int64) % self._modulus

    @classmethod
    def zeros(cls, size: int, modulus: int, n_terms: int, prg=COUNTER_PRG) -> "MaskAccumulator":
        """The sum of nothing yet: a zero base of ``size`` elements
        (counted in ``n_terms`` like any base), with no pass spent
        reducing it — how the coordinator's accumulator starts."""
        self = cls.__new__(cls)
        self._configure(modulus, n_terms, prg)
        self._acc = np.zeros(size, dtype=np.int64)
        return self

    def _configure(self, modulus: int, n_terms: int, prg: CounterPRG) -> None:
        if n_terms < 1:
            raise ValueError("n_terms counts the base vector: must be >= 1")
        self._prg = prg  # the PG slot every seed expands through
        self._modulus = modulus = int(modulus)
        #: log2 of a power-of-two modulus (reductions are a mask, the
        #: sum has a packed form), else ``None``.
        self._bits = (
            modulus.bit_length() - 1 if modulus & (modulus - 1) == 0 else None
        )
        self._deferred = n_terms * (modulus - 1) < 2**63
        self._remaining = n_terms - 1

    def _reduce(self) -> None:
        if self._bits is not None:
            self._acc &= self._modulus - 1
        else:
            self._acc %= self._modulus

    def _packed_bits(self) -> int:
        if self._bits is None:
            raise ValueError("only a power-of-two ring has a packed form")
        return self._bits

    def _take_term(self) -> None:
        if self._remaining <= 0:
            raise ValueError("more masks added than n_terms declared")
        self._remaining -= 1

    def _fold(self, mask: np.ndarray, sign: int) -> None:
        self._take_term()
        if sign > 0:
            self._acc += mask
        else:
            self._acc -= mask
        if not self._deferred:
            self._reduce()

    def add(self, mask: np.ndarray) -> None:
        """Fold one mask vector (values in ``[0, modulus)``) into the sum."""
        self._fold(mask, 1)

    def sub(self, mask: np.ndarray) -> None:
        """Fold one *negated* mask vector into the sum."""
        self._fold(mask, -1)

    def fold_seed(self, seed: bytes, sign: int) -> None:
        """Fold ``sign·PRG(seed)`` into the sum without materializing it.

        Under the deferral guard the expansion is added raw, in place
        (each element is in ``[0, modulus)``, so the headroom proof
        above covers it); without headroom the mask is expanded and
        reduced per term like any other — bit-identical either way.
        """
        if self._deferred:
            self._take_term()
            self._prg.expand(
                seed, self._acc.size, self._modulus, out=self._acc, sign=sign
            )
        else:
            self._fold(self._prg.expand(seed, self._acc.size, self._modulus), sign)

    def fold_seeds(
        self, terms: Sequence[tuple[bytes, int]], workers: Optional[int] = 1
    ) -> None:
        """:meth:`fold_seed` every ``(seed, ±1)`` term, on ``workers`` threads.

        The coordinator's unmask fan-out, and the one place that knows
        about threads (``None``: one per core).  Under the deferral
        guard the terms split into contiguous slabs: the first folds
        into the sum itself, each further one into a zeroed partial of
        its own — the mask kernel and numpy's large-vector adds release
        the GIL — and the partials are added at the end.  Every partial
        is an exact int64 sum of in-ring terms, so the headroom proof
        above covers the total whatever the slab boundaries, and the
        result is bit-identical at any ``workers`` (pinned by test).
        Without headroom, or with one worker or one term, this is the
        loop over :meth:`fold_seed`; more terms than ``n_terms`` left
        room for are refused before any is folded.
        """
        if len(terms) > self._remaining:
            raise ValueError("more masks added than n_terms declared")
        if workers is None:
            workers = os.cpu_count() or 1
        workers = min(workers, len(terms))
        if not self._deferred or workers <= 1:
            for seed, sign in terms:
                self.fold_seed(seed, sign)
            return
        self._remaining -= len(terms)
        bounds = [len(terms) * i // workers for i in range(workers + 1)]
        partials = [self._acc] + [
            np.zeros_like(self._acc) for _ in range(workers - 1)
        ]

        def fold(start: int, stop: int, part: np.ndarray) -> None:
            for seed, sign in terms[start:stop]:
                self._prg.expand(seed, part.size, self._modulus, out=part, sign=sign)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list(): read every result, so a worker's exception raises here.
            list(pool.map(fold, bounds[:-1], bounds[1:], partials))
        for part in partials[1:]:
            self._acc += part

    def add_packed(self, data) -> None:
        """Fold one vector given as its ring-width bit stream.

        ``add(unpack_bits(data, d, b))`` over the ring ``2**b`` without
        the vector: under the deferral guard the stream is unpack-added
        straight into the sum.  A stream that is not exactly ``d``
        elements of ``b`` bits with zero pad bits raises ``ValueError``
        and leaves the accumulator — sum and term count — as it was.
        """
        bits = self._packed_bits()
        if self._deferred:
            packed_stream(data, self._acc.size, bits)  # refuse before a term is taken
            self._take_term()
            unpack_add(data, bits, out=self._acc)
        else:
            self._fold(unpack_bits(data, self._acc.size, bits), 1)

    def finish(self) -> np.ndarray:
        """The accumulated sum, reduced into ``[0, modulus)``."""
        if self._deferred:
            self._reduce()
        return self._acc

    def finish_packed(self) -> bytearray:
        """The accumulated sum mod ``2**b`` as its ring-width bit stream.

        :func:`~repro.wire.bitpack.pack_bits_into` of :meth:`finish`
        in one pass over the sum: the reduction is the packer's mask.
        """
        out = bytearray()
        pack_low_bits_into(self._acc, self._packed_bits(), out)
        return out


# repro: allow[parity-twin] the fast twin is the MaskAccumulator class, not a def
def accumulate_masks_reference(
    base: np.ndarray, masks: list[np.ndarray], modulus: int
) -> np.ndarray:
    """Retained reference for :class:`MaskAccumulator`: reduce after
    every addition, exactly as MaskedInputCollection originally did."""
    total = np.asarray(base, dtype=np.int64) % modulus
    for mask in masks:
        total = (total + mask) % modulus
    return total


# repro: allow[parity-twin] the fast twin is the MaskAccumulator class, not a def
def accumulate_signed_masks_reference(
    base: np.ndarray, terms: list[tuple[np.ndarray, int]], modulus: int
) -> np.ndarray:
    """Retained signed reference for :class:`MaskAccumulator`: one
    reduced ``(· ± xᵢ) mod R`` step per term, in term order — the
    left-fold the deferred signed sum must reproduce bit for bit."""
    total = np.asarray(base, dtype=np.int64) % modulus
    for mask, sign in terms:
        if sign > 0:
            total = (total + mask) % modulus
        else:
            total = (total - mask) % modulus
    return total
