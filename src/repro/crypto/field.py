"""Prime-field arithmetic.

Shamir secret sharing and the seed space F used by XNoise (Fig. 5 Setup)
operate over a prime field.  We use the Mersenne prime p = 2**127 − 1,
large enough that random field elements (seeds) are unguessable — the
security argument in the paper's Hyb4 step relies on seeds being drawn
from an "exponentially large domain F".
"""

from __future__ import annotations

from dataclasses import dataclass

#: The Mersenne prime 2**127 − 1.
MERSENNE_127 = (1 << 127) - 1


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic in GF(p) for a prime modulus ``p``.

    Elements are plain Python ints in ``[0, p)``.  The class is a thin
    namespace: it validates inputs once and keeps modulus-specific
    constants (byte lengths) together.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError("field modulus must be a prime >= 3")

    @property
    def element_bytes(self) -> int:
        """Bytes needed to encode one element."""
        return (self.p.bit_length() + 7) // 8

    @property
    def capacity_bytes(self) -> int:
        """Bytes that always fit in one element (for packing byte secrets)."""
        return (self.p.bit_length() - 1) // 8

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if a % self.p == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, -1, self.p)


#: The default field shared by Shamir sharing and XNoise seeds.
FIELD = PrimeField(MERSENNE_127)
