"""GF(2**127 − 1): its constants, inverse and the oracle's Horner."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.entropy import SYSTEM_ENTROPY
from repro.crypto.field import FIELD, MERSENNE_127, PrimeField
from tests.oracles.shamir import eval_poly

elements = st.integers(min_value=0, max_value=MERSENNE_127 - 1)


class TestConstruction:
    def test_default_field_modulus_is_mersenne_127(self):
        assert FIELD.p == 2**127 - 1

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(2)

    def test_element_bytes(self):
        assert FIELD.element_bytes == 16

    def test_capacity_bytes_strictly_fits(self):
        # Any 15-byte value must be a valid element.
        assert FIELD.capacity_bytes == 15
        assert (1 << (8 * FIELD.capacity_bytes)) < FIELD.p


class TestArithmeticLaws:
    @given(a=elements.filter(lambda x: x != 0))
    def test_inv_is_multiplicative_inverse(self, a):
        assert a * FIELD.inv(a) % FIELD.p == 1

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FIELD.inv(0)


class TestPolynomialEvaluation:
    """The Horner the Shamir oracle evaluates shares with."""

    def test_constant_poly(self):
        assert eval_poly(FIELD, [42], 7) == 42

    def test_linear_poly(self):
        # 3 + 5x at x = 2 -> 13
        assert eval_poly(FIELD, [3, 5], 2) == 13

    @given(
        coeffs=st.lists(elements, min_size=1, max_size=6),
        x=elements,
    )
    def test_horner_matches_naive(self, coeffs, x):
        naive = sum(c * pow(x, i, FIELD.p) for i, c in enumerate(coeffs)) % FIELD.p
        assert eval_poly(FIELD, coeffs, x) == naive


class TestRandomness:
    def test_random_elements_in_range_and_distinct(self):
        draws = {SYSTEM_ENTROPY.randbelow(FIELD.p) for _ in range(16)}
        assert all(0 <= d < FIELD.p for d in draws)
        # 16 draws from a 2**127 space colliding would indicate brokenness.
        assert len(draws) == 16
