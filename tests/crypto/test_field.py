"""Field-arithmetic laws for GF(2**127 − 1)."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.entropy import SYSTEM_ENTROPY
from repro.crypto.field import FIELD, MERSENNE_127, PrimeField

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


class TestValidation:
    def test_validate_accepts_in_range(self):
        assert FIELD.validate(0) == 0
        assert FIELD.validate(FIELD.p - 1) == FIELD.p - 1

    @pytest.mark.parametrize("bad", [-1, MERSENNE_127, MERSENNE_127 + 5])
    def test_validate_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            FIELD.validate(bad)


class TestArithmeticLaws:
    @given(a=elements, b=elements)
    def test_add_commutes(self, a, b):
        assert FIELD.add(a, b) == FIELD.add(b, a)

    @given(a=elements, b=elements, c=elements)
    def test_add_associates(self, a, b, c):
        assert FIELD.add(FIELD.add(a, b), c) == FIELD.add(a, FIELD.add(b, c))

    @given(a=elements, b=elements)
    def test_sub_inverts_add(self, a, b):
        assert FIELD.sub(FIELD.add(a, b), b) == a

    @given(a=elements)
    def test_neg_is_additive_inverse(self, a):
        assert FIELD.add(a, FIELD.neg(a)) == 0

    @given(a=elements, b=elements, c=elements)
    def test_mul_distributes(self, a, b, c):
        left = FIELD.mul(a, FIELD.add(b, c))
        right = FIELD.add(FIELD.mul(a, b), FIELD.mul(a, c))
        assert left == right

    @given(a=elements.filter(lambda x: x != 0))
    def test_inv_is_multiplicative_inverse(self, a):
        assert FIELD.mul(a, FIELD.inv(a)) == 1

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FIELD.inv(0)

    @given(a=elements, e=st.integers(min_value=0, max_value=1000))
    def test_pow_matches_repeated_mul(self, a, e):
        assert FIELD.pow(a, e) == pow(a, e, FIELD.p)


class TestPolynomialEvaluation:
    def test_constant_poly(self):
        assert FIELD.eval_poly([42], 7) == 42

    def test_linear_poly(self):
        # 3 + 5x at x = 2 -> 13
        assert FIELD.eval_poly([3, 5], 2) == 13

    @given(
        coeffs=st.lists(elements, min_size=1, max_size=6),
        x=elements,
    )
    def test_horner_matches_naive(self, coeffs, x):
        naive = sum(c * pow(x, i, FIELD.p) for i, c in enumerate(coeffs)) % FIELD.p
        assert FIELD.eval_poly(coeffs, x) == naive


class TestRandomness:
    def test_random_elements_in_range_and_distinct(self):
        draws = {SYSTEM_ENTROPY.randbelow(FIELD.p) for _ in range(16)}
        assert all(0 <= d < FIELD.p for d in draws)
        # 16 draws from a 2**127 space colliding would indicate brokenness.
        assert len(draws) == 16
