"""Theorem-1 algebra: telescoping variances, removal plans, collusion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.xnoise.decomposition import (
    NoiseDecomposition,
    component_variances,
    inflation_factor,
    per_client_variance,
    removable_indices,
    residual_variance_after_removal,
)
from tests.oracles.xnoise import excess_variance, per_survivor_excess


class TestComponentVariances:
    def test_paper_example(self):
        """§3.2's worked example: |U| = 4, T = 2, σ²_* = 1 →
        components 1/4, 1/12, 1/6 summing to 1/2."""
        v = component_variances(4, 2, 1.0)
        assert v[0] == pytest.approx(1 / 4)
        assert v[1] == pytest.approx(1 / 12)
        assert v[2] == pytest.approx(1 / 6)
        assert sum(v) == pytest.approx(1 / 2)

    @given(
        n=st.integers(min_value=2, max_value=200),
        data=st.data(),
        sigma2=st.floats(min_value=0.01, max_value=1e6),
    )
    @settings(max_examples=60)
    def test_components_sum_to_client_level(self, n, data, sigma2):
        t = data.draw(st.integers(min_value=0, max_value=n - 1))
        v = component_variances(n, t, sigma2)
        assert len(v) == t + 1
        assert sum(v) == pytest.approx(per_client_variance(n, t, sigma2), rel=1e-9)

    def test_zero_tolerance_single_component(self):
        v = component_variances(10, 0, 5.0)
        assert v == [pytest.approx(0.5)]

    @pytest.mark.parametrize(
        "n,t",
        [(0, 0), (5, 5), (5, -1), (3, 7)],
    )
    def test_invalid_shapes_rejected(self, n, t):
        with pytest.raises(ValueError):
            component_variances(n, t, 1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            component_variances(4, 2, -1.0)


class TestTheoremOne:
    """The core correctness claim: residual is exactly σ²_* for any |D| ≤ T."""

    @given(
        n=st.integers(min_value=2, max_value=150),
        data=st.data(),
        sigma2=st.floats(min_value=0.01, max_value=1e4),
    )
    @settings(max_examples=80)
    def test_residual_is_target_for_any_dropout_within_tolerance(
        self, n, data, sigma2
    ):
        t = data.draw(st.integers(min_value=0, max_value=n - 1))
        d = data.draw(st.integers(min_value=0, max_value=t))
        residual = residual_variance_after_removal(n, t, d, sigma2)
        assert residual == pytest.approx(sigma2, rel=1e-9)

    def test_paper_example_all_outcomes(self):
        """Figure 4: |U| = 4, T = 2 — all three dropout outcomes land at 1."""
        for d in (0, 1, 2):
            assert residual_variance_after_removal(4, 2, d, 1.0) == pytest.approx(1.0)

    @given(
        n=st.integers(min_value=3, max_value=100),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_removed_total_matches_eq1(self, n, data):
        """Σ removed components = l_ex = (T−|D|)/(|U|−T)·σ²_* (Eq. 1)."""
        t = data.draw(st.integers(min_value=1, max_value=n - 1))
        d = data.draw(st.integers(min_value=0, max_value=t))
        sigma2 = 7.0
        v = component_variances(n, t, sigma2)
        survivors = n - d
        removed = survivors * sum(v[k] for k in removable_indices(d, t))
        assert removed == pytest.approx(excess_variance(n, t, d, sigma2), rel=1e-9)

    @given(n=st.integers(min_value=3, max_value=100), data=st.data())
    @settings(max_examples=40)
    def test_per_survivor_excess_matches_eq2(self, n, data):
        t = data.draw(st.integers(min_value=1, max_value=n - 1))
        d = data.draw(st.integers(min_value=0, max_value=t))
        sigma2 = 3.0
        v = component_variances(n, t, sigma2)
        mine = sum(v[k] for k in removable_indices(d, t))
        assert mine == pytest.approx(per_survivor_excess(n, t, d, sigma2), rel=1e-9)

    def test_monotonicity_fewer_dropouts_more_removal(self):
        """Eq. 2: the per-survivor removal shrinks as dropouts grow."""
        prev = float("inf")
        for d in range(0, 6):
            cur = per_survivor_excess(16, 5, min(d, 5), 1.0)
            assert cur <= prev
            prev = cur


class TestRemovalPlan:
    def test_no_dropout_removes_all_indexed_components(self):
        assert list(removable_indices(0, 3)) == [1, 2, 3]

    def test_full_tolerance_removes_nothing(self):
        assert list(removable_indices(3, 3)) == []

    def test_beyond_tolerance_rejected(self):
        with pytest.raises(ValueError):
            removable_indices(4, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            removable_indices(-1, 3)


class TestCollusionInflation:
    def test_factor_formula(self):
        assert inflation_factor(10, 1) == pytest.approx(10 / 9)

    def test_no_collusion_no_inflation(self):
        assert inflation_factor(10, 0) == 1.0

    def test_mild_collusion_factor_close_to_one(self):
        """§3.3: t ≫ T_C keeps the inflation slight (here < 2%)."""
        assert inflation_factor(100, 1) < 1.02

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            inflation_factor(0, 0)
        with pytest.raises(ValueError):
            inflation_factor(5, 5)
        with pytest.raises(ValueError):
            inflation_factor(5, -1)

    @given(
        n=st.integers(min_value=4, max_value=60),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_theorem2_residual_with_collusion_at_least_target(self, n, data):
        """After an adversary with |C∩U| ≤ T_C strips every seed it can see,
        the residual noise is still ≥ σ²_* (Theorem 2's final inequality).

        Adversary's best case per the proof: it observes the sum over the
        honest survivors L (|L| ≥ t − |C∩U|) and the revealed seeds
        g_{u,k} for k ≥ |U\\L| + 1 − |C∩U|, removing those components.
        The bound applies when the dropout stays within tolerance,
        i.e. |U\\L| − |C∩U| ≤ T.
        """
        t = data.draw(st.integers(min_value=n // 2 + 1, max_value=n))
        tc = data.draw(st.integers(min_value=0, max_value=min(t - 1, n // 4)))
        c_in_u = data.draw(st.integers(min_value=0, max_value=tc))
        tol = data.draw(st.integers(min_value=0, max_value=n - 1))
        sigma2 = 1.0
        infl = inflation_factor(t, tc)
        v = component_variances(n, tol, sigma2, inflation=infl)
        # Honest survivor count: at least t − |C∩U| (Lemma 1's δ) and
        # large enough that the missing noise stays within tolerance.
        l_min = max(t - c_in_u, n - tol - c_in_u, 1)
        l_max = n - c_in_u
        if l_min > l_max:
            return  # infeasible corner (tolerance too small for this t)
        l_size = data.draw(st.integers(min_value=l_min, max_value=l_max))
        # Components the adversary CANNOT remove: k ≤ |U\L| − |C∩U|.
        keep_up_to = min(n - l_size - c_in_u, tol)
        residual = l_size * sum(v[k] for k in range(0, keep_up_to + 1))
        assert residual >= sigma2 * (1 - 1e-9)


class TestNoiseDecompositionBundle:
    def test_bundle_consistency(self):
        dec = NoiseDecomposition(
            n_sampled=16, tolerance=5, target_variance=4.0, threshold=11,
            collusion_tolerance=1,
        )
        assert dec.n_components == 6
        assert sum(dec.variances()) == pytest.approx(dec.client_total_variance())
        # Residual with inflation: σ²_* × t/(t−T_C) (the §3.3 caveat that
        # the malicious setting enforces slightly *more* than the minimum).
        assert dec.residual_variance(3) == pytest.approx(4.0 * 11 / 10)

    def test_bundle_validation(self):
        with pytest.raises(ValueError):
            NoiseDecomposition(n_sampled=4, tolerance=4, target_variance=1.0)
        with pytest.raises(ValueError):
            NoiseDecomposition(
                n_sampled=4, tolerance=2, target_variance=1.0, threshold=2,
                collusion_tolerance=2,
            )
        with pytest.raises(ValueError):
            NoiseDecomposition(n_sampled=4, tolerance=1, target_variance=-1.0)
