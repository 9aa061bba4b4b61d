"""DSkellam mechanism: encode/decode fidelity, noise statistics, scaling."""

import math

import numpy as np
import pytest

from repro.dp.skellam import SkellamConfig, SkellamMechanism, choose_scale
from repro.utils.rng import derive_rng


def make_mechanism(dimension=64, clip=1.0, bits=20, scale=128.0):
    return SkellamMechanism(
        SkellamConfig(dimension=dimension, clip_bound=clip, bits=bits, scale=scale)
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dimension=0, clip_bound=1.0),
            dict(dimension=8, clip_bound=0.0),
            dict(dimension=8, clip_bound=1.0, bits=2),
            dict(dimension=8, clip_bound=1.0, bits=63),
            dict(dimension=8, clip_bound=1.0, scale=0.0),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SkellamConfig(**kwargs)

    def test_paper_defaults(self):
        cfg = SkellamConfig(dimension=8, clip_bound=1.0)
        assert cfg.bits == 20
        assert cfg.k_multiplier == 3.0
        assert cfg.beta == pytest.approx(math.exp(-0.5))


class TestEncodeDecode:
    def test_single_client_roundtrip_accuracy(self):
        mech = make_mechanism()
        rng = derive_rng("sk-rt")
        update = derive_rng("sk-rt-vec").normal(size=64) * 0.05
        encoded = mech.encode(update, noise_variance=0.0, rng=rng)
        decoded = mech.decode(encoded)
        # Quantization error per coordinate is O(1/scale).
        np.testing.assert_allclose(decoded, update, atol=5.0 / 128.0)

    def test_multi_client_sum_roundtrip(self):
        mech = make_mechanism()
        rng = derive_rng("sk-multi")
        updates = [derive_rng("sk-m", i).normal(size=64) * 0.05 for i in range(8)]
        encoded = [mech.encode(u, 0.0, rng) for u in updates]
        agg = mech.aggregate_ring(encoded)
        decoded = mech.decode(agg)
        np.testing.assert_allclose(decoded, sum(updates), atol=8 * 5.0 / 128.0)

    def test_clipping_applied_in_encode(self):
        mech = make_mechanism(clip=0.5)
        rng = derive_rng("sk-clip")
        big = np.ones(64) * 10.0
        decoded = mech.decode(mech.encode(big, 0.0, rng))
        assert np.linalg.norm(decoded) <= 0.5 * 1.05  # small quantization slack

    def test_encode_output_in_ring(self):
        mech = make_mechanism()
        rng = derive_rng("sk-ring")
        encoded = mech.encode(np.ones(64) * 0.01, noise_variance=100.0, rng=rng)
        assert encoded.min() >= 0
        assert encoded.max() < mech.modulus

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            make_mechanism().aggregate_ring([])


class TestDivergedUpdateIsRefused:
    """A NaN or ±inf update used to burn all 64 rounding attempts and
    come back as a vector of INT64_MIN under a RuntimeWarning — one
    diverged client silently poisoning the ring aggregate."""

    @pytest.mark.parametrize("poison", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_update_raises_before_any_work(self, poison):
        mech = make_mechanism(dimension=1 << 12)
        update = derive_rng("sk-poison").normal(size=1 << 12) * 0.01
        update[777] = poison
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="NaN or ±inf"):
            mech.encode_signal(update, rng)
        with pytest.raises(ValueError, match="NaN or ±inf"):
            mech.encode(update, 4.0, rng)
        # No rounding attempt was made: the generator is where it began.
        assert rng.random() == np.random.default_rng(5).random()

    def test_discrete_gaussian_rounder_refuses_it_too(self):
        from repro.dp.dgauss import DGaussConfig, DiscreteGaussianMechanism

        mech = DiscreteGaussianMechanism(DGaussConfig(dimension=8, clip_bound=1.0))
        with pytest.raises(ValueError, match="non-finite"):
            mech.encode(np.array([0.1] * 7 + [float("nan")]), 1.0, np.random.default_rng(0))

    def test_finite_update_with_an_overflowing_norm_clips_to_zeros_as_before(self):
        # ‖x‖ = inf on finite entries: clip_l2's factor is bound/inf = 0.
        mech = make_mechanism(dimension=50)
        with np.errstate(over="ignore"):
            encoded = mech.encode_signal(np.full(50, 1e200), np.random.default_rng(5))
        assert not encoded.any()

    def test_all_zero_update_still_encodes_to_zeros(self):
        mech = make_mechanism(dimension=50)
        encoded = mech.encode_signal(np.zeros(50), np.random.default_rng(5))
        assert encoded.dtype == np.int64 and encoded.shape == (64,)
        assert not encoded.any()
        np.testing.assert_array_equal(mech.decode(mech.wrap(encoded)), np.zeros(50))

    def test_a_coordinate_the_ring_cannot_hold_is_refused(self):
        # One client's signal past ±2**(b−1) cannot survive the wrap: a
        # sure decoding error, raised where it is made.  (The first
        # basis vector times the sign row rotates onto a single axis.)
        mech = make_mechanism(dimension=64, clip=1.0, bits=8, scale=200.0)
        update = mech.rotation.signs[:64] / 8.0  # norm 1: all of it on axis 0
        with pytest.raises(ValueError, match=r"outside \[-128, 128\)"):
            mech.encode_signal(update, np.random.default_rng(0))
        fits = make_mechanism(dimension=64, clip=1.0, bits=8, scale=100.0)
        assert fits.encode_signal(update, np.random.default_rng(0))[0] == 100


class TestSkellamNoise:
    def test_variance_matches_parameter(self):
        mech = make_mechanism(dimension=4096)
        noise = mech.sample_noise(50.0, derive_rng("sk-var"))
        assert noise.var() == pytest.approx(50.0, rel=0.1)
        assert abs(noise.mean()) < 1.0

    def test_zero_variance_is_zero_vector(self):
        mech = make_mechanism()
        assert not mech.sample_noise(0.0, derive_rng("z")).any()

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            make_mechanism().sample_noise(-1.0, derive_rng("n"))

    def test_closure_under_summation(self):
        """Sum of Sk(v1) and Sk(v2) has variance v1+v2 — the property the
        XNoise decomposition algebra requires (§3)."""
        mech = make_mechanism(dimension=4096)
        rng = derive_rng("sk-close")
        total = mech.sample_noise(30.0, rng) + mech.sample_noise(20.0, rng)
        assert total.var() == pytest.approx(50.0, rel=0.1)

    def test_integer_valued(self):
        noise = make_mechanism().sample_noise(10.0, derive_rng("int"))
        assert noise.dtype == np.int64


class TestNoisePreservedThroughRing:
    def test_decoded_noise_variance(self):
        """Encode with noise, decode, compare residual to expectation in the
        real domain (variance_scaled / scale²)."""
        scale = 64.0
        mech = make_mechanism(dimension=2048, scale=scale)
        rng = derive_rng("sk-e2e")
        update = np.zeros(2048)
        var_scaled = 400.0
        decoded = mech.decode(mech.encode(update, var_scaled, rng))
        # Rotation is orthogonal so the noise variance is preserved.
        expected_real_var = var_scaled / scale**2
        assert decoded.var() == pytest.approx(expected_real_var, rel=0.15)


class TestChooseScale:
    def test_more_clients_smaller_scale(self):
        s16 = choose_scale(20, 16, 1.0, 1.0, 1024)
        s100 = choose_scale(20, 100, 1.0, 1.0, 1024)
        assert s100 < s16

    def test_more_bits_larger_scale(self):
        s20 = choose_scale(20, 16, 1.0, 1.0, 1024)
        s24 = choose_scale(24, 16, 1.0, 1.0, 1024)
        assert s24 > 8 * s20 * 0.9  # roughly 2**4 growth

    def test_raises_when_bits_insufficient(self):
        with pytest.raises(ValueError):
            choose_scale(4, 1000, 1.0, 10.0, 2**16)

    def test_no_overflow_at_chosen_scale(self):
        """End-to-end: n clients, chosen scale, noise on — aggregate decodes
        to the true sum without ring wraparound."""
        n, d, z = 8, 256, 1.0
        scale = choose_scale(20, n, 1.0, z, d)
        mech = SkellamMechanism(
            SkellamConfig(dimension=d, clip_bound=1.0, bits=20, scale=scale)
        )
        d2, _ = mech.scaled_sensitivities()
        var_client = (z * d2) ** 2 / n
        rng = derive_rng("overflow-test")
        updates = [derive_rng("ov", i).normal(size=d) * 0.1 for i in range(n)]
        encoded = [mech.encode(u, var_client, rng) for u in updates]
        decoded = mech.decode(mech.aggregate_ring(encoded))
        truth = sum(updates)
        noise_std_real = z * d2 / scale
        # Error should be explained by DP noise, not wraparound blowups.
        assert np.abs(decoded - truth).max() < 8 * noise_std_real + 1.0


class TestSensitivities:
    def test_l2_includes_rounding_slack(self):
        mech = make_mechanism(dimension=64, clip=1.0, scale=128.0)
        d2, d1 = mech.scaled_sensitivities()
        assert d2 == pytest.approx(128.0 + math.sqrt(64) / 2)
        assert d1 <= d2**2

    def test_l1_uses_tighter_of_two_bounds(self):
        # Huge dimension: √d·Δ2 exceeds Δ2², so Δ1 = Δ2² is chosen.
        small = make_mechanism(dimension=4, scale=1000.0)
        d2, d1 = small.scaled_sensitivities()
        assert d1 == pytest.approx(min(d2**2, 2 * d2))
