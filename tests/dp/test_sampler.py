"""The seed → Skellam noise sampler is the distribution, and the vector, it claims.

Three layers: the weight function against a 45-digit recurrence, the
table's geometry, and the drawn vectors — statistically against
``scipy.special.ive`` on both sides of the 2²⁰ switch, and bit for bit
between the C kernel and the numpy twin however the stream is buffered.
"""

import math
from decimal import Decimal, getcontext
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from repro import native
from repro.dp import sampler
from repro.dp.sampler import (
    MAX_VARIANCE,
    SERIES_MIN_VARIANCE,
    skellam_noise_from_seed,
    skellam_noise_from_seed_numpy,
    support_bound,
)

needs_kernel = pytest.mark.skipif(
    native.load() is None, reason="native kernel unavailable on this host"
)

#: The variances a benchmark session draws span these two.
SESSION_VARIANCES = (2.28e8, 2.50e9)
SERIES_VARIANCES = (float(1 << 20), 3.3e6) + SESSION_VARIANCES

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def log_weight_exact(z: float, ks: list[int]) -> dict[int, Decimal]:
    """``log(√(2πz)·e^{−z}·I_k(z))`` to ≈ 45 digits.

    The backward ratio recurrence ``r_k = 1/(2k/z + r_{k+1})`` in
    50-digit decimals, normalised by ``e^z = I_0 + 2·Σ I_k`` — one pass
    down from ≈ 18σ carrying the tail sum and, per requested k, the
    product of the ratios below it.
    """
    getcontext().prec = 50
    zd = Decimal(z)
    pending = sorted(set(ks))
    segment = {k: Decimal(1) for k in pending}
    ratio = tail = Decimal(0)
    current = None
    for k in range(math.isqrt(int(320 * z)) + 64, 0, -1):
        ratio = 1 / (Decimal(2 * k) / zd + ratio)
        tail = ratio * (1 + tail)
        if pending and k == pending[-1]:
            current = pending.pop()
        if current is not None:
            segment[current] *= ratio
    half_log = (2 * _PI * zd).ln() / 2
    out, term = {}, Decimal(1)
    for k in sorted(segment):
        if k:
            term *= segment[k]
        out[k] = half_log + (term / (1 + 2 * tail)).ln()
    return out


def weight(k: float, z: float) -> float:
    return sampler._exp_scalar(sampler._log_weight(float(k), z))


class TestWeightFunction:
    @pytest.mark.parametrize("z", SERIES_VARIANCES)
    def test_log_weight_within_1e12_of_the_exact_value_out_to_16_sigma(self, z):
        sigma = math.sqrt(z)
        ks = sorted(
            {0, 1, 2, 3, support_bound(z)}
            | {int(f * sigma) for f in (0.01, 0.1, 0.5, 1, 2, 3, 4, 6, 8, 10, 12, 14, 15.9)}
        )
        exact = log_weight_exact(z, ks)
        for k in ks:
            assert abs(Decimal(sampler._log_weight(float(k), z)) - exact[k]) < Decimal("1e-12")
            assert abs(Decimal(weight(k, z)) / exact[k].exp() - 1) < Decimal("1e-12")

    def test_exp_is_within_two_ulps_of_libm_over_its_domain(self):
        rng = np.random.default_rng(0)
        for x in np.concatenate([-rng.uniform(0, 700, 2000), rng.uniform(0, 0.3, 50), [0.0]]):
            got, want = sampler._exp_scalar(float(x)), math.exp(x)
            assert abs(got - want) <= 2 * math.ulp(want)

    def test_vector_evaluation_is_the_scalar_evaluation_bit_for_bit(self):
        rng = np.random.default_rng(1)
        for z in SERIES_VARIANCES + (float(1 << 49),):
            ks = rng.integers(-support_bound(z), support_bound(z) + 1, size=500).astype(float)
            logs = sampler._log_weight(ks, z)
            values = sampler._exp_vector(logs)
            for k, log_g, g in zip(ks, logs, values):
                assert sampler._log_weight(float(k), z) == log_g
                assert sampler._exp_scalar(float(log_g)) == g

    def test_the_probe_constants_are_what_this_module_computes(self):
        for k, z, expected in native._SKELLAM_PROBE_WEIGHTS:
            assert weight(k, z).hex() == expected
        strips = np.array(
            [(0, 5, 1 << 63, 1.0), (-1, -5, 1 << 63, 1.0)], dtype=sampler.STRIP_DTYPE
        )
        table = sampler._StripTable(float(1 << 20), strips, 1 / 1024)
        noise = np.array([10, 20, 30, 40], dtype=np.int64)
        sampler._fill_numpy(table, b"\x00" * 32, noise, -1)
        assert noise.tolist() == native._SKELLAM_PROBE_DRAWS


class TestStripTable:
    @pytest.mark.parametrize("z", SERIES_VARIANCES + (float(1 << 49), MAX_VARIANCE / 2 + 3))
    def test_strips_tile_the_support_under_a_hat_of_equal_area(self, z):
        table = sampler._strip_table(z)
        strips = table.strips
        cut = support_bound(z)
        assert 1 <= len(strips) <= 1024
        assert strips.dtype.itemsize == 32 and not strips.flags.writeable
        covered = []
        for base, width, threshold, hat in strips.tolist():
            step = 1 if width > 0 else -1
            last = base + step * (abs(width) - 1)
            covered.append((min(base, last), max(base, last)))
            assert 0 < abs(width) < 1 << 32
            inner, outer = weight(base, z), weight(last, z)
            assert hat >= inner >= outer  # the hat covers, g falls outward
            assert threshold / 2.0**64 * hat <= outer  # the squeeze is inside g
        covered.sort()
        assert covered[0][0] == -cut and covered[-1][1] == cut
        assert all(a[1] + 1 == b[0] for a, b in zip(covered, covered[1:]))
        areas = strips["hat"] * np.abs(strips["width"])
        assert areas.max() / areas.min() - 1 < 1e-12  # picked uniformly ⇒ equal area
        assert 0.8 < table.efficiency <= 1.0

    @pytest.mark.parametrize("z", SESSION_VARIANCES)
    def test_sessions_spend_about_one_word_per_element(self, z):
        assert sampler._strip_table(z).efficiency > 0.95

    def test_the_switch_is_decided_by_the_variance_alone(self):
        below = math.nextafter(SERIES_MIN_VARIANCE, 0.0)
        with mock.patch.object(sampler, "_strip_table", side_effect=AssertionError):
            assert skellam_noise_from_seed(b"switch", below, 64).any()
        with mock.patch.object(sampler, "_inversion_cdf", side_effect=AssertionError):
            assert skellam_noise_from_seed(b"switch", SERIES_MIN_VARIANCE, 64).any()

    def test_inversion_table_is_a_cdf_over_the_support(self):
        for z in (1e-300, 1e-3, 2.0, 80.0, 5000.0):
            cdf = sampler._inversion_cdf(z)
            assert len(cdf) == 2 * support_bound(z) + 1
            assert np.all(np.diff(cdf.astype(np.float64)) >= 0)
            assert int(cdf[-1]) >= 2**64 - 2**12
            # symmetric: P(k ≤ −1) = 1 − P(k ≤ 0)
            middle = len(cdf) // 2
            assert abs((int(cdf[middle - 1]) + int(cdf[middle])) / 2.0**64 - 1) < 1e-12

    def test_tables_are_cached_and_the_cache_is_bounded(self):
        assert sampler._strip_table(2.28e8) is sampler._strip_table(2.28e8)
        assert sampler._inversion_cdf(80.0) is sampler._inversion_cdf(80.0)
        assert sampler._strip_table.cache_info().maxsize == 32
        assert sampler._inversion_cdf.cache_info().maxsize == 32


@lru_cache(maxsize=None)
def _draws(z: float, n: int) -> np.ndarray:
    return skellam_noise_from_seed(b"distribution" + b"\x00" * 20, z, n)


def _exact_pmf(z: float, lo: int, hi: int) -> np.ndarray:
    return special.ive(np.abs(np.arange(lo, hi + 1)), z)


@pytest.mark.parametrize(
    "z", [2.0, 80.0, SERIES_MIN_VARIANCE - 0.5, SERIES_MIN_VARIANCE, 2.28e8]
)
class TestDistribution:
    """Fixed seeds, so every verdict is deterministic; 10⁶ draws each."""

    N = 1_000_000

    @pytest.fixture
    def draws(self, z):
        return _draws(z, self.N)

    def test_binned_chi_square_against_ive(self, z, draws):
        sigma = math.sqrt(z)
        reach = int(6 * sigma) + 8
        cdf = np.cumsum(_exact_pmf(z, -reach, reach))
        edges = np.unique(np.floor(np.linspace(-4 * sigma, 4 * sigma, 65)).astype(int))
        upper = np.concatenate([cdf[edges + reach], [1.0]])  # P(k ≤ edge), then all
        expected = np.diff(np.concatenate([[0.0], upper])) * self.N
        counts = np.diff(
            np.concatenate([[0], np.searchsorted(np.sort(draws), edges, side="right"), [self.N]])
        )
        keep = expected > 5
        statistic = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        assert stats.chi2.sf(statistic, keep.sum() - 1) > 1e-3

    def test_per_integer_chi_square_around_the_mode(self, z, draws):
        half = min(40, int(2 * math.sqrt(z)) + 2)
        window = draws[np.abs(draws) <= half]
        pmf = _exact_pmf(z, -half, half)
        expected = pmf / pmf.sum() * len(window)
        counts = np.bincount(window + half, minlength=2 * half + 1)
        statistic = ((counts - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(statistic, 2 * half) > 1e-3

    def test_moments_and_symmetric_tails(self, z, draws):
        sigma = math.sqrt(z)
        kurtosis = 3.0 + 1.0 / z
        assert abs(draws.mean()) < 5 * sigma / math.sqrt(self.N)
        assert draws.var() / z == pytest.approx(
            1.0, abs=5 * math.sqrt((kurtosis - 1) / self.N)
        )
        assert ((draws / sigma) ** 4).mean() == pytest.approx(kurtosis, abs=0.08)
        for reach in (1.0, 2.0, 3.0):
            above = int((draws > reach * sigma).sum())
            below = int((draws < -reach * sigma).sum())
            assert abs(above - below) < 5 * math.sqrt(above + below + 1)
        assert np.abs(draws).max() <= support_bound(z)


SEEDS = st.binary(min_size=1, max_size=48)
VARIANCES = st.sampled_from(SERIES_VARIANCES + (float(1 << 49),)) | st.floats(
    20, 50, exclude_max=True
).map(lambda e: 2.0**e)
DIMENSIONS = st.sampled_from([0, 1, 2, 3, 255, 257, 1001]) | st.integers(0, 3000)


@needs_kernel
class TestKernelIsTheTwin:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, variance=VARIANCES, dimension=DIMENSIONS,
           sign=st.sampled_from([1, -1]), blocks=st.integers(1, 40),
           slab=st.sampled_from([3, 64, 1 << 14]))
    def test_bit_identical_however_the_twin_buffers_its_stream(
        self, seed, variance, dimension, sign, blocks, slab
    ):
        start = np.arange(dimension, dtype=np.int64) * 7 - 3
        kernel = skellam_noise_from_seed(seed, variance, dimension, out=start.copy(), sign=sign)
        whole = skellam_noise_from_seed_numpy(
            seed, variance, dimension, out=start.copy(), sign=sign
        )
        # Requests of `blocks` blocks at a time force extend-and-resume;
        # tiny slabs move the vectorisation boundaries.
        with mock.patch.object(sampler, "_stream_blocks", lambda missing, eff: blocks), \
                mock.patch.object(sampler, "_SLAB", slab):
            pieces = skellam_noise_from_seed_numpy(
                seed, variance, dimension, out=start.copy(), sign=sign
            )
        assert np.array_equal(kernel, whole) and np.array_equal(kernel, pieces)
        fresh = skellam_noise_from_seed(seed, variance, dimension)
        assert np.array_equal(kernel - start, sign * fresh)

    def test_a_dead_strip_row_is_skipped_by_both(self):
        # 2²⁰ needs fewer than 2¹⁰ strips: row indices past the table reject.
        z = float(1 << 20)
        assert len(sampler._strip_table(z).strips) < 1024
        assert np.array_equal(
            skellam_noise_from_seed(b"dead rows", z, 5000),
            skellam_noise_from_seed_numpy(b"dead rows", z, 5000),
        )

    def test_a_seed_too_long_for_the_kernel_takes_the_twin(self):
        seed = b"s" * 48
        assert len(seed) > native.MAX_SEED_LEN
        a = skellam_noise_from_seed(seed, 2.28e8, 100)
        assert np.array_equal(a, skellam_noise_from_seed_numpy(seed, 2.28e8, 100))


class TestEntryPoint:
    @pytest.mark.parametrize("z", [80.0, 2.28e8])
    def test_a_vector_is_a_prefix_of_every_longer_one(self, z):
        long = skellam_noise_from_seed(b"prefix", z, 2000)
        for d in (0, 1, 255, 1999):
            assert np.array_equal(skellam_noise_from_seed(b"prefix", z, d), long[:d])

    @pytest.mark.parametrize("z", [80.0, 2.28e8])
    @pytest.mark.parametrize("expand", [skellam_noise_from_seed, skellam_noise_from_seed_numpy])
    def test_out_accumulates_in_place_with_a_sign(self, z, expand):
        noise = expand(b"in place", z, 333)
        assert noise.dtype == np.int64 and noise.any()
        total = np.full(333, 1000, dtype=np.int64)
        assert expand(b"in place", z, 333, out=total) is total
        assert np.array_equal(total, 1000 + noise)
        expand(b"in place", z, 333, out=total, sign=-1)
        assert np.array_equal(total, np.full(333, 1000))

    def test_different_seeds_and_variances_give_different_vectors(self):
        a = skellam_noise_from_seed(b"a" * 32, 2.28e8, 64)
        assert not np.array_equal(a, skellam_noise_from_seed(b"b" * 32, 2.28e8, 64))
        assert not np.array_equal(a, skellam_noise_from_seed(b"a" * 32, 2.29e8, 64))

    @pytest.mark.parametrize(
        "variance", [-1.0, -1e-300, float("nan"), float("inf"), -float("inf"), MAX_VARIANCE, 1e300]
    )
    def test_unsupported_variance_is_refused_before_any_stream_is_drawn(self, variance):
        with mock.patch.object(sampler, "counter_stream", side_effect=AssertionError), \
                mock.patch.object(native, "skellam_fill", side_effect=AssertionError):
            for expand in (skellam_noise_from_seed, skellam_noise_from_seed_numpy):
                with pytest.raises(ValueError, match="variance"):
                    expand(b"seed", variance, 16)

    def test_the_largest_supported_variance_expands(self):
        z = math.nextafter(MAX_VARIANCE, 0.0)
        noise = skellam_noise_from_seed(b"edge", z, 4096)
        assert np.array_equal(noise, skellam_noise_from_seed_numpy(b"edge", z, 4096))
        assert noise.std() == pytest.approx(math.sqrt(z), rel=0.05)

    def test_zero_variance_and_zero_dimension_draw_nothing(self):
        with mock.patch.object(sampler, "counter_stream", side_effect=AssertionError), \
                mock.patch.object(native, "skellam_fill", side_effect=AssertionError):
            assert not skellam_noise_from_seed(b"s", 0.0, 16).any()
            assert skellam_noise_from_seed(b"s", 2.28e8, 0).shape == (0,)

    @pytest.mark.parametrize(
        "out",
        [
            np.zeros(8, dtype=np.int32),
            np.zeros(9, dtype=np.int64),
            np.zeros((8, 1), dtype=np.int64),
            np.zeros(16, dtype=np.int64)[::2],
            [0] * 8,
        ],
    )
    def test_an_out_vector_of_the_wrong_kind_is_refused(self, out):
        with pytest.raises(ValueError, match="out must be"):
            skellam_noise_from_seed(b"s", 2.28e8, 8, out=out)

    def test_bad_sign_dimension_and_seed_are_refused(self):
        with pytest.raises(ValueError, match="sign"):
            skellam_noise_from_seed(b"s", 80.0, 8, sign=0)
        with pytest.raises(ValueError, match="dimension"):
            skellam_noise_from_seed(b"s", 80.0, -1)
        with pytest.raises(TypeError):
            skellam_noise_from_seed("seed", 80.0, 8)

    def test_support_bound_is_16_sigma(self):
        assert support_bound(2.28e8) == math.isqrt(int(256 * 2.28e8))
        assert support_bound(0.0) == 32 and support_bound(100.0) == 160 + 32
