"""The DSkellam transform plane is the pre-kernel implementation, bit for bit.

Golden vectors first: SHA-256 digests of what ``fwht``,
``RandomizedHadamard.forward`` / ``inverse``,
``SkellamMechanism.encode_signal`` and ``decode`` returned at commit
f6d6f4e — the copying numpy butterfly and the five-temporary rounder,
before either had a kernel or an in-place twin — on the inputs built
below (SHAKE-256 words, so no numpy generator version is involved; the
rounding randomness is ``default_rng(7)``).  They pin the *meaning* of
the transform: ascending-stage butterflies, ``·signs, butterfly, /√d,
·scale``, one ``rng.random(d_pad)`` per rounding attempt.  Never
regenerate them from the tree under test.

Then parity: each kernel against its numpy twin — the same public call
inside ``native.twins_only()`` — on the values where a shortcut would
show (signed zeros, subnormals, overflow to infinity, a uniform exactly
equal to the fraction).  Every golden runs twice — as loaded, and with
the kernel taken away mid-suite — and under ``REPRO_NATIVE=0`` both legs
are the twin.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.dp.quantize import conditional_stochastic_round, stochastic_round
from repro.dp.rotation import fwht
from repro.dp.skellam import SkellamConfig, SkellamMechanism

needs_kernel = pytest.mark.skipif(
    native.load() is None, reason="native kernel unavailable on this host"
)

GOLDEN = {
    1: {
        "fwht": "6a992a7ddd0f713b84da5756a3701405f0abe49eacb06f10be41a9b0e0a4ba33",
        "forward": "57ac7849e7f3efccb8a969a2a68056a972cff4bed2c4b7052e25159b06f96d2f",
        "inverse": "28ff51a065be204752046a8cf23dfdc9ac4499e156d343f3a15abf34d2275790",
        "encode_signal": "5db7fb838ab18627ebe41a35b6d62865472a18bd71ab1604164c6e199c710a07",
        "decode": "f9a6a1da80778912d52e88bfdc9a951c399d254335940742aa6d63288564fbe5",
    },
    2: {
        "fwht": "ff0914da0a0443f9f43284778a02512ecb7c291aae4d007e71c9e1463abc7cbd",
        "forward": "3c0ce19c1f59ebebcf5b7659510ebcbb99512fd2f70fc170daf69923c6e6b7cb",
        "inverse": "dcc93973c61241502fa9bac3566f1077ff203e918e45edb6b4b1c674867dcf09",
        "encode_signal": "a4c38b85270f363eebedab229b12af25fd091cc7a8362f23477d437d81a68761",
        "decode": "0b63356977cd0a6f0d1963ec30a693756ed520c0824cee639bd2be074280fe8a",
    },
    5: {
        "fwht": "1faecd6372474659ab4b2be6af7111f66dd9b9fc5bdc8db8c6cc17bee8e73a57",
        "forward": "682a718da6fcefb4e20c7d27370ea2de7240eab5505633d401e75bd38f0eaea8",
        "inverse": "2597b171886ec2dc2c95d045ad35489476274b8e7ab728f848797d1f7cd7a860",
        "encode_signal": "b6a7039d43044b1ea6bb06125ea228747209ea289f2c361106c04d4852f6331b",
        "decode": "9f5296039b87d7691d78136fc2a5fd27d379ca035bfce3b40907fe3275b6ecf6",
    },
    84_580: {  # the perf benchmark's dordis_round model
        "fwht": "70041c8d546276ff7e1cf592455ddb1d0fae74c3cefa7a419ce8da6e7ba1a65d",
        "forward": "e93367c738cf74fd33cc71eb1b754e32d2a535beff18bb4eb1c208c9f293886a",
        "inverse": "0de023185852ac5a45ceaae046960e067c8efb333700999e7cf341996d9fec71",
        "encode_signal": "ca09294ae28de29cb70cf8a3e77a2b7e24bbf1002f2b322dfeffa7307165d6c9",
        "decode": "33d729d1fdd8b2fc4918830e17e08828806781d7334136669aaa13d056f76198",
    },
    131_072: {
        "fwht": "16038bf9eb586aef7b515a7234382e5e0cc7876510aae7076728ee23cd557a1c",
        "forward": "5ad76ca2128eeea320faadade2eb3755113f6144008669be237faf090e8343a5",
        "inverse": "5829d1b3d25f0f685016cd9ae85cd6c71acf0fb4386de07b7e6ea93531dabbfe",
        "encode_signal": "e9c8e0f64a2e6c9a986982d94752dc9efe40f10b5124baa61def4e079f2f3eab",
        "decode": "b476505029aa7e11af2bccae49bb6e7b2c38dc42e3e77700a3354478991ed838",
    },
}
#: ``conditional_stochastic_round(reals("conditional", 1000) · 4000,
#: default_rng(7), 7142.0)`` at that commit: the first two attempts land
#: at norms 7143.12 and 7142.41, the third (7141.86) is accepted — and
#: the generator's next double, which is the one after three draws of
#: 1,000.
CONDITIONAL_GOLDEN = "0648640ce0705fcd677fe75c4eb44bd1f0527c301e8b449a4229c07eff6d86e8"
CONDITIONAL_NEXT_DRAW = "0x1.9e2d62acf6fb4p-3"


def digest(array) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(str(array.dtype).encode() + array.tobytes()).hexdigest()


def words(tag: str, n: int) -> np.ndarray:
    return np.frombuffer(hashlib.shake_256(tag.encode()).digest(4 * n), dtype="<u4")


def reals(tag: str, n: int) -> np.ndarray:
    """``n`` doubles in [−0.1, 0.1): clipped at d ≥ 84,580, not below."""
    return (words(tag, n) / 2.0**32 - 0.5) * 0.2


def golden_mechanism(d: int) -> SkellamMechanism:
    return SkellamMechanism(
        SkellamConfig(dimension=d, clip_bound=1.0, bits=20, scale=4096.0,
                      rotation_seed=b"golden-rotation")
    )


@pytest.fixture(params=["as-loaded", "kernel-forced-off"])
def path(request):
    """Both ways a process can run the plane, in one suite."""
    if request.param == "as-loaded":
        yield request.param
        return
    with native.twins_only():
        assert native.load() is None
        yield request.param


@pytest.mark.parametrize("d", sorted(GOLDEN))
class TestGoldenVectors:
    def test_fwht(self, d, path):
        d_pad = golden_mechanism(d).padded_dimension
        assert digest(fwht(reals(f"fwht-{d}", d_pad))) == GOLDEN[d]["fwht"]

    def test_forward_and_inverse(self, d, path):
        rot = golden_mechanism(d).rotation
        assert digest(rot.forward(reals(f"update-{d}", d))) == GOLDEN[d]["forward"]
        assert digest(rot.inverse(reals(f"inverse-{d}", rot.padded))) == GOLDEN[d]["inverse"]

    def test_encode_signal(self, d, path):
        update = reals(f"update-{d}", d)
        kept = update.copy()
        encoded = golden_mechanism(d).encode_signal(update, np.random.default_rng(7))
        assert encoded.dtype == np.int64
        assert digest(encoded) == GOLDEN[d]["encode_signal"]
        np.testing.assert_array_equal(update, kept)  # in place on its own buffer

    def test_decode(self, d, path):
        mech = golden_mechanism(d)
        ring = (words(f"ring-{d}", mech.padded_dimension) & 0xFFFFF).astype(np.int64)
        kept = ring.copy()
        decoded = mech.decode(ring)
        assert decoded.shape == (d,)
        assert digest(decoded) == GOLDEN[d]["decode"]
        np.testing.assert_array_equal(ring, kept)


class TestRounderConsumption:
    def test_one_draw_of_the_vector_per_attempt(self, path):
        rng = np.random.default_rng(7)
        rounded = conditional_stochastic_round(
            reals("conditional", 1000) * 4000, rng, 7142.0
        )
        assert digest(rounded) == CONDITIONAL_GOLDEN
        assert rng.random().hex() == CONDITIONAL_NEXT_DRAW

    def test_stochastic_round_draws_the_shape_it_is_given(self, path):
        values = reals("matrix", 12).reshape(3, 4) * 100
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        rounded = stochastic_round(values, rng)
        uniforms = twin.random((3, 4))
        floor = np.floor(values)
        np.testing.assert_array_equal(
            rounded, (floor + (uniforms < values - floor)).astype(np.int64)
        )
        assert rng.random() == twin.random()


#: Where a butterfly that is not quite the definition shows: signed
#: zeros, both subnormal ends, and magnitudes whose sums overflow.
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7e308)


def by_twin(call, *args, **kwargs):
    """``call`` with every kernel answering "not here"."""
    with native.twins_only():
        return call(*args, **kwargs)


def butterfly_input(n: int, seed: int, planted: list[tuple[int, float]]) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5)
    for position, value in planted:
        vector[position % n] = value
    return vector


@needs_kernel
class TestButterflyKernelParity:
    @given(
        n=st.sampled_from([1, 2, 4, 8, 64, 1024, 2048, 4096, 16384]),
        seed=st.integers(0, 2**32 - 1),
        planted=st.lists(
            st.tuples(st.integers(0, 16384), st.sampled_from(SPECIALS)), max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_the_twin(self, n, seed, planted):
        vector = butterfly_input(n, seed, planted)
        with np.errstate(over="ignore", invalid="ignore"):
            assert fwht(vector).tobytes() == by_twin(fwht, vector).tobytes()

    def test_overflow_to_infinity_matches(self):
        vector = np.full(8192, 1e308)
        vector[1::2] = -1e308
        with np.errstate(over="ignore", invalid="ignore"):
            kernel, twin = fwht(vector), by_twin(fwht, vector)
        assert np.isinf(kernel).any()
        assert kernel.tobytes() == twin.tobytes()

    def test_every_stage_count_up_to_a_million(self):
        rng = np.random.default_rng(17)
        for stages in range(21):
            vector = rng.standard_normal(1 << stages)
            assert fwht(vector).tobytes() == by_twin(fwht, vector).tobytes(), stages


class TestButterflyTwin:
    def test_twin_is_the_copying_butterfly(self):
        """The pre-kernel ``fwht``, verbatim, against the in-place twin."""

        def fwht_copying(vector):
            v = np.asarray(vector, dtype=float).copy()
            n, h = v.shape[0], 1
            while h < n:
                v = v.reshape(-1, 2 * h)
                left, right = v[:, :h].copy(), v[:, h:].copy()
                v[:, :h] = left + right
                v[:, h:] = left - right
                v = v.reshape(-1)
                h *= 2
            return v

        for n in (1, 2, 8, 1024, 8192):
            vector = butterfly_input(n, n, [(3, -0.0), (5, 5e-324)])
            assert by_twin(fwht, vector).tobytes() == fwht_copying(vector).tobytes()

    def test_twins_only_hands_the_kernel_back(self):
        before = native.load()
        with pytest.raises(KeyError):
            with native.twins_only():
                assert native.load() is None
                raise KeyError("inside")
        assert native.load() is before


class Dealt:
    """A generator that deals the uniforms it was given, as often as asked."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            return self.uniforms.reshape(size).copy()
        out[...] = self.uniforms
        return out


def round_with(values, uniforms, limit):
    """The rounder on these uniforms: the integers, or ``None`` if refused."""
    try:
        with np.errstate(invalid="ignore"):
            return conditional_stochastic_round(
                values, Dealt(uniforms), float("inf"), max_attempts=1, limit=limit
            )
    except ValueError:
        return None


class TestLoadTimeProbe:
    """What ``native._probe`` asks of the kernels is what the twins answer."""

    def test_probe_vector_is_the_transform_its_closed_form_says(self):
        # What native._probe feeds the kernel, through the twin.
        vector, want = np.ones(1), np.ones(1)
        for c in range(2, 10):
            vector = np.concatenate((vector, vector * c))
            want = np.concatenate((want * (1 + c), want * (1 - c)))
        np.testing.assert_array_equal(by_twin(fwht, vector), want)

    def test_probe_roundings_are_what_the_twin_computes(self):
        assert len(native._ROUND_PROBE) == 15
        for x, u, limit, want in native._ROUND_PROBE:
            got = by_twin(round_with, np.array([x]), [u], limit)
            assert (got is None) if want is None else (got.tolist() == [want]), (x, u)


class TestWrapperInputs:
    """What reaches a kernel is always its own contiguous float64 buffer."""

    def test_fwht_copies_whatever_it_is_given(self, path):
        base = reals("wrapper", 64)
        want = fwht(base)
        strided = np.repeat(base, 2)[::2]
        assert not strided.flags.c_contiguous
        readonly = base.copy()
        readonly.flags.writeable = False
        for given_ in (strided, readonly, base.tolist(), base[::-1][::-1]):
            np.testing.assert_array_equal(fwht(given_), want)
        np.testing.assert_array_equal(readonly, base)
        single = base.astype(np.float32)
        np.testing.assert_array_equal(fwht(single), fwht(single.astype(float)))

    def test_fwht_refuses_what_is_no_power_of_two_vector(self, path):
        for bad in (np.zeros(12), np.zeros((4, 2)), np.zeros(())):
            with pytest.raises(ValueError, match="power of two"):
                fwht(bad)
        assert fwht(np.zeros(0)).shape == (0,)

    def test_rotation_and_mechanism_take_float32_strided_and_readonly_updates(self, path):
        d = 300
        mech = golden_mechanism(d)
        base = reals("wrapper-update", d)
        want_forward = mech.rotation.forward(base)
        want_encoded = mech.encode_signal(base, np.random.default_rng(1))
        strided = np.repeat(base, 3)[::3]
        readonly = base.copy()
        readonly.flags.writeable = False
        for update in (strided, readonly, base.tolist()):
            np.testing.assert_array_equal(mech.rotation.forward(update), want_forward)
            np.testing.assert_array_equal(
                mech.encode_signal(update, np.random.default_rng(1)), want_encoded
            )
        np.testing.assert_array_equal(readonly, base)
        single = base.astype(np.float32)
        np.testing.assert_array_equal(
            mech.rotation.forward(single), mech.rotation.forward(single.astype(float))
        )
        ring = (words("wrapper-ring", 512) & 0xFFFFF).astype(np.int64)
        np.testing.assert_array_equal(
            mech.decode(np.repeat(ring, 2)[::2]), mech.decode(ring)
        )
        np.testing.assert_array_equal(mech.decode(ring.astype(np.uint32)), mech.decode(ring))

    def test_factor_and_divisor_are_the_multiplication_and_division(self, path):
        rot = golden_mechanism(300).rotation
        base = reals("wrapper-update", 300)
        np.testing.assert_array_equal(rot.forward(base, 0.37), rot.forward(base * 0.37))
        rotated = reals("wrapper-rotated", 512)
        np.testing.assert_array_equal(rot.inverse(rotated, 4096.0), rot.inverse(rotated / 4096.0))

    def test_shapes_are_checked_before_any_work(self, path):
        mech = golden_mechanism(5)
        with pytest.raises(ValueError, match="shape"):
            mech.encode_signal(np.zeros(6), np.random.default_rng(0))
        with pytest.raises(ValueError, match="shape"):
            mech.decode(np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError, match="shape"):
            mech.rotation.inverse(np.zeros(5))

    def test_rounders_take_strided_float32_and_matrix_values(self, path):
        values = np.array([0.5, 1.5, -2.5, 3.25])
        uniforms = [0.25, 0.75, 0.25, 0.5]
        want = np.array([1, 1, -2, 3])
        for given_ in (values, np.repeat(values, 2)[::2], values.astype(np.float32), values.tolist()):
            rounded = stochastic_round(given_, Dealt(uniforms))
            assert rounded.dtype == np.int64
            np.testing.assert_array_equal(rounded, want)
        np.testing.assert_array_equal(
            stochastic_round(values.reshape(2, 2), Dealt(uniforms)), want.reshape(2, 2)
        )
        empty = stochastic_round(np.empty(0), np.random.default_rng(0))
        assert empty.shape == (0,) and empty.dtype == np.int64


ROUND_SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, 2.0**52 + 1, -(2.0**52) - 1,
    2.0**51 + 0.5, -(2.0**51) - 0.5, 2.0**61, -(2.0**61), 4611686018427387392.0,
)

#: What cannot be an integer of the ring, whichever rounder is asked.
REFUSED = [
    (float("nan"), 0.5, 1 << 62),
    (float("inf"), 0.5, 1 << 62),
    (float("-inf"), 0.5, 1 << 62),
    (2.0**62, 0.5, 1 << 62),
    (-(2.0**62), 0.5, 1 << 62),
    (1e300, 0.5, 1 << 62),
    (7.5, 0.25, 8),  # rounds up to the limit itself
    (8.0, 0.5, 8),
    (-8.5, 0.75, 8),  # rounds down past −limit
]


@needs_kernel
class TestRounderKernelParity:
    @given(
        n=st.sampled_from([1, 2, 7, 64, 1000]),
        seed=st.integers(0, 2**32 - 1),
        planted=st.lists(
            st.tuples(st.integers(0, 999), st.sampled_from(ROUND_SPECIALS)), max_size=8
        ),
        exact=st.lists(st.integers(0, 999), max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_is_the_twin(self, n, seed, planted, exact):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 12)
        for position, value in planted:
            values[position % n] = value
        uniforms = rng.random(n)
        for position in exact:  # u exactly the fraction: must stay down
            uniforms[position % n] = values[position % n] - np.floor(values[position % n])
        kernel = round_with(values, uniforms, 1 << 62)
        np.testing.assert_array_equal(kernel, by_twin(round_with, values, uniforms, 1 << 62))
        floor = np.floor(values)
        np.testing.assert_array_equal(
            kernel, floor.astype(np.int64) + (uniforms < values - floor)
        )
        for position in exact:
            assert kernel[position % n] == floor[position % n]

    @pytest.mark.parametrize(
        "value, uniform, rounded",
        [(7.5, 0.75, 7), (-8.0, 0.0, -8), (-7.5, 0.75, -8), (7.999, 0.9995, 7)],
    )
    def test_both_accept_the_whole_signed_range(self, value, uniform, rounded):
        kernel = round_with(np.array([value]), [uniform], 8)
        twin = by_twin(round_with, np.array([value]), [uniform], 8)
        assert kernel.tolist() == twin.tolist() == [rounded]


class TestRefusalIsNamed:
    @pytest.mark.parametrize("value, uniform, limit", REFUSED)
    def test_what_the_ring_cannot_hold_is_refused_on_both_paths(self, value, uniform, limit, path):
        values = np.array([1.5, value, -2.5])
        with pytest.raises(ValueError, match=rf"non-finite value or one outside \[-{limit}, {limit}\)"):
            with np.errstate(invalid="ignore"):
                conditional_stochastic_round(
                    values, Dealt([0.5, uniform, 0.5]), float("inf"), limit=limit
                )

    @pytest.mark.parametrize("poison", [float("nan"), float("inf"), float("-inf")])
    def test_stochastic_round_refuses_instead_of_casting(self, poison, path):
        with pytest.raises(ValueError, match="non-finite"):
            with np.errstate(invalid="ignore"):
                stochastic_round(np.array([0.5, poison]), np.random.default_rng(0))

    @pytest.mark.parametrize("poison", [float("nan"), float("inf"), float("-inf")])
    def test_deterministic_fallback_refuses_it_too(self, poison, path):
        # max_attempts=0 is the fallback alone; it used to cast to INT64_MIN.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="non-finite"):
            with np.errstate(invalid="ignore"):
                conditional_stochastic_round(np.array([0.5, poison]), rng, 10.0, max_attempts=0)
        assert rng.random() == np.random.default_rng(0).random()

    def test_deterministic_fallback_stays_inside_the_signed_range(self, path):
        # 7.6 is inside [-8, 8) and its nearest integer is not.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"outside \[-8, 8\)"):
            conditional_stochastic_round(np.array([7.6]), rng, 0.0, max_attempts=0, limit=8)
        values = np.array([7.4, -7.6, -7.5, 0.5, 1.5, -0.0, 2.0**52 + 1])
        for attempts in (0, 2):  # alone, and after two roundings the bound turns down
            nearest = conditional_stochastic_round(values, rng, 0.0, max_attempts=attempts)
            assert nearest.dtype == np.int64
            np.testing.assert_array_equal(nearest, np.rint(values).astype(np.int64))
        assert nearest[:6].tolist() == [7, -8, -8, 0, 2, 0]  # halves to even
