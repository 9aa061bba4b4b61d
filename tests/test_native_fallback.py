"""The native kernel's fallback is bit-identical and announced.

``native.load()`` returning ``None`` used to be a memoized secret.  It
now emits one ``RuntimeWarning`` per process naming the reason, and the
pure-Python/numpy path it falls back to — PRG expansion, mask folding,
the masked-vector bit packer, Skellam noise expansion, modular
exponentiation (``pow``) *and* the DSkellam transform (butterfly and
rounder) — must produce the same frames, masks, masked vectors, noise
vectors, keys, signatures, encoded updates, aggregates and training
trajectories as the C kernel.  Each side runs in a fresh interpreter
(the load outcome is memoized per process) with the process's
randomness replaced by one fixed stream, so DH secrets, Schnorr nonces,
Shamir coefficients, noise seeds and AE nonces — and with them every
frame of the round — repeat exactly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: One serialized SecAgg round with a dropout (so the coordinator
#: re-derives masks too), a second, wider one whose masked vectors are
#: kept as uploaded, one XNoise round that removes noise directly and
#: through stage 5, a fixed frame, fixed expansions, and two short
#: ``DordisSession`` runs (plain and chunked) on the DSkellam encode —
#: run under ``warnings.catch_warnings`` so every announcement is counted.
SCRIPT = r"""
import hashlib, itertools, json, secrets, warnings
import numpy as np

_draws = itertools.count()

def _token_bytes(nbytes):
    out = b""
    while len(out) < nbytes:
        out += hashlib.sha256(b"fixed" + next(_draws).to_bytes(8, "big")).digest()
    return out[:nbytes]

secrets.token_bytes = _token_bytes
secrets.randbelow = lambda n: int.from_bytes(
    _token_bytes((n.bit_length() + 7) // 8 + 8), "big") % n

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro import native
    from repro.crypto.dh import MODP_512, MODP_2048, KeyAgreement
    from repro.crypto.signature import SchnorrSigner, SchnorrVerifier
    from repro.crypto.prg import expand_uniform
    from repro.engine import RoundEngine, SerializingTransport, run_sync
    from repro.secagg import DropoutSchedule, SecAggConfig, arun_secagg_round
    from repro.secagg.types import STAGE_MASKED_INPUT, STAGE_UNMASK, MaskedInputMsg
    from repro.wire import KIND_RESPONSE, decode_payload
    from repro.wire import codecs as wire_codecs
    from repro.wire.codecs import encode_payload_frame
    from repro.xnoise.protocol import (
        XNoiseConfig, arun_xnoise_round, skellam_noise_from_seed,
    )

    # Key agreement and signatures, on both production groups: one pair,
    # then a whole neighbourhood (a group of eight and a tail) in one call.
    keys = hashlib.sha256()
    signatures = hashlib.sha256()
    for group in (MODP_512, MODP_2048):
        ka = KeyAgreement(group)
        alice, bob = ka.generate(), ka.generate()
        (agreed,) = ka.agree(alice, [bob.public])
        assert [agreed] == ka.agree(bob, [alice.public])
        keys.update(ka.public_bytes(alice) + ka.public_bytes(bob) + agreed)
        peers = [ka.generate() for _ in range(11)]
        neighbourhood = ka.agree(alice, [peer.public for peer in peers])
        assert neighbourhood == [ka.agree(peer, [alice.public])[0] for peer in peers]
        keys.update(b"".join(neighbourhood))
        signer = SchnorrSigner(group.random_exponent(), group)
        signature = signer.sign(b"round:0|u3:1,2,3,5")
        assert SchnorrVerifier(signer.public, group).verify(
            b"round:0|u3:1,2,3,5", signature)
        signatures.update(signature.to_bytes())

    # Every frame the round puts on the wire, in order, and every
    # masked vector a client uploads.
    round_frames = hashlib.sha256()
    masked_vectors = hashlib.sha256()
    def _recording(kind, payload):
        frame = encode_payload_frame(kind, payload)
        round_frames.update(frame)
        if isinstance(payload, MaskedInputMsg):
            masked_vectors.update(payload.masked_vector.tobytes())
        return frame
    wire_codecs.encode_payload_frame = _recording

    config = SecAggConfig(threshold=3, bits=20, dimension=301, dh_group="modp512")
    rng = np.random.default_rng(11)
    inputs = {
        u: rng.integers(0, config.modulus, size=config.dimension, dtype=np.int64)
        for u in range(1, 6)
    }
    engine = RoundEngine(transport=SerializingTransport())
    result = run_sync(arun_secagg_round(
        config, inputs, DropoutSchedule.before_upload({4}), engine=engine
    ))
    expected = sum(inputs[u] for u in result.u3) % config.modulus

    # A plain round past one stream slab (d = 1000 > 816 elements at 20
    # bits) with two clients lost after ShareKeys: every survivor folds
    # six seeds into its input, the coordinator folds the survivors'
    # self masks and the dropped clients' pairwise masks back out.
    wide = SecAggConfig(threshold=4, bits=20, dimension=1000, dh_group="modp512")
    wide_inputs = {
        u: rng.integers(0, wide.modulus, size=wide.dimension, dtype=np.int64)
        for u in range(1, 8)
    }
    wide_result = run_sync(arun_secagg_round(
        wide, wide_inputs, DropoutSchedule.before_upload({2, 6}),
        engine=RoundEngine(transport=SerializingTransport()),
    ))
    wide_expected = sum(wide_inputs[u] for u in wide_result.u3) % wide.modulus

    # A whole XNoise round on the strip sampler (σ² = 2²⁴ ≥ 2²⁰): every
    # client adds T+1 components, the coordinator removes the excess —
    # client 5 leaves before revealing, so its seeds come back through
    # Shamir.  Noise seeds are drawn from the fixed stream too.
    xconfig = XNoiseConfig(
        secagg=SecAggConfig(threshold=3, bits=32, dimension=301, dh_group="modp512"),
        n_sampled=5, tolerance=2, target_variance=2.0**24,
    )
    signals = {u: rng.integers(-50, 50, size=301, dtype=np.int64) for u in range(1, 6)}
    xresult = run_sync(arun_xnoise_round(
        xconfig, signals, DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {2}, STAGE_UNMASK: {5}}),
        engine=RoundEngine(transport=SerializingTransport()),
    ))
    wire_codecs.encode_payload_frame = encode_payload_frame

    # Noise vectors on both sampler paths, fresh and folded in place.
    noise = hashlib.sha256()
    for variance in (2.0, 80.0, float(1 << 20), 2.28e8, 2.50e9):
        for dimension in (1, 301, 5000):
            vector = skellam_noise_from_seed(b"n" * 32, variance, dimension)
            noise.update(vector.tobytes())
            skellam_noise_from_seed(b"m" * 32, variance, dimension, out=vector, sign=-1)
            noise.update(vector.tobytes())

    digest = hashlib.sha256()
    for bits, count in [(20, 301), (1, 9), (13, 64), (33, 65), (62, 7)]:
        vector = rng.integers(0, 1 << bits, size=count, dtype=np.int64)
        frame = encode_payload_frame(
            KIND_RESPONSE, MaskedInputMsg.from_vector(9, vector, bits)
        )
        back = decode_payload(bytes(frame[8:]))
        assert np.array_equal(back.masked_vector, vector) and back.bits == bits
        digest.update(frame)
    # The fused pair a round runs: a deferred sum (negative and
    # over-range elements) reduce-packed, and the stream unpack-added
    # into a vector that is already there — past one fallback slab too.
    from repro.wire.bitpack import pack_low_bits_into, unpack_add
    fused = hashlib.sha256()
    for bits, count in [(20, 301), (1, 9), (13, 64), (33, 65), (62, 7), (20, 2 * 32768 + 77)]:
        sums = rng.integers(-(1 << 62), 1 << 62, size=count, dtype=np.int64)
        packed = bytearray()
        pack_low_bits_into(sums, bits, packed)
        fused.update(packed)
        total = rng.integers(-(1 << 40), 1 << 40, size=count, dtype=np.int64)
        fused.update(unpack_add(packed, bits, total).tobytes())
    masks = hashlib.sha256()
    for modulus in (1 << 20, 1 << 32, 1 << 33, 1 << 58, 997):
        vector = expand_uniform(b"k" * 32, 1000, modulus)
        masks.update(vector.tobytes())
        expand_uniform(b"j" * 32, 1000, modulus, out=vector, sign=-1)
        masks.update(vector.tobytes())
    # The paper's round in a session, unchunked and in two chunks: what
    # every client's DSkellam encode hands the protocol, the ring
    # aggregate the coordinator decodes, the decoded update and the
    # resulting metric trajectory.
    from repro.core import DordisConfig, DordisSession
    from repro.dp.skellam import SkellamMechanism

    encoded_inputs, ring_aggregates, decoded = (hashlib.sha256() for _ in range(3))
    _encode_signal, _decode = SkellamMechanism.encode_signal, SkellamMechanism.decode
    def _recording_encode(self, update, rng):
        signal = _encode_signal(self, update, rng)
        encoded_inputs.update(signal.tobytes())
        return signal
    def _recording_decode(self, aggregate_ring):
        ring_aggregates.update(np.ascontiguousarray(aggregate_ring).tobytes())
        update = _decode(self, aggregate_ring)
        decoded.update(np.ascontiguousarray(update).tobytes())
        return update
    SkellamMechanism.encode_signal = _recording_encode
    SkellamMechanism.decode = _recording_decode
    metric_history = []
    for chunks in (1, 2):
        session = DordisSession(DordisConfig(
            task="cifar10-like", model="softmax", mechanism="skellam",
            secure_aggregation="secagg", strategy="xnoise", pipeline_chunks=chunks,
            num_clients=8, sample_size=5, rounds=2, samples_per_client=15,
            learning_rate=0.1, epsilon=6.0, clip_bound=1.0, dropout_rate=0.2,
            tolerance_fraction=0.4, dh_group="modp512", seed=1,
        ))
        metric_history.append([float(m).hex() for m in session.run().metric_history])
    SkellamMechanism.encode_signal, SkellamMechanism.decode = _encode_signal, _decode
    native.load()
    native.load()

print(json.dumps({
    "backend": native.backend_name(),
    "announcements": [
        str(w.message) for w in caught
        if issubclass(w.category, RuntimeWarning) and "repro.native" in str(w.message)
    ],
    "u3": result.u3,
    "aggregate_is_ring_sum": bool(np.array_equal(result.aggregate, expected)),
    "aggregate": hashlib.sha256(result.aggregate.tobytes()).hexdigest(),
    "wide_u3": wide_result.u3,
    "wide_aggregate_is_ring_sum": bool(np.array_equal(wide_result.aggregate, wide_expected)),
    "wide_aggregate": hashlib.sha256(wide_result.aggregate.tobytes()).hexdigest(),
    "masked_vectors": masked_vectors.hexdigest(),
    "frames": digest.hexdigest(),
    "fused": fused.hexdigest(),
    "masks": masks.hexdigest(),
    "noise": noise.hexdigest(),
    "xnoise_u3": xresult.u3,
    "xnoise_u6": xresult.u6,
    "xnoise_removed": xresult.removed_noise_components,
    "xnoise_aggregate": hashlib.sha256(xresult.aggregate.tobytes()).hexdigest(),
    "keys": keys.hexdigest(),
    "signatures": signatures.hexdigest(),
    "round_frames": round_frames.hexdigest(),
    "session_encoded_inputs": encoded_inputs.hexdigest(),
    "session_ring_aggregates": ring_aggregates.hexdigest(),
    "session_decoded": decoded.hexdigest(),
    "session_metric_history": metric_history,
}))
"""


def _run(native_env: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NATIVE=native_env)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fallback():
    return _run("0")


@pytest.mark.timeout(300)
class TestAnnouncedFallback:
    def test_disabled_kernel_is_announced_exactly_once_with_its_reason(
        self, fallback
    ):
        assert fallback["backend"] == "python"
        (message,) = fallback["announcements"]
        assert "REPRO_NATIVE=0" in message
        assert "pure Python/numpy" in message
        assert "key agreement" in message
        assert "noise expansion" in message
        assert "mask folding" in message
        assert "DSkellam transform" in message

    def test_fallback_round_is_correct(self, fallback):
        assert fallback["u3"] == [1, 2, 3, 5]
        assert fallback["aggregate_is_ring_sum"]
        assert fallback["wide_u3"] == [1, 3, 4, 5, 7]
        assert fallback["wide_aggregate_is_ring_sum"]
        assert fallback["xnoise_u3"] == [1, 3, 4, 5]
        assert fallback["xnoise_u6"] == [1, 3, 4]  # stage 5 recovered client 5's seed
        assert fallback["xnoise_removed"] == 4  # components k = 2 of four survivors
        plain, chunked = fallback["session_metric_history"]
        assert len(plain) == len(chunked) == 2  # both sessions ran their rounds

    def test_fallback_is_bit_identical_to_the_kernel(self, fallback):
        kernel = _run("1")
        if kernel["backend"] == "python":
            # No compiler here: that, too, must have been announced.
            assert len(kernel["announcements"]) == 1
            pytest.skip("native kernel unavailable on this host")
        assert kernel["announcements"] == []
        for key in ("u3", "aggregate", "aggregate_is_ring_sum", "frames", "masks",
                    "keys", "signatures", "round_frames", "noise", "xnoise_u3",
                    "xnoise_u6", "xnoise_removed", "xnoise_aggregate", "wide_u3",
                    "wide_aggregate", "wide_aggregate_is_ring_sum", "masked_vectors", "fused",
                    "session_encoded_inputs", "session_ring_aggregates",
                    "session_decoded", "session_metric_history"):
            assert kernel[key] == fallback[key], key


class TestEveryReasonIsNamed:
    """``load()`` in this process, re-armed, with each failure staged."""

    @pytest.fixture
    def rearmed(self, monkeypatch, tmp_path):
        from repro import native

        monkeypatch.setattr(native, "_loaded", False)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_BUILD_DIR", tmp_path / "_build")
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        return native

    def _announcement(self, native) -> str:
        with pytest.warns(RuntimeWarning, match="repro.native") as caught:
            assert native.load() is None
        assert native.load() is None  # memoized: no second warning
        (warning,) = caught
        return str(warning.message)

    def test_no_compiler(self, rearmed, monkeypatch):
        monkeypatch.setattr(rearmed, "_compilers", lambda: ["no-such-cc-anywhere"])
        assert "no C compiler found" in self._announcement(rearmed)

    def test_build_error(self, rearmed, monkeypatch):
        monkeypatch.setattr(rearmed, "_compilers", lambda: ["false"])
        assert "build error (false" in self._announcement(rearmed)

    def test_probe_mismatch(self, rearmed, monkeypatch):
        class WrongKernel:
            @staticmethod
            def repro_sha256_ctr(seed, seedlen, ctr0, nblocks, out):
                return 0  # "succeeds" but leaves the digest all zero

        monkeypatch.setattr(rearmed, "_build", lambda: WrongKernel)
        assert "probe mismatch" in self._announcement(rearmed)

    @staticmethod
    def _real_kernel_with(native, **replaced):
        """The real object (built into the fixture's tmp dir) with the
        named entry points replaced by ``fn(real, *args)``."""
        import types

        real = native._build()
        entry_points = {
            name: getattr(real, name)
            for name in ("repro_sha256_ctr", "repro_sha256_ctr_lanes", "repro_pack_bits",
                         "repro_unpack_bits", "repro_pack_low_bits", "repro_unpack_add",
                         "repro_modexp", "repro_modexp_path", "repro_modexp_lanes",
                         "repro_skellam_fill",
                         "repro_skellam_weight", "repro_mask_fold", "repro_fwht",
                         "repro_stochastic_round")
        }
        for name, fn in replaced.items():
            entry_points[name] = lambda *args, _fn=fn: _fn(real, *args)
        return types.SimpleNamespace(**entry_points)

    def test_wrong_wide_block_disables_the_whole_object(self, rearmed, monkeypatch):
        # Right block by block, wrong only in a run long enough for the
        # sixteen lanes: one bit of the lane whose counter is 2**32.
        def one_wrong_lane(real, seed, seedlen, ctr0, nblocks, out):
            rc = real.repro_sha256_ctr(seed, seedlen, ctr0, nblocks, out)
            if nblocks >= 16:
                out[32 * 8] = bytes([out[32 * 8][0] ^ 1])
            return rc

        kernel = self._real_kernel_with(rearmed, repro_sha256_ctr=one_wrong_lane)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (SHA-256 counter lanes)" in message
        assert rearmed.sha256_ctr_stream(b"k" * 32, 1) is None
        assert rearmed.stream_lanes() == 1

    def test_compiler_that_refuses_the_lanes_keeps_the_rest_of_the_object(
        self, rearmed, monkeypatch, tmp_path
    ):
        # A compiler that fails on the AVX-512 section (an old one, say):
        # it only gets through the source with the section left out.
        import ctypes
        import hashlib
        import shutil

        import numpy as np

        real_cc = next((cc for cc in rearmed._compilers() if shutil.which(cc)), None)
        if real_cc is None:
            pytest.skip("no C compiler on this host")
        picky = tmp_path / "picky-cc"
        picky.write_text(
            '#!/bin/sh\ncase " $* " in *" -DREPRO_NO_X16 "*) exec '
            f'{shutil.which(real_cc)} "$@";; esac\nexit 1\n'
        )
        picky.chmod(0o755)
        monkeypatch.setattr(rearmed, "_compilers", lambda: [str(picky)])
        with pytest.warns(RuntimeWarning, match="AVX-512 section") as caught:
            lib = rearmed.load()
        assert lib is not None and len(caught) == 1
        assert "modular powers one base at a time" in str(caught[0].message)
        assert rearmed.stream_lanes() == 1 and rearmed.modexp_lanes() == 1
        assert rearmed.backend_name() in ("c-scalar", "c-sha-ni")
        out = ctypes.create_string_buffer(32)
        assert lib.repro_sha256_ctr_path(3, b"", 0, 0, 1, out) == -3  # not built
        assert out.raw == bytes(32)
        ctx = rearmed.montgomery_context((1 << 128) - 159)
        assert lib.repro_modexp_path(2, ctx.modulus, ctx.rr, ctx.rr52, ctx.limbs,
                                     b"", 0, bytes(8), 8, None) == -3
        bases = list(range(2, 13))
        assert rearmed.modexp(ctx, bases, 65537) == [pow(b, 65537, (1 << 128) - 159) for b in bases]
        # Every other kernel is there and answers as the full object does.
        stream = rearmed.sha256_ctr_stream(b"k" * 32, 40, ctr0=2**32 - 20)
        assert stream == b"".join(
            hashlib.sha256(b"k" * 32 + ctr.to_bytes(8, "big")).digest()
            for ctr in range(2**32 - 20, 2**32 + 20)
        )
        folded = np.zeros(1000, dtype=np.int64)
        assert rearmed.mask_fold(b"k" * 32, 20, folded, 1)
        from repro.crypto.prg import expand_uniform_reference

        np.testing.assert_array_equal(
            folded, expand_uniform_reference(b"k" * 32, 1000, 1 << 20)
        )

    def test_the_cached_object_is_named_by_source_and_flags(self, rearmed, monkeypatch):
        # An object built with other flags (a sanitizer, say) can never be
        # the one a production run finds.
        production = rearmed._shared_object()
        monkeypatch.setattr(rearmed, "_BUILDS", (rearmed._CFLAGS + ("-g",),))
        other = rearmed._shared_object()
        assert production != other and production.exists() and other.exists()
        assert production.parent == other.parent == rearmed._BUILD_DIR

    def test_wrong_modexp_answer_disables_the_whole_object(self, rearmed, monkeypatch):
        def one_flipped_bit(real, mod, rr, rr52, limbs, bases, count, exp, explen, out):
            real.repro_modexp(mod, rr, rr52, limbs, bases, count, exp, explen, out)
            out[0] = bytes([out[0][0] ^ 1])
            return 0

        kernel = self._real_kernel_with(rearmed, repro_modexp=one_flipped_bit)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (modular exponentiation)" in message
        assert rearmed.sha256_ctr_stream(b"k" * 32, 1) is None

    def test_one_wrong_lane_disables_the_whole_object(self, rearmed, monkeypatch):
        # Right one base at a time; in a call of several, the fourth base's
        # power comes back one bit off — what a lane that mis-carries does.
        def one_wrong_lane(real, mod, rr, rr52, limbs, bases, count, exp, explen, out):
            rc = real.repro_modexp(mod, rr, rr52, limbs, bases, count, exp, explen, out)
            if count > 1:
                at = 3 * 8 * limbs + 8 * limbs - 1
                out[at] = bytes([out[at][0] ^ 1])
            return rc

        kernel = self._real_kernel_with(rearmed, repro_modexp=one_wrong_lane)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (modular exponentiation lanes)" in message
        assert rearmed.sha256_ctr_stream(b"k" * 32, 1) is None
        assert rearmed.modexp_lanes() == 1

    def test_wrong_noise_weight_disables_the_whole_object(self, rearmed, monkeypatch):
        # One unit in the last place — what a fused multiply-add would do.
        import math

        def one_ulp_off(real, k, z):
            return math.nextafter(real.repro_skellam_weight(k, z), 2.0)

        kernel = self._real_kernel_with(rearmed, repro_skellam_weight=one_ulp_off)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (Skellam weight function)" in message
        assert rearmed.sha256_ctr_stream(b"k" * 32, 1) is None

    def test_wrong_noise_draw_disables_the_whole_object(self, rearmed, monkeypatch):
        def skips_a_trial(real, seed, seedlen, strips, nstrips, z, sign, out, n):
            rc = real.repro_skellam_fill(seed, seedlen, strips, nstrips, z, sign, out, n)
            out[n - 1] += 1
            return rc

        kernel = self._real_kernel_with(rearmed, repro_skellam_fill=skips_a_trial)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (Skellam noise expansion)" in message
        assert rearmed.modexp(rearmed.montgomery_context((1 << 128) - 159), [3], 5) is None

    def test_wrong_mask_element_disables_the_whole_object(self, rearmed, monkeypatch):
        # Right everywhere but in the element after the kernel's first
        # slab of stream (816 elements at 20 bits).
        def one_wrong_element(real, seed, seedlen, bits, sign, out, n):
            rc = real.repro_mask_fold(seed, seedlen, bits, sign, out, n)
            if n > 816:
                out[816] ^= 1
            return rc

        kernel = self._real_kernel_with(rearmed, repro_mask_fold=one_wrong_element)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (mask folding)" in message
        assert rearmed.sha256_ctr_stream(b"k" * 32, 1) is None
        assert not rearmed.mask_fold(b"k" * 32, 20, None, 1)

    def test_reducing_packer_that_does_not_reduce_disables_the_whole_object(
        self, rearmed, monkeypatch
    ):
        # Packs in-ring vectors correctly and lets the high bits of a
        # deferred sum spill into the next element.
        def unreduced(real, src, n, bits, dst):
            real.repro_pack_low_bits(src, n, bits, dst)
            return real.repro_pack_bits(src, n, bits, dst) and 0

        kernel = self._real_kernel_with(rearmed, repro_pack_low_bits=unreduced)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        assert "probe mismatch (fused bit packer)" in self._announcement(rearmed)

    @pytest.mark.parametrize("refusal", [-1, -2])
    def test_unpack_add_that_folds_what_it_should_refuse_disables_the_whole_object(
        self, rearmed, monkeypatch, refusal
    ):
        # Right on every well-formed stream; a short stream (-1) or a set
        # pad bit (-2) is added anyway — into the coordinator's sum.
        import ctypes

        def admits_anything(real, src, nbytes, n, bits, dst):
            rc = real.repro_unpack_add(src, nbytes, n, bits, dst)
            if rc == refusal:
                padded = ctypes.create_string_buffer(bytes(src[:nbytes]), (n * bits + 7) // 8)
                padded[-1] = bytes([padded[-1][0] & 0x0F])
                rc = real.repro_unpack_add(padded, len(padded), n, bits, dst)
            return rc

        kernel = self._real_kernel_with(rearmed, repro_unpack_add=admits_anything)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        assert "probe mismatch (fused bit packer)" in self._announcement(rearmed)

    def test_wrong_butterfly_disables_the_whole_object(self, rearmed, monkeypatch):
        # Right in every stage but the last: the two halves of the vector
        # come back swapped.
        import ctypes

        def swapped_last_stage(real, vector, n):
            rc = real.repro_fwht(vector, n)
            if n > 1:
                half = (ctypes.c_double * (n // 2))(*vector[: n // 2])
                vector[: n // 2] = vector[n // 2 :]
                vector[n // 2 :] = half
            return rc

        kernel = self._real_kernel_with(rearmed, repro_fwht=swapped_last_stage)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (Walsh-Hadamard butterfly)" in message
        assert rearmed.sha256_ctr_stream(b"k" * 32, 1) is None
        assert rearmed.load() is None

    def test_wrong_rounding_disables_the_whole_object(self, rearmed, monkeypatch):
        # A rounder that rounds up when the uniform *equals* the fraction.
        def rounds_up_on_a_tie(real, x, u, n, limit, out):
            rc = real.repro_stochastic_round(x, u, n, limit, out)
            for i in range(n):
                if rc == 0 and u[i] == x[i] % 1.0 != 0.0:
                    out[i] += 1
            return rc

        kernel = self._real_kernel_with(rearmed, repro_stochastic_round=rounds_up_on_a_tie)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (stochastic rounding)" in message
        assert rearmed.load() is None

    def test_rounder_that_casts_what_it_should_refuse_disables_the_whole_object(
        self, rearmed, monkeypatch
    ):
        def never_refuses(real, x, u, n, limit, out):
            real.repro_stochastic_round(x, u, n, limit, out)
            return 0

        kernel = self._real_kernel_with(rearmed, repro_stochastic_round=never_refuses)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        message = self._announcement(rearmed)
        assert "probe mismatch (stochastic rounding)" in message
        assert rearmed.sha256_ctr_stream(b"k" * 32, 1) is None

    def test_compiler_without_int128_keeps_the_rest_of_the_object(
        self, rearmed, monkeypatch
    ):
        from repro.crypto.dh import MODP_512

        kernel = self._real_kernel_with(rearmed, repro_modexp=lambda real, *args: -3)
        monkeypatch.setattr(rearmed, "_build", lambda: kernel)
        with pytest.warns(RuntimeWarning, match="128-bit integer") as caught:
            assert rearmed.load() is kernel
        assert len(caught) == 1
        assert rearmed.sha256_ctr_stream(b"k" * 32, 1) is not None
        assert rearmed.modexp(MODP_512._montgomery, [3, 4], 5) is None
        assert MODP_512.powers([3, 4], 5) == [243, 1024]

    def test_memoized_silence_after_the_first_call(self, rearmed, monkeypatch):
        import warnings

        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert "REPRO_NATIVE=0" in self._announcement(rearmed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rearmed.load() is None
            assert rearmed.backend_name() == "python"
