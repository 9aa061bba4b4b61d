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
        signer = SchnorrSigner(1 + secrets.randbelow(group.q - 1), group)
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
    for modulus in (1 << 20, 1 << 32, 1 << 33, 1 << 58):
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
    "stream_announcements": [
        str(w.message) for w in caught
        if issubclass(w.category, RuntimeWarning) and "repro.crypto.prg" in str(w.message)
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


#: Makes ``import cryptography`` fail in the child, as on a host without it.
HIDE_CRYPTOGRAPHY = "import sys\nsys.modules['cryptography'] = None\n"

#: What must come out of every path byte for byte.
BIT_IDENTICAL = (
    "u3", "aggregate", "aggregate_is_ring_sum", "frames", "masks", "keys", "signatures",
    "round_frames", "noise", "xnoise_u3", "xnoise_u6", "xnoise_removed", "xnoise_aggregate",
    "wide_u3", "wide_aggregate", "wide_aggregate_is_ring_sum", "masked_vectors", "fused",
    "session_encoded_inputs", "session_ring_aggregates", "session_decoded",
    "session_metric_history",
)


def _run(native_env: str, prelude: str = "") -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NATIVE=native_env)
    done = subprocess.run(
        [sys.executable, "-c", prelude + SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=240,
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
        assert kernel["announcements"] == kernel["stream_announcements"] == []
        for key in BIT_IDENTICAL:
            assert kernel[key] == fallback[key], key

    def test_without_cryptography_the_specification_aes_serves_the_same_round(
        self, fallback
    ):
        # Without it the fallback above already ran on the specification
        # AES, and matched the kernel.
        pytest.importorskip("cryptography")
        assert fallback["stream_announcements"] == []
        spec = _run("0", prelude=HIDE_CRYPTOGRAPHY)
        (message,) = spec["stream_announcements"]
        assert "cryptography is not installed" in message
        assert "specification AES" in message
        assert spec["announcements"] == fallback["announcements"]
        for key in BIT_IDENTICAL:
            assert spec[key] == fallback[key], key


class TestTheAeKeystreamStaysOnTheKernel:
    def test_no_python_stream_call_while_the_kernel_is_loaded(self, monkeypatch):
        """The AE's 48-byte seed (``enc_key ∥ nonce``) fits the kernel: a
        ``Cipher`` object per message would cost more than the whole
        message does on the kernel."""
        from repro import native
        from repro.crypto import prg
        from repro.crypto.ae import AuthenticatedEncryption

        if not native.stream_lanes():
            pytest.skip("the counter stream is not the kernel's on this host")
        monkeypatch.setattr(prg, "_python_stream", lambda *args: pytest.fail("Python stream"))
        ae = AuthenticatedEncryption(bytes(range(32)))
        for n in (0, 1, 31, 32, 144, 432, 500):
            plaintext = bytes(i % 251 for i in range(n))
            assert ae.decrypt(ae.encrypt(plaintext)) == plaintext


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
            """Every function "succeeds" and computes nothing."""

            def __getattr__(self, name):
                return lambda *args: 0

        monkeypatch.setattr(rearmed, "_build", WrongKernel)
        assert "probe mismatch" in self._announcement(rearmed)

    def test_compiler_that_refuses_the_lanes_keeps_the_rest_of_the_object(
        self, rearmed, monkeypatch, tmp_path
    ):
        # A compiler that fails on the AVX-512 section (an old one, say):
        # it only gets through the source with the section left out.
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
        assert rearmed.stream_lanes() in (0, 8) and rearmed.modexp_lanes() == 1
        assert rearmed.backend_name() in ("c-scalar", "c-sha-ni")
        ctx = rearmed.montgomery_context((1 << 128) - 159)
        assert rearmed.modexp(ctx, [3, 5], 7, path=2) is None  # the lanes: not built
        bases = list(range(2, 13))
        assert rearmed.modexp(ctx, bases, 65537) == [pow(b, 65537, (1 << 128) - 159) for b in bases]
        # Every other kernel is there and answers as the full object does
        # (the stream and the mask fold on AES-NI alone, on a CPU with it).
        from repro.crypto.prg import PRGReference

        if rearmed.stream_lanes():
            stream = rearmed.counter_stream(b"k" * 32, 40, ctr0=2**63 - 20)
            assert stream == b"".join(
                PRGReference(b"k" * 32).block(i) for i in range(2**63 - 20, 2**63 + 20)
            )
            folded = np.zeros(1000, dtype=np.int64)
            assert rearmed.mask_fold(b"k" * 32, 20, folded, 1)
            np.testing.assert_array_equal(
                folded, PRGReference(b"k" * 32).uniform_vector(1000, 1 << 20)
            )

    def test_the_cached_object_is_named_by_source_and_flags(self, rearmed, monkeypatch, tmp_path):
        # An object built with other flags (a sanitizer, say) can never be
        # the one a production run finds, and neither can one built from
        # any other text of any plane or the header.
        production = rearmed._shared_object()
        monkeypatch.setattr(rearmed, "_BUILDS", (rearmed._CFLAGS + ("-g",),))
        other = rearmed._shared_object()
        assert production != other and production.exists() and other.exists()
        assert production.parent == other.parent == rearmed._BUILD_DIR
        planes, headers = rearmed._SOURCES, rearmed._HEADERS
        names = {production.name}
        for i, path in enumerate((*planes, *headers)):
            edited = tmp_path / path.name
            edited.write_bytes(path.read_bytes() + b"\n")
            files = [*planes, *headers]
            files[i] = edited
            monkeypatch.setattr(rearmed, "_SOURCES", tuple(files[: len(planes)]))
            monkeypatch.setattr(rearmed, "_HEADERS", tuple(files[len(planes) :]))
            names.add(rearmed._object_path(rearmed._CFLAGS).name)
        assert len(names) == 1 + len(planes) + len(headers)

    def test_memoized_silence_after_the_first_call(self, rearmed, monkeypatch):
        import warnings

        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert "REPRO_NATIVE=0" in self._announcement(rearmed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rearmed.load() is None
            assert rearmed.backend_name() == "python"
