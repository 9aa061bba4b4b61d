"""The native kernel's fallback is bit-identical and announced.

``native.load()`` returning ``None`` used to be a memoized secret.  It
now emits one ``RuntimeWarning`` per process naming the reason, and the
pure-Python/numpy path it falls back to — PRG expansion *and* the
masked-vector bit packer — must produce the same frames, masks and
aggregates as the C kernel.  Each side runs in a fresh interpreter
(the load outcome is memoized per process).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: One serialized SecAgg round with a dropout (so the coordinator
#: re-derives masks too), a fixed frame, and fixed expansions — run
#: under ``warnings.catch_warnings`` so every announcement is counted.
SCRIPT = r"""
import hashlib, json, warnings
import numpy as np

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro import native
    from repro.crypto.prg import expand_uniform
    from repro.engine import RoundEngine, SerializingTransport, run_sync
    from repro.secagg import DropoutSchedule, SecAggConfig, arun_secagg_round
    from repro.secagg.types import MaskedInputMsg
    from repro.wire import KIND_RESPONSE, decode_payload
    from repro.wire.codecs import encode_payload_frame

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

    digest = hashlib.sha256()
    for bits, count in [(20, 301), (1, 9), (13, 64), (33, 65), (62, 7)]:
        vector = rng.integers(0, 1 << bits, size=count, dtype=np.int64)
        frame = encode_payload_frame(
            KIND_RESPONSE, MaskedInputMsg(sender=9, masked_vector=vector, bits=bits)
        )
        back = decode_payload(bytes(frame[8:]))
        assert np.array_equal(back.masked_vector, vector) and back.bits == bits
        digest.update(frame)
    masks = hashlib.sha256()
    for modulus in (1 << 20, 1 << 32, 1 << 33, 997):
        masks.update(expand_uniform(b"k" * 32, 1000, modulus).tobytes())
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
    "frames": digest.hexdigest(),
    "masks": masks.hexdigest(),
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

    def test_fallback_round_is_correct(self, fallback):
        assert fallback["u3"] == [1, 2, 3, 5]
        assert fallback["aggregate_is_ring_sum"]

    def test_fallback_is_bit_identical_to_the_kernel(self, fallback):
        kernel = _run("1")
        if kernel["backend"] == "python":
            # No compiler here: that, too, must have been announced.
            assert len(kernel["announcements"]) == 1
            pytest.skip("native kernel unavailable on this host")
        assert kernel["announcements"] == []
        for key in ("u3", "aggregate", "aggregate_is_ring_sum", "frames", "masks"):
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

    def test_memoized_silence_after_the_first_call(self, rearmed, monkeypatch):
        import warnings

        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert "REPRO_NATIVE=0" in self._announcement(rearmed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rearmed.load() is None
            assert rearmed.backend_name() == "python"
