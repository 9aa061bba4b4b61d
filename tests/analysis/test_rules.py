"""Trip / no-trip fixtures for every rule, run through the full pipeline.

Each case materialises a mini-repo under ``tmp_path`` (see conftest) so
the rule is exercised exactly as ``repro.cli check`` runs it: discovery,
scoping, suppressions, baseline.  The deliberately-broken sources are
string snippets, never committed ``.py`` files — a real fixture with a
bare ``except:`` would fail the repo's own lint gate.
"""

from __future__ import annotations

import textwrap

import pytest

from .conftest import findings_for


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip()


# ---------------------------------------------------------------------------
# parity-twin
# ---------------------------------------------------------------------------


class TestParityTwin:
    def test_trips_on_missing_twin(self, check_repo):
        result = check_repo({
            "src/repro/mod.py": _src("""
                def share_reference(secret, ids):
                    return [(i, secret) for i in ids]
            """),
        })
        (f,) = findings_for(result, "parity-twin")
        assert "no fast twin 'share'" in f.message

    def test_trips_on_signature_drift(self, check_repo):
        result = check_repo({
            "src/repro/mod.py": _src("""
                def share(secret, ids, threshold):
                    return ids

                def share_reference(secret, ids):
                    return ids
            """),
            "tests/test_share.py": "# share share_reference\n",
        })
        (f,) = findings_for(result, "parity-twin")
        assert "signature" in f.message

    def test_trips_on_missing_pinning_test(self, check_repo):
        result = check_repo({
            "src/repro/mod.py": _src("""
                def share(secret, ids):
                    return ids

                def share_reference(secret, ids):
                    return ids
            """),
        })
        (f,) = findings_for(result, "parity-twin")
        assert "pinning test" in f.message

    def test_word_boundary_naming(self, check_repo):
        # A test naming only `share_reference` does NOT count as naming
        # `share` — the twin match is word-bounded.
        result = check_repo({
            "src/repro/mod.py": _src("""
                def fleet(n):
                    return n

                def fleet_reference(n):
                    return n
            """),
            "tests/test_fleet.py": "# only fleet_reference here\n",
        })
        (f,) = findings_for(result, "parity-twin")
        assert "pinning test" in f.message

    def test_clean_pair_with_test_passes(self, check_repo):
        result = check_repo({
            "src/repro/mod.py": _src("""
                def share(secret, ids):
                    return ids

                def share_reference(secret, ids):
                    return ids
            """),
            "tests/test_share.py": _src("""
                from repro.mod import share, share_reference

                def test_parity():
                    assert share(b"s", [1]) == share_reference(b"s", [1])
            """),
        })
        assert findings_for(result, "parity-twin") == []

    def test_specification_class_out_of_scope_method_twin_checked(self, check_repo):
        result = check_repo({
            "src/repro/mod.py": _src("""
                class PRGReference:
                    def expand(self, n):
                        return n

                class Acc:
                    def fold(self, x, y):
                        return x

                    def fold_reference(self, x):
                        return x
            """),
            "tests/test_prg.py": "# PRGReference fold fold_reference\n",
        })
        # A specification class has no class twin to look for (it
        # specifies module functions); fold/fold_reference drift in
        # signature within the class scope.
        (f,) = findings_for(result, "parity-twin")
        assert "fold_reference" in f.message and "signature" in f.message

    def test_an_oracle_may_be_told_what_the_fast_side_holds(self, check_repo):
        # The reference begins with the fast twin's arguments; what
        # follows is state the fast side folded away (collect_unmask /
        # collect_unmask_reference).  A reordered or renamed prefix
        # still drifts.
        files = {
            "src/repro/mod.py": _src("""
                class Server:
                    def collect(self, messages):
                        return messages

                    def collect_reference(self, messages, vectors):
                        return messages
            """),
            "tests/test_collect.py": "# collect collect_reference\n",
        }
        assert findings_for(check_repo(files), "parity-twin") == []
        files["src/repro/mod.py"] = files["src/repro/mod.py"].replace(
            "self, messages, vectors", "self, vectors, messages"
        )
        (f,) = findings_for(check_repo(files), "parity-twin")
        assert "signature" in f.message


# ---------------------------------------------------------------------------
# headroom-guard
# ---------------------------------------------------------------------------


class TestHeadroomGuard:
    def test_trips_on_unguarded_deferred_sum(self, check_repo):
        result = check_repo({
            "src/repro/secagg/acc.py": _src("""
                def unmask(vectors, modulus):
                    acc = vectors[0]
                    for v in vectors[1:]:
                        acc += v
                    acc %= modulus
                    return acc
            """),
        })
        (f,) = findings_for(result, "headroom-guard")
        assert "'acc'" in f.message and "2**63" in f.message

    def test_guarded_function_passes(self, check_repo):
        result = check_repo({
            "src/repro/secagg/acc.py": _src("""
                def unmask(vectors, modulus):
                    if len(vectors) * (modulus - 1) >= 2**63:
                        raise OverflowError
                    acc = vectors[0]
                    for v in vectors[1:]:
                        acc += v
                    acc %= modulus
                    return acc
            """),
        })
        assert findings_for(result, "headroom-guard") == []

    def test_class_scope_guard_spans_methods(self, check_repo):
        # Accumulate, reduce, and guard in three different methods —
        # the MaskAccumulator shape — is legal.
        result = check_repo({
            "src/repro/secagg/acc.py": _src("""
                class Acc:
                    def __init__(self, n, modulus):
                        self._modulus = modulus
                        self._ok = n * (modulus - 1) < 2**63

                    def fold(self, v):
                        self._acc += v

                    def finish(self):
                        self._acc %= self._modulus
                        return self._acc
            """),
        })
        assert findings_for(result, "headroom-guard") == []

    def test_class_scope_without_guard_trips(self, check_repo):
        result = check_repo({
            "src/repro/secagg/acc.py": _src("""
                class Acc:
                    def fold(self, v):
                        self._acc += v

                    def finish(self):
                        self._acc %= self._modulus
                        return self._acc
            """),
        })
        (f,) = findings_for(result, "headroom-guard")
        assert "'self._acc'" in f.message

    #: The shapes of the ring-width data plane: a mask by ``modulus - 1``
    #: is a reduce, a packed fold / an in-place kernel's ``out=`` is an
    #: accumulate, the reducing pack is a reduce.
    _PLANE = {
        "mask-reduce": """
            def remove(total, noise, modulus):
                total -= noise
                total &= modulus - 1
                return total
        """,
        "packed-fold": """
            def collect(streams, bits, modulus, acc):
                for data in streams:
                    unpack_add(data, bits, out=acc)
                acc &= modulus - 1
                return acc
        """,
        "kernel-fold": """
            def mask(seeds, dim, modulus, acc):
                for seed in seeds:
                    prg.expand_uniform(seed, dim, modulus, out=acc)
                acc %= modulus
                return acc
        """,
        "reducing-pack": """
            def upload(masks, bits, acc, frame):
                for mask in masks:
                    acc += mask
                pack_low_bits_into(acc, bits, frame)
        """,
    }

    @pytest.mark.parametrize("shape", sorted(_PLANE))
    def test_ring_width_plane_shapes_are_deferred_accumulators(self, check_repo, shape):
        body = _src(self._PLANE[shape])
        (f,) = findings_for(
            check_repo({"src/repro/secagg/plane.py": body}), "headroom-guard"
        )
        assert "2**63" in f.message
        header, rest = body.split("\n", 1)
        guarded = f"{header}\n    assert 3 * (1 << 20) < 2**63\n{rest}"
        assert findings_for(
            check_repo({"src/repro/secagg/plane.py": guarded}), "headroom-guard"
        ) == []

    def test_a_mask_by_anything_else_is_not_a_reduction(self, check_repo):
        result = check_repo({
            "src/repro/secagg/plane.py": _src("""
                def low_byte(acc, v, flags):
                    acc += v
                    acc &= 0xFF
                    acc &= flags - 1
                    return acc
            """),
        })
        assert findings_for(result, "headroom-guard") == []

    def test_the_real_accumulators_lose_their_static_half_with_the_guard(self, check_repo):
        # Invariants 9/11/15: strip the 2**63 comparison from the real
        # sources and each deferred accumulator becomes a finding.
        from repro.analysis.runner import default_root

        root = default_root()
        files = {}
        for rel in ("src/repro/secagg/masking.py", "src/repro/xnoise/protocol.py"):
            text = (root / rel).read_text()
            assert "< 2**63" in text
            files[rel] = text.replace("< 2**63", "< LIMIT")
        messages = [f.message for f in findings_for(check_repo(files), "headroom-guard")]
        assert any("'self._acc' in class MaskAccumulator" in m for m in messages)
        assert any("'total' in remove_excess_noise" in m for m in messages)

    def test_non_modulus_reduction_out_of_scope(self, check_repo):
        # Big-int field arithmetic (`% p`) cannot overflow int64 and is
        # deliberately not matched — only modulus-named operands are.
        result = check_repo({
            "src/repro/crypto/field.py": _src("""
                def horner(coeffs, x, p):
                    acc = 0
                    for c in coeffs:
                        acc += c * x
                        acc %= p
                    return acc
            """),
        })
        assert findings_for(result, "headroom-guard") == []


# ---------------------------------------------------------------------------
# strict-decoder
# ---------------------------------------------------------------------------


#: A registry module binding one in-place codec from ``secagg/codec.py``
#: and one ordinary codec from a class of ``crypto/shamir.py`` — the
#: shape of the real ``repro.wire.codecs._ensure_defaults``.
_REGISTRY = _src("""
    class CodecError(ValueError):
        pass

    def register_codec(cls, tag, encode_body, decode_body, in_place=False):
        if tag < 0x20:
            raise ValueError("reserved tag")

    def _ensure_defaults():
        from repro.crypto.shamir import Share
        from repro.secagg import codec as secagg_codec

        register_codec(Share, 0x20, Share.to_bytes, Share.from_bytes)
        register_codec(
            object,
            0x23,
            secagg_codec.encode_masked_input,
            secagg_codec.decode_masked_input,
            in_place=True,
        )
""")


class TestStrictDecoder:
    def test_trips_on_bare_except(self, check_repo):
        result = check_repo({
            "src/repro/wire/c.py": _src("""
                def decode_header(buf):
                    try:
                        return buf[0]
                    except:  # noqa: E722
                        raise ValueError("bad")
            """),
        })
        msgs = [f.message for f in findings_for(result, "strict-decoder")]
        assert any("bare except" in m for m in msgs)

    def test_trips_on_swallowing_handler(self, check_repo):
        result = check_repo({
            "src/repro/wire/c.py": _src("""
                def decode_header(buf):
                    try:
                        if not buf:
                            raise ValueError("empty")
                        return buf[0]
                    except Exception:
                        return 0
            """),
        })
        msgs = [f.message for f in findings_for(result, "strict-decoder")]
        assert any("without re-raising" in m for m in msgs)

    def test_trips_on_silent_none(self, check_repo):
        result = check_repo({
            "src/repro/wire/c.py": _src("""
                def decode_header(buf):
                    if len(buf) < 1:
                        return None
                    if buf[0] > 10:
                        raise ValueError("bad tag")
                    return buf[0]
            """),
        })
        msgs = [f.message for f in findings_for(result, "strict-decoder")]
        assert any("returns None" in m for m in msgs)

    def test_trips_on_never_raising(self, check_repo):
        result = check_repo({
            "src/repro/wire/c.py": _src("""
                def decode_header(buf):
                    return buf[0]
            """),
        })
        msgs = [f.message for f in findings_for(result, "strict-decoder")]
        assert any("never raises ValueError" in m for m in msgs)

    def test_delegated_raise_and_local_subclass_pass(self, check_repo):
        # Raising through a module-local helper, or a module-local
        # ValueError subclass (the CodecError idiom), both satisfy the
        # rule; re-wrapping handlers are fine because they raise.
        result = check_repo({
            "src/repro/wire/c.py": _src("""
                class CodecError(ValueError):
                    pass

                def _need(buf, n):
                    if len(buf) < n:
                        raise CodecError("truncated")

                def decode_header(buf):
                    _need(buf, 1)
                    return buf[0]

                def decode_frame(buf):
                    try:
                        return decode_header(buf)
                    except Exception as exc:
                        raise CodecError(str(exc)) from exc
            """),
        })
        assert findings_for(result, "strict-decoder") == []

    def test_out_of_scope_files_ignored(self, check_repo):
        result = check_repo({
            "src/repro/fleet/c.py": _src("""
                def decode_header(buf):
                    return buf[0]
            """),
        })
        assert findings_for(result, "strict-decoder") == []


    def test_registered_codec_module_is_in_scope(self, check_repo):
        # Scoped by registration: secagg/codec.py is wire code because
        # the registry binds its decoders, whatever its filename.
        result = check_repo({
            "src/repro/wire/codecs.py": _REGISTRY,
            "src/repro/secagg/codec.py": _src("""
                def encode_masked_input(msg, out):
                    out += msg

                def decode_masked_input(data):
                    return data[0]
            """),
        })
        (f,) = findings_for(result, "strict-decoder")
        assert f.file == "src/repro/secagg/codec.py"
        assert "decode_masked_input never raises ValueError" in f.message

    def test_class_bound_decoder_is_checked_whatever_its_name(self, check_repo):
        # ``Share.from_bytes`` matches no decode_*/unpack_* prefix and
        # its module no wire path: the registry binding puts it in scope.
        result = check_repo({
            "src/repro/wire/codecs.py": _REGISTRY,
            "src/repro/crypto/shamir.py": _src("""
                class Share:
                    def to_bytes(self):
                        return b""

                    @classmethod
                    def from_bytes(cls, data):
                        return cls()

                def from_int(value):
                    return value
            """),
        })
        (f,) = findings_for(result, "strict-decoder")
        assert f.file == "src/repro/crypto/shamir.py"
        assert "from_bytes never raises ValueError" in f.message

    def test_registered_decoder_raising_imported_codec_error_passes(
        self, check_repo
    ):
        result = check_repo({
            "src/repro/wire/codecs.py": _REGISTRY,
            "src/repro/secagg/codec.py": _src("""
                from repro.wire.codecs import CodecError

                def encode_masked_input(msg, out):
                    out += msg

                def decode_masked_input(data):
                    if not data:
                        raise CodecError("truncated")
                    return data[0]
            """),
        })
        assert findings_for(result, "strict-decoder") == []

    def test_unpack_functions_are_decoders_too(self, check_repo):
        result = check_repo({
            "src/repro/wire/bitpack.py": _src("""
                def unpack_bits(data, count, bits):
                    return data[:count]
            """),
        })
        (f,) = findings_for(result, "strict-decoder")
        assert "unpack_bits never raises ValueError" in f.message


# ---------------------------------------------------------------------------
# async-hygiene
# ---------------------------------------------------------------------------


class TestAsyncHygiene:
    @pytest.mark.parametrize("scope", ["engine", "wire"])
    def test_trips_on_blocking_call_in_coroutine(self, check_repo, scope):
        # The engine's coroutines and the wire layer's (stream readers,
        # the link) run on the same event loop.
        result = check_repo({
            f"src/repro/{scope}/a.py": _src("""
                import time

                async def run_round(self):
                    time.sleep(1)
            """),
        })
        (f,) = findings_for(result, "async-hygiene")
        assert "time.sleep" in f.message

    def test_trips_on_discarded_create_task(self, check_repo):
        result = check_repo({
            "src/repro/engine/a.py": _src("""
                import asyncio

                async def spawn_all(coros):
                    for c in coros:
                        asyncio.create_task(c)
            """),
        })
        (f,) = findings_for(result, "async-hygiene")
        assert "discarded" in f.message

    def test_consumed_task_and_async_sleep_pass(self, check_repo):
        result = check_repo({
            "src/repro/engine/a.py": _src("""
                import asyncio

                async def spawn_all(coros):
                    tasks = [asyncio.create_task(c) for c in coros]
                    await asyncio.sleep(0)
                    return tasks
            """),
        })
        assert findings_for(result, "async-hygiene") == []

    def test_blocking_in_sync_helper_is_fine(self, check_repo):
        # The rule polices coroutines; sync setup helpers may block.
        result = check_repo({
            "src/repro/engine/a.py": _src("""
                import time

                def warm_up():
                    time.sleep(0.01)
            """),
        })
        assert findings_for(result, "async-hygiene") == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_trips_on_stdlib_random(self, check_repo):
        result = check_repo({
            "src/repro/fleet/d.py": _src("""
                import random

                def sample(n):
                    return random.random() * n
            """),
        })
        (f,) = findings_for(result, "determinism")
        assert "random.random" in f.message

    def test_trips_on_global_np_random(self, check_repo):
        result = check_repo({
            "src/repro/sim/d.py": _src("""
                import numpy as np

                def draw(n):
                    return np.random.rand(n)
            """),
        })
        (f,) = findings_for(result, "determinism")
        assert "np.random.rand" in f.message

    def test_trips_on_unseeded_default_rng(self, check_repo):
        result = check_repo({
            "src/repro/crypto/d.py": _src("""
                import numpy as np

                def draw(n):
                    return np.random.default_rng().integers(0, 7, n)
            """),
        })
        (f,) = findings_for(result, "determinism")
        assert "without a seed" in f.message

    def test_trips_on_wall_clock(self, check_repo):
        result = check_repo({
            "src/repro/engine/d.py": _src("""
                import time

                def stamp(trace):
                    trace.append(time.time())
            """),
        })
        (f,) = findings_for(result, "determinism")
        assert "wall clock" in f.message

    def test_seeded_rng_and_method_calls_pass(self, check_repo):
        # Seeded default_rng and drawing through a Generator object
        # (`rng.random()` — not the stdlib module) are the sanctioned
        # idioms; out-of-scope packages may do as they like.
        result = check_repo({
            "src/repro/fleet/d.py": _src("""
                import numpy as np

                def sample(seed, n):
                    rng = np.random.default_rng(seed)
                    return rng.random() + rng.integers(0, n)
            """),
            "src/repro/dp/d.py": _src("""
                import time

                def wall():
                    return time.time()
            """),
        })
        assert findings_for(result, "determinism") == []

    def test_trips_on_os_entropy_outside_the_entropy_module(self, check_repo):
        # Anywhere under src/repro, not only the traced packages.
        result = check_repo({
            "src/repro/secagg/d.py": _src("""
                import os
                import random
                import secrets
                from secrets import token_bytes

                def seed():
                    return secrets.token_bytes(32) + os.urandom(8)

                def rng():
                    return random.SystemRandom()
            """),
        })
        messages = sorted(f.message for f in findings_for(result, "determinism"))
        assert [m.split()[0] for m in messages] == [
            "os.urandom", "random.SystemRandom", "secrets.<import>", "secrets.<import>",
            "secrets.token_bytes",
        ]
        assert all("EntropySource" in m for m in messages)

    @pytest.mark.parametrize("body, expected", [
        ("from os import urandom\nurandom(8)\n", ["os.urandom"]),
        ("import os as o\no.urandom(8)\n", ["os.urandom"]),
        ("import secrets as s\ns.token_bytes(8)\n",
         ["secrets.<import>", "secrets.token_bytes"]),
        ("from random import SystemRandom as R\nR()\n", ["random.SystemRandom"]),
    ])
    def test_trips_on_os_entropy_under_an_import_alias(self, check_repo, body, expected):
        result = check_repo({"src/repro/secagg/d.py": body})
        messages = sorted(f.message for f in findings_for(result, "determinism"))
        assert [m.split()[0] for m in messages] == expected

    def test_the_entropy_module_may_read_the_os(self, check_repo):
        result = check_repo({
            "src/repro/crypto/entropy.py": _src("""
                import secrets

                def token_bytes(n):
                    return secrets.token_bytes(n)
            """),
        })
        assert findings_for(result, "determinism") == []


# ---------------------------------------------------------------------------
# zero-copy
# ---------------------------------------------------------------------------


class TestZeroCopy:
    def test_trips_on_tobytes_in_encoder(self, check_repo):
        result = check_repo({
            "src/repro/wire/codecs.py": _src("""
                def encode_vector(arr, out):
                    if arr is None:
                        raise ValueError("no vector")
                    out += arr.tobytes()
            """),
        })
        msgs = [f.message for f in findings_for(result, "zero-copy")]
        assert any(".tobytes()" in m for m in msgs)

    def test_trips_on_range_len_loop(self, check_repo):
        result = check_repo({
            "src/repro/wire/frame.py": _src("""
                def encode_body(data, out):
                    for i in range(len(data)):
                        out.append(data[i])
            """),
        })
        msgs = [f.message for f in findings_for(result, "zero-copy")]
        assert any("range(len(...))" in m for m in msgs)

    def test_trips_on_per_byte_append_loop(self, check_repo):
        result = check_repo({
            "src/repro/wire/bitpack.py": _src("""
                def pack_masked(payload, mask, out):
                    for i, b in enumerate(payload):
                        out.append(mask[i % 4] ^ b)
            """),
        })
        msgs = [f.message for f in findings_for(result, "zero-copy")]
        assert any("byte-at-a-time" in m for m in msgs)

    def test_reference_twin_and_other_files_exempt(self, check_repo):
        # `*_reference` encoders are the concatenating spec — exempt by
        # name; files outside the three hot modules are out of scope.
        result = check_repo({
            "src/repro/wire/codecs.py": _src("""
                def encode_vector_reference(arr):
                    return arr.tobytes()
            """),
            "src/repro/secagg/other.py": _src("""
                def encode_anything(arr):
                    return arr.tobytes()
            """),
            "tests/test_enc.py":
                "# encode_vector_reference encode_vector\n",
        })
        assert findings_for(result, "zero-copy") == []

    def test_trips_on_registered_in_place_encoder_outside_wire(
        self, check_repo
    ):
        # The four-copy masked-input encoder that a wire/*.py filename
        # scope let through: flagged because the registry binds it
        # in_place.  The ordinary (small-message) codec next to it and
        # unregistered helpers stay out of scope.
        result = check_repo({
            "src/repro/wire/codecs.py": _REGISTRY,
            "src/repro/secagg/codec.py": _src("""
                def encode_masked_input(msg, out):
                    if msg is None:
                        raise ValueError("no message")
                    out += msg.masked_vector.astype(">i8").tobytes()

                def decode_masked_input(data):
                    if not data:
                        raise ValueError("truncated")
                    return data

                def encode_debug_dump(msg):
                    return msg.masked_vector.tobytes()
            """),
            "src/repro/crypto/shamir.py": _src("""
                class Share:
                    def to_bytes(self):
                        return self.ys.tobytes()

                    @classmethod
                    def from_bytes(cls, data):
                        if not data:
                            raise ValueError("truncated")
                        return data
            """),
        })
        (f,) = findings_for(result, "zero-copy")
        assert f.file == "src/repro/secagg/codec.py"
        assert ".tobytes() in encode hot path encode_masked_input" in f.message

    def test_pack_functions_in_bitpack_are_hot_encoders(self, check_repo):
        result = check_repo({
            "src/repro/wire/bitpack.py": _src("""
                def pack_bits_into(values, bits, out):
                    if bits < 1:
                        raise ValueError("bad width")
                    for i in range(len(values)):
                        out.append(values[i] & 0xFF)
            """),
        })
        msgs = [f.message for f in findings_for(result, "zero-copy")]
        assert any("range(len(...))" in m for m in msgs)

    def test_memoryview_writer_passes(self, check_repo):
        result = check_repo({
            "src/repro/wire/codecs.py": _src("""
                def encode_vector(arr, out):
                    if arr is None:
                        raise ValueError("no vector")
                    n = len(out)
                    out += b"\\x00" * arr.nbytes
                    memoryview(out)[n:] = memoryview(arr).cast("B")
            """),
        })
        assert findings_for(result, "zero-copy") == []


# ---------------------------------------------------------------------------
# suppressions through the full pipeline
# ---------------------------------------------------------------------------


class TestSuppressionsEndToEnd:
    def test_reasoned_allow_silences_a_finding(self, check_repo):
        result = check_repo({
            "src/repro/mod.py": _src("""
                # repro: allow[parity-twin] twin retired with the v2 codec
                def share_reference(secret, ids):
                    return ids
            """),
        })
        assert findings_for(result, "parity-twin") == []
        assert result.suppressed == 1

    def test_reasonless_allow_is_itself_a_finding(self, check_repo):
        result = check_repo({
            "src/repro/mod.py": _src("""
                # repro: allow[parity-twin]
                def share_reference(secret, ids):
                    return ids
            """),
        })
        # The original finding survives AND the malformed comment is
        # reported.
        assert len(findings_for(result, "parity-twin")) == 1
        (meta,) = findings_for(result, "suppression")
        assert "no reason" in meta.message
