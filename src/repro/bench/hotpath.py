"""Hot-path microbenchmarks: every fast path against its retained twin.

Each metric pair times the callable a round executes and the
``*_reference`` executable specification it is parity-pinned against
(PRG mask expansion and folding, key agreement, Skellam noise expansion,
the DSkellam transform, Shamir dealing and reconstruction, mask
accumulation), so the recorded speedups are measured on the same
machine, same inputs, same run — the trajectory point the paper's
Fig.-2-style overhead claims rest on.  The codec rows time the fast
path alone (its specification is a test oracle): the masked upload and
the control plane's messages at ``many_clients``' shape.
"""

from __future__ import annotations

import hashlib
import platform
import time
from typing import Any, Callable

import numpy as np

from repro import native
from repro.bench.schema import make_report, metric
from repro.crypto.dh import DHKeyPair, KeyAgreement, resolve_group
from repro.crypto.prg import PRGReference, expand_uniform, expand_uniform_numpy
from repro.crypto.shamir import ShamirSecretSharing
from repro.dp.rotation import fwht
from repro.dp.sampler import skellam_noise_from_seed_numpy
from repro.dp.skellam import SkellamConfig, SkellamMechanism
from repro.secagg.masking import MaskAccumulator, accumulate_masks_reference
from repro.secagg.types import AdvertiseKeysMsg, MaskedInputMsg, SharePayload, UnmaskingMsg
from repro.utils.rng import derive_rng
from repro.wire import codecs as wire_codecs
from repro.wire.bitpack import pack_bits_into, pack_low_bits_into, unpack_add, unpack_bits
from repro.wire.frame import FRAME_OVERHEAD, KIND_REQUEST, KIND_RESPONSE
from repro.xnoise.protocol import skellam_noise_from_seed

TOPIC = "hotpath"

#: What the perf benchmark's ``dordis_round`` expands 110 times a round:
#: its padded model dimension, and the smallest and largest of the seven
#: component variances its session draws.
SKELLAM_DIMENSION = 1 << 17
SKELLAM_VARIANCES = (228_000_000, 2_500_000_000)

#: Peers a many_clients client agrees with in one call: 32 clients, the
#: complete graph.
DH_BATCH_PEERS = 31

#: Holders and threshold of a many_clients client's ShareKeys deal.
SHAMIR_SHAPE = (32, 17)

#: Mask folds of the perf benchmark's data-plane workloads: 20 a round at
#: ``wide_model``'s dimension, 216 at ``dropout_recovery``'s, both over
#: the protocol's 20-bit ring.
MASK_FOLD_DIMENSIONS = (1 << 20, 1 << 18)
MASK_FOLD_BITS = 20


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (the classic noise filter)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _speedup_triplet(
    metrics: dict[str, Any], name: str, ref_s: float, fast_s: float
) -> None:
    metrics[f"{name}_reference_s"] = metric(ref_s, "s")
    metrics[f"{name}_fast_s"] = metric(fast_s, "s")
    if fast_s > 0:
        metrics[f"{name}_speedup"] = metric(ref_s / fast_s, "x")


def _codec_rows(
    metrics: dict[str, Any], name: str, kind: int, make: Callable[[], Any], repeats: int
) -> None:
    """Encode (one framed payload) and decode (its body) times and the
    frame's size; ``make`` builds the payload afresh for every encode,
    outside the timing."""
    frame = wire_codecs.encode_payload_frame(kind, make())
    body = bytes(frame[FRAME_OVERHEAD:])
    assert wire_codecs.encode_payload(wire_codecs.decode_payload(body)) == body

    def _encode() -> float:
        obj = make()
        start = time.perf_counter()
        wire_codecs.encode_payload_frame(kind, obj)
        return time.perf_counter() - start

    metrics[f"codec_encode_{name}_s"] = metric(min(_encode() for _ in range(max(1, repeats))), "s")
    metrics[f"codec_decode_{name}_s"] = metric(
        _best_of(lambda: wire_codecs.decode_payload(body), repeats), "s"
    )
    metrics[f"codec_encoded_{name}_bytes"] = metric(len(frame), "bytes")


def run_hotpath(
    dims: list[int],
    *,
    clients: int = 4,
    repeats: int = 3,
    bits: int = 20,
    seed: int = 0,
) -> dict[str, Any]:
    """Benchmark the crypto/codec hot paths; returns a schema report."""
    modulus = 1 << bits
    rng = derive_rng("bench-hotpath", seed)
    prg_seed = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
    metrics: dict[str, Any] = {}

    # PRG mask expansion, per dimension: expand_uniform returning a
    # fresh vector (a round folds its masks in place — timed below).
    for d in dims:
        ref_s = _best_of(
            lambda: PRGReference(prg_seed).uniform_vector(d, modulus), repeats
        )
        fast_s = _best_of(lambda: expand_uniform(prg_seed, d, modulus), repeats)
        _speedup_triplet(metrics, f"prg_expand_d{d}", ref_s, fast_s)

    # Mask folding: expand_uniform with out=, as every client and the
    # coordinator call it — sign·mask added into a vector that is
    # already there (the native kernel unless config.native_backend is
    # "python") — against the numpy twin, its announced fallback.
    for d in MASK_FOLD_DIMENSIONS:
        fold_args = (prg_seed, d, 1 << MASK_FOLD_BITS)
        base = rng.integers(0, 1 << MASK_FOLD_BITS, size=d).astype(np.int64)
        acc = base.copy()
        assert np.array_equal(
            expand_uniform(*fold_args, out=acc, sign=-1),
            expand_uniform_numpy(*fold_args, out=base.copy(), sign=-1),
        )
        ref_s = _best_of(
            lambda: expand_uniform_numpy(*fold_args, out=acc, sign=1), repeats
        )
        fast_s = _best_of(lambda: expand_uniform(*fold_args, out=acc, sign=-1), repeats)
        _speedup_triplet(metrics, f"mask_fold_d{d}_b{MASK_FOLD_BITS}", ref_s, fast_s)

    # The fused bit-pack pair, at wide_model's shape: the reducing pack
    # a client's deferred sum leaves through and the unpack-add the
    # coordinator folds a received masked input by — kernel against
    # numpy twin (the announced fallback), and each beside its
    # non-fused sibling on the kernel (plain pack of an in-ring vector,
    # plain unpack into a fresh one): the reduction and the add should
    # cost nothing on top.
    d = MASK_FOLD_DIMENSIONS[0]
    sums = rng.integers(-(1 << 40), 1 << 40, size=d).astype(np.int64)
    ring = sums & ((1 << MASK_FOLD_BITS) - 1)
    packed = bytearray()
    pack_bits_into(ring, MASK_FOLD_BITS, packed)
    stream = bytes(packed)
    total = np.zeros(d, dtype=np.int64)

    def _pack_low() -> bytearray:
        out = bytearray()
        pack_low_bits_into(sums, MASK_FOLD_BITS, out)
        return out

    def _pack_plain() -> bytearray:
        out = bytearray()
        pack_bits_into(ring, MASK_FOLD_BITS, out)
        return out

    def _fold() -> np.ndarray:
        return unpack_add(stream, MASK_FOLD_BITS, total)

    name = f"d{d}_b{MASK_FOLD_BITS}"
    with native.twins_only():
        by_twin, ref_s = _pack_low(), _best_of(_pack_low, repeats)
    assert by_twin == _pack_low() == packed
    _speedup_triplet(
        metrics, f"pack_low_bits_{name}", ref_s, _best_of(_pack_low, repeats)
    )
    metrics[f"pack_bits_{name}_s"] = metric(_best_of(_pack_plain, repeats), "s")
    with native.twins_only():
        by_twin, ref_s = _fold().copy(), _best_of(_fold, repeats)
    total[:] = 0
    assert np.array_equal(by_twin, _fold()) and np.array_equal(by_twin, ring)
    _speedup_triplet(metrics, f"unpack_add_{name}", ref_s, _best_of(_fold, repeats))
    metrics[f"unpack_bits_{name}_s"] = metric(
        _best_of(lambda: unpack_bits(stream, d, MASK_FOLD_BITS), repeats), "s"
    )

    # Key agreement, per group: KeyAgreement.agree (DHGroup.powers → the
    # native modexp kernel when config.native_backend is not "python")
    # against the same agreement on CPython's pow() — for one peer, then
    # per agreement for a neighbourhood of DH_BATCH_PEERS under one
    # secret, where the kernel's lanes (config.modexp_lanes) raise eight
    # bases a pass; the batch also times the kernel's scalar loop forced.
    for name in ("modp512", "modp2048"):
        ka = KeyAgreement(resolve_group(name))
        group = ka.group
        width = group.element_bytes
        secret, *peer_secrets = (
            1 + int.from_bytes(rng.bytes(width), "big") % (group.q - 1)
            for _ in range(1 + DH_BATCH_PEERS)
        )
        mine = DHKeyPair(secret=secret, public=group.power(group.g, secret))
        publics = [group.power(group.g, peer_secret) for peer_secret in peer_secrets]
        context = native.montgomery_context(group.p)

        def _hashed(shared: list[int]) -> list[bytes]:
            return [hashlib.sha256(x.to_bytes(width, "big")).digest() for x in shared]

        def _agree_pow(peers: list[int]) -> list[bytes]:
            return _hashed([pow(v, secret, group.p) for v in peers])

        def _agree_scalar(peers: list[int]) -> list[bytes]:
            shared = native.modexp(context, peers, secret, path=1)
            return _agree_pow(peers) if shared is None else _hashed(shared)

        one = publics[:1]
        assert _agree_pow(publics) == ka.agree(mine, publics) == _agree_scalar(publics)
        ref_s = _best_of(lambda: _agree_pow(one), repeats)
        fast_s = _best_of(lambda: ka.agree(mine, one), repeats)
        _speedup_triplet(metrics, f"dh_agree_{name}", ref_s, fast_s)
        batch = f"dh_agree_batch{DH_BATCH_PEERS}_{name}"
        ref_s = _best_of(lambda: _agree_pow(publics), repeats) / DH_BATCH_PEERS
        fast_s = _best_of(lambda: ka.agree(mine, publics), repeats) / DH_BATCH_PEERS
        _speedup_triplet(metrics, batch, ref_s, fast_s)
        metrics[f"{batch}_scalar_s"] = metric(
            _best_of(lambda: _agree_scalar(publics), repeats) / DH_BATCH_PEERS, "s"
        )

    # Noise expansion: skellam_noise_from_seed as the XNoise client and
    # server call it (the native kernel unless config.native_backend is
    # "python") against the numpy twin — its announced fallback — with
    # the per-variance table built beforehand, as in every round but a
    # session's first.
    for variance in SKELLAM_VARIANCES:
        expand_args = (prg_seed, float(variance), SKELLAM_DIMENSION)
        assert np.array_equal(
            skellam_noise_from_seed(*expand_args),
            skellam_noise_from_seed_numpy(*expand_args),
        )
        ref_s = _best_of(
            lambda: skellam_noise_from_seed_numpy(*expand_args), repeats
        )
        fast_s = _best_of(lambda: skellam_noise_from_seed(*expand_args), repeats)
        _speedup_triplet(
            metrics, f"skellam_expand_d{SKELLAM_DIMENSION}_var{variance}", ref_s, fast_s
        )

    # The DSkellam transform: the butterfly alone, then encode_signal
    # and decode as a session's clients and coordinator call them, on
    # the kernels against the same calls on their numpy twins — the
    # announced fallback.  Equal generators, so equal integers.
    size = 84_580  # dordis_round's model: pads to SKELLAM_DIMENSION
    config = SkellamConfig(dimension=size, clip_bound=1.0, bits=MASK_FOLD_BITS)
    mechanism = SkellamMechanism(config)
    update = rng.normal(size=size) * 0.01
    ring = rng.integers(0, mechanism.modulus, size=SKELLAM_DIMENSION)
    rotated = rng.normal(size=SKELLAM_DIMENSION)
    for name, call in (
        ("fwht", lambda: fwht(rotated)),
        (
            "skellam_encode_signal",
            lambda: mechanism.encode_signal(update, np.random.default_rng(seed)),
        ),
        ("skellam_decode", lambda: mechanism.decode(ring)),
    ):
        with native.twins_only():
            by_twin, ref_s = call(), _best_of(call, repeats)
        assert np.array_equal(call(), by_twin)
        _speedup_triplet(metrics, f"{name}_d{SKELLAM_DIMENSION}", ref_s, _best_of(call, repeats))

    # Shamir, at many_clients' shape: one client's whole ShareKeys deal
    # (its modp512 mask key at the group's secret width and its self-mask
    # seed, to every holder) in the one-pass dealer against the oracle —
    # a randbelow per coefficient, a modulo per Horner step — and the
    # same dealer at the 256-byte key width clients used to share at;
    # then the coordinator's reconstruction of the key.
    n, threshold = SHAMIR_SHAPE
    scheme = ShamirSecretSharing(threshold)
    ids = list(range(1, n + 1))
    key_width = resolve_group("modp512").secret_bytes
    key, seed_b = (bytes(rng.integers(0, 256, size=w, dtype=np.uint8)) for w in (key_width, 32))
    ref_s = _best_of(lambda: scheme.share_reference([key, seed_b], ids), repeats)
    fast_s = _best_of(lambda: scheme.share([key, seed_b], ids), repeats)
    shape = f"n{n}_t{threshold}"
    _speedup_triplet(metrics, f"shamir_share_{shape}", ref_s, fast_s)
    wide_key = key.rjust(256, b"\0")
    metrics[f"shamir_share_{shape}_width256_s"] = metric(
        _best_of(lambda: scheme.share([wide_key, seed_b], ids), repeats), "s"
    )

    shares = list(scheme.share([key], ids)[0].values())
    ref_s = _best_of(lambda: scheme.reconstruct_reference(shares), repeats)
    fast_s = _best_of(lambda: scheme.reconstruct(shares), repeats)
    _speedup_triplet(metrics, f"shamir_reconstruct_{shape}", ref_s, fast_s)

    # Codec: the masked upload a round ships — a MaskedInputMsg framed
    # as the client's RESPONSE — at the largest dimension; decode is the
    # coordinator's decode_payload over the received frame body.
    d = max(dims)
    vector = rng.integers(0, modulus, size=d).astype(np.int64)
    upload = MaskedInputMsg.from_vector(1, vector, bits)
    _codec_rows(metrics, f"d{d}", KIND_RESPONSE, lambda: upload, repeats)

    # The control plane at many_clients' shape (modp512, n = 32, t = 17):
    # one client's ShareKeys request (the whole roster and its 31
    # neighbour ids); one ShareKeys plaintext, plain and with XNoise's
    # six g:k extras; one Unmasking response with 29 b-shares and 3
    # s^SK shares.  The request's roster records are fresh each call,
    # so every record is encoded, as for a round's first recipient.
    extras = [bytes(rng.integers(0, 256, size=32, dtype=np.uint8)) for _ in range(6)]
    s_shares, b_shares, *g_shares = scheme.share([key, seed_b, *extras], ids)
    width = resolve_group("modp512").element_bytes
    publics = [bytes(rng.integers(0, 256, size=width, dtype=np.uint8)) for _ in ids]

    def _request() -> tuple:
        roster = {u: AdvertiseKeysMsg(u, c, c[::-1]) for u, c in zip(ids, publics)}
        return ("share_keys", (roster, ids[1:]))

    _codec_rows(metrics, f"share_keys_request_n{n}", KIND_REQUEST, _request, repeats)
    plain = SharePayload(1, 2, s_shares[2], b_shares[2])
    extended = SharePayload(
        1, 2, s_shares[2], b_shares[2], {f"g:{k}": g[2] for k, g in enumerate(g_shares, 1)}
    )
    for name, payload in (("share_payload", plain), ("share_payload_x6", extended)):
        data = payload.to_bytes()
        assert SharePayload.from_bytes(data) == payload
        metrics[f"codec_encode_{name}_s"] = metric(_best_of(payload.to_bytes, repeats), "s")
        metrics[f"codec_decode_{name}_s"] = metric(
            _best_of(lambda: SharePayload.from_bytes(data), repeats), "s"
        )
        metrics[f"codec_encoded_{name}_bytes"] = metric(len(data), "bytes")
    unmasking = UnmaskingMsg(
        sender=1,
        s_sk_shares={u: s_shares[u] for u in ids[29:]},
        b_shares={u: b_shares[u] for u in ids[:29]},
    )
    _codec_rows(metrics, "unmasking_b29_s3", KIND_RESPONSE, lambda: unmasking, repeats)

    # Mask accumulation: base + one mask per live neighbor.
    masks = [
        rng.integers(0, modulus, size=d).astype(np.int64)
        for _ in range(max(2, clients))
    ]
    base = rng.integers(0, modulus, size=d).astype(np.int64)

    def _fast_accumulate() -> np.ndarray:
        acc = MaskAccumulator(base, modulus, n_terms=1 + len(masks))
        for m in masks:
            acc.add(m)
        return acc.finish()

    ref_s = _best_of(
        lambda: accumulate_masks_reference(base, masks, modulus), repeats
    )
    fast_s = _best_of(_fast_accumulate, repeats)
    _speedup_triplet(metrics, f"mask_accumulate_d{d}", ref_s, fast_s)

    config = {
        "dims": list(dims),
        "clients": clients,
        "repeats": repeats,
        "bits": bits,
        "seed": seed,
        "shamir_threshold": threshold,
        "shamir_participants": n,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_backend": native.backend_name(),
        "stream_lanes": native.stream_lanes(),
        "modexp_lanes": native.modexp_lanes(),
    }
    return make_report(TOPIC, config, metrics)
