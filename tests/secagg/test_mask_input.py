"""The masked input in one pass against the accumulator it replaces.

A client's upload is ``(x + PRG(b_u) + Σ_v ±PRG(s_{u,v})) mod 2**b`` as
its packed wire bytes.  The PG slot's :meth:`CounterPRG.mask_input` packs
it slab by slab in the native kernel; :class:`MaskAccumulator` (each seed
folded through ``expand``, then ``finish_packed``) is the fallback and
the oracle.  Both must give the same bytes — directly, and for whole
SecAgg and XNoise clients — and the one-pass path must step aside
wherever only the accumulator can run.
"""

import contextlib

import numpy as np
import pytest

from repro import native
from repro.crypto.entropy import SeededEntropy
from repro.crypto.prg import COUNTER_PRG, CounterPRG, mask_input_packed
from repro.crypto.suite import Suite
from repro.secagg import SecAggClient, SecAggConfig
from repro.secagg import client as client_module
from repro.secagg.masking import MaskAccumulator
from repro.xnoise.protocol import XNoiseClient, XNoiseConfig

needs_kernel = pytest.mark.skipif(
    native.stream_lanes() == 0, reason="no kernel stream on this host (or REPRO_NATIVE=0)"
)


def accumulated(base, modulus: int, terms, prg=COUNTER_PRG) -> bytes:
    acc = MaskAccumulator(base, modulus, n_terms=1 + len(terms), prg=prg)
    for seed, sign in terms:
        acc.fold_seed(seed, sign)
    return bytes(acc.finish_packed())


def terms_of(count: int, seedlen: int = 32, salt: int = 0) -> list[tuple[bytes, int]]:
    rng = np.random.default_rng([count, seedlen, salt])
    return [
        (bytes(rng.integers(0, 256, size=seedlen, dtype=np.uint8)), int(rng.choice([1, -1])))
        for _ in range(count)
    ]


@needs_kernel
@pytest.mark.parametrize("bits", [1, 16, 20, 24, 33, 57, 58])
@pytest.mark.parametrize("d", [1, 9, 4095, 16384, 16385, 50_001])
@pytest.mark.parametrize("nseeds", [1, 4])
def test_one_pass_is_the_accumulator(bits, d, nseeds):
    rng = np.random.default_rng([bits, d, nseeds])
    base = rng.integers(-(1 << 62), 1 << 62, size=d)
    terms = terms_of(nseeds, salt=bits)
    got = mask_input_packed(base, 1 << bits, terms)
    assert isinstance(got, bytearray)
    assert bytes(got) == accumulated(base, 1 << bits, terms)
    assert bytes(COUNTER_PRG.mask_input(base, 1 << bits, terms)) == bytes(got)


@needs_kernel
def test_the_input_is_read_not_written_and_may_be_any_integer_vector():
    base = np.arange(-500, 500, dtype=np.int64)
    kept = base.copy()
    terms = terms_of(3)
    want = accumulated(kept, 1 << 20, terms)
    assert mask_input_packed(base, 1 << 20, terms) == want
    np.testing.assert_array_equal(base, kept)
    assert mask_input_packed(base.astype(np.int32), 1 << 20, terms) == want
    assert mask_input_packed(base.tolist(), 1 << 20, terms) == want
    assert mask_input_packed(np.asarray(base)[::-1][::-1], 1 << 20, terms) == want
    strided = np.repeat(base, 2)[::2]
    assert mask_input_packed(strided, 1 << 20, terms) == want


@pytest.mark.parametrize("case", [
    "seed past one SHA-256 block", "seeds of two lengths", "no headroom", "a sign of 0",
    "a ring of one element", "a matrix",
])
def test_only_the_accumulator_can(case):
    """Each case answers None, the caller's cue to fold term by term."""
    base, modulus, terms = np.arange(100), 1 << 20, terms_of(2)
    if case == "seed past one SHA-256 block":
        terms = [(bytes(native.MAX_SEED_LEN + 1), 1)]
    elif case == "seeds of two lengths":
        terms = [(bytes(32), 1), (bytes(16), -1)]
    elif case == "no headroom":  # (1 + 2)·(2**62 − 1) ≥ 2**63
        modulus = 1 << 62
    elif case == "a sign of 0":
        terms = [(bytes(32), 0)]
    elif case == "a ring of one element":
        modulus = 1
    else:
        base = np.zeros((10, 10), dtype=np.int64)
    assert mask_input_packed(base, modulus, terms) is None


def test_without_the_kernel_the_slot_steps_aside():
    with native.twins_only():
        assert mask_input_packed(np.arange(100), 1 << 20, terms_of(2)) is None


def test_headroom_edge():
    """At 58 bits a client with 31 peers (33 terms) has no headroom; at
    57 it has, and both sides agree with the accumulator."""
    base = np.arange(-40, 40)
    for bits, peers in ((58, 30), (58, 31), (57, 31)):
        terms = terms_of(1 + peers)
        got = mask_input_packed(base, 1 << bits, terms)
        fits = (2 + peers) * ((1 << bits) - 1) < 2**63
        assert (got is not None) == (fits and native.stream_lanes() > 0), (bits, peers)
        if got is not None:
            assert bytes(got) == accumulated(base, 1 << bits, terms)


def test_a_slot_that_overrides_expand_sees_every_mask():
    """The override rule: a PG slot with its own ``expand`` gets None
    from the inherited ``mask_input``, so its caller folds each term
    through that ``expand``; a slot that overrides ``mask_input`` too
    is asked first."""
    seen = []

    class Recording(CounterPRG):
        def expand(self, seed, length, modulus, out=None, sign=1):
            seen.append(seed)
            return super().expand(seed, length, modulus, out, sign)

    class OnePass(Recording):
        def mask_input(self, base, modulus, terms):
            return CounterPRG.mask_input(CounterPRG(), base, modulus, terms)

    base, terms = np.arange(1000), terms_of(3)
    assert Recording().mask_input(base, 1 << 20, terms) is None
    want = accumulated(base, 1 << 20, terms, prg=Recording())
    assert seen == [seed for seed, _ in terms]
    if native.stream_lanes():
        assert bytes(OnePass().mask_input(base, 1 << 20, terms)) == want


# -- whole clients ------------------------------------------------------------

SEED = b"one-pass-masked-input-parity-32b"


def uploads(make_client, config: SecAggConfig, inputs, *, twins=False, late=()) -> dict:
    """Every client's packed upload after AdvertiseKeys and ShareKeys on
    seeded suites; a client in ``late`` sent no ShareKeys ciphertexts
    (outside everyone's U2)."""
    suite = Suite.for_group(config.dh_group, SeededEntropy(SEED))
    clients = {u: make_client(u, suite) for u in inputs}
    roster = {u: c.advertise_keys() for u, c in clients.items()}
    sent = {u: c.share_keys(roster) for u, c in clients.items()}
    inbox = {
        v: {u: out[v] for u, out in sent.items() if v in out and u not in late} for v in clients
    }
    with native.twins_only() if twins else contextlib.nullcontext():
        return {
            u: bytes(clients[u].masked_input(inbox[u], inputs[u]).packed)
            for u in inputs if u not in late
        }


@needs_kernel
@pytest.mark.parametrize("degree", [None, 4])
def test_a_secagg_client_uploads_the_accumulators_bytes(degree, monkeypatch):
    config = SecAggConfig(
        threshold=3, bits=20, dimension=20_000, dh_group="modp512", graph_degree=degree
    )
    rng = np.random.default_rng(7)
    inputs = {u: rng.integers(-(1 << 30), 1 << 30, size=20_000) for u in range(1, 8)}

    def make(u, suite):
        return SecAggClient(u, config, suite=suite)

    want = uploads(make, config, inputs, twins=True, late={7})
    # The kernel path never builds an accumulator.
    monkeypatch.setattr(client_module, "MaskAccumulator", None)
    assert uploads(make, config, inputs, late={7}) == want


@needs_kernel
def test_an_xnoise_client_uploads_the_accumulators_bytes():
    config = XNoiseConfig(
        secagg=SecAggConfig(threshold=3, bits=18, dimension=5_000, dh_group="modp512"),
        n_sampled=5, tolerance=2, target_variance=100.0,
    )
    rng = np.random.default_rng(8)
    inputs = {u: rng.integers(-10, 11, size=5_000) for u in range(1, 6)}
    noise = {u: [bytes([u, k]) * 16 for k in range(3)] for u in inputs}

    def make(u, suite):
        return XNoiseClient(u, config, noise_seeds=noise[u], suite=suite)

    assert uploads(make, config.secagg, inputs) == uploads(make, config.secagg, inputs, twins=True)
