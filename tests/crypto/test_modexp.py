"""``DHGroup.power`` ≡ ``pow``: the native Montgomery kernel and its seams.

The kernel is an accelerator, never a second definition: whatever
``group.power(b, e)`` returns must be the integer ``pow(b, e, p)`` — on
the production groups (kernel), on :data:`TOY_GROUP` (not covered by
width, so ``pow``), on operands the kernel refuses (negative exponent,
unreduced base) and with the kernel switched off.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native
from repro.crypto.dh import (
    MODP_512,
    MODP_2048,
    TOY_GROUP,
    DHGroup,
    DHKeyPair,
    KeyAgreement,
)

GROUPS = {"modp512": MODP_512, "modp2048": MODP_2048, "toy": TOY_GROUP}
#: 2**4096 − 2**12 + 1 (odd, top bit set): the widest modulus the kernel
#: takes; a group only in the sense that ``power`` does not care.
WIDEST = DHGroup(p=(1 << 4096) - 4095, g=2, q=(1 << 4095) - 2048)


@pytest.fixture(params=["kernel", "no kernel"])
def kernel(request, monkeypatch):
    """Run the test with the loaded kernel, then with none."""
    if request.param == "no kernel":
        monkeypatch.setattr(native, "_loaded", True)
        monkeypatch.setattr(native, "_lib", None)
    return native.load() is not None


def _edge_exponents(group: DHGroup) -> list[int]:
    return [0, 1, 2, group.q - 1, group.q, group.p - 1, group.p, group.p**2 + 1]


def _edge_bases(group: DHGroup) -> list[int]:
    return [0, 1, 2, group.g, group.p - 2, group.p - 1]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_power_is_pow_on_every_edge(name, kernel):
    group = GROUPS[name]
    for base in _edge_bases(group):
        for exp in _edge_exponents(group):
            assert group.power(base, exp) == pow(base, exp, group.p), (base, exp)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_what_the_kernel_refuses_behaves_exactly_as_pow(name, kernel):
    group = GROUPS[name]
    p = group.p
    # An unreduced or negative base is reduced; a negative exponent
    # inverts; a non-invertible base with a negative exponent raises.
    for base, exp in [(p, 3), (p + 5, 7), (3 * p + 2, group.q), (-3, 7), (5, -1),
                      (group.g, -group.q), (p - 1, -3)]:
        assert group.power(base, exp) == pow(base, exp, p), (base, exp)
    with pytest.raises(ValueError):
        pow(0, -1, p)
    with pytest.raises(ValueError):
        group.power(0, -1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", ["modp512", "toy"])
def test_power_is_pow_property(name, data):
    group = GROUPS[name]
    base = data.draw(st.integers(0, group.p - 1) | st.sampled_from(_edge_bases(group)))
    exp = data.draw(
        st.integers(0, group.p - 1)
        | st.integers(0, 1 << 70)
        | st.sampled_from(_edge_exponents(group))
    )
    assert group.power(base, exp) == pow(base, exp, group.p)


@settings(max_examples=12, deadline=None)
@given(base=st.integers(0, MODP_2048.p - 1), exp=st.integers(0, MODP_2048.p - 1))
@example(base=MODP_2048.p - 1, exp=MODP_2048.q)
@example(base=2, exp=MODP_2048.q - 1)
def test_power_is_pow_property_modp2048(base, exp):
    assert MODP_2048.power(base, exp) == pow(base, exp, MODP_2048.p)


def test_an_exponent_wider_than_the_modulus_stays_in_the_kernel():
    # What the coordinator holds after reconstructing a dropped client's
    # mask key: 256 bytes whatever the group, from a possibly hostile
    # dealer — so not necessarily below q, or p.
    secret = int.from_bytes(bytes(range(1, 256)) + b"\xff", "big")
    ka = KeyAgreement(MODP_512)
    peer = ka.generate()
    agreed = ka.agree(DHKeyPair(secret=secret, public=0), peer.public)
    assert agreed == ka.agree(
        DHKeyPair(secret=secret % MODP_512.q, public=0), peer.public
    )
    if native.load() is not None:
        ctx = native.montgomery_context(MODP_512.p)
        assert native.modexp(ctx, peer.public, secret) == pow(
            peer.public, secret, MODP_512.p
        )


class TestKernelCoverage:
    """Which moduli get a Montgomery context, and that covered means used."""

    def test_production_groups_are_covered_and_the_toy_group_is_not(self):
        assert MODP_512._montgomery.limbs == 8
        assert MODP_2048._montgomery.limbs == 32
        assert len(MODP_2048._montgomery.modulus) == 256
        assert TOY_GROUP._montgomery is None

    @pytest.mark.parametrize("modulus", [
        1 << 64,               # even
        (1 << 64) - 58,        # even
        (1 << 63) - 25,        # 63 bits
        (1 << 65) + 1,         # 65 bits
        (1 << 4160) - 1,       # over the 64-limb ceiling
    ])
    def test_uncovered_moduli(self, modulus):
        assert native.montgomery_context(modulus) is None
        group = DHGroup(p=modulus, g=2, q=modulus // 2)
        assert group.power(3, 12345) == pow(3, 12345, modulus)

    @pytest.mark.parametrize("modulus", [
        (1 << 64) - 59,        # one limb
        (1 << 64) - 1,         # one limb, all ones
        (1 << 128) - 159,      # the probe's modulus
        (1 << 191) + (1 << 190) + 12345,  # three limbs, composite
        WIDEST.p,              # 64 limbs
    ])
    def test_covered_moduli_answer_from_the_kernel(self, modulus):
        if native.load() is None:
            pytest.skip("native kernel unavailable on this host")
        ctx = native.montgomery_context(modulus)
        assert ctx.limbs == modulus.bit_length() // 64
        for base, exp in [(0, 0), (0, 5), (1, 0), (modulus - 1, modulus - 1),
                          (modulus - 2, 1), (0xDEADBEEF % modulus, modulus + 7)]:
            assert native.modexp(ctx, base, exp) == pow(base, exp, modulus), (base, exp)

    def test_refusals_are_none_not_wrong_answers(self):
        if native.load() is None:
            pytest.skip("native kernel unavailable on this host")
        ctx = native.montgomery_context(MODP_512.p)
        assert native.modexp(ctx, 3, -1) is None
        assert native.modexp(ctx, -3, 5) is None
        assert native.modexp(ctx, MODP_512.p, 5) is None
        assert native.modexp(ctx, MODP_512.p << 64, 5) is None
        assert native.modexp(ctx, MODP_512.p - 1, 5) == MODP_512.p - 1


def test_dh_schnorr_and_vrf_agree_across_kernel_and_pow(monkeypatch):
    """One key pair, signature and VRF proof made with the kernel must
    check out with ``pow`` alone, and the other way round."""
    from repro.crypto.signature import SchnorrSigner, SchnorrVerifier
    from repro.crypto.vrf import generate_vrf_keypair, vrf_prove, vrf_verify

    def make():
        ka = KeyAgreement(MODP_512)
        alice, bob = ka.generate(), ka.generate()
        signer = SchnorrSigner(12345678901234567890, MODP_512)
        sk, pk = generate_vrf_keypair(MODP_512)
        return dict(
            ka=ka, alice=alice, bob=bob, key=ka.agree(alice, bob.public),
            signer=signer, sig=signer.sign(b"r|u3"),
            vrf=(pk, *vrf_prove(sk, b"round 7", MODP_512)),
        )

    def check(made):
        assert made["ka"].agree(made["bob"], made["alice"].public) == made["key"]
        verifier = SchnorrVerifier(made["signer"].public, MODP_512)
        assert verifier.verify(b"r|u3", made["sig"])
        assert not verifier.verify(b"r|u4", made["sig"])
        pk, output, proof = made["vrf"]
        assert vrf_verify(pk, b"round 7", output, proof, MODP_512)
        assert not vrf_verify(pk, b"round 8", output, proof, MODP_512)

    with_kernel = make()
    check(with_kernel)
    monkeypatch.setattr(native, "_loaded", True)
    monkeypatch.setattr(native, "_lib", None)
    check(with_kernel)
    without = make()
    monkeypatch.undo()
    check(without)
