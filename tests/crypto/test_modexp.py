"""``DHGroup.powers`` ≡ ``pow``: the native Montgomery kernel and its seams.

The kernel is an accelerator, never a second definition: whatever
``group.powers(bases, e)`` returns must be ``[pow(b, e, p) for b in
bases]`` — on the production groups (eight IFMA lanes a pass where the
CPU has them, the scalar loop otherwise), on :data:`TOY_GROUP` (not
covered by width, so ``pow``), on a 4096-bit modulus (above the lanes'
2048-bit cap, so the scalar loop), on operands the kernel refuses
(negative exponent, unreduced base) and with the kernel switched off —
for every batch size around the group of eight.  The kernel's own
contract — each path forced, every width, every refusal, on every
object — is ``tests/test_native_matrix.py``'s.
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

#: Batch sizes around the group of eight: empty, a lone base (scalar),
#: partial groups, whole groups, whole groups and a tail of one.
COUNTS = (0, 1, 2, 7, 8, 9, 15, 16, 17, 31)

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


def _batch_bases(group: DHGroup) -> list[int]:
    """Nine distinct bases (edges first): cycled into a batch of any
    size, no two lanes of a group of eight hold the same one."""
    return _edge_bases(group) + [group.p // 3, (group.p * 5) // 7, group.p // 2 + 1]


def _batch(group: DHGroup, count: int, shift: int = 0) -> list[int]:
    distinct = _batch_bases(group)
    return [distinct[(i + shift) % len(distinct)] for i in range(count)]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_power_is_pow_on_every_edge(name, kernel):
    group = GROUPS[name]
    for base in _edge_bases(group):
        for exp in _edge_exponents(group):
            assert group.power(base, exp) == pow(base, exp, group.p), (base, exp)


@pytest.mark.parametrize("name", [*sorted(GROUPS), "widest"])
def test_powers_is_pow_for_every_batch_size(name):
    """Every count around the group of eight, every edge exponent (the
    4096-bit modulus: the short ones — its scalar loop is 30 ms a base
    at full width), each batch shifted so the edges land in every lane."""
    group = WIDEST if name == "widest" else GROUPS[name]
    exponents = _edge_exponents(group)
    if group is WIDEST:
        exponents = [e for e in exponents if e.bit_length() <= 64] + [(1 << 70) + 3]
    distinct = _batch_bases(group)
    for exp in exponents:
        want = {b: pow(b, exp, group.p) for b in distinct}
        for count in COUNTS:
            bases = _batch(group, count, shift=count)
            assert group.powers(bases, exp) == [want[b] for b in bases], (count, exp)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_what_the_kernel_refuses_behaves_exactly_as_pow(name, kernel):
    group = GROUPS[name]
    p = group.p
    # An unreduced or negative base is reduced; a negative exponent
    # inverts; a non-invertible base with a negative exponent raises.
    for base, exp in [(p, 3), (p + 5, 7), (3 * p + 2, group.q), (-3, 7), (5, -1),
                      (group.g, -group.q), (p - 1, -3)]:
        assert group.power(base, exp) == pow(base, exp, p), (base, exp)
    # One unreduced base anywhere in a batch sends the whole batch to pow.
    for at in (0, 3, 7, 8, 12):
        bases = _batch(group, 13)
        bases[at] = p + 5
        assert group.powers(bases, 65537) == [pow(b, 65537, p) for b in bases]
    with pytest.raises(ValueError):
        pow(0, -1, p)
    with pytest.raises(ValueError):
        group.power(0, -1)
    with pytest.raises(ValueError):
        group.powers([3, 0], -1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", ["modp512", "toy"])
def test_power_is_pow_property(name, data):
    group = GROUPS[name]
    element = st.integers(0, group.p - 1) | st.sampled_from(_edge_bases(group))
    exp = data.draw(
        st.integers(0, group.p - 1)
        | st.integers(0, 1 << 70)
        | st.sampled_from(_edge_exponents(group))
    )
    base = data.draw(element)
    assert group.power(base, exp) == pow(base, exp, group.p)
    bases = data.draw(st.lists(element, max_size=20))
    assert group.powers(bases, exp) == [pow(b, exp, group.p) for b in bases]


@settings(max_examples=12, deadline=None)
@given(base=st.integers(0, MODP_2048.p - 1), exp=st.integers(0, MODP_2048.p - 1))
@example(base=MODP_2048.p - 1, exp=MODP_2048.q)
@example(base=2, exp=MODP_2048.q - 1)
def test_power_is_pow_property_modp2048(base, exp):
    assert MODP_2048.power(base, exp) == pow(base, exp, MODP_2048.p)


@settings(max_examples=8, deadline=None)
@given(
    bases=st.lists(st.integers(0, MODP_2048.p - 1), min_size=2, max_size=11),
    exp=st.integers(0, MODP_2048.p - 1),
)
def test_powers_is_pow_property_modp2048(bases, exp):
    assert MODP_2048.powers(bases, exp) == [pow(b, exp, MODP_2048.p) for b in bases]


def test_an_exponent_wider_than_the_modulus_stays_in_the_kernel():
    # What the coordinator holds after reconstructing a dropped client's
    # mask key: 256 bytes whatever the group, from a possibly hostile
    # dealer — so not necessarily below q, or p.
    secret = int.from_bytes(bytes(range(1, 256)) + b"\xff", "big")
    ka = KeyAgreement(MODP_512)
    peers = [ka.generate().public for _ in range(9)]
    agreed = ka.agree(DHKeyPair(secret=secret, public=0), peers)
    assert agreed == ka.agree(DHKeyPair(secret=secret % MODP_512.q, public=0), peers)
    if native.load() is not None:
        ctx = native.montgomery_context(MODP_512.p)
        assert native.modexp(ctx, peers, secret) == [pow(v, secret, MODP_512.p) for v in peers]


class TestKeyAgreementOfANeighbourhood:
    def test_one_bad_public_refuses_the_neighbourhood_before_any_power(self, monkeypatch):
        ka = KeyAgreement(MODP_512)
        mine = ka.generate()
        good = [ka.generate().public for _ in range(5)]
        raised = []
        real = DHGroup.powers
        monkeypatch.setattr(
            DHGroup, "powers", lambda self, bases, exp: raised.append(bases) or real(self, bases, exp)
        )
        for bad in (0, 1, MODP_512.p - 1, MODP_512.p, -4):
            for at in (0, 2, 5):
                publics = good[:at] + [bad] + good[at:]
                with pytest.raises(ValueError, match="outside the group range"):
                    ka.agree(mine, publics)
        assert raised == []
        assert len(ka.agree(mine, good)) == 5 and len(raised) == 1

    def test_each_key_is_the_pairwise_one(self, kernel):
        ka = KeyAgreement(MODP_512)
        me, *peers = (ka.generate() for _ in range(18))
        keys = ka.agree(me, [peer.public for peer in peers])
        assert keys == [ka.agree(peer, [me.public])[0] for peer in peers]
        assert len(set(keys)) == len(keys)


class TestKernelCoverage:
    """Which moduli get a Montgomery context, and that covered means used."""

    def test_production_groups_are_covered_and_the_toy_group_is_not(self):
        assert MODP_512._montgomery.limbs == 8
        assert MODP_2048._montgomery.limbs == 32
        assert len(MODP_2048._montgomery.modulus) == 256
        # R = 2^(52k), k = ⌈(bits + 2)/52⌉: 4p < R for the lanes.
        assert MODP_512._montgomery.rr52 == ((1 << (2 * 52 * 10)) % MODP_512.p).to_bytes(64, "big")
        assert MODP_2048._montgomery.rr52 == ((1 << (2 * 52 * 40)) % MODP_2048.p).to_bytes(256, "big")
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
        assert group.powers([3, 5, 7], 12345) == [pow(b, 12345, modulus) for b in (3, 5, 7)]

    @pytest.mark.parametrize("modulus", [
        (1 << 64) - 59,        # one limb
        (1 << 64) - 1,         # one limb, all ones
        (1 << 128) - 159,      # the probe's modulus
        (1 << 191) + (1 << 190) + 12345,  # three limbs, composite
        (1 << 2048) - 1,       # 40 digits of 52 bits: the widest the lanes take
        (1 << 2112) - 1,       # 41 digits: the scalar loop
        WIDEST.p,              # 64 limbs
    ])
    def test_covered_moduli_answer_from_the_kernel(self, modulus):
        if native.load() is None:
            pytest.skip("native kernel unavailable on this host")
        ctx = native.montgomery_context(modulus)
        assert ctx.limbs == modulus.bit_length() // 64
        cases = [(0, 0), (0, 5), (1, 0), (modulus - 1, modulus - 1),
                 (modulus - 2, 1), (0xDEADBEEF % modulus, modulus + 7)]
        for base, exp in cases:
            assert native.modexp(ctx, [base], exp) == [pow(base, exp, modulus)], (base, exp)
        bases = [base for base, _ in cases] + [modulus // 3, modulus - 3, 7]
        exp = modulus - 2
        assert native.modexp(ctx, bases, exp) == [pow(b, exp, modulus) for b in bases]

    def test_refusals_are_none_not_wrong_answers(self):
        if native.load() is None:
            pytest.skip("native kernel unavailable on this host")
        ctx = native.montgomery_context(MODP_512.p)
        assert native.modexp(ctx, [3], -1) is None
        assert native.modexp(ctx, [-3], 5) is None
        assert native.modexp(ctx, [MODP_512.p], 5) is None
        assert native.modexp(ctx, [MODP_512.p << 64], 5) is None
        assert native.modexp(ctx, [MODP_512.p - 1], 5) == [MODP_512.p - 1]
        assert native.modexp(ctx, [], 5) == []
        assert native.modexp(ctx, [3] * 9 + [MODP_512.p], 5) is None


def test_dh_schnorr_and_vrf_agree_across_kernel_and_pow(monkeypatch):
    """One key pair, signature and VRF proof made with the kernel must
    check out with ``pow`` alone, and the other way round."""
    from repro.crypto.signature import SchnorrSigner, SchnorrVerifier
    from repro.crypto.vrf import generate_vrf_keypair, vrf_prove, vrf_verify

    def make():
        ka = KeyAgreement(MODP_512)
        alice, bob, carol = ka.generate(), ka.generate(), ka.generate()
        signer = SchnorrSigner(12345678901234567890, MODP_512)
        sk, pk = generate_vrf_keypair(MODP_512)
        return dict(
            ka=ka, alice=alice, bob=bob, carol=carol,
            keys=ka.agree(alice, [bob.public, carol.public]),
            signer=signer, sig=signer.sign(b"r|u3"),
            vrf=(pk, *vrf_prove(sk, b"round 7", MODP_512)),
        )

    def check(made):
        ka = made["ka"]
        assert made["keys"] == [ka.agree(made[who], [made["alice"].public])[0]
                                for who in ("bob", "carol")]
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
