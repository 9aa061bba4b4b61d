"""Key agreement, authenticated encryption, and signature tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ae import AEError, AuthenticatedEncryption
from repro.crypto.entropy import EntropySource
from repro.crypto.dh import KeyAgreement, MODP_2048, MODP_512 as TOY_GROUP
from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.signature import (
    SchnorrSignature,
    SchnorrSigner,
    SchnorrVerifier,
    generate_signing_keypair,
)


class FixedNonce(EntropySource):
    """An entropy source that answers every draw with one byte string."""

    def __init__(self, nonce: bytes):
        self.nonce = nonce

    def token_bytes(self, n):
        assert n == len(self.nonce)
        return self.nonce


class TestKeyAgreement:
    def test_agreement_is_symmetric(self):
        ka = KeyAgreement(TOY_GROUP)
        alice, bob = ka.generate(), ka.generate()
        assert ka.agree(alice, [bob.public]) == ka.agree(bob, [alice.public])

    def test_agreement_is_symmetric_full_group(self):
        ka = KeyAgreement(MODP_2048)
        alice, bob = ka.generate(), ka.generate()
        (key,) = ka.agree(alice, [bob.public])
        assert [key] == ka.agree(bob, [alice.public])
        assert len(key) == 32

    def test_third_party_disagrees(self):
        ka = KeyAgreement(TOY_GROUP)
        alice, bob, eve = ka.generate(), ka.generate(), ka.generate()
        assert ka.agree(alice, [bob.public]) != ka.agree(eve, [bob.public])

    def test_a_neighbourhood_is_each_pair_agreed_in_order(self):
        ka = KeyAgreement(TOY_GROUP)
        me, *peers = (ka.generate() for _ in range(10))
        keys = ka.agree(me, [peer.public for peer in peers])
        assert keys == [ka.agree(peer, [me.public])[0] for peer in peers]
        assert ka.agree(me, []) == []

    def test_degenerate_public_keys_rejected(self):
        ka = KeyAgreement(TOY_GROUP)
        mine = ka.generate()
        for bad in (0, 1, TOY_GROUP.p - 1, TOY_GROUP.p):
            with pytest.raises(ValueError):
                ka.agree(mine, [bad])

    def test_public_bytes_fixed_width(self):
        ka = KeyAgreement(MODP_2048)
        assert len(ka.public_bytes(ka.generate())) == 256

    def test_public_bytes_are_the_groups_width_whatever_the_key(self):
        # The wire form of a key: message sizes must not depend on the
        # value drawn, and decode_public is its strict inverse.
        ka = KeyAgreement(TOY_GROUP)
        assert TOY_GROUP.element_bytes == 64
        pairs = [ka.generate() for _ in range(8)]
        assert {len(ka.public_bytes(p)) for p in pairs} == {64}
        assert all(ka.decode_public(ka.public_bytes(p)) == p.public for p in pairs)

    @pytest.mark.parametrize("mangle", [
        lambda key: b"\x00" + key,  # zero-padded: same integer, other spelling
        lambda key: key[:-1],
        lambda key: b"",
        lambda key: bytes(len(key)),  # right width, degenerate element
        lambda key: int.from_bytes(key, "big"),  # an element is not its wire form
    ])
    def test_decode_public_takes_exactly_one_element_width(self, mangle):
        ka = KeyAgreement(TOY_GROUP)
        with pytest.raises(ValueError):
            ka.decode_public(mangle(ka.public_bytes(ka.generate())))


class TestAuthenticatedEncryption:
    def test_roundtrip(self):
        ae = AuthenticatedEncryption(b"k" * 32)
        blob = ae.encrypt(b"share payload u||v||s||b||g")
        assert ae.decrypt(blob) == b"share payload u||v||s||b||g"

    def test_nonce_freshness(self):
        ae = AuthenticatedEncryption(b"k" * 32)
        assert ae.encrypt(b"same") != ae.encrypt(b"same")

    def test_tampering_detected(self):
        ae = AuthenticatedEncryption(b"k" * 32)
        blob = bytearray(ae.encrypt(b"payload"))
        blob[20] ^= 0x01
        with pytest.raises(AEError):
            ae.decrypt(bytes(blob))

    def test_wrong_key_rejected(self):
        blob = AuthenticatedEncryption(b"a" * 32).encrypt(b"payload")
        with pytest.raises(AEError):
            AuthenticatedEncryption(b"b" * 32).decrypt(blob)

    def test_truncated_blob_rejected(self):
        with pytest.raises(AEError):
            AuthenticatedEncryption(b"k" * 32).decrypt(b"short")

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            AuthenticatedEncryption(b"short-key")

    #: Key ``bytes(range(32))``, nonce ``a0 … af``, plaintext the
    #: big-endian 16-bit words 0 … 44 — 90 bytes, so the keystream ends
    #: inside its third block.  The empty blob is the tree at 923c2d7's
    #: (no keystream in it); the other was re-derived when the stream
    #: became AES-256-CTR, from the written-out construction below over
    #: ``PRGReference`` and confirmed against OpenSSL's AES-CTR.
    #: Ciphertexts cross between checkouts in both directions; never
    #: regenerate these from the tree under test.
    GOLDEN_NONCE = bytes(range(0xA0, 0xB0))
    GOLDEN_BLOB = bytes.fromhex(
        "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
        "ec6366fafc297b27e66704b9692f1b18672dbcc06a654802f11eb27d52cdf328"
        "d4d20aab3bfb91ecdc9c444ca93aa203354eafb13d58a6936451a466419e3b8a"
        "6db31965e6148313ad453e404eee41933cab6c35e76e74081cfa"
        "0cb8e5515879f0a82ad7873914f7f39812cc429d365c38a28cb3a597cefec385"
    )
    GOLDEN_EMPTY_BLOB = bytes.fromhex(
        "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
        "a014e95fac95546a48bc10f0f43c5537dc993b2b7e25893f2a4ab60111b5758e"
    )

    def test_golden_ciphertext_of_the_parent_decrypts_and_is_reproduced(self):
        ae = AuthenticatedEncryption(bytes(range(32)))
        plaintext = b"".join(i.to_bytes(2, "big") for i in range(45))
        assert ae.decrypt(self.GOLDEN_BLOB) == plaintext
        assert ae.decrypt(self.GOLDEN_EMPTY_BLOB) == b""
        nonce = FixedNonce(self.GOLDEN_NONCE)
        assert ae.encrypt(plaintext, nonce) == self.GOLDEN_BLOB
        assert ae.encrypt(b"", nonce) == self.GOLDEN_EMPTY_BLOB

    def test_keystream_is_the_counter_stream_of_enc_key_and_nonce(self):
        # 48 bytes of seed: the kernel serves it where it is loaded.
        from repro.crypto.prg import PRGReference

        ae = AuthenticatedEncryption(b"k" * 32)
        blob = ae.encrypt(bytes(100))  # zeros: the ciphertext is the keystream
        nonce, ciphertext = blob[:16], blob[16:-32]
        assert ciphertext == PRGReference(ae._enc_key + nonce).read(100)

    @staticmethod
    def _sealed_by_hand(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        """The construction written out with ``hmac.new`` per message:
        subkeys ``HMAC(key, "dordis-ae" ∥ label)``, the keystream of
        ``enc ∥ nonce``, the tag ``HMAC(mac, nonce ∥ ciphertext)``."""
        import hashlib
        import hmac

        from repro.crypto.prg import PRGReference

        enc = hmac.new(key, b"dordis-aeenc", hashlib.sha256).digest()
        mac = hmac.new(key, b"dordis-aemac", hashlib.sha256).digest()
        stream = PRGReference(enc + nonce).read(len(plaintext))
        ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
        return nonce + ciphertext + hmac.new(mac, nonce + ciphertext, hashlib.sha256).digest()

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 144, 432, 500])
    def test_one_object_seals_and_opens_as_written_out_in_both_directions(self, length):
        """A client keys one object per peer and uses it both ways: its
        shares for the peer go out under it and the peer's shares come
        in under it.  Every byte is the per-message ``hmac.new``
        construction's, however many messages the object has sealed."""
        key = bytes(range(100, 132))
        mine, theirs = AuthenticatedEncryption(key), AuthenticatedEncryption(key)
        for k in range(3):
            nonce = bytes([k]) * 16
            plaintext = bytes((7 * i + k) % 256 for i in range(length))
            expected = self._sealed_by_hand(key, nonce, plaintext)
            assert mine.encrypt(plaintext, FixedNonce(nonce)) == expected
            assert theirs.encrypt(plaintext, FixedNonce(nonce)) == expected
            assert theirs.decrypt(expected) == mine.decrypt(expected) == plaintext
            forged = expected[:-1] + bytes([expected[-1] ^ 1])
            with pytest.raises(AEError, match="authentication failed"):
                mine.decrypt(forged)

    @given(payload=st.binary(min_size=0, max_size=500))
    @settings(max_examples=30)
    def test_roundtrip_arbitrary_payloads(self, payload):
        ae = AuthenticatedEncryption(bytes(range(32)))
        assert ae.decrypt(ae.encrypt(payload)) == payload


class TestSchnorrSignatures:
    def test_sign_verify_roundtrip(self):
        sk, vk = generate_signing_keypair(TOY_GROUP)
        sig = SchnorrSigner(sk, TOY_GROUP).sign(b"round-7")
        assert SchnorrVerifier(vk, TOY_GROUP).verify(b"round-7", sig)

    def test_sign_verify_roundtrip_full_group(self):
        sk, vk = generate_signing_keypair()
        sig = SchnorrSigner(sk).sign(b"round-7||U3")
        assert SchnorrVerifier(vk).verify(b"round-7||U3", sig)

    def test_wrong_message_rejected(self):
        sk, vk = generate_signing_keypair(TOY_GROUP)
        sig = SchnorrSigner(sk, TOY_GROUP).sign(b"round-7")
        assert not SchnorrVerifier(vk, TOY_GROUP).verify(b"round-8", sig)

    def test_wrong_key_rejected(self):
        sk1, _ = generate_signing_keypair(TOY_GROUP)
        _, vk2 = generate_signing_keypair(TOY_GROUP)
        sig = SchnorrSigner(sk1, TOY_GROUP).sign(b"msg")
        assert not SchnorrVerifier(vk2, TOY_GROUP).verify(b"msg", sig)

    def test_forged_signature_rejected(self):
        """A server that wants to pretend a dropped client survived must
        forge its round-number signature (§3.3); random forgeries fail."""
        _, vk = generate_signing_keypair(TOY_GROUP)
        verifier = SchnorrVerifier(vk, TOY_GROUP)
        for e in range(1, 30):
            assert not verifier.verify(b"round-7", SchnorrSignature(e=e, s=e * 7 % TOY_GROUP.q))

    def test_out_of_range_components_rejected(self):
        _, vk = generate_signing_keypair(TOY_GROUP)
        verifier = SchnorrVerifier(vk, TOY_GROUP)
        assert not verifier.verify(b"m", SchnorrSignature(e=-1, s=5))
        assert not verifier.verify(b"m", SchnorrSignature(e=5, s=TOY_GROUP.q))

    def test_serialization_roundtrip(self):
        sk, vk = generate_signing_keypair()
        sig = SchnorrSigner(sk).sign(b"message")
        decoded = SchnorrSignature.from_bytes(sig.to_bytes())
        assert decoded == sig
        assert SchnorrVerifier(vk).verify(b"message", decoded)

    def test_malformed_serialization_rejected(self):
        with pytest.raises(ValueError):
            SchnorrSignature.from_bytes(b"\x00" * 5)

    def test_bad_signing_key_rejected(self):
        with pytest.raises(ValueError):
            SchnorrSigner(0, TOY_GROUP)


class TestPKI:
    def test_register_and_lookup(self):
        pki = PublicKeyInfrastructure(TOY_GROUP)
        signer = pki.register(7)
        sig = signer.sign(b"hello")
        assert pki.verifier(7).verify(b"hello", sig)

    def test_cross_identity_verification_fails(self):
        pki = PublicKeyInfrastructure(TOY_GROUP)
        signer7 = pki.register(7)
        pki.register(8)
        sig = signer7.sign(b"hello")
        assert not pki.verifier(8).verify(b"hello", sig)

    def test_reregistration_rejected(self):
        pki = PublicKeyInfrastructure(TOY_GROUP)
        pki.register(1)
        with pytest.raises(ValueError):
            pki.register(1)

    def test_unknown_identity_lookup_raises(self):
        pki = PublicKeyInfrastructure(TOY_GROUP)
        with pytest.raises(KeyError):
            pki.verifier(99)

    def test_register_records_each_identity(self):
        pki = PublicKeyInfrastructure(TOY_GROUP)
        for i in range(5):
            pki.register(i)
        assert all(pki.is_registered(i) for i in range(5))
        assert not pki.is_registered(5)
