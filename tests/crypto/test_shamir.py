"""Shamir sharing: round-trips, threshold enforcement, dropout resilience,
and the one-pass dealer (one entropy read, packed Horner)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource, SeededEntropy
from repro.crypto.field import MERSENNE_127
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.utils.bytesio import bytes_to_int, chunk_bytes


def share_one(ss, secret, ids):
    (shares,) = ss.share([secret], ids)
    return shares


class TestShareStructure:
    def test_share_count_matches_participants(self):
        ss = ShamirSecretSharing(threshold=3)
        shares = share_one(ss, b"secret", [1, 2, 3, 4, 5])
        assert set(shares) == {1, 2, 3, 4, 5}

    def test_one_dict_per_secret_in_order(self):
        ss = ShamirSecretSharing(threshold=2)
        dealt = ss.share([b"a" * 64, b"", b"b" * 32], [1, 2, 3])
        assert [d[2].secret_len for d in dealt] == [64, 0, 32]
        assert [len(d[2].ys) for d in dealt] == [5, 1, 3]
        assert ss.share([], [1, 2]) == []

    def test_duplicate_ids_rejected(self):
        ss = ShamirSecretSharing(threshold=2)
        with pytest.raises(ValueError):
            ss.share([b"s"], [1, 1, 2])

    def test_zero_id_rejected(self):
        ss = ShamirSecretSharing(threshold=2)
        with pytest.raises(ValueError):
            ss.share([b"s"], [0, 1])

    def test_too_few_participants_rejected(self):
        ss = ShamirSecretSharing(threshold=3)
        with pytest.raises(ValueError):
            ss.share([b"s"], [1, 2])

    def test_a_bare_secret_is_not_a_list_of_secrets(self):
        ss = ShamirSecretSharing(threshold=2)
        for method in (ss.share, ss.share_reference):
            with pytest.raises(TypeError):
                method(b"secret", [1, 2])

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            ShamirSecretSharing(threshold=0)


class TestShareLeafFormat:
    """``x u64 ∥ secret_len u32 ∥ count u16 ∥ count × y u128``, packed by
    one ``struct``: each bound raises the ``ValueError`` naming its
    field, never ``struct.error`` or ``OverflowError``."""

    @pytest.mark.parametrize(
        "fields, named",
        [
            (dict(x=1 << 64, ys=(1,), secret_len=1), "'x'"),
            (dict(x=-1, ys=(1,), secret_len=1), "'x'"),
            (dict(x=1, ys=(1,), secret_len=1 << 32), "'secret_len'"),
            (dict(x=1, ys=(1,), secret_len=-1), "'secret_len'"),
            (dict(x=1, ys=(0,) * (1 << 16), secret_len=1), "'ys'"),
            (dict(x=1, ys=(0, 1 << 128), secret_len=1), r"'ys\[1\]'"),
            (dict(x=1, ys=(-1,), secret_len=1), r"'ys\[0\]'"),
        ],
    )
    def test_each_bound_names_its_field(self, fields, named):
        with pytest.raises(ValueError, match=named) as caught:
            Share(**fields).to_bytes()
        assert type(caught.value) is ValueError

    def test_largest_fields_encode_and_round_trip(self):
        share = Share(x=(1 << 64) - 1, ys=(0, (1 << 128) - 1), secret_len=(1 << 32) - 1)
        data = share.to_bytes()
        assert data == (
            b"\xff" * 8 + b"\xff" * 4 + b"\x00\x02" + bytes(16) + b"\xff" * 16
        )
        assert Share.from_bytes(data) == share
        assert Share.from_bytes(memoryview(data)) == share
        count = Share(x=0, ys=(7,) * ((1 << 16) - 1), secret_len=0)
        assert Share.from_bytes(count.to_bytes()) == count

    def test_wrong_lengths_refused(self):
        data = Share(x=3, ys=(5, 6), secret_len=20).to_bytes()
        for bad in (data[:0], data[:13], data[:-1], data + b"\x00"):
            with pytest.raises(ValueError, match="share encoding"):
                Share.from_bytes(bad)


class TestReconstruction:
    def test_exact_threshold_reconstructs(self):
        ss = ShamirSecretSharing(threshold=3)
        secret = b"the noise seed g_{u,k}"
        shares = share_one(ss, secret, list(range(1, 8)))
        assert ss.reconstruct([shares[2], shares[5], shares[7]]) == secret

    def test_below_threshold_fails(self):
        ss = ShamirSecretSharing(threshold=3)
        shares = share_one(ss, b"secret", [1, 2, 3, 4])
        with pytest.raises(ValueError):
            ss.reconstruct([shares[1], shares[2]])

    def test_duplicate_shares_do_not_count_twice(self):
        ss = ShamirSecretSharing(threshold=3)
        shares = share_one(ss, b"secret", [1, 2, 3])
        with pytest.raises(ValueError):
            ss.reconstruct([shares[1], shares[1], shares[1]])

    def test_conflicting_share_for_same_x_rejected(self):
        ss = ShamirSecretSharing(threshold=2)
        shares = share_one(ss, b"secret", [1, 2])
        forged = Share(x=1, ys=(123,) * len(shares[1].ys), secret_len=6)
        with pytest.raises(ValueError):
            ss.reconstruct([shares[1], forged, shares[2]])

    def test_empty_secret_round_trips(self):
        ss = ShamirSecretSharing(threshold=2)
        shares = share_one(ss, b"", [1, 2, 3])
        assert ss.reconstruct([shares[1], shares[3]]) == b""

    def test_long_secret_spanning_many_chunks(self):
        ss = ShamirSecretSharing(threshold=2)
        secret = bytes(range(256)) * 2  # 512 bytes -> many field chunks
        shares = share_one(ss, secret, [1, 2, 3])
        assert ss.reconstruct([shares[2], shares[3]]) == secret

    @given(
        secret=st.binary(min_size=0, max_size=80),
        threshold=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_with_random_survivor_subsets(
        self, secret, threshold, extra, data
    ):
        """Any >= t survivors reconstruct — the dropout-resilience property
        XNoise relies on for seed bookkeeping (§3.2)."""
        n = threshold + extra
        ss = ShamirSecretSharing(threshold=threshold)
        ids = list(range(1, n + 1))
        shares = share_one(ss, secret, ids)
        survivors = data.draw(
            st.lists(
                st.sampled_from(ids),
                min_size=threshold,
                max_size=n,
                unique=True,
            )
        )
        assert ss.reconstruct([shares[i] for i in survivors]) == secret


class TestSecrecy:
    def test_single_share_values_look_independent_of_secret(self):
        """Sharing two different secrets yields shares that differ — but a
        single share from either is a uniform field element, so equality of
        distributions can't be tested directly; instead check that t-1
        shares of the *same* secret under fresh randomness differ (the
        polynomial is re-randomized)."""
        ss = ShamirSecretSharing(threshold=3)
        s1 = share_one(ss, b"same-secret", [1, 2, 3])
        s2 = share_one(ss, b"same-secret", [1, 2, 3])
        assert s1[1].ys != s2[1].ys

    def test_shares_are_a_function_of_the_entropy_source(self):
        """The same seeded source deals the same shares; another seed,
        other shares of the same secret."""
        ss = ShamirSecretSharing(threshold=3)

        def deal(seed):
            return ss.share([b"same-secret"], [1, 2, 3], SeededEntropy(seed))

        assert deal(b"a" * 32) == deal(b"a" * 32) != deal(b"b" * 32)


#: The secret lengths a dealer meets: an empty label, the chunk edges
#: (15 bytes fit one element of GF(2**127 − 1)), seeds, a modp512 key
#: and a modp2048 one.
DEALT_LENGTHS = (0, 1, 15, 16, 32, 64, 256)


class TestOnePassDealer:
    @given(
        threshold=st.integers(min_value=1, max_value=40),
        extra_ids=st.lists(
            st.integers(min_value=2, max_value=1 << 70), max_size=44, unique=True
        ),
        lengths=st.permutations(DEALT_LENGTHS),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_packed_evaluation_equals_eval_poly_per_chunk(
        self, threshold, extra_ids, lengths, data
    ):
        """Every share is its chunk polynomial at the holder's point,
        evaluated with ``field.eval_poly`` on the coefficients the one
        read supplied — for ids spanning 1 … 2**64 and beyond, and
        secrets of every dealt length mixed in one call."""
        ids = sorted({1, 1 << 20, 1 << 64, *extra_ids})
        if len(ids) < threshold:
            ids += [i for i in range(2, 2 + threshold) if i not in ids][: threshold - len(ids)]
        secret_list = [data.draw(st.binary(min_size=n, max_size=n)) for n in lengths]
        ss = ShamirSecretSharing(threshold)
        draws: list[int] = []
        real = ss._draw_coefficients

        def recording(count, entropy):
            draws.extend(real(count, entropy))
            return draws[-count:] if count else []

        ss._draw_coefficients = recording
        dealt = ss.share(secret_list, ids)

        step = threshold - 1
        chunk = 0
        for secret, shares in zip(secret_list, dealt):
            polys = []
            for piece in chunk_bytes(secret, ss.field.capacity_bytes) or [b""]:
                polys.append([bytes_to_int(piece), *draws[chunk * step : (chunk + 1) * step]])
                chunk += 1
            assert set(shares) == set(ids)
            for pid, share in shares.items():
                assert share == Share(
                    x=pid,
                    ys=tuple(ss.field.eval_poly(coeffs, pid) for coeffs in polys),
                    secret_len=len(secret),
                )
            assert ss.reconstruct(list(shares.values())) == secret
        assert len(draws) == chunk * step

    def test_every_coefficient_comes_from_one_read(self):
        reads = []

        class Counting(EntropySource):
            def token_bytes(self, n):
                reads.append(n)
                return SYSTEM_ENTROPY.token_bytes(n)

        ss = ShamirSecretSharing(17)
        ss.share([bytes(64), bytes(32), bytes(32)], list(range(1, 33)), Counting())
        # 5 + 3 + 3 chunks, 16 random coefficients each, 16 bytes a word.
        assert reads == [16 * 11 * 16]

    def test_a_word_at_p_is_redrawn(self):
        """``0x7fff…ff`` masks to p itself — the one value ≥ p a 127-bit
        word can take — and is redrawn, as ``randbelow(p)`` would; the
        top bit of every word is masked off."""
        p_word = MERSENNE_127.to_bytes(16, "big")
        high = (1 << 127 | 5).to_bytes(16, "big")  # masks to 5
        reads = [p_word + high + p_word, p_word, (9).to_bytes(16, "big"), (7).to_bytes(16, "big")]

        class Scripted(EntropySource):
            def token_bytes(self, n):
                return reads.pop(0)

        ss = ShamirSecretSharing(2)
        assert ss._draw_coefficients(3, Scripted()) == [9, 5, 7]
        assert reads == []

    @pytest.mark.parametrize(
        "secret_list, ids, error",
        [
            ([b"s"], [1, 1, 2], ValueError),
            ([b"s"], [0, 1, 2], ValueError),
            ([b"s"], [1, -2, 3], ValueError),
            ([b"s"], [1, MERSENNE_127], ValueError),
            ([b"s"], [1, 2], ValueError),
            (b"s", [1, 2, 3], TypeError),
            ([b"s", 7], [1, 2, 3], TypeError),
        ],
    )
    def test_every_validation_error_precedes_any_entropy(self, secret_list, ids, error):
        class NoEntropy(EntropySource):
            def token_bytes(self, n):
                raise AssertionError("entropy read before validation")

            randbelow = token_bytes

        ss = ShamirSecretSharing(3)
        for method in (ss.share, ss.share_reference):
            with pytest.raises(error):
                method(secret_list, ids, NoEntropy())

    def test_oracle_deals_the_same_shape_and_secrets(self):
        ss = ShamirSecretSharing(4)
        secret_list = [bytes(range(64)), b"", b"seed" * 8]
        ids = [1, 3, 5, 7, 9]
        fast, oracle = ss.share(secret_list, ids), ss.share_reference(secret_list, ids)
        for secret, a, b in zip(secret_list, fast, oracle):
            assert {(s.x, len(s.ys), s.secret_len) for s in a.values()} == {
                (s.x, len(s.ys), s.secret_len) for s in b.values()
            }
            assert ss.reconstruct(list(a.values())) == secret
            assert ss.reconstruct(list(b.values())) == secret
