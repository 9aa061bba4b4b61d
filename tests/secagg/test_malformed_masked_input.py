"""Malformed masked inputs are named failures, never silent ones.

A masked input is its ring-width bit stream from the client's
accumulator to the coordinator's, so what can be malformed is what a
stream and its three header fields can get wrong: a stream shorter or
longer than ``count`` elements, a pad bit set, a ``bits`` or ``count``
that is not the round's, a second arrival from the same client, a
``sender`` that is not the connection it came in on.
``SecAggServer.admit_masked`` — the one door — refuses each *before* it
can touch the sum: the sender is left out of U3 and recovered like any
client that dropped after ShareKeys, or — below threshold — the round
ends in a ``ProtocolAbort`` that says why.  "Out of ring" and
"negative", the other two things a vector could once get wrong, cannot
be written down any more; the last class says so.
"""

import dataclasses

import numpy as np
import pytest

from repro.secagg import DropoutSchedule, run_secagg_round
from repro.secagg.client import SecAggClient
from repro.secagg.server import SecAggServer
from repro.secagg.types import (
    STAGE_MASKED_INPUT,
    MaskedInputMsg,
    ProtocolAbort,
    SecAggConfig,
)
from repro.utils import derive_rng
from repro.wire.bitpack import packed_nbytes, unpack_bits
from repro.xnoise.protocol import XNoiseClient, XNoiseConfig, run_xnoise_round

# 7 × 20 bits = 140: the stream's last byte has four pad bits.
DIM = 7
CONFIG = SecAggConfig(threshold=3, bits=20, dimension=DIM, dh_group="modp512")
XCONFIG = XNoiseConfig(
    secagg=CONFIG, n_sampled=5, tolerance=2, target_variance=4.0
)
HOSTILE = 2


def _hostile_message(kind: str, honest: MaskedInputMsg) -> MaskedInputMsg:
    packed = bytes(honest.packed)
    vector = honest.masked_vector
    if kind == "truncated":
        return dataclasses.replace(honest, packed=packed[:-1])
    if kind == "over-long":
        return dataclasses.replace(honest, packed=packed + b"\x00")
    if kind == "pad-bit":
        return dataclasses.replace(honest, packed=packed[:-1] + bytes([packed[-1] | 0x80]))
    if kind == "wrong-bits":  # a well-formed stream, of another ring
        return MaskedInputMsg.from_vector(honest.sender, vector >> 1, honest.bits - 1)
    if kind == "wrong-count-1":  # numpy would have broadcast this one
        return MaskedInputMsg.from_vector(honest.sender, vector[:1], honest.bits)
    if kind == "wrong-count-d-1":
        return MaskedInputMsg.from_vector(honest.sender, vector[:-1], honest.bits)
    if kind == "wrong-count-d+1":
        return MaskedInputMsg.from_vector(honest.sender, np.append(vector, 0), honest.bits)
    if kind == "lying-sender":
        return dataclasses.replace(honest, sender=99)
    if kind == "not-bytes":  # only an in-process client can hand this over
        return dataclasses.replace(honest, packed=vector.astype(np.float64))
    raise AssertionError(kind)


KINDS = [
    "truncated", "over-long", "pad-bit", "wrong-bits", "wrong-count-1",
    "wrong-count-d-1", "wrong-count-d+1", "lying-sender", "not-bytes",
]


def _lying(base_cls, kind):
    """``base_cls`` whose masked input is well-typed but malformed."""

    class Lying(base_cls):
        def masked_input(self, ciphertexts, update):
            return _hostile_message(kind, super().masked_input(ciphertexts, update))

    return Lying


def _ring_sum(inputs, members):
    total = np.zeros(DIM, dtype=np.int64)
    for u in members:
        total += inputs[u]
    return total % CONFIG.modulus


def _secagg_inputs():
    rng = np.random.default_rng(7)
    return {
        u: rng.integers(0, CONFIG.modulus, size=DIM, dtype=np.int64)
        for u in range(1, 6)
    }


class TestPlainSecAgg:
    @pytest.mark.parametrize("kind", KINDS)
    def test_hostile_sender_is_recovered_as_a_dropout(self, kind):
        inputs = _secagg_inputs()
        liar = _lying(SecAggClient, kind)

        def factory(u):
            return (liar if u == HOSTILE else SecAggClient)(u, CONFIG)

        result = run_secagg_round(CONFIG, inputs, client_factory=factory)
        assert HOSTILE in result.u2 and HOSTILE not in result.u3
        assert result.u3 == [1, 3, 4, 5]
        np.testing.assert_array_equal(
            result.aggregate, _ring_sum(inputs, result.u3)
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_below_threshold_aborts_by_name(self, kind):
        # Five clients, threshold 3: three liars leave two good inputs.
        inputs = _secagg_inputs()
        liar = _lying(SecAggClient, kind)

        def factory(u):
            return (liar if u <= 3 else SecAggClient)(u, CONFIG)

        with pytest.raises(ProtocolAbort, match=r"3 malformed: \[1, 2, 3\]"):
            run_secagg_round(CONFIG, inputs, client_factory=factory)


class TestXNoise:
    @staticmethod
    def _factory(hostile_cls=None):
        def make(u):
            rng = derive_rng("malformed-masked-input-seeds", u)
            n = XCONFIG.decomposition().n_components
            cls = hostile_cls if (hostile_cls and u == HOSTILE) else XNoiseClient
            return cls(u, XCONFIG, noise_seeds=[rng.bytes(32) for _ in range(n)])

        return make

    @pytest.mark.parametrize("kind", KINDS)
    def test_hostile_sender_counts_as_one_dropout(self, kind):
        inputs = {
            u: np.random.default_rng(u).integers(-30, 30, size=DIM)
            for u in range(1, 6)
        }
        result = run_xnoise_round(
            XCONFIG, inputs, client_factory=self._factory(_lying(XNoiseClient, kind))
        )
        # The same round with the sender silenced before upload: noise
        # seeds are pinned, so the two aggregates agree bit for bit.
        dropped = run_xnoise_round(
            XCONFIG,
            inputs,
            DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {HOSTILE}}),
            client_factory=self._factory(),
        )
        assert result.u3 == dropped.u3 == [1, 3, 4, 5]
        assert result.n_dropped == dropped.n_dropped == 1
        assert result.removed_noise_components == dropped.removed_noise_components
        np.testing.assert_array_equal(result.aggregate, dropped.aggregate)


def _door_state(server):
    """Everything admission can change: the sum, its term budget, the receipts."""
    acc = server._sum
    return (
        None if acc is None else (acc._acc.tobytes(), acc._remaining),
        dict(server._receipts),
    )


class TestTheDoorItself:
    """``admit_masked`` without a round around it."""

    def _server(self, config=CONFIG):
        server = SecAggServer(config)
        server.u2 = [1, 2, 3, 4]
        return server

    def _good(self, u, config=CONFIG):
        vector = (np.arange(config.dimension, dtype=np.int64) * 977 + u) % config.modulus
        return MaskedInputMsg.from_vector(u, vector, config.bits)

    @pytest.mark.parametrize("bits", [20, 62])  # deferred sum / per-term fallback
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_refused_frame_leaves_the_sum_as_if_it_never_arrived(self, kind, bits):
        config = dataclasses.replace(CONFIG, bits=bits)
        seen, unseen = self._server(config), self._server(config)
        for server in (seen, unseen):
            assert server.admit_masked(1, self._good(1, config))
        before = _door_state(seen)
        hostile = _hostile_message(kind, self._good(HOSTILE, config))
        assert seen.admit_masked(HOSTILE, hostile) is False
        acc, receipts = _door_state(seen)
        assert acc == before[0] and receipts == {1: True, HOSTILE: False}
        for server in (seen, unseen):
            for u in (3, 4):
                assert server.admit_masked(u, self._good(u, config))
        assert _door_state(seen)[0] == _door_state(unseen)[0]
        assert seen.collect_masked() == unseen.collect_masked() == [1, 3, 4]

    def test_a_second_arrival_is_refused_and_the_first_one_stands(self):
        server = self._server()
        assert server.admit_masked(1, self._good(1))
        assert server.admit_masked(2, self._good(2))
        once = _door_state(server)
        assert server.admit_masked(2, self._good(2)) is False  # the same frame again
        assert server.admit_masked(2, self._good(3)) is False  # or another
        assert _door_state(server) == once
        # Nor does a good frame redeem a sender whose first one was refused.
        assert server.admit_masked(3, _hostile_message("pad-bit", self._good(3))) is False
        assert server.admit_masked(3, self._good(3)) is False
        assert server.admit_masked(4, self._good(4))
        assert server.collect_masked() == [1, 2, 4]

    def test_a_sender_outside_u2_is_refused_without_a_receipt(self):
        server = self._server()
        assert server.admit_masked(9, self._good(9)) is False
        assert _door_state(server) == (None, {})

    def test_a_stranger_object_is_refused(self):
        server = self._server()
        assert server.admit_masked(1, self._good(1).masked_vector) is False
        assert server.admit_masked(2, None) is False
        assert _door_state(server) == (None, {1: False, 2: False})

    def test_what_is_admitted_is_the_ring_sum_and_nothing_else_is_kept(self):
        server = self._server()
        total = np.zeros(DIM, dtype=np.int64)
        for u in (1, 2, 3):
            msg = self._good(u)
            assert server.admit_masked(u, msg)
            total += msg.masked_vector
        np.testing.assert_array_equal(server._sum._acc, total)
        assert not hasattr(server, "_masked")

    def test_abort_without_malformed_inputs_keeps_its_old_wording(self):
        server = self._server()
        for u in (1, 2):
            server.admit_masked(u, self._good(u))
        with pytest.raises(ProtocolAbort, match="only 2 masked inputs; below"):
            server.collect_masked()


class TestOutOfRingIsUnrepresentable:
    """The two malformations the vector form had and the stream has not."""

    @pytest.mark.parametrize("bad", [-1, -(1 << 20), 1 << 20, (1 << 20) + 5, 1 << 40])
    def test_no_message_carries_an_element_outside_the_ring(self, bad):
        vector = np.full(DIM, 3, dtype=np.int64)
        vector[4] = bad
        with pytest.raises(ValueError, match="outside the ring"):
            MaskedInputMsg.from_vector(HOSTILE, vector, CONFIG.bits)

    def test_every_stream_the_door_admits_holds_ring_elements_only(self):
        # Any bytes of the right length with clear pad bits are *some*
        # vector over the ring: there is no out-of-range bit pattern.
        rng = np.random.default_rng(11)
        nbytes = packed_nbytes(DIM, CONFIG.bits)
        for _ in range(200):
            packed = bytearray(rng.bytes(nbytes))
            packed[-1] &= 0x0F
            vector = unpack_bits(packed, DIM, CONFIG.bits)
            assert 0 <= vector.min() and vector.max() < CONFIG.modulus
            server = SecAggServer(CONFIG)
            server.u2 = [HOSTILE]
            msg = MaskedInputMsg(HOSTILE, CONFIG.bits, DIM, packed)
            assert server.admit_masked(HOSTILE, msg)
            np.testing.assert_array_equal(server._sum._acc, vector)
