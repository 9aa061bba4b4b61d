"""Malformed masked inputs are named failures, never silent ones.

A masked input that is not a ``(dimension,)`` vector over the round's
ring used to reach ``aggregate += vector`` unchecked: a length-1 vector
broadcast silently into a wrong sum, any other wrong length died later
as a bare numpy ``ValueError``.  ``SecAggServer.collect_masked`` now
rejects it at the door: the sender is left out of U3 and recovered like
any client that dropped after ShareKeys, or — below threshold — the
round ends in a ``ProtocolAbort`` that says why.
"""

import numpy as np
import pytest

from repro.secagg import DropoutSchedule, run_secagg_round
from repro.secagg.client import SecAggClient
from repro.secagg.types import (
    STAGE_MASKED_INPUT,
    MaskedInputMsg,
    ProtocolAbort,
    SecAggConfig,
)
from repro.utils import derive_rng
from repro.xnoise.protocol import XNoiseClient, XNoiseConfig, run_xnoise_round

DIM = 6
CONFIG = SecAggConfig(threshold=3, bits=16, dimension=DIM, dh_group="modp512")
XCONFIG = XNoiseConfig(
    secagg=CONFIG, n_sampled=5, tolerance=2, target_variance=4.0
)
HOSTILE = 2


def _hostile_message(kind: str, honest: MaskedInputMsg) -> MaskedInputMsg:
    vector = honest.masked_vector
    if kind == "length-1":
        return MaskedInputMsg(honest.sender, vector[:1].copy(), honest.bits)
    if kind == "length-d-1":
        return MaskedInputMsg(honest.sender, vector[:-1].copy(), honest.bits)
    if kind == "length-d+1":
        return MaskedInputMsg(honest.sender, np.append(vector, 0), honest.bits)
    if kind == "wrong-bits":
        return MaskedInputMsg(honest.sender, vector, honest.bits + 1)
    if kind == "out-of-ring":
        return MaskedInputMsg(
            honest.sender, vector + (1 << honest.bits), honest.bits
        )
    if kind == "negative":
        return MaskedInputMsg(honest.sender, vector - (1 << honest.bits), honest.bits)
    raise AssertionError(kind)


KINDS = [
    "length-1", "length-d-1", "length-d+1", "wrong-bits", "out-of-ring", "negative",
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


class TestCollectMaskedDirectly:
    """The door itself, without a round around it."""

    def _server(self):
        from repro.secagg.server import SecAggServer

        server = SecAggServer(CONFIG)
        server.u2 = [1, 2, 3, 4]
        return server

    def _good(self, u):
        return MaskedInputMsg(u, np.full(DIM, u, dtype=np.int64), CONFIG.bits)

    def test_accepted_vectors_are_kept_not_copied(self):
        server = self._server()
        messages = {u: self._good(u) for u in (1, 2, 3)}
        assert server.collect_masked(messages) == [1, 2, 3]
        for u, msg in messages.items():
            assert server._masked[u] is msg.masked_vector

    def test_non_int64_vector_is_malformed(self):
        server = self._server()
        messages = {u: self._good(u) for u in (1, 2, 3, 4)}
        messages[4] = MaskedInputMsg(4, np.zeros(DIM, dtype=np.float64), CONFIG.bits)
        assert server.collect_masked(messages) == [1, 2, 3]

    def test_abort_without_malformed_inputs_keeps_its_old_wording(self):
        server = self._server()
        with pytest.raises(ProtocolAbort, match="only 2 masked inputs; below"):
            server.collect_masked({u: self._good(u) for u in (1, 2)})
