"""The ``sender`` field of a masked input is checked — on every transport.

Regression: the coordinator used to key a masked input by the
connection it arrived on and never look at the ``sender`` the message
itself claims, so client 2 answering ``MaskedInputMsg(sender=99, …)``
was admitted to U3 — a field on the wire that nothing validated.  A
masked input whose ``sender`` is not the id of the connection it came
in on is now malformed at the one admission door: its sender is left
out of U3 and recovered as a post-ShareKeys dropout, or the round
aborts by name below threshold.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    InProcessTransport,
    RoundEngine,
    SerializingTransport,
    SocketTransport,
    run_sync,
)
from repro.secagg.client import SecAggClient
from repro.secagg.driver import arun_secagg_round
from repro.secagg.types import ProtocolAbort, SecAggConfig
from tests.oracles.secagg import run_secagg_round_reference

CONFIG = SecAggConfig(threshold=3, bits=20, dimension=9, dh_group="modp512")
TRANSPORTS = {
    "in-process": InProcessTransport,
    "serialized": SerializingTransport,
    "sockets": SocketTransport,
}


class _ClaimsToBe99(SecAggClient):
    def masked_input(self, ciphertexts, update_ring, **kwargs):
        honest = super().masked_input(ciphertexts, update_ring, **kwargs)
        return dataclasses.replace(honest, sender=99)


def _inputs():
    rng = np.random.default_rng(24)
    return {
        u: rng.integers(0, CONFIG.modulus, size=CONFIG.dimension, dtype=np.int64)
        for u in range(1, 6)
    }


def _factory(liars):
    return lambda u: (_ClaimsToBe99 if u in liars else SecAggClient)(u, CONFIG)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
class TestLyingSender:
    def test_the_liar_is_left_out_of_u3_and_recovered_as_a_dropout(self, transport):
        inputs = _inputs()
        engine = RoundEngine(transport=TRANSPORTS[transport]())
        result = run_sync(
            arun_secagg_round(CONFIG, inputs, client_factory=_factory({2}), engine=engine)
        )
        assert 2 in result.u2
        assert result.u3 == result.u4 == result.u5 == [1, 3, 4, 5]
        expected = sum(inputs[u] for u in result.u3) % CONFIG.modulus
        np.testing.assert_array_equal(result.aggregate, expected)

    def test_below_threshold_the_round_aborts_by_name(self, transport):
        engine = RoundEngine(transport=TRANSPORTS[transport]())
        with pytest.raises(ProtocolAbort, match=r"only 2 masked inputs \(3 malformed: \[1, 2, 3\]\)"):
            run_sync(
                arun_secagg_round(
                    CONFIG, _inputs(), client_factory=_factory({1, 2, 3}), engine=engine
                )
            )


def test_the_serial_reference_driver_goes_through_the_same_door():
    inputs = _inputs()
    result = run_secagg_round_reference(CONFIG, inputs, client_factory=_factory({2}))
    assert result.u3 == [1, 3, 4, 5]
    expected = sum(inputs[u] for u in result.u3) % CONFIG.modulus
    np.testing.assert_array_equal(result.aggregate, expected)
