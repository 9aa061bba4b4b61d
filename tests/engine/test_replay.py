"""A seeded round replays byte for byte (ARCHITECTURE invariant 20).

Every random draw of a round comes from its suite's entropy source.
Clients built on one seeded suite (through the drivers'
``client_factory``; each draws from its own ``for_party`` stream) make
the same draws in any run, so two runs over real sockets put the same
frames on every connection, in both directions — and another seed puts
other frames there.  The cases cover the semi-honest complete graph
with drops before upload, drops at Unmasking, the malicious round
(seeded signing keys and signature nonces) and an XNoise round whose
dropouts reach ExcessiveNoiseRemoval.
"""

import numpy as np
import pytest

from repro.crypto.entropy import SeededEntropy
from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.suite import Suite
from repro.engine import RoundEngine, SocketTransport, run_sync
from repro.secagg import (
    DropoutSchedule,
    SecAggClient,
    SecAggConfig,
    STAGE_MASKED_INPUT,
    STAGE_UNMASK,
    arun_secagg_round,
)
from repro.utils.rng import derive_rng
from repro.wire.frame import TCPLink
from repro.xnoise.protocol import XNoiseClient, XNoiseConfig, arun_xnoise_round

IDS = range(1, 7)


@pytest.fixture
def transcripts(monkeypatch):
    """Run a round and return what every socket endpoint sent, one
    transcript a link, in a canonical order."""
    links: list = []
    send = TCPLink.send

    async def recording_send(self, frame, count=None):
        if not hasattr(self, "sent"):
            self.sent = []
            links.append(self)
        self.sent.append(bytes(frame))
        return await send(self, frame, count)

    monkeypatch.setattr(TCPLink, "send", recording_send)

    def take(round_coroutine):
        links.clear()
        result = run_sync(round_coroutine)
        return result, sorted(tuple(link.sent) for link in links)

    return take


def secagg_round(seed: bytes, dropout, malicious=False):
    config = SecAggConfig(
        threshold=4, bits=16, dimension=24, malicious=malicious, dh_group="modp512"
    )
    rng = derive_rng("replay", 16, 24)
    inputs = {u: rng.integers(0, 1 << 12, size=24) for u in IDS}
    suite = Suite.for_group(config.dh_group, SeededEntropy(seed))
    pki, signers = None, {}
    if malicious:
        pki, keys = PublicKeyInfrastructure(), SeededEntropy(seed + b"pki")
        signers = {u: pki.register(u, keys.for_party(u, 0)) for u in IDS}

    def client(u):
        return SecAggClient(u, config, signer=signers.get(u), pki=pki, suite=suite)

    return arun_secagg_round(
        config, inputs, dropout, pki=pki, client_factory=client,
        engine=RoundEngine(transport=SocketTransport()),
    )


def xnoise_round(seed: bytes, dropout):
    config = XNoiseConfig(
        secagg=SecAggConfig(threshold=4, bits=18, dimension=24, dh_group="modp512"),
        n_sampled=len(IDS),
        tolerance=2,
        target_variance=100.0,
    )
    rng = derive_rng("replay-xnoise", 24)
    inputs = {u: rng.integers(-10, 11, size=24) for u in IDS}
    suite = Suite.for_group("modp512", SeededEntropy(seed))
    return arun_xnoise_round(
        config, inputs, dropout,
        client_factory=lambda u: XNoiseClient(u, config, suite=suite),
        engine=RoundEngine(transport=SocketTransport()),
    )


CASES = {
    "drop-before-upload": lambda seed: secagg_round(
        seed, DropoutSchedule.before_upload({2, 5})
    ),
    "drop-at-unmasking": lambda seed: secagg_round(
        seed, DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {6}, STAGE_UNMASK: {1}})
    ),
    "malicious": lambda seed: secagg_round(
        seed, DropoutSchedule.before_upload({3}), malicious=True
    ),
    "xnoise-stage-5": lambda seed: xnoise_round(
        seed, DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {6}, STAGE_UNMASK: {2}})
    ),
}


@pytest.mark.timeout(120)
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_seeded_round_replays_byte_for_byte(transcripts, case):
    first, sent = transcripts(CASES[case](b"replay-seed-one"))
    again, resent = transcripts(CASES[case](b"replay-seed-one"))
    other, other_sent = transcripts(CASES[case](b"replay-seed-two"))

    # One transcript per endpoint of every client connection.
    assert len(sent) == 2 * len(IDS)
    assert resent == sent
    assert other_sent != sent
    np.testing.assert_array_equal(again.aggregate, first.aggregate)
    assert (again.u3, again.u5) == (first.u3, first.u5)
    # Every connection differs under the other seed, in both directions:
    # keys, shares, nonces and masks all came from the seeded streams.
    assert not set(sent) & set(other_sent)
    if case == "xnoise-stage-5":
        assert 2 in first.u3 and 2 not in first.u5 and first.u6
