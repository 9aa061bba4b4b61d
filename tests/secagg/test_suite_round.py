"""Every primitive a round uses goes through its suite.

A round whose parties run on a recording suite — every slot a subclass
that counts, the entropy a seeded source that counts — is run with the
OS CSPRNG switched off: each key agreement, AE keying, Shamir deal and
reconstruction, mask expansion and random draw of the round shows up
in the suite's counts, and each draw in the stream of the party that
made it.  The round modules themselves construct no primitive.
"""

import ast
import collections
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.crypto import entropy as entropy_module
from repro.crypto.ae import AuthenticatedEncryption
from repro.crypto.dh import MODP_512, KeyAgreement
from repro.crypto.entropy import SeededEntropy
from repro.crypto.prg import CounterPRG
from repro.crypto.shamir import ShamirSecretSharing
from repro.crypto.suite import Suite
from repro.engine import RoundEngine
from repro.secagg import DropoutSchedule, SecAggClient, SecAggConfig, SecAggServer
from repro.secagg.types import STAGE_UNMASK
from repro.secagg.workflow import SecAggWorkflowClient, SecAggWorkflowServer, with_dropout
from repro.utils.rng import derive_rng
from repro.xnoise.protocol import (
    XNoiseClient,
    XNoiseConfig,
    XNoiseServer,
    XNoiseWorkflowServer,
)

SEED = b"recording-suite-seed-32-bytes-ok"


def recording_suite(log: collections.Counter, drawers: set) -> Suite:
    """The default primitives over ``modp512``, each call counted in
    ``log``; every stream an entropy draw came from lands in ``drawers``."""

    class KA(KeyAgreement):
        def generate(self, entropy):
            log["ka.generate"] += 1
            return super().generate(entropy)

        def agree(self, mine, peer_publics):
            log["ka.agree"] += 1
            return super().agree(mine, peer_publics)

    class AE(AuthenticatedEncryption):
        def __init__(self, key):
            log["ae.keyed"] += 1
            super().__init__(key)

        def encrypt(self, plaintext, entropy):
            log["ae.encrypt"] += 1
            return super().encrypt(plaintext, entropy)

        def decrypt(self, blob):
            log["ae.decrypt"] += 1
            return super().decrypt(blob)

    class SS(ShamirSecretSharing):
        def share(self, secret_list, participant_ids, entropy):
            log["ss.share"] += 1
            return super().share(secret_list, participant_ids, entropy)

        def reconstruct(self, shares):
            log["ss.reconstruct"] += 1
            return super().reconstruct(shares)

    class PRG(CounterPRG):
        def expand(self, seed, length, modulus, out=None, sign=1):
            log["prg.expand"] += 1
            return super().expand(seed, length, modulus, out, sign)

    class Entropy(SeededEntropy):
        def token_bytes(self, n):
            log["entropy.token_bytes"] += 1
            drawers.add(self.seed)
            return super().token_bytes(n)

        def for_party(self, party, round_index):
            return Entropy(super().for_party(party, round_index).seed)

    return Suite(ka=KA(MODP_512), ae=AE, ss=SS, prg=PRG(), entropy=Entropy(SEED))


class _NoOS:
    def __getattr__(self, name):
        raise AssertionError(f"secrets.{name} read during a seeded round")


@pytest.fixture
def no_os_entropy(monkeypatch):
    monkeypatch.setattr(entropy_module, "secrets", _NoOS())


def party_seeds(ids, round_index=0):
    return {SeededEntropy(SEED).for_party(u, round_index).seed for u in ids}


def run(server, clients, dropout):
    engine = RoundEngine()
    transport = with_dropout(engine.transport, dropout)
    return engine.run_round_sync(server, clients, transport=transport)


def test_a_secagg_round_reaches_every_primitive_through_its_suite(no_os_entropy):
    log, drawers = collections.Counter(), set()
    suite = recording_suite(log, drawers)
    config = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")
    rng = derive_rng("suite-round")
    inputs = {u: rng.integers(0, 1 << 12, size=8) for u in range(1, 6)}
    clients = [
        SecAggWorkflowClient(SecAggClient(u, config, suite=suite), inputs[u])
        for u in sorted(inputs)
    ]
    server = SecAggWorkflowServer(SecAggServer(config, suite=suite))
    result = run(server, clients, DropoutSchedule.before_upload({5}))

    np.testing.assert_array_equal(
        result.aggregate, sum(inputs[u] for u in range(1, 5)) % (1 << 16)
    )
    assert log["ka.generate"] == 2 * 5
    # ShareKeys: one neighbourhood a client; uploads: one a live
    # client; the server re-derives the dropped client's masks once.
    assert log["ka.agree"] == 5 + 4 + 1
    assert log["ae.keyed"] == log["ae.encrypt"] == 5 * 4
    assert log["ae.decrypt"] == 4 * 4  # each responder opens its inbox once
    assert log["ss.share"] == 5  # one deal a client
    assert log["ss.reconstruct"] == 4 + 1  # b_u of U3, s^SK of the dropped
    assert log["prg.expand"] == 4 * (1 + 4) + 4 + 4
    # Two exponents, b_u, one Shamir read and four nonces at least a client,
    # each from that client's own stream; the server draws nothing.
    assert log["entropy.token_bytes"] >= 5 * 8
    assert drawers == party_seeds(range(1, 6))


def test_an_xnoise_round_reaches_every_primitive_through_its_suite(no_os_entropy):
    log, drawers = collections.Counter(), set()
    suite = recording_suite(log, drawers)
    config = XNoiseConfig(
        secagg=SecAggConfig(threshold=3, bits=18, dimension=32, dh_group="modp512"),
        n_sampled=5,
        tolerance=2,
        target_variance=100.0,
    )
    rng = derive_rng("suite-xnoise-round")
    inputs = {u: rng.integers(-10, 11, size=32) for u in range(1, 6)}
    clients = [
        SecAggWorkflowClient(XNoiseClient(u, config, suite=suite), inputs[u])
        for u in sorted(inputs)
    ]
    server = XNoiseWorkflowServer(XNoiseServer(config, suite=suite))
    result = run(server, clients, DropoutSchedule(at_stage={STAGE_UNMASK: {4}}))

    assert 4 in result.u3 and 4 not in result.u5 and len(result.u6) >= 3
    assert log["ka.generate"] == 2 * 5
    assert log["ss.share"] == 5
    # Unmasking: b_u of the five uploaders; stage 5: client 4's two
    # excess noise seeds (nobody dropped before uploading).
    assert log["ss.reconstruct"] == 5 + 2
    # Noise seeds come from each client's own stream: three more draws.
    assert log["entropy.token_bytes"] >= 5 * (8 + 3)
    assert drawers == party_seeds(range(1, 6))


@pytest.mark.parametrize(
    "module", ["secagg/client.py", "secagg/server.py", "xnoise/protocol.py"]
)
def test_round_modules_construct_no_primitive(module):
    tree = ast.parse((Path(repro.__file__).parent / module).read_text(encoding="utf-8"))
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"KeyAgreement", "AuthenticatedEncryption", "ShamirSecretSharing"}
