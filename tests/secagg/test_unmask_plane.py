"""The coordinator's unmask plane vs its retained reference twin.

Builds real protocol state (keys, graphs, Shamir shares, masked inputs)
through the client/server state machines, then pins
``SecAggServer.collect_unmask`` bit-identical to
``collect_unmask_reference`` across dropout patterns, worker counts, and
the int64-headroom guard fallback — and both equal to the plain survivor
input sum, which is what unmasking is supposed to recover.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.secagg.driver import (
    DropoutSchedule,
    make_secagg_clients,
    resolve_round_pki,
)
from repro.secagg.server import SecAggServer
from repro.secagg.types import (
    STAGE_MASKED_INPUT,
    STAGE_UNMASK,
    ProtocolAbort,
    SecAggConfig,
)


def build_unmask_state(config, inputs, dropout=None):
    """Run stages 0–4 client-side; return the server, the unmask
    messages and the masked inputs the clients sent — the server folded
    them into its sum and kept none, so the oracle is told them."""
    dropout = dropout or DropoutSchedule()
    sampled = sorted(inputs)
    pki = resolve_round_pki(config, None, None)
    clients = make_secagg_clients(config, sampled, pki, 0, None)
    server = SecAggServer(config, pki=pki)

    alive = set(sampled)
    adverts = {u: clients[u].advertise_keys() for u in sorted(alive)}
    requests = server.collect_advertise(adverts)

    outboxes = {
        u: clients[u].share_keys(*requests[u]) for u in sorted(alive & set(requests))
    }
    inboxes = server.route_shares(outboxes)

    alive -= dropout.dropped_by(STAGE_MASKED_INPUT)
    sent = {
        u: clients[u].masked_input(inboxes.get(u, {}), inputs[u])
        for u in sorted(alive & set(server.u2))
    }
    for u, msg in sent.items():
        assert server.admit_masked(u, msg)
    server.collect_masked()

    alive -= dropout.dropped_by(STAGE_UNMASK)
    request = server.unmask_request()
    messages = {
        u: clients[u].unmask(*request) for u in sorted(alive & set(server.u4))
    }
    return server, messages, sent


def clone_with_workers(server: SecAggServer, sent, workers) -> SecAggServer:
    """A coordinator with identical round state but a different pool
    size: same roster and U2, the same streams admitted again."""
    config = dataclasses.replace(server.config, workers=workers)
    clone = SecAggServer(config, pki=server.pki, round_index=server.round_index)
    clone.collect_advertise(server.roster)
    clone.u2 = list(server.u2)
    for u, msg in sent.items():
        assert clone.admit_masked(u, msg)
    assert clone.collect_masked() == server.u3
    return clone


def sent_vectors(sent):
    """What the oracle is told: every sent stream, unpacked."""
    return {u: msg.masked_vector for u, msg in sent.items()}


def unmask_by(method, server, messages, sent):
    """``collect_unmask`` or its reference twin, by name."""
    if method == "collect_unmask_reference":
        return server.collect_unmask_reference(messages, sent_vectors(sent))
    return getattr(server, method)(messages)


def assert_plane_parity(server, messages, sent, inputs, *, workers=(1, 3)):
    """Fast plane ≡ reference twin ≡ the survivor input sum, all workers."""
    reference = clone_with_workers(server, sent, 1).collect_unmask_reference(
        messages, sent_vectors(sent)
    )
    expected = np.zeros(server.config.dimension, dtype=np.int64)
    for u in server.u3:
        expected = (expected + inputs[u]) % server.config.modulus
    np.testing.assert_array_equal(reference, expected)
    for w in workers:
        fast = clone_with_workers(server, sent, w).collect_unmask(messages)
        np.testing.assert_array_equal(fast, reference)
    return reference


def ring_inputs(rng, ids, dim, modulus):
    return {
        u: np.asarray(
            [rng.randrange(modulus) for _ in range(dim)], dtype=np.int64
        )
        for u in ids
    }


class TestUnmaskPlaneParity:
    def test_no_dropouts(self):
        config = SecAggConfig(
            threshold=4, bits=20, dimension=48, dh_group="modp512"
        )
        rng = random.Random(101)
        inputs = ring_inputs(rng, range(1, 7), 48, config.modulus)
        server, messages, sent = build_unmask_state(config, inputs)
        assert server.dropped_after_masking == []
        assert_plane_parity(server, messages, sent, inputs)

    def test_all_but_threshold_dropped(self):
        config = SecAggConfig(
            threshold=4, bits=20, dimension=32, dh_group="modp512"
        )
        rng = random.Random(202)
        inputs = ring_inputs(rng, range(1, 8), 32, config.modulus)
        dropout = DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {2, 5, 7}})
        server, messages, sent = build_unmask_state(config, inputs, dropout)
        assert len(server.u3) == config.threshold
        assert server.dropped_after_masking == [2, 5, 7]
        assert_plane_parity(server, messages, sent, inputs)

    def test_sparse_graph_with_dropped_neighbors(self):
        # SecAgg+ k-regular graph where dropped clients neighbor other
        # dropped clients: the pairwise recovery loop must only touch
        # *surviving* neighbors, and two disconnected dropped clients
        # contribute no term at all for each other.
        config = SecAggConfig(
            threshold=3,
            bits=20,
            dimension=24,
            graph_degree=4,
            graph_seed=9,
            dh_group="modp512",
        )
        rng = random.Random(303)
        inputs = ring_inputs(rng, range(1, 10), 24, config.modulus)
        dropout = DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {2, 3}})
        server, messages, sent = build_unmask_state(config, inputs, dropout)
        assert server.dropped_after_masking == [2, 3]
        assert_plane_parity(server, messages, sent, inputs)

    def test_unmask_stage_dropouts_shrink_u5(self):
        config = SecAggConfig(
            threshold=3, bits=20, dimension=16, dh_group="modp512"
        )
        rng = random.Random(404)
        inputs = ring_inputs(rng, range(1, 7), 16, config.modulus)
        dropout = DropoutSchedule(
            at_stage={STAGE_MASKED_INPUT: {4}, STAGE_UNMASK: {1, 6}}
        )
        server, messages, sent = build_unmask_state(config, inputs, dropout)
        assert sorted(messages) == sorted(set(server.u4) - {1, 6})
        assert_plane_parity(server, messages, sent, inputs)

    def test_headroom_guard_fallback_at_bits_62(self):
        # n_terms · (2^62 − 1) ≥ 2^63 for any round with ≥ 2 terms, so
        # the plane takes the per-term reduced MaskAccumulator path —
        # still bit-identical to the reference twin.
        config = SecAggConfig(
            threshold=3, bits=62, dimension=8, dh_group="modp512"
        )
        rng = random.Random(505)
        inputs = ring_inputs(rng, range(1, 6), 8, config.modulus)
        dropout = DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {2}})
        server, messages, sent = build_unmask_state(config, inputs, dropout)
        n_terms_floor = 1 + len(server.u3)
        assert n_terms_floor * (config.modulus - 1) >= 2**63
        assert_plane_parity(server, messages, sent, inputs)

    @pytest.mark.parametrize("bits", [20, 33])
    def test_folded_seeds_match_reference_past_one_stream_slab(self, bits):
        # d = 1031 crosses the 256-element block groups and the kernel's
        # 768-element slab; every (seed, ±1) term is folded straight into
        # the aggregate (workers = 1) or a worker's partial (2, 4).
        config = SecAggConfig(
            threshold=4, bits=bits, dimension=1031, dh_group="modp512"
        )
        rng = random.Random(606)
        inputs = ring_inputs(rng, range(1, 9), 1031, config.modulus)
        dropout = DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {3, 6, 8}})
        server, messages, sent = build_unmask_state(config, inputs, dropout)
        assert server.dropped_after_masking == [3, 6, 8]
        assert_plane_parity(server, messages, sent, inputs, workers=(1, 2, 4))

    def test_workers_auto_matches_serial(self):
        config = SecAggConfig(
            threshold=3, bits=20, dimension=16, dh_group="modp512"
        )
        rng = random.Random(606)
        inputs = ring_inputs(rng, range(1, 6), 16, config.modulus)
        server, messages, sent = build_unmask_state(config, inputs)
        assert_plane_parity(server, messages, sent, inputs, workers=(1, 2, None))

    def test_fuzz_random_dropout_patterns(self):
        rng = random.Random(0xD15C0)
        for trial in range(6):
            n = rng.randint(5, 9)
            degree = rng.choice([None, 4])
            # Sparse graphs cap the threshold: every client needs at
            # least ``threshold`` usable neighbors to proceed.
            threshold = 3 if degree is not None else rng.randint(3, max(3, n - 2))
            config = SecAggConfig(
                threshold=threshold,
                bits=rng.choice([16, 20]),
                dimension=rng.randint(1, 40),
                graph_degree=degree,
                graph_seed=trial,
                dh_group="modp512",
            )
            ids = list(range(1, n + 1))
            inputs = ring_inputs(rng, ids, config.dimension, config.modulus)
            max_drop = n - threshold
            drop = set(rng.sample(ids, rng.randint(0, max_drop)))
            dropout = DropoutSchedule(at_stage={STAGE_MASKED_INPUT: drop})
            server, messages, sent = build_unmask_state(config, inputs, dropout)
            workers = (1, rng.choice([2, 3, 4]))
            try:
                assert_plane_parity(server, messages, sent, inputs, workers=workers)
            except ProtocolAbort as abort:
                # Sparse graphs can leave too few share-holders alive;
                # the fast plane must abort exactly like the reference.
                for w in workers:
                    with pytest.raises(ProtocolAbort) as excinfo:
                        clone_with_workers(server, sent, w).collect_unmask(messages)
                    assert str(excinfo.value) == str(abort)


class TestUnmaskPlaneAbortParity:
    def _state(self):
        config = SecAggConfig(
            threshold=3, bits=20, dimension=8, dh_group="modp512"
        )
        rng = random.Random(808)
        inputs = ring_inputs(rng, range(1, 6), 8, config.modulus)
        dropout = DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {3}})
        return build_unmask_state(config, inputs, dropout)

    def test_below_threshold_aborts_identically(self):
        server, messages, sent = self._state()
        few = dict(list(messages.items())[:2])
        errors = []
        for method in ("collect_unmask", "collect_unmask_reference"):
            with pytest.raises(ProtocolAbort) as excinfo:
                unmask_by(method, clone_with_workers(server, sent, 1), few, sent)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_missing_self_mask_shares_abort_identically(self):
        server, messages, sent = self._state()
        victim = server.u3[1]
        for msg in messages.values():
            msg.b_shares.pop(victim, None)
        errors = []
        for method in ("collect_unmask", "collect_unmask_reference"):
            with pytest.raises(ProtocolAbort) as excinfo:
                unmask_by(method, clone_with_workers(server, sent, 2), messages, sent)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert f"self-mask seed of {victim}" in errors[0]

    def test_missing_mask_key_shares_abort_identically(self):
        server, messages, sent = self._state()
        for msg in messages.values():
            msg.s_sk_shares.pop(3, None)
        errors = []
        for method in ("collect_unmask", "collect_unmask_reference"):
            with pytest.raises(ProtocolAbort) as excinfo:
                unmask_by(method, clone_with_workers(server, sent, 2), messages, sent)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "mask key of 3" in errors[0]

    def test_reconstruct_twins_abort_identically(self):
        # The share-reconstruction helper pair behind both unmask
        # planes: SecAggServer._reconstruct and _reconstruct_reference
        # must wrap an unreconstructable share set in the same
        # ProtocolAbort message.
        from repro.crypto.shamir import ShamirSecretSharing

        server, _, _ = self._state()
        ss = ShamirSecretSharing(3)
        shares = list(ss.share([b"unmask seed material"], [1, 2, 3, 4])[0].values())
        too_few = shares[:2]
        errors = []
        for method in ("_reconstruct", "_reconstruct_reference"):
            with pytest.raises(ProtocolAbort) as excinfo:
                getattr(server, method)(ss, too_few, "self-mask seed of 9")
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "self-mask seed of 9" in errors[0]
        # And on reconstructable shares the twins agree with each other.
        assert server._reconstruct(ss, shares[:3], "x") == \
            server._reconstruct_reference(ss, shares[:3], "x")


def test_config_rejects_non_positive_workers():
    with pytest.raises(ValueError):
        SecAggConfig(threshold=2, workers=0)
    assert SecAggConfig(threshold=2, workers=None).workers is None
