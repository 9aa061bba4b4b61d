"""End-to-end SecAgg rounds: correctness, dropout handling, abort paths."""

import numpy as np
import pytest

from repro.crypto.dh import MODP_512
from repro.engine import RoundEngine, SerializingTransport, run_sync
from repro.secagg import (
    DropoutSchedule,
    ProtocolAbort,
    SecAggConfig,
    arun_secagg_round,
    run_secagg_round,
    secagg_plus_config,
    STAGE_ADVERTISE,
    STAGE_SHARE_KEYS,
    STAGE_MASKED_INPUT,
    STAGE_UNMASK,
)
from repro.secagg.driver import secagg_round_components
from repro.utils.rng import derive_rng
from tests.oracles.complexity import masked_upload_bytes


def make_inputs(n, dim, bits=16, label="inputs"):
    rng = derive_rng(label, n, dim)
    return {
        u: rng.integers(0, 1 << (bits - 4), size=dim).astype(np.int64)
        for u in range(1, n + 1)
    }


def measured_traffic(config, inputs):
    """``{stage label: TrafficSplit}`` of one round on a wire-faithful
    transport — the one place per-stage bytes come from."""
    engine = RoundEngine(transport=SerializingTransport())
    run_sync(arun_secagg_round(config, inputs, engine=engine))
    return engine.trace.stage_traffic_split(0)


def ring_sum(inputs, ids, bits):
    total = np.zeros(next(iter(inputs.values())).shape[0], dtype=np.int64)
    for u in ids:
        total = (total + inputs[u]) % (1 << bits)
    return total


class TestNoDropout:
    def test_aggregate_equals_plain_sum(self):
        bits, dim, n = 16, 32, 6
        config = SecAggConfig(threshold=4, bits=bits, dimension=dim, dh_group="modp512")
        inputs = make_inputs(n, dim, bits)
        result = run_secagg_round(config, inputs)
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, inputs, bits)
        )

    def test_all_sets_complete(self):
        config = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")
        inputs = make_inputs(5, 8)
        result = run_secagg_round(config, inputs)
        assert result.u1 == result.u2 == result.u3 == result.u4 == result.u5
        assert len(result.u1) == 5

    def test_traffic_metered(self):
        config = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")
        traffic = measured_traffic(config, make_inputs(5, 8))
        assert sum(split.total for split in traffic.values()) > 0
        assert traffic["masked_input"].up == 5 * masked_upload_bytes(config)


class TestDropoutBeforeUpload:
    """The paper's canonical dropout point: after sampling, before upload."""

    def test_sum_over_survivors_only(self):
        bits, dim, n = 16, 32, 8
        config = SecAggConfig(threshold=4, bits=bits, dimension=dim, dh_group="modp512")
        inputs = make_inputs(n, dim, bits)
        dropped = {2, 5}
        result = run_secagg_round(
            config, inputs, DropoutSchedule.before_upload(dropped)
        )
        survivors = [u for u in inputs if u not in dropped]
        assert sorted(result.u3) == survivors
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, survivors, bits)
        )

    def test_dropout_at_advertise(self):
        config = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")
        inputs = make_inputs(6, 8)
        result = run_secagg_round(
            config,
            inputs,
            DropoutSchedule(at_stage={STAGE_ADVERTISE: {1}}),
        )
        assert 1 not in result.u1
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, [2, 3, 4, 5, 6], 16)
        )

    def test_dropout_at_sharekeys(self):
        config = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")
        inputs = make_inputs(6, 8)
        result = run_secagg_round(
            config,
            inputs,
            DropoutSchedule(at_stage={STAGE_SHARE_KEYS: {4}}),
        )
        assert 4 in result.u1 and 4 not in result.u2
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, [1, 2, 3, 5, 6], 16)
        )

    def test_dropout_during_unmasking_still_recovers(self):
        """Clients that vanish after the masked upload leave their *input*
        in the sum; the remaining ≥ t clients supply the shares."""
        bits, dim = 16, 16
        config = SecAggConfig(threshold=3, bits=bits, dimension=dim, dh_group="modp512")
        inputs = make_inputs(6, dim, bits)
        result = run_secagg_round(
            config,
            inputs,
            DropoutSchedule(at_stage={STAGE_UNMASK: {2, 3}}),
        )
        # 2 and 3 made it into U3 — their inputs are included.
        assert sorted(result.u3) == [1, 2, 3, 4, 5, 6]
        assert sorted(result.u5) == [1, 4, 5, 6]
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, inputs, bits)
        )

    def test_combined_dropout_across_stages(self):
        bits, dim = 16, 16
        config = SecAggConfig(threshold=3, bits=bits, dimension=dim, dh_group="modp512")
        inputs = make_inputs(8, dim, bits)
        schedule = DropoutSchedule(
            at_stage={
                STAGE_SHARE_KEYS: {1},
                STAGE_MASKED_INPUT: {2},
                STAGE_UNMASK: {3},
            }
        )
        result = run_secagg_round(config, inputs, schedule)
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, [3, 4, 5, 6, 7, 8], bits)
        )


class TestThresholdAborts:
    def test_too_many_dropouts_abort(self):
        config = SecAggConfig(threshold=5, bits=16, dimension=8, dh_group="modp512")
        inputs = make_inputs(6, 8)
        with pytest.raises(ProtocolAbort):
            run_secagg_round(
                config, inputs, DropoutSchedule.before_upload({1, 2, 3})
            )

    def test_below_threshold_at_advertise_aborts(self):
        config = SecAggConfig(threshold=5, bits=16, dimension=8, dh_group="modp512")
        inputs = make_inputs(6, 8)
        with pytest.raises(ProtocolAbort):
            run_secagg_round(
                config,
                inputs,
                DropoutSchedule(at_stage={STAGE_ADVERTISE: {1, 2}}),
            )

    def test_unmasking_below_threshold_aborts(self):
        config = SecAggConfig(threshold=4, bits=16, dimension=8, dh_group="modp512")
        inputs = make_inputs(5, 8)
        with pytest.raises(ProtocolAbort):
            run_secagg_round(
                config,
                inputs,
                DropoutSchedule(at_stage={STAGE_UNMASK: {1, 2}}),
            )


class TestMaliciousMode:
    def test_full_round_with_signatures(self):
        bits, dim = 16, 16
        config = SecAggConfig(threshold=3, bits=bits, dimension=dim, malicious=True, dh_group="modp512")
        inputs = make_inputs(5, dim, bits)
        result = run_secagg_round(config, inputs)
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, inputs, bits)
        )

    def test_driver_built_round_signs_in_its_own_group(self):
        # The PKI a driver builds follows config.dh_group: modp512 keys
        # sign and verify in modp512, not in the 2048-bit default group.
        bits, dim = 16, 8
        config = SecAggConfig(threshold=3, bits=bits, dimension=dim, malicious=True, dh_group="modp512")
        inputs = make_inputs(4, dim, bits)
        server, clients = secagg_round_components(config, inputs)
        pki = server.inner.pki
        assert pki.group is MODP_512
        for c in clients:
            assert c.inner._signer.group is MODP_512
            verifier = pki.verifier(c.inner.id)
            assert verifier.group is MODP_512
            assert verifier.public == c.inner._signer.public < MODP_512.p
        result = RoundEngine().run_round_sync(server, clients)
        np.testing.assert_array_equal(result.aggregate, ring_sum(inputs, inputs, bits))

    def test_malicious_round_with_dropout(self):
        bits, dim = 16, 16
        config = SecAggConfig(threshold=3, bits=bits, dimension=dim, malicious=True, dh_group="modp512")
        inputs = make_inputs(6, dim, bits)
        result = run_secagg_round(
            config, inputs, DropoutSchedule.before_upload({2})
        )
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, [1, 3, 4, 5, 6], bits)
        )


class TestSecAggPlus:
    def test_aggregate_with_k_regular_graph(self):
        bits, dim, n = 16, 32, 12
        config = secagg_plus_config(n, bits=bits, dimension=dim, degree=4, graph_seed=3, dh_group="modp512")
        inputs = make_inputs(n, dim, bits)
        result = run_secagg_round(config, inputs)
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, inputs, bits)
        )

    def test_dropout_with_k_regular_graph(self):
        bits, dim, n = 16, 32, 12
        config = secagg_plus_config(n, bits=bits, dimension=dim, degree=6, graph_seed=3, dh_group="modp512")
        inputs = make_inputs(n, dim, bits)
        result = run_secagg_round(
            config, inputs, DropoutSchedule.before_upload({3, 9})
        )
        survivors = [u for u in inputs if u not in {3, 9}]
        np.testing.assert_array_equal(
            result.aggregate, ring_sum(inputs, survivors, bits)
        )

    def test_cheaper_sharekeys_traffic_than_full_secagg(self):
        bits, dim, n = 16, 16, 24
        full = SecAggConfig(threshold=13, bits=bits, dimension=dim, dh_group="modp512")
        plus = secagg_plus_config(n, bits=bits, dimension=dim, degree=6, dh_group="modp512")
        inputs = make_inputs(n, dim, bits)
        t_full = measured_traffic(full, inputs)["share_keys"]
        t_plus = measured_traffic(plus, inputs)["share_keys"]
        # 6 of 23 possible neighbors: a quarter of the ciphertexts up.
        assert t_plus.up < t_full.up / 3
        # Down, the ShareKeys request is the roster alone under either
        # graph: each client derives its k neighbours, none is sent.
        assert t_full.down == t_plus.down

    def test_config_validation(self):
        with pytest.raises(ValueError):
            secagg_plus_config(1, dh_group="modp512")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(threshold=0),
            dict(threshold=2, bits=0),
            dict(threshold=2, bits=63),
            dict(threshold=2, dimension=0),
            dict(threshold=2, graph_degree=0),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SecAggConfig(**kwargs)
