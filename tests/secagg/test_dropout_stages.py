"""Mid-protocol dropout: failures after the masked upload.

The driver docstring promises dropout before *any* stage works — these
tests pin that down for the late stages (ConsistencyCheck, Unmasking,
ExcessiveNoiseRemoval): each outcome is either a correct aggregate over
U3 or a clean :class:`ProtocolAbort`, never a wrong answer or a hang.
"""

import numpy as np
import pytest

from repro.secagg.driver import (
    DropoutSchedule,
    run_secagg_round,
)
from repro.secagg.types import (
    ProtocolAbort,
    SecAggConfig,
    STAGE_CONSISTENCY,
    STAGE_UNMASK,
    STAGE_NOISE_REMOVAL,
)
from repro.utils.rng import derive_rng
from repro.xnoise.protocol import XNoiseClient, XNoiseConfig, run_xnoise_round
from tests.oracles.secagg import run_secagg_round_reference


def _inputs(n=5, dim=6, seed=7):
    rng = np.random.default_rng(seed)
    return {u: rng.integers(0, 1 << 16, size=dim) for u in range(1, n + 1)}


def _ring_sum(inputs, members, modulus, dim):
    total = np.zeros(dim, dtype=np.int64)
    for u in members:
        total = (total + inputs[u]) % modulus
    return total


class TestConsistencyStageDropout:
    """Clients vanish between the masked upload and ConsistencyCheck."""

    def test_semi_honest_aggregate_still_correct(self):
        config = SecAggConfig(threshold=3, bits=16, dimension=6, dh_group="modp512")
        inputs = _inputs()
        schedule = DropoutSchedule(at_stage={STAGE_CONSISTENCY: {2}})
        result = run_secagg_round(config, inputs, schedule)
        # The dropped client already uploaded: it stays in U3 and its
        # masks are reconstructed, so the sum covers all five inputs.
        assert result.u3 == [1, 2, 3, 4, 5]
        np.testing.assert_array_equal(
            result.aggregate,
            _ring_sum(inputs, result.u3, config.modulus, 6),
        )

    @pytest.mark.parametrize("run", [run_secagg_round, run_secagg_round_reference])
    def test_semi_honest_dropper_stays_in_u4_and_is_never_asked_to_unmask(self, run):
        """A semi-honest round has no ConsistencyCheck exchange to miss:
        U4 = U3 is fixed by the masked uploads, the dropper is simply
        absent from U5 and its self mask is reconstructed from shares —
        the outcome the version-5 round (with the exchange) had."""
        config = SecAggConfig(threshold=3, bits=16, dimension=6, dh_group="modp512")
        inputs = _inputs(seed=9)
        schedule = DropoutSchedule(at_stage={STAGE_CONSISTENCY: {2, 5}})
        result = run(config, inputs, schedule)
        assert result.u3 == result.u4 == [1, 2, 3, 4, 5]
        assert result.u5 == [1, 3, 4]
        np.testing.assert_array_equal(
            result.aggregate, _ring_sum(inputs, result.u3, config.modulus, 6)
        )

    def test_malicious_mode_aggregate_still_correct(self):
        config = SecAggConfig(
            threshold=3, bits=16, dimension=6, malicious=True, dh_group="modp512"
        )
        inputs = _inputs(seed=11)
        schedule = DropoutSchedule(at_stage={STAGE_CONSISTENCY: {4}})
        result = run_secagg_round(config, inputs, schedule)
        assert result.u3 == [1, 2, 3, 4, 5]
        assert result.u4 == [1, 2, 3, 5]  # dropped client signed nothing
        np.testing.assert_array_equal(
            result.aggregate,
            _ring_sum(inputs, result.u3, config.modulus, 6),
        )

    def test_below_threshold_aborts_cleanly(self):
        config = SecAggConfig(
            threshold=4, bits=16, dimension=6, malicious=True, dh_group="modp512"
        )
        inputs = _inputs(seed=13)
        schedule = DropoutSchedule(at_stage={STAGE_CONSISTENCY: {1, 2}})
        with pytest.raises(ProtocolAbort):
            run_secagg_round(config, inputs, schedule)


class TestUnmaskStageDropout:
    """Clients vanish between ConsistencyCheck and Unmasking."""

    def test_aggregate_still_correct(self):
        config = SecAggConfig(threshold=3, bits=16, dimension=6, dh_group="modp512")
        inputs = _inputs(seed=17)
        schedule = DropoutSchedule(at_stage={STAGE_UNMASK: {3, 5}})
        result = run_secagg_round(config, inputs, schedule)
        assert result.u3 == [1, 2, 3, 4, 5]
        assert result.u5 == [1, 2, 4]
        np.testing.assert_array_equal(
            result.aggregate,
            _ring_sum(inputs, result.u3, config.modulus, 6),
        )

    def test_below_threshold_aborts_cleanly(self):
        config = SecAggConfig(threshold=4, bits=16, dimension=6, dh_group="modp512")
        inputs = _inputs(seed=19)
        schedule = DropoutSchedule(at_stage={STAGE_UNMASK: {1, 2}})
        with pytest.raises(ProtocolAbort):
            run_secagg_round(config, inputs, schedule)

    def test_combined_with_upload_dropout(self):
        """Upload dropout (mask reconstruction) + unmask dropout together."""
        config = SecAggConfig(threshold=3, bits=16, dimension=6, dh_group="modp512")
        inputs = _inputs(seed=23)
        schedule = DropoutSchedule(
            at_stage={2: {2}, STAGE_UNMASK: {4}}  # 2 = STAGE_MASKED_INPUT
        )
        result = run_secagg_round(config, inputs, schedule)
        assert result.u3 == [1, 3, 4, 5]
        np.testing.assert_array_equal(
            result.aggregate,
            _ring_sum(inputs, result.u3, config.modulus, 6),
        )


class TestXNoiseLateDropout:
    """XNoise's stage-5 recovery under mid-unmasking failures."""

    XCONFIG = XNoiseConfig(
        secagg=SecAggConfig(threshold=3, bits=16, dimension=6, dh_group="modp512"),
        n_sampled=5,
        tolerance=2,
        target_variance=4.0,
    )

    def _factory(self):
        xconfig = self.XCONFIG

        def make(u):
            rng = derive_rng("late-dropout-seeds", u)
            n = xconfig.decomposition().n_components
            return XNoiseClient(
                u, xconfig, noise_seeds=[rng.bytes(32) for _ in range(n)]
            )

        return make

    def test_unmask_dropout_recovers_seeds_via_stage5(self):
        inputs = {
            u: np.random.default_rng(u).integers(-30, 30, size=6)
            for u in range(1, 6)
        }
        schedule = DropoutSchedule(at_stage={STAGE_UNMASK: {4}})
        result = run_xnoise_round(
            self.XCONFIG, inputs, schedule, client_factory=self._factory()
        )
        # Client 4 survived masking, so its excess seeds had to be
        # reconstructed through stage 5 by ≥ t live peers.
        assert result.u3 == [1, 2, 3, 4, 5]
        assert 4 not in result.u5
        assert len(result.u6) >= self.XCONFIG.secagg.threshold
        # No dropout by U3 accounting → all T excess components removed
        # for each of the 5 survivors.
        assert result.n_dropped == 0
        assert result.removed_noise_components == 5 * self.XCONFIG.tolerance

    def test_stage5_collapse_aborts_cleanly(self):
        """If recovery is needed but < t helpers remain, abort — never a
        silently mis-noised aggregate."""
        inputs = {
            u: np.random.default_rng(u).integers(-30, 30, size=6)
            for u in range(1, 6)
        }
        schedule = DropoutSchedule(
            at_stage={STAGE_UNMASK: {4}, STAGE_NOISE_REMOVAL: {1, 2}}
        )
        with pytest.raises(ProtocolAbort):
            run_xnoise_round(
                self.XCONFIG, inputs, schedule, client_factory=self._factory()
            )
