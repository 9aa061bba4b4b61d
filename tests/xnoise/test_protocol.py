"""End-to-end XNoise rounds: exact noise enforcement under dropout."""

import numpy as np
import pytest

from repro.crypto.shamir import ShamirSecretSharing
from repro.secagg import DropoutSchedule, ProtocolAbort, SecAggConfig
from repro.secagg.types import STAGE_MASKED_INPUT, STAGE_UNMASK, UnmaskingMsg
from repro.xnoise.protocol import (
    XNoiseClient,
    XNoiseConfig,
    XNoiseServer,
    run_xnoise_round,
    seed_label,
    skellam_noise_from_seed,
)
from repro.dp.quantize import unwrap_modular
from repro.utils.rng import derive_rng
from tests.oracles.secagg import run_xnoise_round_reference


def make_config(n=6, t=None, tolerance=2, bits=18, dim=64, variance=100.0,
                malicious=False, collusion=0):
    t = t if t is not None else max(2, (2 * n) // 3)
    return XNoiseConfig(
        secagg=SecAggConfig(
            threshold=t,
            bits=bits,
            dimension=dim,
            malicious=malicious,
            dh_group="modp512",
        ),
        n_sampled=n,
        tolerance=tolerance,
        target_variance=variance,
        collusion_tolerance=collusion,
    )


def make_signals(n, dim, scale=10, label="x"):
    rng = derive_rng("xnoise-signals", label, n, dim)
    return {
        u: rng.integers(-scale, scale + 1, size=dim).astype(np.int64)
        for u in range(1, n + 1)
    }


def decoded_error(result, inputs, survivors, bits):
    truth = sum(inputs[u] for u in survivors)
    signed = unwrap_modular(result.aggregate, bits)
    return signed - truth


class TestSeedExpansion:
    def test_deterministic(self):
        a = skellam_noise_from_seed(b"seed", 50.0, 128)
        b = skellam_noise_from_seed(b"seed", 50.0, 128)
        np.testing.assert_array_equal(a, b)

    def test_variance(self):
        noise = skellam_noise_from_seed(b"var-seed", 80.0, 40_000)
        assert noise.var() == pytest.approx(80.0, rel=0.05)

    def test_zero_variance(self):
        assert not skellam_noise_from_seed(b"s", 0.0, 16).any()

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            skellam_noise_from_seed(b"s", -1.0, 16)

    @pytest.mark.parametrize("variance", [float("nan"), float("inf"), 2.0**50])
    def test_non_finite_or_out_of_range_variance_rejected(self, variance):
        with pytest.raises(ValueError):
            skellam_noise_from_seed(b"s", variance, 16)

    def test_label_format(self):
        assert seed_label(3) == "g:3"


class TestNoDropout:
    def test_aggregate_carries_exactly_target_variance(self):
        """No dropout → all k ≥ 1 components removed; residual = σ²_*."""
        cfg = make_config(n=6, tolerance=2, variance=400.0, dim=256)
        inputs = make_signals(6, 256)
        result = run_xnoise_round(cfg, inputs)
        assert result.n_dropped == 0
        assert not result.tolerance_exceeded
        assert result.residual_variance == pytest.approx(400.0)
        err = decoded_error(result, inputs, result.u3, 18)
        # Residual noise is 6 clients × σ²/6 summed = σ²_* total.
        assert err.var() == pytest.approx(400.0, rel=0.35)
        assert result.removed_noise_components == 6 * 2  # every survivor, k=1..2

    def test_zero_tolerance_round_is_plain_distributed_dp(self):
        cfg = make_config(n=5, tolerance=0, variance=100.0, dim=128)
        inputs = make_signals(5, 128)
        result = run_xnoise_round(cfg, inputs)
        assert result.removed_noise_components == 0
        assert result.residual_variance == pytest.approx(100.0)


class TestDropoutWithinTolerance:
    @pytest.mark.parametrize("dropped", [{2}, {2, 5}])
    def test_residual_variance_is_target(self, dropped):
        cfg = make_config(n=7, t=4, tolerance=2, variance=400.0, dim=256)
        inputs = make_signals(7, 256)
        result = run_xnoise_round(
            cfg, inputs, DropoutSchedule.before_upload(dropped)
        )
        assert result.n_dropped == len(dropped)
        assert not result.tolerance_exceeded
        assert result.residual_variance == pytest.approx(400.0)
        survivors = [u for u in inputs if u not in dropped]
        err = decoded_error(result, inputs, survivors, 18)
        assert err.var() == pytest.approx(400.0, rel=0.35)

    def test_dropout_equal_to_tolerance_removes_nothing(self):
        cfg = make_config(n=6, t=4, tolerance=2, variance=100.0)
        inputs = make_signals(6, 64)
        result = run_xnoise_round(
            cfg, inputs, DropoutSchedule.before_upload({1, 2})
        )
        assert result.removed_noise_components == 0
        assert result.residual_variance == pytest.approx(100.0)

    def test_unmask_stage_dropout_triggers_stage5_recovery(self):
        """A survivor that uploads its masked input but drops before
        revealing its seeds forces the Shamir path (§3.2's robustness)."""
        cfg = make_config(n=6, t=3, tolerance=2, variance=400.0, dim=256)
        inputs = make_signals(6, 256)
        schedule = DropoutSchedule(at_stage={STAGE_UNMASK: {4}})
        result = run_xnoise_round(cfg, inputs, schedule)
        # 4 is in U3 (input included) but not U5 (never revealed seeds).
        assert 4 in result.u3 and 4 not in result.u5
        assert len(result.u6) >= cfg.secagg.threshold
        assert result.residual_variance == pytest.approx(400.0)
        err = decoded_error(result, inputs, result.u3, 18)
        assert err.var() == pytest.approx(400.0, rel=0.35)

    def test_stage5_responders_agree_and_decrypt_once(self, monkeypatch):
        """Unmasking and ExcessiveNoiseRemoval read the same ShareKeys
        payloads: each is authenticated and parsed once a round, under a
        c-channel key agreed and keyed into its AE once a round (in
        ShareKeys, to encrypt; the same object decrypts)."""
        from collections import Counter

        from repro.crypto.ae import AuthenticatedEncryption
        from repro.crypto.dh import KeyAgreement
        from tests.oracles.complexity import secagg_client_cost

        calls = Counter()
        for cls, name in [(KeyAgreement, "agree"),
                          (AuthenticatedEncryption, "encrypt"),
                          (AuthenticatedEncryption, "decrypt")]:
            def counting(self, *args, _real=getattr(cls, name), _name=name):
                calls[_name] += 1
                if _name == "agree":
                    calls["agreements"] += len(args[1])
                return _real(self, *args)
            monkeypatch.setattr(cls, name, counting)
        real_init = AuthenticatedEncryption.__init__

        def keying(self, key):
            calls["keyings"] += 1
            real_init(self, key)

        monkeypatch.setattr(AuthenticatedEncryption, "__init__", keying)

        n = 6
        cfg = make_config(n=n, t=3, tolerance=2, variance=400.0, dim=64)
        schedule = DropoutSchedule(at_stage={STAGE_UNMASK: {4}})
        result = run_xnoise_round(cfg, make_signals(n, 64), schedule)
        assert 4 in result.u3 and 4 not in result.u5  # stage 5 ran
        assert len(result.u6) == n - 1

        # Nobody dropped before uploading, so the coordinator re-derives
        # no pairwise mask: every agreement is a client's, c and s once
        # per peer, each kind in one call for the whole neighbourhood.
        assert calls["agreements"] == n * secagg_client_cost(n).key_agreements
        assert calls["agree"] == 2 * n
        assert calls["encrypt"] == n * (n - 1)
        assert calls["keyings"] == calls["agreements"] // 2
        # Client 4 left before Unmasking and never opened its inbox; the
        # five that answered stages 4 *and* 5 opened theirs once.
        assert calls["decrypt"] == (n - 1) * (n - 1)

    def test_mixed_dropout_upload_and_removal(self):
        cfg = make_config(n=8, t=4, tolerance=3, variance=400.0, dim=256)
        inputs = make_signals(8, 256)
        schedule = DropoutSchedule(
            at_stage={STAGE_MASKED_INPUT: {1}, STAGE_UNMASK: {2, 3}}
        )
        result = run_xnoise_round(cfg, inputs, schedule)
        assert result.n_dropped == 1
        assert result.residual_variance == pytest.approx(400.0)
        survivors = [u for u in inputs if u != 1]
        err = decoded_error(result, inputs, survivors, 18)
        assert err.var() == pytest.approx(400.0, rel=0.4)


class TestExactNoiseEnforcement:
    """With the noise seeds fixed, Theorem 1 is an equality, not a
    variance estimate: the aggregate is the survivors' signal plus
    exactly the components k ≤ |D| of every survivor — for every dropout
    count the tolerance covers, on both sampler paths (σ² = 400 inverts
    a table, 2²⁴ rejects from strips)."""

    N, T, DIM, BITS = 8, 3, 96, 32

    @staticmethod
    def _seeds(u: int, count: int) -> list[bytes]:
        return [bytes([u, k]) * 16 for k in range(count)]

    @pytest.mark.parametrize("variance", [400.0, 2.0**24])
    @pytest.mark.parametrize("n_dropped", [0, 1, 2, 3])
    def test_aggregate_is_signal_plus_exactly_the_retained_components(
        self, variance, n_dropped
    ):
        from repro.xnoise.protocol import XNoiseClient

        cfg = make_config(n=self.N, t=4, tolerance=self.T, bits=self.BITS,
                          dim=self.DIM, variance=variance)
        variances = cfg.decomposition().variances()
        inputs = make_signals(self.N, self.DIM)
        dropped = set(range(1, n_dropped + 1))
        # One survivor also leaves before revealing its seeds, so some
        # removed components come back through Shamir (stage 5).
        schedule = DropoutSchedule(
            at_stage={STAGE_MASKED_INPUT: dropped, STAGE_UNMASK: {self.N}}
        )
        result = run_xnoise_round(
            cfg, inputs, schedule,
            client_factory=lambda u: XNoiseClient(
                u, cfg, noise_seeds=self._seeds(u, len(variances))
            ),
        )
        assert result.n_dropped == n_dropped and not result.tolerance_exceeded
        survivors = [u for u in inputs if u not in dropped]
        assert result.u3 == survivors
        assert result.removed_noise_components == len(survivors) * (self.T - n_dropped)

        expected = np.zeros(self.DIM, dtype=np.int64)
        for u in survivors:
            expected += inputs[u]
            for k in range(n_dropped + 1):
                expected += skellam_noise_from_seed(
                    self._seeds(u, len(variances))[k], variances[k], self.DIM
                )
        np.testing.assert_array_equal(result.aggregate, expected % (1 << self.BITS))

    def test_removal_reduces_per_component_when_the_ring_leaves_no_headroom(self):
        """A 62-bit ring cannot defer the reduction (2⁶² + Σ16σ would pass
        2⁶³ only for absurd cohorts, so shrink int64's headroom instead):
        the per-component path must give the same ring element."""
        from repro.xnoise import protocol
        from repro.xnoise.protocol import XNoiseServer

        cfg = make_config(n=5, t=3, tolerance=2, bits=20, dim=32, variance=2.0**22)
        server = XNoiseServer(cfg)
        server.u3 = [1, 2, 3, 4, 5]
        revealed = {u: {k: bytes([u, k]) * 16 for k in (1, 2)} for u in server.u3}
        aggregate = np.arange(32, dtype=np.int64) * 31_337 % (1 << 20)
        deferred, removed = server.remove_excess_noise(aggregate, revealed, {})
        assert removed == 10
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "support_bound", lambda variance: 2**62)
            stepwise, _ = server.remove_excess_noise(aggregate, revealed, {})
        np.testing.assert_array_equal(deferred, stepwise)
        assert deferred.min() >= 0 and deferred.max() < 1 << 20
        assert aggregate[1] == 31_337  # the caller's vector is not touched


class TestToleranceExceeded:
    def test_flagged_and_residual_below_target(self):
        """|D| > T: XNoise cannot restore the missing noise — it reports
        the degraded level so the accountant can charge the true cost."""
        cfg = make_config(n=6, t=3, tolerance=1, variance=100.0)
        inputs = make_signals(6, 64)
        result = run_xnoise_round(
            cfg, inputs, DropoutSchedule.before_upload({1, 2, 3})
        )
        assert result.tolerance_exceeded
        expected = 3 * (100.0 / (6 - 1))  # survivors × per-client level
        assert result.residual_variance == pytest.approx(expected)
        assert result.residual_variance < 100.0


class TestStage5ServerMethods:
    """``XNoiseServer.seed_requests`` / ``finish_round`` on hand-built
    state: five sampled clients, t = 3, T = 2, all five uploaded, U5
    as each test sets it."""

    DIM, BITS = 32, 20

    @staticmethod
    def _seed(u: int, k: int) -> bytes:
        return bytes([u, k]) * 16

    def _server(self, u3=(1, 2, 3, 4, 5), u5=(1, 2, 3, 4)):
        cfg = make_config(n=5, t=3, tolerance=2, bits=self.BITS, dim=self.DIM,
                          variance=2.0**22)
        server = XNoiseServer(cfg)
        server.u1 = server.u2 = list(range(1, 6))
        server.u3 = server.u4 = list(u3)
        server.u5 = list(u5)
        return server

    def _unmask_msgs(self, server):
        return {
            v: UnmaskingMsg(
                sender=v, s_sk_shares={}, b_shares={},
                revealed_seeds={k: self._seed(v, k) for k in server.removal_indices()},
            )
            for v in server.u5
        }

    def _responses(self, server, requested):
        """What honest U5 clients answer: their share of every seed asked for."""
        ss = ShamirSecretSharing(server.config.threshold)
        shares = {
            (u, label): ss.share([self._seed(u, int(label[2:]))], server.u1)[0]
            for u, labels in requested.items()
            for label in labels
        }
        return {
            v: {
                u: {label: shares[u, label][v] for label in labels}
                for u, labels in requested.items()
            }
            for v in server.u5
        }

    def _aggregate(self):
        return np.arange(self.DIM, dtype=np.int64) * 31_337 % (1 << self.BITS)

    def test_recovers_the_seeds_of_survivors_that_did_not_reveal(self):
        server = self._server()
        requested = server.seed_requests(self._unmask_msgs(server))
        assert requested == {5: ["g:1", "g:2"]}
        result = server.finish_round(
            self._aggregate(), self._responses(server, requested)
        )
        everything = {u: {k: self._seed(u, k) for k in (1, 2)} for u in server.u3}
        expected, removed = server.remove_excess_noise(self._aggregate(), everything, {})
        np.testing.assert_array_equal(result.aggregate, expected)
        assert result.removed_noise_components == removed == 10
        assert (result.u1, result.u3, result.u5, result.u6) == (
            [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3, 4]
        )
        assert result.n_dropped == 0 and not result.tolerance_exceeded
        assert result.residual_variance == pytest.approx(2.0**22)

    def test_nothing_to_recover_means_no_request(self):
        # Every survivor revealed its own seeds …
        server = self._server(u5=(1, 2, 3, 4, 5))
        assert server.seed_requests(self._unmask_msgs(server)) == {}
        result = server.finish_round(self._aggregate(), {})
        assert result.u6 == [] and result.removed_noise_components == 10
        # … or |D| ≥ T left no excess component to remove.
        server = self._server(u3=(1, 2, 3), u5=(1, 2))
        assert list(server.removal_indices()) == []
        assert server.seed_requests(self._unmask_msgs(server)) == {}
        result = server.finish_round(self._aggregate(), {})
        assert result.u6 == [] and result.removed_noise_components == 0
        np.testing.assert_array_equal(result.aggregate, self._aggregate())

    def test_too_few_stage5_responders_abort_by_name(self):
        server = self._server()
        requested = server.seed_requests(self._unmask_msgs(server))
        responses = self._responses(server, requested)
        few = {v: responses[v] for v in (1, 2)}
        few[3] = {}  # answered, but holds nothing that was asked for
        few[5] = responses[1]  # not in U5: never asked
        with pytest.raises(ProtocolAbort, match="only 2 stage-5 responders"):
            server.finish_round(self._aggregate(), few)

    def test_unreconstructable_seed_aborts_with_its_label(self):
        server = self._server()
        requested = server.seed_requests(self._unmask_msgs(server))
        responses = self._responses(server, requested)
        for v in (2, 3, 4):
            del responses[v][5]["g:2"]
        with pytest.raises(
            ProtocolAbort, match=r"cannot reconstruct seed g_\{5,2\}: need 3 shares"
        ):
            server.finish_round(self._aggregate(), responses)

    @pytest.mark.parametrize(
        "u3, exceeded, residual",
        [
            ((1, 2, 3), False, 2.0**22),  # |D| = T: exactly the target
            ((1, 2), True, 2 * 2.0**22 / (5 - 2)),  # |D| = T + 1: 2 clients' worth
        ],
    )
    def test_residual_and_flag_on_both_sides_of_the_tolerance(
        self, u3, exceeded, residual
    ):
        server = self._server(u3=u3, u5=u3)
        assert server.seed_requests(self._unmask_msgs(server)) == {}
        result = server.finish_round(self._aggregate(), {})
        assert result.tolerance_exceeded is exceeded
        assert result.n_dropped == 5 - len(u3)
        assert result.residual_variance == pytest.approx(residual)
        assert (result.residual_variance < 2.0**22) is exceeded


#: What a hostile stage-5 responder may send back instead of its honest
#: response ``r`` (peer 6's seeds were requested) → whether its requested
#: shares, if any survive, still count it into U6.
TAMPERS = {
    "unrequested-peer": (lambda r: {**r, 99: dict(r[6])}, True),
    "unrequested-label": (
        lambda r: {6: {**r[6], "g:9": r[6]["g:1"], "b": r[6]["g:1"]}}, True
    ),
    "not-a-share": (lambda r: {6: {"g:1": "junk", "g:2": None}}, False),
    "peer-entry-not-a-dict": (lambda r: {6: ["g:1", "g:2"]}, False),
    "not-a-dict": (lambda r: ["junk"], False),
}


class TestHostileStage5Responder:
    """One responder answering ExcessiveNoiseRemoval with something that
    was not asked for must not crash the coordinator: the round ends in
    the exact aggregate while ≥ t honest responders remain, in a named
    abort below that — on the engine path and the reference driver."""

    N, DIM, BITS = 6, 48, 32

    def _run(self, driver, tamper, hostile):
        cfg = make_config(n=self.N, t=4, tolerance=2, bits=self.BITS,
                          dim=self.DIM, variance=400.0)
        variances = cfg.decomposition().variances()
        inputs = make_signals(self.N, self.DIM)

        def seeds(u):
            return [bytes([u, k]) * 16 for k in range(len(variances))]

        class Hostile(XNoiseClient):
            def shares_of_extra_secret(self, label_for):
                return tamper(super().shares_of_extra_secret(label_for))

        result = driver(
            cfg, inputs, DropoutSchedule(at_stage={STAGE_UNMASK: {6}}),
            client_factory=lambda u: (Hostile if u in hostile else XNoiseClient)(
                u, cfg, noise_seeds=seeds(u)
            ),
        )
        # Nobody dropped before uploading: only component 0 stays.
        expected = sum(
            inputs[u] + skellam_noise_from_seed(seeds(u)[0], variances[0], self.DIM)
            for u in inputs
        )
        return result, expected % (1 << self.BITS)

    @pytest.mark.parametrize("driver", [run_xnoise_round, run_xnoise_round_reference])
    @pytest.mark.parametrize("name", TAMPERS)
    def test_round_completes_with_the_exact_aggregate(self, driver, name):
        tamper, counted = TAMPERS[name]
        result, expected = self._run(driver, tamper, hostile={1})
        np.testing.assert_array_equal(result.aggregate, expected)
        assert result.u5 == [1, 2, 3, 4, 5]
        assert result.u6 == ([1, 2, 3, 4, 5] if counted else [2, 3, 4, 5])
        assert result.removed_noise_components == self.N * 2

    @pytest.mark.parametrize("driver", [run_xnoise_round, run_xnoise_round_reference])
    def test_too_few_honest_responders_abort_by_name(self, driver):
        tamper, _ = TAMPERS["not-a-dict"]
        with pytest.raises(ProtocolAbort, match="only 3 stage-5 responders"):
            self._run(driver, tamper, hostile={1, 2})


class TestMaliciousMode:
    def test_full_round_with_dropout(self):
        cfg = make_config(
            n=6, t=4, tolerance=2, variance=400.0, dim=128, malicious=True
        )
        inputs = make_signals(6, 128)
        result = run_xnoise_round(
            cfg, inputs, DropoutSchedule.before_upload({5})
        )
        assert result.residual_variance == pytest.approx(400.0)

    def test_collusion_inflation_raises_residual(self):
        cfg = make_config(
            n=6, t=4, tolerance=1, variance=100.0, dim=64, collusion=1
        )
        inputs = make_signals(6, 64)
        result = run_xnoise_round(cfg, inputs)
        # Residual = σ²_* · t/(t−T_C) = 100 · 4/3.
        assert result.residual_variance == pytest.approx(100.0 * 4 / 3)


class TestValidation:
    def test_input_count_must_match_sample(self):
        cfg = make_config(n=6)
        with pytest.raises(ValueError):
            run_xnoise_round(cfg, make_signals(5, 64))

    def test_tolerance_must_be_below_sample_size(self):
        with pytest.raises(ValueError):
            make_config(n=4, tolerance=4)

    def test_collusion_must_be_below_threshold(self):
        with pytest.raises(ValueError):
            make_config(n=6, t=3, collusion=3)

    def test_below_threshold_aborts(self):
        cfg = make_config(n=6, t=5, tolerance=2)
        with pytest.raises(ProtocolAbort):
            run_xnoise_round(
                cfg,
                make_signals(6, 64),
                DropoutSchedule.before_upload({1, 2}),
            )
