"""FedAvg loop, local training, and dropout models."""

import numpy as np
import pytest

from repro.fl.client import LocalTrainer
from repro.fl.data import make_classification_task
from repro.fleet import BehaviorTrace, FixedRateDropout, TraceDrivenDropout
from repro.fl.models import SoftmaxRegression
from repro.fl.optim import SGD
from repro.fl.server import FedAvgServer
from repro.utils.rng import derive_rng
from tests.oracles.fleet import dropout_rates_reference


def small_task():
    return make_classification_task(
        "fedavg-test", n_clients=8, n_classes=5, n_features=16,
        samples_per_client=60, seed=0,
    )


class TestLocalTrainer:
    def test_update_moves_parameters(self):
        ds = small_task()
        model = SoftmaxRegression(16, 5)
        trainer = LocalTrainer(model, lambda: SGD(lr=0.2), epochs=2, batch_size=16)
        update = trainer.compute_update(model.get_flat(), ds.shards[0])
        assert np.linalg.norm(update) > 0

    def test_update_is_deterministic_per_round_and_client(self):
        ds = small_task()
        model = SoftmaxRegression(16, 5)
        trainer = LocalTrainer(model, lambda: SGD(lr=0.2))
        g = model.get_flat()
        a = trainer.compute_update(g, ds.shards[0], round_index=3, client_id=1)
        b = trainer.compute_update(g, ds.shards[0], round_index=3, client_id=1)
        np.testing.assert_array_equal(a, b)
        c = trainer.compute_update(g, ds.shards[0], round_index=4, client_id=1)
        assert not np.array_equal(a, c)

    def test_update_reduces_local_loss(self):
        ds = small_task()
        model = SoftmaxRegression(16, 5)
        trainer = LocalTrainer(model, lambda: SGD(lr=0.2), epochs=3)
        g = model.get_flat()
        shard = ds.shards[0]
        model.set_flat(g)
        before = model.loss(shard.x, shard.y)
        update = trainer.compute_update(g, shard)
        model.set_flat(g + update)
        assert model.loss(shard.x, shard.y) < before

    def test_empty_shard_rejected(self):
        from repro.fl.data import ClientShard

        model = SoftmaxRegression(4, 2)
        trainer = LocalTrainer(model, lambda: SGD(lr=0.1))
        empty = ClientShard(x=np.zeros((0, 4)), y=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            trainer.compute_update(model.get_flat(), empty)


class TestFedAvg:
    def test_fedavg_learns(self):
        """A few FedAvg rounds must beat the untrained model — the
        substrate works end to end without any privacy machinery."""
        ds = small_task()
        model = SoftmaxRegression(16, 5)
        server = FedAvgServer(model)
        trainer = LocalTrainer(model, lambda: SGD(lr=0.2), epochs=2)
        rng = derive_rng("fedavg-sampling")
        base_acc = server.evaluate(ds.test.x, ds.test.y)
        for r in range(12):
            sampled = rng.choice(ds.n_clients, size=4, replace=False)
            updates = [
                trainer.compute_update(
                    server.global_params, ds.shards[u], round_index=r, client_id=u
                )
                for u in sampled
            ]
            server.apply_update_sum(np.sum(updates, axis=0), len(updates))
        assert server.evaluate(ds.test.x, ds.test.y) > base_acc + 0.2
        assert server.rounds_applied == 12

    def test_shape_mismatch_rejected(self):
        server = FedAvgServer(SoftmaxRegression(4, 2))
        with pytest.raises(ValueError):
            server.apply_update_sum(np.zeros(3), 1)

    def test_participant_count_validated(self):
        server = FedAvgServer(SoftmaxRegression(4, 2))
        with pytest.raises(ValueError):
            server.apply_update_sum(np.zeros(server.global_params.shape[0]), 0)

    def test_server_lr_validated(self):
        with pytest.raises(ValueError):
            FedAvgServer(SoftmaxRegression(4, 2), server_lr=0.0)


class TestFixedRateDropout:
    def test_zero_rate_never_drops(self):
        d = FixedRateDropout(0.0)
        assert d.dropped(list(range(100)), 0) == set()

    def test_rate_respected_on_average(self):
        d = FixedRateDropout(0.3, seed=1)
        total = sum(len(d.dropped(list(range(100)), r)) for r in range(50))
        assert total / 5000 == pytest.approx(0.3, abs=0.03)

    def test_deterministic_per_round(self):
        d = FixedRateDropout(0.5, seed=2)
        assert d.dropped([1, 2, 3, 4], 7) == d.dropped([1, 2, 3, 4], 7)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            FixedRateDropout(1.0)
        with pytest.raises(ValueError):
            FixedRateDropout(-0.1)


class TestBehaviorTrace:
    def test_matrix_shape(self):
        trace = BehaviorTrace(n_clients=20, horizon=50, seed=0)
        assert trace.availability_matrix().shape == (20, 50)

    def test_deterministic(self):
        a = BehaviorTrace(10, 30, seed=5).availability_matrix()
        b = BehaviorTrace(10, 30, seed=5).availability_matrix()
        np.testing.assert_array_equal(a, b)

    def test_clients_alternate(self):
        """Clients must not be always-on or always-off en masse."""
        trace = BehaviorTrace(n_clients=50, horizon=200, seed=1)
        m = trace.availability_matrix()
        per_client_on = m.mean(axis=1)
        assert 0.1 < per_client_on.mean() < 0.9
        assert per_client_on.std() > 0.05  # heterogeneous propensities

    def test_dropout_rates_span_wide_range(self):
        """Fig. 1a: per-round dropout of a 16-sample swings broadly."""
        trace = BehaviorTrace(n_clients=100, horizon=150, seed=2)
        rates = trace.dropout_rates(sample_size=16)
        assert rates.min() < 0.3
        assert rates.max() > 0.6

    def test_dropout_rates_pinned_to_reference_loop(self):
        """The batched sampling gather is a vectorization of the
        oracle's per-round loop — same rng stream, bit-equal rates."""
        trace = BehaviorTrace(n_clients=100, horizon=150, seed=2)
        np.testing.assert_array_equal(
            trace.dropout_rates(sample_size=16, seed=4),
            dropout_rates_reference(trace, sample_size=16, seed=4),
        )

    def test_trace_driven_adapter(self):
        trace = BehaviorTrace(n_clients=10, horizon=20, seed=3)
        dropout = TraceDrivenDropout(trace)
        sampled = list(range(10))
        for r in range(20):
            gone = dropout.dropped(sampled, r)
            for u in sampled:
                assert (u in gone) == (not trace.available(u, r))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BehaviorTrace(0, 10)
        with pytest.raises(ValueError):
            BehaviorTrace(10, 10, mean_session=0.0)
