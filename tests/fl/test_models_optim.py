"""Model gradient checks, flat round-trips, optimizer behaviour."""

import numpy as np
import pytest

from repro.fl.models import (
    BigramLM,
    MLPClassifier,
    SoftmaxRegression,
)
from repro.fl.optim import SGD, AdamW
from repro.utils.rng import derive_rng


def numeric_grad(model, x, y, eps=1e-6):
    base = model.get_flat().copy()
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for sign in (+1, -1):
            probe = base.copy()
            probe[i] += sign * eps
            model.set_flat(probe)
            grad[i] += sign * model.loss(x, y)
    model.set_flat(base)
    return grad / (2 * eps)


MODELS = [
    ("softmax", lambda: SoftmaxRegression(5, 3, l2=0.01, seed=1), (6, 5), 3),
    ("mlp", lambda: MLPClassifier(4, 6, 3, seed=1), (6, 4), 3),
]


class TestGradients:
    @pytest.mark.parametrize("name,factory,xshape,k", MODELS)
    def test_analytic_matches_numeric(self, name, factory, xshape, k):
        model = factory()
        rng = derive_rng("gradcheck", name)
        x = rng.normal(size=xshape)
        y = rng.integers(0, k, size=xshape[0])
        _, analytic = model.loss_and_grad(x, y)
        numeric = numeric_grad(model, x, y)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_bigram_gradient(self):
        model = BigramLM(6, seed=1)
        rng = derive_rng("gradcheck-lm")
        x = rng.integers(0, 6, size=12)
        y = rng.integers(0, 6, size=12)
        _, analytic = model.loss_and_grad(x, y)
        numeric = numeric_grad(model, x, y)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


class TestFlatRoundTrip:
    @pytest.mark.parametrize("name,factory,xshape,k", MODELS)
    def test_get_set_roundtrip(self, name, factory, xshape, k):
        model = factory()
        flat = model.get_flat()
        noise = derive_rng("flat", name).normal(size=flat.shape)
        model.set_flat(flat + noise)
        np.testing.assert_allclose(model.get_flat(), flat + noise)

    def test_set_flat_copies(self):
        model = SoftmaxRegression(3, 2)
        v = np.zeros(model.n_params)
        model.set_flat(v)
        v[0] = 99.0
        assert model.get_flat()[0] == 0.0

    @pytest.mark.parametrize("name,factory,xshape,k", MODELS)
    def test_wrong_shape_rejected(self, name, factory, xshape, k):
        model = factory()
        with pytest.raises(ValueError):
            model.set_flat(np.zeros(model.n_params + 1))

    def test_bigram_roundtrip(self):
        model = BigramLM(8)
        flat = model.get_flat() + 1.5
        model.set_flat(flat)
        np.testing.assert_allclose(model.get_flat(), flat)


class TestTraining:
    def test_sgd_reduces_loss(self):
        model = SoftmaxRegression(8, 4, seed=0)
        rng = derive_rng("sgd-train")
        x = rng.normal(size=(100, 8))
        y = rng.integers(0, 4, size=100)
        opt = SGD(lr=0.3)
        params = model.get_flat()
        first = model.loss(x, y)
        for _ in range(50):
            model.set_flat(params)
            _, g = model.loss_and_grad(x, y)
            params = opt.step(params, g)
        model.set_flat(params)
        assert model.loss(x, y) < first

    def test_adamw_reduces_loss(self):
        model = MLPClassifier(8, 12, 4, seed=0)
        rng = derive_rng("adam-train")
        x = rng.normal(size=(100, 8))
        y = rng.integers(0, 4, size=100)
        opt = AdamW(lr=0.02)
        params = model.get_flat()
        first = model.loss(x, y)
        for _ in range(60):
            model.set_flat(params)
            _, g = model.loss_and_grad(x, y)
            params = opt.step(params, g)
        model.set_flat(params)
        assert model.loss(x, y) < first * 0.9

    def test_momentum_accumulates(self):
        opt = SGD(lr=0.1, momentum=0.9)
        p = np.zeros(3)
        g = np.ones(3)
        p1 = opt.step(p, g)
        p2 = opt.step(p1, g)
        # Second step moves farther due to velocity.
        assert np.all((p1 - p2) > (p - p1))


class TestValidation:
    def test_model_shape_validation(self):
        with pytest.raises(ValueError):
            SoftmaxRegression(0, 3)
        with pytest.raises(ValueError):
            MLPClassifier(4, 0, 3)
        with pytest.raises(ValueError):
            BigramLM(1)

    def test_optimizer_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)
        with pytest.raises(ValueError):
            SGD(lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            AdamW(lr=-1.0)
        with pytest.raises(ValueError):
            AdamW(lr=0.1, beta1=1.0)

    def test_accuracy_metric(self):
        model = SoftmaxRegression(2, 2, seed=0)
        model.set_flat(np.array([10.0, -10.0, -10.0, 10.0, 0.0, 0.0]))
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert model.accuracy(x, np.array([0, 1])) == 1.0
        assert model.accuracy(x, np.array([1, 0])) == 0.0
