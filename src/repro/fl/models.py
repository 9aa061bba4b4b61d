"""Pure-NumPy models with a flat-parameter interface.

FL protocols move *flat vectors* (model updates) around, so every model
here exposes ``get_flat()`` / ``set_flat()`` plus mini-batch
``loss_and_grad``.  The models stand in for the paper's PyTorch nets
(§6.1): softmax regression and an MLP for the image-classification
stand-ins, and a bigram language model whose perplexity plays
Reddit/Albert's role.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import derive_rng


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _one_hot(y: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


class FlatModel:
    """Interface: a differentiable model over a flat parameter vector."""

    @property
    def n_params(self) -> int:
        return self.get_flat().shape[0]

    def get_flat(self) -> np.ndarray:
        raise NotImplementedError

    def set_flat(self, flat: np.ndarray) -> None:
        raise NotImplementedError

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct argmax predictions."""
        return float((self.predict(x) == y).mean())

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        return self.loss_and_grad(x, y)[0]

    def perplexity(self, x: np.ndarray, y: np.ndarray) -> float:
        """exp(cross-entropy) — the language-modeling metric of Fig. 9c."""
        return float(np.exp(self.loss(x, y)))

    def clone_params(self) -> np.ndarray:
        return self.get_flat().copy()


class SoftmaxRegression(FlatModel):
    """Multinomial logistic regression: W (d×k) + b (k)."""

    def __init__(self, n_features: int, n_classes: int, l2: float = 0.0, seed: int = 0):
        if n_features < 1 or n_classes < 2:
            raise ValueError("need n_features >= 1 and n_classes >= 2")
        self.n_features = n_features
        self.n_classes = n_classes
        self.l2 = l2
        rng = derive_rng("softmax-init", n_features, n_classes, seed)
        self.w = rng.normal(scale=0.01, size=(n_features, n_classes))
        self.b = np.zeros(n_classes)

    def get_flat(self) -> np.ndarray:
        return np.concatenate([self.w.ravel(), self.b])

    def set_flat(self, flat: np.ndarray) -> None:
        d, k = self.n_features, self.n_classes
        if flat.shape != (d * k + k,):
            raise ValueError(f"expected {(d * k + k,)}, got {flat.shape}")
        self.w = flat[: d * k].reshape(d, k).copy()
        self.b = flat[d * k :].copy()

    def loss_and_grad(self, x, y):
        n = x.shape[0]
        probs = _softmax(x @ self.w + self.b)
        onehot = _one_hot(y, self.n_classes)
        loss = -np.log(probs[np.arange(n), y] + 1e-12).mean()
        loss += 0.5 * self.l2 * float((self.w**2).sum())
        dlogits = (probs - onehot) / n
        gw = x.T @ dlogits + self.l2 * self.w
        gb = dlogits.sum(axis=0)
        return float(loss), np.concatenate([gw.ravel(), gb])

    def predict(self, x):
        return np.argmax(x @ self.w + self.b, axis=1)


class MLPClassifier(FlatModel):
    """One-hidden-layer tanh MLP — the mid-size classification model."""

    def __init__(
        self, n_features: int, n_hidden: int, n_classes: int, seed: int = 0
    ):
        if min(n_features, n_hidden) < 1 or n_classes < 2:
            raise ValueError("invalid MLP shape")
        self.shapes = dict(d=n_features, h=n_hidden, k=n_classes)
        rng = derive_rng("mlp-init", n_features, n_hidden, n_classes, seed)
        self.w1 = rng.normal(scale=1.0 / np.sqrt(n_features), size=(n_features, n_hidden))
        self.b1 = np.zeros(n_hidden)
        self.w2 = rng.normal(scale=1.0 / np.sqrt(n_hidden), size=(n_hidden, n_classes))
        self.b2 = np.zeros(n_classes)

    def get_flat(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2]
        )

    def set_flat(self, flat: np.ndarray) -> None:
        d, h, k = self.shapes["d"], self.shapes["h"], self.shapes["k"]
        expected = d * h + h + h * k + k
        if flat.shape != (expected,):
            raise ValueError(f"expected ({expected},), got {flat.shape}")
        i = 0
        self.w1 = flat[i : i + d * h].reshape(d, h).copy(); i += d * h
        self.b1 = flat[i : i + h].copy(); i += h
        self.w2 = flat[i : i + h * k].reshape(h, k).copy(); i += h * k
        self.b2 = flat[i : i + k].copy()

    def loss_and_grad(self, x, y):
        n = x.shape[0]
        k = self.shapes["k"]
        hidden = np.tanh(x @ self.w1 + self.b1)
        probs = _softmax(hidden @ self.w2 + self.b2)
        loss = -np.log(probs[np.arange(n), y] + 1e-12).mean()
        dlogits = (probs - _one_hot(y, k)) / n
        gw2 = hidden.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        dhidden = (dlogits @ self.w2.T) * (1 - hidden**2)
        gw1 = x.T @ dhidden
        gb1 = dhidden.sum(axis=0)
        return float(loss), np.concatenate(
            [gw1.ravel(), gb1, gw2.ravel(), gb2]
        )

    def predict(self, x):
        hidden = np.tanh(x @ self.w1 + self.b1)
        return np.argmax(hidden @ self.w2 + self.b2, axis=1)


class BigramLM(FlatModel):
    """A learned bigram table: logits[prev, next] — the language model.

    Input ``x`` holds previous-token indices, labels ``y`` next-token
    indices; the parameters are a V×V logit matrix.  Cross-entropy /
    perplexity behave like the paper's Reddit task: DP noise on the
    aggregated update raises perplexity smoothly.
    """

    def __init__(self, vocab: int, seed: int = 0):
        if vocab < 2:
            raise ValueError("vocab must be >= 2")
        self.vocab = vocab
        rng = derive_rng("bigram-init", vocab, seed)
        self.logits = rng.normal(scale=0.01, size=(vocab, vocab))

    def get_flat(self) -> np.ndarray:
        return self.logits.ravel().copy()

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.shape != (self.vocab * self.vocab,):
            raise ValueError("flat vector shape mismatch")
        self.logits = flat.reshape(self.vocab, self.vocab).copy()

    def loss_and_grad(self, x, y):
        n = x.shape[0]
        rows = self.logits[x]  # (n, V)
        probs = _softmax(rows)
        loss = -np.log(probs[np.arange(n), y] + 1e-12).mean()
        drows = (probs - _one_hot(y, self.vocab)) / n
        grad = np.zeros_like(self.logits)
        np.add.at(grad, x, drows)
        return float(loss), grad.ravel()
