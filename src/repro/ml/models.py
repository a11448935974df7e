"""Numpy ML models with a flat-parameter interface.

Decentralized training protocols (gossip, federated) need to treat a model
as a vector: serialize it into a message, average vectors, measure their
size.  Every model here exposes ``params`` / ``set_params`` over a single
flat ``float64`` array, plus ``loss`` / ``gradient`` / ``predict`` /
``score``.  The families match the gossip-learning literature the paper
cites (linear models) plus a small MLP for the scaling experiments.
"""

from __future__ import annotations

import abc
import copy
from typing import Optional

import numpy as np

from repro.errors import MLError, ModelCompatibilityError


def _as_2d(features: np.ndarray) -> np.ndarray:
    array = np.asarray(features, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise MLError("feature arrays must be 1- or 2-dimensional")
    return array


class Model(abc.ABC):
    """Base class: a differentiable model over a flat parameter vector."""

    def __init__(self, num_features: int):
        if num_features < 1:
            raise MLError("models need at least one feature")
        self.num_features = num_features
        self._params = np.zeros(self.num_params)

    # -- parameter vector interface ------------------------------------------------

    @property
    @abc.abstractmethod
    def num_params(self) -> int:
        """Length of the flat parameter vector."""

    @property
    def params(self) -> np.ndarray:
        """A copy of the flat parameter vector."""
        return self._params.copy()

    def set_params(self, params: np.ndarray) -> None:
        """Replace the parameter vector (shape-checked)."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.num_params,):
            raise ModelCompatibilityError(
                f"expected {self.num_params} parameters, got {params.shape}"
            )
        self._params = params.copy()

    def clone(self) -> "Model":
        """A model of the same architecture with a copy of the parameters."""
        twin = copy.copy(self)
        twin._params = self._params.copy()
        return twin

    # -- learning interface -----------------------------------------------------------

    @abc.abstractmethod
    def loss(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss on a batch."""

    @abc.abstractmethod
    def gradient(self, features: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
        """Mean gradient of the loss, flattened to the parameter layout."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Model outputs (labels for classifiers, values for regressors)."""

    @abc.abstractmethod
    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Goodness on a test set: accuracy or R^2 (higher is better)."""

    def sgd_step(self, features: np.ndarray, targets: np.ndarray,
                 learning_rate: float) -> None:
        """One full-batch gradient step on the given data."""
        grad = self.gradient(features, targets)
        self._params = self._params - learning_rate * grad

    def train_steps(self, features: np.ndarray, targets: np.ndarray,
                    steps: int, learning_rate: float,
                    batch_size: int, rng: np.random.Generator) -> None:
        """Run ``steps`` minibatch SGD steps over the local dataset."""
        features = _as_2d(features)
        targets = np.asarray(targets)
        n = len(features)
        if n == 0:
            return
        for _ in range(steps):
            take = min(batch_size, n)
            index = rng.choice(n, size=take, replace=False)
            self.sgd_step(features[index], targets[index], learning_rate)


class LinearRegressionModel(Model):
    """Least-squares linear regression with optional L2 regularization."""

    def __init__(self, num_features: int, l2: float = 0.0):
        self.l2 = l2
        super().__init__(num_features)

    @property
    def num_params(self) -> int:
        return self.num_features + 1  # weights + bias

    def _split(self) -> tuple[np.ndarray, float]:
        return self._params[:-1], float(self._params[-1])

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_2d(features)
        weights, bias = self._split()
        return features @ weights + bias

    def loss(self, features: np.ndarray, targets: np.ndarray) -> float:
        residual = self.predict(features) - np.asarray(targets, dtype=float)
        weights, _ = self._split()
        return float(np.mean(residual**2) / 2
                     + self.l2 * np.dot(weights, weights) / 2)

    def gradient(self, features: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
        features = _as_2d(features)
        residual = self.predict(features) - np.asarray(targets, dtype=float)
        weights, _ = self._split()
        grad_w = features.T @ residual / len(features) + self.l2 * weights
        grad_b = float(np.mean(residual))
        return np.concatenate([grad_w, [grad_b]])

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Coefficient of determination R^2."""
        targets = np.asarray(targets, dtype=float)
        predictions = self.predict(features)
        total = float(np.sum((targets - targets.mean()) ** 2))
        if total == 0.0:
            return 0.0
        residual = float(np.sum((targets - predictions) ** 2))
        return 1.0 - residual / total


class SoftmaxRegressionModel(Model):
    """Multinomial logistic regression (labels in {0..classes-1})."""

    def __init__(self, num_features: int, num_classes: int, l2: float = 0.0):
        if num_classes < 2:
            raise MLError("softmax regression needs at least 2 classes")
        self.num_classes = num_classes
        self.l2 = l2
        super().__init__(num_features)

    @property
    def num_params(self) -> int:
        return (self.num_features + 1) * self.num_classes

    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        cut = self.num_features * self.num_classes
        weights = self._params[:cut].reshape(self.num_features,
                                             self.num_classes)
        bias = self._params[cut:]
        return weights, bias

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = _as_2d(features)
        weights, bias = self._matrices()
        logits = features @ weights + bias
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)

    def loss(self, features: np.ndarray, targets: np.ndarray) -> float:
        probs = self.predict_proba(features)
        targets = np.asarray(targets, dtype=int)
        picked = np.clip(probs[np.arange(len(targets)), targets], 1e-12, 1.0)
        weights, _ = self._matrices()
        return float(-np.mean(np.log(picked))
                     + self.l2 * np.sum(weights**2) / 2)

    def gradient(self, features: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
        features = _as_2d(features)
        targets = np.asarray(targets, dtype=int)
        probs = self.predict_proba(features)
        probs[np.arange(len(targets)), targets] -= 1.0
        probs /= len(features)
        weights, _ = self._matrices()
        grad_w = features.T @ probs + self.l2 * weights
        grad_b = probs.sum(axis=0)
        return np.concatenate([grad_w.ravel(), grad_b])

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        return float(np.mean(self.predict(features) == np.asarray(targets)))


class MLPClassifier(Model):
    """One-hidden-layer tanh MLP with a softmax head."""

    def __init__(self, num_features: int, hidden_units: int,
                 num_classes: int, l2: float = 0.0,
                 init_rng: Optional[np.random.Generator] = None):
        if hidden_units < 1:
            raise MLError("MLP needs at least one hidden unit")
        if num_classes < 2:
            raise MLError("MLP classifier needs at least 2 classes")
        self.hidden_units = hidden_units
        self.num_classes = num_classes
        self.l2 = l2
        super().__init__(num_features)
        if init_rng is not None:
            self.initialize(init_rng)

    def initialize(self, rng: np.random.Generator) -> None:
        """Glorot-style random initialization (deterministic under a seed)."""
        w1_scale = np.sqrt(2.0 / (self.num_features + self.hidden_units))
        w2_scale = np.sqrt(2.0 / (self.hidden_units + self.num_classes))
        w1 = rng.normal(0.0, w1_scale,
                        (self.num_features, self.hidden_units))
        w2 = rng.normal(0.0, w2_scale,
                        (self.hidden_units, self.num_classes))
        b1 = np.zeros(self.hidden_units)
        b2 = np.zeros(self.num_classes)
        self._params = np.concatenate(
            [w1.ravel(), b1, w2.ravel(), b2]
        )

    @property
    def num_params(self) -> int:
        return (self.num_features * self.hidden_units + self.hidden_units
                + self.hidden_units * self.num_classes + self.num_classes)

    def _matrices(self):
        f, h, c = self.num_features, self.hidden_units, self.num_classes
        offset = 0
        w1 = self._params[offset:offset + f * h].reshape(f, h)
        offset += f * h
        b1 = self._params[offset:offset + h]
        offset += h
        w2 = self._params[offset:offset + h * c].reshape(h, c)
        offset += h * c
        b2 = self._params[offset:offset + c]
        return w1, b1, w2, b2

    def _forward(self, features: np.ndarray):
        w1, b1, w2, b2 = self._matrices()
        hidden = np.tanh(features @ w1 + b1)
        logits = hidden @ w2 + b2
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        return hidden, probs

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self._forward(_as_2d(features))[1]

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)

    def loss(self, features: np.ndarray, targets: np.ndarray) -> float:
        probs = self.predict_proba(features)
        targets = np.asarray(targets, dtype=int)
        picked = np.clip(probs[np.arange(len(targets)), targets], 1e-12, 1.0)
        w1, _, w2, _ = self._matrices()
        reg = self.l2 * (np.sum(w1**2) + np.sum(w2**2)) / 2
        return float(-np.mean(np.log(picked)) + reg)

    def gradient(self, features: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
        features = _as_2d(features)
        targets = np.asarray(targets, dtype=int)
        w1, b1, w2, b2 = self._matrices()
        hidden, probs = self._forward(features)
        delta_out = probs
        delta_out[np.arange(len(targets)), targets] -= 1.0
        delta_out /= len(features)
        grad_w2 = hidden.T @ delta_out + self.l2 * w2
        grad_b2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ w2.T) * (1.0 - hidden**2)
        grad_w1 = features.T @ delta_hidden + self.l2 * w1
        grad_b1 = delta_hidden.sum(axis=0)
        return np.concatenate(
            [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
        )

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        return float(np.mean(self.predict(features) == np.asarray(targets)))
