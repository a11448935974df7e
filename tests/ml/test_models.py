"""Tests for the numpy model zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MLError, ModelCompatibilityError
from repro.ml.datasets import (
    Dataset,
    make_binary_classification,
    train_test_split,
)
from repro.ml.models import (
    LinearRegressionModel,
    MLPClassifier,
    SoftmaxRegressionModel,
)


def blobs(rng, samples: int = 600, features: int = 4, classes: int = 3,
          separation: float = 3.0) -> Dataset:
    """Gaussian class clusters: the classifiers' fitting problem."""
    centers = rng.normal(0.0, separation, (classes, features))
    labels = rng.integers(0, classes, samples)
    points = centers[labels] + rng.normal(0.0, 1.0, (samples, features))
    return Dataset(features=points, targets=labels)


def linear_problem(rng, samples: int = 400, features: int = 4,
                   noise: float = 0.05) -> Dataset:
    """A noisy linear regression problem."""
    weights = rng.normal(0.0, 1.0, features)
    bias = float(rng.normal(0.0, 1.0))
    points = rng.normal(0.0, 1.0, (samples, features))
    values = points @ weights + bias + rng.normal(0.0, noise, samples)
    return Dataset(features=points, targets=values)


def numeric_gradient(model, features, targets, epsilon=1e-6):
    """Central-difference gradient for gradient-correctness checks."""
    base = model.params
    grad = np.zeros_like(base)
    for index in range(len(base)):
        bumped = base.copy()
        bumped[index] += epsilon
        model.set_params(bumped)
        plus = model.loss(features, targets)
        bumped[index] -= 2 * epsilon
        model.set_params(bumped)
        minus = model.loss(features, targets)
        grad[index] = (plus - minus) / (2 * epsilon)
    model.set_params(base)
    return grad


class TestParameterInterface:
    def test_params_round_trip(self):
        model = LinearRegressionModel(4)
        values = np.arange(5, dtype=float)
        model.set_params(values)
        assert np.array_equal(model.params, values)

    def test_params_are_copies(self):
        model = LinearRegressionModel(4)
        external = model.params
        external[0] = 999.0
        assert model.params[0] == 0.0

    def test_wrong_shape_rejected(self):
        model = LinearRegressionModel(4)
        with pytest.raises(ModelCompatibilityError):
            model.set_params(np.zeros(3))

    def test_clone_is_independent(self):
        model = LinearRegressionModel(4)
        model.set_params(np.ones(5))
        twin = model.clone()
        twin.set_params(np.zeros(5))
        assert model.params[0] == 1.0

    def test_param_counts(self):
        assert LinearRegressionModel(3).num_params == 4
        assert SoftmaxRegressionModel(3, 4).num_params == 16
        assert MLPClassifier(3, 5, 2).num_params == 3 * 5 + 5 + 5 * 2 + 2

    def test_invalid_shapes_rejected(self):
        with pytest.raises(MLError):
            LinearRegressionModel(0)
        with pytest.raises(MLError):
            SoftmaxRegressionModel(3, 1)
        with pytest.raises(MLError):
            MLPClassifier(3, 0, 2)


class TestGradients:
    """Analytic gradients must match numeric differentiation."""

    def test_linear_regression_gradient(self, rng):
        model = LinearRegressionModel(3, l2=0.1)
        model.set_params(rng.normal(size=4))
        features = rng.normal(size=(8, 3))
        targets = rng.normal(size=8)
        assert np.allclose(model.gradient(features, targets),
                           numeric_gradient(model, features, targets),
                           atol=1e-4)

    def test_softmax_gradient(self, rng):
        model = SoftmaxRegressionModel(3, 4, l2=0.05)
        model.set_params(rng.normal(size=model.num_params))
        features = rng.normal(size=(8, 3))
        targets = rng.integers(0, 4, 8)
        assert np.allclose(model.gradient(features, targets),
                           numeric_gradient(model, features, targets),
                           atol=1e-4)

    def test_mlp_gradient(self, rng):
        model = MLPClassifier(3, 4, 2, l2=0.01, init_rng=rng)
        features = rng.normal(size=(6, 3))
        targets = rng.integers(0, 2, 6)
        assert np.allclose(model.gradient(features, targets),
                           numeric_gradient(model, features, targets),
                           atol=1e-4)


class TestLearning:
    def test_linear_regression_fits(self, rng):
        data = linear_problem(rng)
        train, test = train_test_split(data, 0.25, rng)
        model = LinearRegressionModel(4)
        model.train_steps(train.features, train.targets, 800, 0.1, 32, rng)
        assert model.score(test.features, test.targets) > 0.95

    def test_softmax_fits(self, rng):
        data = blobs(rng)
        train, test = train_test_split(data, 0.25, rng)
        model = SoftmaxRegressionModel(4, 3)
        model.train_steps(train.features, train.targets, 600, 0.3, 32, rng)
        assert model.score(test.features, test.targets) > 0.9

    def test_mlp_fits(self, rng):
        data = blobs(rng)
        train, test = train_test_split(data, 0.25, rng)
        model = MLPClassifier(4, 16, 3, init_rng=rng)
        model.train_steps(train.features, train.targets, 800, 0.2, 32, rng)
        assert model.score(test.features, test.targets) > 0.9

    def test_training_on_empty_data_is_noop(self, rng):
        model = LinearRegressionModel(3)
        before = model.params
        model.train_steps(np.zeros((0, 3)), np.zeros(0), 10, 0.1, 8, rng)
        assert np.array_equal(model.params, before)

    def test_loss_decreases(self, rng):
        data = make_binary_classification(300, 4, rng)
        model = SoftmaxRegressionModel(4, 2)
        before = model.loss(data.features, data.targets)
        model.train_steps(data.features, data.targets, 200, 0.3, 32, rng)
        assert model.loss(data.features, data.targets) < before

    def test_r2_of_mean_predictor_is_zero(self):
        model = LinearRegressionModel(2)
        features = np.zeros((10, 2))
        targets = np.zeros(10)
        # Degenerate targets: defined as 0.0 by convention.
        assert model.score(features, targets) == 0.0
