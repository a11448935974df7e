"""Tests for dataset generators and non-IID partitioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MLError
from repro.ml.datasets import (
    HAR_ACTIVITIES,
    Dataset,
    make_binary_classification,
    make_energy_consumption,
    make_iot_activity,
    split_by_label,
    split_dirichlet,
    split_iid,
    train_test_split,
)


def label_distribution(dataset: Dataset, num_classes: int) -> np.ndarray:
    """Normalized label histogram: how skewed a partition is."""
    counts = np.bincount(dataset.targets.astype(int), minlength=num_classes)
    return counts / counts.sum()


class TestGenerators:
    def test_binary_labels(self, rng):
        data = make_binary_classification(100, 4, rng)
        assert set(np.unique(data.targets)) <= {0, 1}

    def test_iot_activity(self, rng):
        data = make_iot_activity(200, rng)
        assert data.features.shape == (200, 6)
        assert set(np.unique(data.targets)) <= set(range(len(HAR_ACTIVITIES)))
        assert len(data.feature_names) == 6

    def test_energy_consumption(self, rng):
        data = make_energy_consumption(200, rng)
        assert data.features.shape == (200, 5)
        assert np.all(np.isfinite(data.targets))

    def test_determinism(self):
        a = make_iot_activity(50, np.random.default_rng(3))
        b = make_iot_activity(50, np.random.default_rng(3))
        assert np.array_equal(a.features, b.features)

    def test_dataset_length_mismatch_rejected(self):
        with pytest.raises(MLError):
            Dataset(features=np.zeros((3, 2)), targets=np.zeros(2))


class TestSplits:
    def test_train_test_split_partitions(self, rng):
        data = make_iot_activity(100, rng)
        train, test = train_test_split(data, 0.3, rng)
        assert len(train) + len(test) == 100
        assert len(test) == 30

    def test_train_test_split_validates_fraction(self, rng):
        data = make_iot_activity(10, rng)
        with pytest.raises(MLError):
            train_test_split(data, 0.0, rng)

    def test_iid_split_covers_everything(self, rng):
        data = make_iot_activity(100, rng)
        parts = split_iid(data, 7, rng)
        assert sum(len(p) for p in parts) == 100
        assert len(parts) == 7

    def test_iid_split_roughly_balanced_labels(self, rng):
        data = make_iot_activity(2000, rng)
        parts = split_iid(data, 4, rng)
        global_dist = label_distribution(data, 5)
        for part in parts:
            part_dist = label_distribution(part, 5)
            assert np.abs(part_dist - global_dist).max() < 0.1

    def test_dirichlet_split_covers_everything(self, rng):
        data = make_iot_activity(500, rng)
        parts = split_dirichlet(data, 10, 0.5, rng)
        assert sum(len(p) for p in parts) == 500

    def test_dirichlet_skew_increases_as_alpha_drops(self):
        data = make_iot_activity(4000, np.random.default_rng(9))

        def mean_skew(alpha):
            parts = split_dirichlet(data, 8, alpha,
                                    np.random.default_rng(10))
            skews = []
            for part in parts:
                dist = label_distribution(part, 5)
                skews.append(dist.max())
            return float(np.mean(skews))

        assert mean_skew(0.1) > mean_skew(100.0)

    def test_dirichlet_min_samples(self, rng):
        data = make_iot_activity(300, rng)
        parts = split_dirichlet(data, 10, 0.1, rng, min_samples=5)
        assert all(len(p) >= 5 for p in parts)

    def test_dirichlet_rejects_float_labels(self, rng):
        data = make_energy_consumption(100, rng)
        with pytest.raises(MLError):
            split_dirichlet(data, 4, 1.0, rng)

    def test_label_shards(self, rng):
        data = make_iot_activity(500, rng)
        parts = split_by_label(data, 5, 2, rng)
        assert sum(len(p) for p in parts) == 500
        # Each provider should see few distinct labels.
        for part in parts:
            assert len(np.unique(part.targets)) <= 3

    def test_label_shards_too_many_rejected(self, rng):
        data = make_iot_activity(10, rng)
        with pytest.raises(MLError):
            split_by_label(data, 10, 5, rng)

    def test_subset_preserves_metadata(self, rng):
        data = make_iot_activity(20, rng)
        sub = data.subset(np.array([0, 1, 2]))
        assert sub.feature_names == data.feature_names
        assert sub.name == data.name
