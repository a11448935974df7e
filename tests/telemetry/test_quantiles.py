"""Histogram quantile interpolation and ambient context labels.

The quantile estimator follows Prometheus ``histogram_quantile`` semantics
(linear interpolation inside the bucket holding the target rank, first
bucket from 0, +Inf overflow clamped to the highest finite edge); these
tests pin the arithmetic down with hand-computed cases.
"""

from __future__ import annotations

import pytest

from repro.errors import TelemetryError
from repro.telemetry import to_prometheus
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestQuantileInterpolation:
    def test_empty_histogram_is_zero(self, registry):
        child = registry.histogram("pds2_t_s", buckets=(1.0, 2.0)).child()
        assert child.quantile(0.5) == 0.0

    def test_single_observation_interpolates_within_bucket(self, registry):
        child = registry.histogram("pds2_t_s", buckets=(10.0,)).child()
        child.observe(3.0)
        # One observation in [0, 10]: rank q*1 interpolates linearly from 0.
        assert child.quantile(0.5) == pytest.approx(5.0)
        assert child.quantile(1.0) == pytest.approx(10.0)

    def test_uniform_fill_hits_exact_fractions(self, registry):
        child = registry.histogram(
            "pds2_t_s", buckets=(1.0, 2.0, 3.0, 4.0)).child()
        for value in (0.5, 1.5, 2.5, 3.5):
            child.observe(value)
        # 4 observations, one per bucket: p50's rank 2 lands exactly on the
        # second bucket's upper edge.
        assert child.quantile(0.5) == pytest.approx(2.0)
        assert child.quantile(0.25) == pytest.approx(1.0)
        assert child.quantile(1.0) == pytest.approx(4.0)

    def test_partial_rank_interpolates(self, registry):
        child = registry.histogram("pds2_t_s", buckets=(1.0, 2.0)).child()
        for _ in range(3):
            child.observe(0.5)
        child.observe(1.5)
        # p95 rank = 3.8 → 0.8 of the way through the single observation
        # in bucket (1, 2].
        assert child.quantile(0.95) == pytest.approx(1.8)

    def test_overflow_clamps_to_last_edge(self, registry):
        child = registry.histogram("pds2_t_s", buckets=(1.0, 2.0)).child()
        child.observe(100.0)
        assert child.quantile(0.99) == pytest.approx(2.0)

    def test_out_of_range_q_rejected(self, registry):
        child = registry.histogram("pds2_t_s", buckets=(1.0,)).child()
        with pytest.raises(TelemetryError):
            child.quantile(1.5)

    def test_quantiles_keys(self, registry):
        child = registry.histogram("pds2_t_s", buckets=(1.0,)).child()
        child.observe(0.5)
        assert set(child.quantiles()) == {"p50", "p95", "p99"}


class TestQuantileExport:
    def test_derived_gauge_lines_present_once_observed(self, registry):
        histogram = registry.histogram("pds2_t_s", buckets=(1.0, 2.0),
                                       labelnames=("kind",))
        histogram.labels(kind="a").observe(0.5)
        text = to_prometheus(registry)
        assert 'pds2_t_s_p50{kind="a"}' in text
        assert 'pds2_t_s_p95{kind="a"}' in text
        assert 'pds2_t_s_p99{kind="a"}' in text

    def test_no_quantile_lines_before_any_observation(self, registry):
        registry.histogram("pds2_t_s", buckets=(1.0,))
        text = to_prometheus(registry)
        assert "_p50" not in text

    def test_cli_metrics_path_renders_quantiles(self, registry):
        # The `repro metrics` view goes snapshot → registry → exposition;
        # quantiles must survive that round trip.
        registry.histogram("pds2_t_s", buckets=(1.0, 4.0)).observe(2.0)
        snap = registry.snapshot() if hasattr(registry, "snapshot") else None
        if snap is None:
            from repro.telemetry import snapshot as take

            snap = take(registry)
        restored = MetricsRegistry.from_snapshot(snap)
        assert "pds2_t_s_p95" in to_prometheus(restored)

