"""Shared utilities: canonical serialization, RNG discipline, and helpers
(import them from ``repro.utils.serialization`` and ``repro.utils.rng``)."""
