"""Tests for Rényi-DP accounting."""

from __future__ import annotations

import pytest

from repro.errors import PrivacyError
from repro.privacy.accountant import RDPAccountant


class TestRDPAccountant:
    def test_epsilon_grows_with_steps(self):
        short = RDPAccountant()
        short.step(1.0, 0.01, steps=100)
        long = RDPAccountant()
        long.step(1.0, 0.01, steps=10_000)
        assert long.get_epsilon(1e-5) > short.get_epsilon(1e-5)

    def test_epsilon_shrinks_with_noise(self):
        noisy = RDPAccountant()
        noisy.step(4.0, 0.01, steps=1000)
        quiet = RDPAccountant()
        quiet.step(0.5, 0.01, steps=1000)
        assert noisy.get_epsilon(1e-5) < quiet.get_epsilon(1e-5)

    def test_subsampling_amplifies(self):
        full = RDPAccountant()
        full.step(1.0, 1.0, steps=100)
        sampled = RDPAccountant()
        sampled.step(1.0, 0.01, steps=100)
        assert sampled.get_epsilon(1e-5) < full.get_epsilon(1e-5)

    def test_invalid_parameters(self):
        accountant = RDPAccountant()
        with pytest.raises(PrivacyError):
            accountant.step(0.0, 0.5)
        with pytest.raises(PrivacyError):
            accountant.step(1.0, 1.5)
        with pytest.raises(PrivacyError):
            accountant.get_epsilon(0.0)
