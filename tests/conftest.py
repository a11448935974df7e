"""Shared fixtures for the PDS2 test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import default_registry
from repro.governance import register_governance_contracts


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def chain(rng) -> Blockchain:
    """A single-validator chain with governance contracts registered."""
    consensus = ProofOfAuthority.with_generated_validators(1, rng)
    registry = default_registry()
    register_governance_contracts(registry)
    return Blockchain(consensus, registry=registry)


@pytest.fixture
def funded_wallet(chain, rng) -> Wallet:
    """A wallet with a large genesis balance."""
    wallet = Wallet.generate(chain, rng, "funded")
    chain.state.credit(wallet.address, 10**12)
    return wallet


def make_funded_wallet(chain, rng, name="wallet") -> Wallet:
    """Helper for tests needing several wallets."""
    wallet = Wallet.generate(chain, rng, name)
    chain.state.credit(wallet.address, 10**12)
    return wallet


@pytest.fixture
def curve_ops(monkeypatch) -> dict:
    """Counts the big-number operations batch verification exists to avoid.

    ``pow`` is shadowed in the two EC modules, so every modular square root
    (``sqrt``: exponent ``(p + 1) / 4`` mod p), every inversion mod n
    (``inverse_mod_n``) and every inversion mod p (``inverse_mod_p``) they
    perform is counted, whichever function asks.
    """
    from repro.crypto import ec_backend, ecdsa

    counts = {"sqrt": 0, "inverse_mod_n": 0, "inverse_mod_p": 0}

    def counting_pow(base, exponent, modulus=None):
        if modulus == ecdsa.P and exponent == (ecdsa.P + 1) // 4:
            counts["sqrt"] += 1
        elif modulus == ecdsa.N and exponent == -1:
            counts["inverse_mod_n"] += 1
        elif modulus == ecdsa.P and exponent == -1:
            counts["inverse_mod_p"] += 1
        return pow(base, exponent, modulus)

    for module in (ecdsa, ec_backend):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    return counts


@pytest.fixture
def equation_from_32():
    """``batch_verify`` under a pinned rule: one equation from 32
    signatures up, OpenSSL checks below (``tests/crypto/rule.py``).  A
    module of equation tests opts in with
    ``pytestmark = pytest.mark.usefixtures("equation_from_32")``."""
    from tests.crypto.rule import equation_from

    with equation_from():
        yield
