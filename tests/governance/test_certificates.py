"""Tests for participation certificates."""

from __future__ import annotations

import pytest

from repro.crypto.ecdsa import PrivateKey
from repro.errors import CertificateError, MerkleProofError
from repro.crypto.merkle import MerkleTree
from repro.governance.certificates import issue_certificate

EXECUTOR = "0x" + "ee" * 20


@pytest.fixture
def provider_key(rng):
    return PrivateKey.generate(rng)


@pytest.fixture
def items():
    return [b"row-0", b"row-1", b"row-2"]


@pytest.fixture
def tree(items):
    return MerkleTree(items)


class TestIssueVerify:
    def test_valid_certificate_verifies(self, provider_key, tree):
        cert = issue_certificate(provider_key, "wl-1", EXECUTOR, tree, 1.0)
        cert.verify()
        assert cert.provider == provider_key.address
        assert cert.item_count == 3

    def test_empty_data_rejected(self, provider_key):
        with pytest.raises(CertificateError):
            issue_certificate(provider_key, "wl-1", EXECUTOR,
                              MerkleTree([]), 1.0)

    def test_tampered_count_detected(self, provider_key, tree):
        cert = issue_certificate(provider_key, "wl-1", EXECUTOR, tree, 1.0)
        import dataclasses

        forged = dataclasses.replace(cert, item_count=99)
        with pytest.raises(CertificateError):
            forged.verify()

    def test_wrong_key_detected(self, provider_key, tree, rng):
        cert = issue_certificate(provider_key, "wl-1", EXECUTOR, tree, 1.0)
        import dataclasses

        other = PrivateKey.generate(rng)
        forged = dataclasses.replace(
            cert, provider_public_key=other.public_key,
        )
        with pytest.raises(CertificateError):
            forged.verify()

    def test_address_binding(self, provider_key, tree, rng):
        cert = issue_certificate(provider_key, "wl-1", EXECUTOR, tree, 1.0)
        import dataclasses

        forged = dataclasses.replace(
            cert, provider=PrivateKey.generate(rng).address
        )
        with pytest.raises(CertificateError):
            forged.verify()

    def test_hash_is_stable_and_distinct(self, provider_key, tree):
        a = issue_certificate(provider_key, "wl-1", EXECUTOR, tree, 1.0)
        b = issue_certificate(provider_key, "wl-1", EXECUTOR, tree, 1.0)
        c = issue_certificate(provider_key, "wl-2", EXECUTOR, tree, 1.0)
        assert a.certificate_hash == b.certificate_hash
        assert a.certificate_hash != c.certificate_hash


class TestItemCoverage:
    def test_covered_item_verifies(self, provider_key, items, tree):
        cert = issue_certificate(provider_key, "wl-1", EXECUTOR, tree, 1.0)
        cert.verify_item(items[1], tree.proof(1))

    def test_substituted_item_rejected(self, provider_key, tree):
        cert = issue_certificate(provider_key, "wl-1", EXECUTOR, tree, 1.0)
        with pytest.raises(MerkleProofError):
            cert.verify_item(b"injected-row", tree.proof(1))
