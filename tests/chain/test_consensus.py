"""Tests for proof-of-authority sealing."""

from __future__ import annotations

import pytest

from repro.chain.block import BlockHeader
from repro.chain.consensus import ProofOfAuthority, Validator
from repro.crypto.ecdsa import PrivateKey
from repro.crypto.merkle import MerkleTree
from repro.errors import InvalidBlockError


def make_header(validator_address: str, number: int = 1) -> BlockHeader:
    return BlockHeader(
        number=number,
        parent_hash=b"\x01" * 32,
        timestamp=1.0,
        tx_root=MerkleTree([]).root,
        state_root=b"\x02" * 32,
        validator=validator_address,
    )


@pytest.fixture
def poa(rng) -> ProofOfAuthority:
    return ProofOfAuthority.with_generated_validators(3, rng)


class TestValidatorSet:
    def test_needs_validators(self):
        with pytest.raises(ValueError):
            ProofOfAuthority([])

    def test_duplicate_validators_rejected(self, rng):
        key = PrivateKey.generate(rng)
        with pytest.raises(ValueError):
            ProofOfAuthority([Validator("a", key), Validator("b", key)])

    def test_round_robin_schedule(self, poa):
        addresses = [poa.proposer_for(number).address for number in range(3)]
        assert len(set(addresses)) == 3
        for number in range(9):
            expected = addresses[number % 3]
            assert poa.proposer_for(number).address == expected


def assert_rejected(poa: ProofOfAuthority, header: BlockHeader) -> None:
    with pytest.raises(InvalidBlockError):
        poa.verify_seals([header])


class TestSealing:
    def test_seal_and_verify(self, poa):
        proposer = poa.proposer_for(1)
        header = make_header(proposer.address)
        poa.seal(header)
        poa.verify_seals([header])

    def test_wrong_proposer_cannot_seal(self, poa):
        wrong = poa.proposer_for(2)  # not scheduled for block 1
        header = make_header(wrong.address, number=1)
        with pytest.raises(InvalidBlockError):
            poa.seal(header)

    def test_seal_by_an_unscheduled_validator_rejected(self, poa):
        header = make_header(poa.proposer_for(2).address, number=2)
        poa.seal(header)
        header.number = 1  # a genuine seal, out of turn
        assert_rejected(poa, header)

    def test_unsealed_header_rejected(self, poa):
        header = make_header(poa.proposer_for(1).address)
        assert_rejected(poa, header)

    def test_tampered_seal_detected(self, poa):
        proposer = poa.proposer_for(1)
        header = make_header(proposer.address)
        poa.seal(header)
        header.gas_used = 999  # covered by the seal payload
        assert_rejected(poa, header)

    def test_foreign_key_detected(self, poa, rng):
        proposer = poa.proposer_for(1)
        header = make_header(proposer.address)
        poa.seal(header)
        header.validator_public_key = PrivateKey.generate(rng).public_key
        assert_rejected(poa, header)

    def test_a_batch_names_the_header_it_rejects(self, poa):
        headers = [make_header(poa.proposer_for(number).address, number)
                   for number in range(1, 7)]
        for header in headers:
            poa.seal(header)
        poa.verify_seals(headers)
        headers[3].gas_used = 999
        with pytest.raises(InvalidBlockError, match="block 4"):
            poa.verify_seals(headers)
