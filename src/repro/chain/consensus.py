"""Proof-of-authority consensus.

The governance layer needs a decentralized, trustless ledger; for a
laptop-scale reproduction the faithful choice is clique-style proof of
authority — a fixed validator set sealing blocks round-robin — which is also
what Ethereum testnets used.  Energy-burning proof of work would add nothing
to the architecture evaluation but wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.chain.block import BlockHeader
from repro.crypto.ecdsa import PrivateKey, batch_verify
from repro.errors import InvalidBlockError


@dataclass(frozen=True)
class Validator:
    """One sealing authority: a named key pair."""

    name: str
    key: PrivateKey

    @property
    def address(self) -> str:
        return self.key.address


class ProofOfAuthority:
    """Round-robin proof-of-authority over a fixed validator set."""

    def __init__(self, validators: list[Validator]):
        if not validators:
            raise ValueError("PoA needs at least one validator")
        addresses = [validator.address for validator in validators]
        if len(set(addresses)) != len(addresses):
            raise ValueError("duplicate validator addresses")
        self._validators = list(validators)

    @classmethod
    def with_generated_validators(cls, count: int,
                                  rng: np.random.Generator) -> "ProofOfAuthority":
        """Create a validator set with freshly generated keys."""
        validators = [
            Validator(name=f"validator-{index}", key=PrivateKey.generate(rng))
            for index in range(count)
        ]
        return cls(validators)

    def proposer_for(self, block_number: int) -> Validator:
        """The validator whose turn it is to seal ``block_number``."""
        return self._validators[block_number % len(self._validators)]

    def seal(self, header: BlockHeader) -> None:
        """Sign the header in place with the scheduled proposer's key."""
        proposer = self.proposer_for(header.number)
        if header.validator != proposer.address:
            raise InvalidBlockError(
                f"block {header.number} must be sealed by {proposer.name}"
            )
        header.validator_public_key = proposer.key.public_key
        header.seal = proposer.key.sign(header.sealing_bytes())

    def verify_seals(self, headers: Sequence[BlockHeader]) -> None:
        """Check every header was sealed by its scheduled proposer.

        Who sealed what is checked header by header; the signatures then go
        to one key-folded :func:`~repro.crypto.ecdsa.batch_verify`, which
        checks every seal on every call; no verdict is kept.
        """
        items = []
        for header in headers:
            proposer = self.proposer_for(header.number)
            if header.validator != proposer.address:
                raise InvalidBlockError(
                    f"block {header.number} sealed by wrong validator"
                )
            if header.seal is None or header.validator_public_key is None:
                raise InvalidBlockError("block header is unsealed")
            if header.validator_public_key.address != proposer.address:
                raise InvalidBlockError(
                    "seal public key does not match proposer")
            items.append((header.validator_public_key,
                          header.sealing_bytes(), header.seal))
        for header, good in zip(headers, batch_verify(items)):
            if not good:
                raise InvalidBlockError(
                    f"invalid seal signature on block {header.number}"
                )
