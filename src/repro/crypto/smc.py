"""Secure multiparty computation over additive secret shares.

This is the SMC baseline of Section III-B: inputs are split into additive
shares held by ``n`` computing parties, and the linear scoring experiment E3
runs — additions and products with public weights — is local to each
party.  The engine also does the bookkeeping the paper's qualitative
argument rests on: every interactive operation (opening a value) is charged
to a communication log (rounds, messages, bytes), so E3 prices the network
next to the compute.

Values are fixed-point encoded floats; each :class:`SharedValue` tracks how
many fixed-point scale factors it carries so products with public weights
decode correctly at reveal time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.secret_sharing import (
    DEFAULT_PRIME,
    additive_share,
    decode_signed,
)
from repro.errors import SecretSharingError

#: Wire size of one field element, used for byte accounting.
FIELD_ELEMENT_BYTES = 16


@dataclass
class CommunicationLog:
    """Tally of the network traffic an SMC computation generated."""

    rounds: int = 0
    messages: int = 0
    bytes_sent: int = 0

    def record_broadcast(self, parties: int, elements_per_party: int) -> None:
        """Charge one synchronous round where every party broadcasts."""
        self.rounds += 1
        per_party_messages = parties - 1
        self.messages += parties * per_party_messages
        self.bytes_sent += (
            parties * per_party_messages * elements_per_party * FIELD_ELEMENT_BYTES
        )


@dataclass(frozen=True)
class SharedValue:
    """An additively-shared field element with fixed-point scale tracking.

    ``scale_factors`` counts how many times the fixed-point scale ``2^f`` is
    baked into the value (1 after sharing a float, 2 after one product
    with a public weight, and so on).
    """

    shares: tuple[int, ...]
    scale_factors: int

    @property
    def parties(self) -> int:
        return len(self.shares)


class SMCEngine:
    """Coordinates an n-party additive-sharing computation.

    The engine simulates all parties in-process but respects the protocol's
    information boundaries: every value that any party "learns" beyond its
    own shares corresponds to an explicit broadcast charged to the
    communication log.
    """

    #: Fixed-point scale ``2^f`` of a shared float.
    scale = 1 << 16

    def __init__(self, parties: int, rng: np.random.Generator):
        if parties < 2:
            raise SecretSharingError("SMC needs at least 2 parties")
        self.parties = parties
        self._rng = rng
        self.log = CommunicationLog()

    # -- input / output -----------------------------------------------------

    def share_scalar(self, value: float) -> SharedValue:
        """Fixed-point encode a float and split it into additive shares."""
        shares = additive_share(
            round(value * self.scale), self.parties, self._rng
        )
        return SharedValue(shares=tuple(shares), scale_factors=1)

    def share_vector(self, values) -> list[SharedValue]:
        """Share each element of a float vector."""
        return [self.share_scalar(float(v)) for v in values]

    def reveal(self, value: SharedValue) -> float:
        """Open a shared value to all parties (one broadcast round)."""
        self._check_parties(value)
        self.log.record_broadcast(self.parties, elements_per_party=1)
        total = decode_signed(sum(value.shares))
        return total / (self.scale ** value.scale_factors)

    # -- arithmetic ---------------------------------------------------------

    def _check_parties(self, value: SharedValue) -> None:
        if value.parties != self.parties:
            raise SecretSharingError("shared value belongs to a different engine")

    def add(self, left: SharedValue, right: SharedValue) -> SharedValue:
        """Local addition of two shared values (no communication)."""
        self._check_parties(left)
        self._check_parties(right)
        if left.scale_factors != right.scale_factors:
            raise SecretSharingError("cannot add values at different scales")
        shares = tuple(
            (a + b) % DEFAULT_PRIME for a, b in zip(left.shares, right.shares)
        )
        return SharedValue(shares=shares, scale_factors=left.scale_factors)

    def mul_plain(self, value: SharedValue, plain: float) -> SharedValue:
        """Multiply by a public fixed-point constant (local).

        The constant contributes one extra scale factor, matching how a
        plaintext weight multiplies an encrypted feature.
        """
        self._check_parties(value)
        encoded = round(plain * self.scale)
        shares = tuple(share * encoded % DEFAULT_PRIME for share in value.shares)
        return SharedValue(shares=shares, scale_factors=value.scale_factors + 1)

    def dot_plain(self, values: list[SharedValue], weights) -> SharedValue:
        """Inner product with a *public* weight vector (fully local)."""
        if len(values) != len(weights) or not values:
            raise SecretSharingError("dot product needs equal, non-empty vectors")
        result = self.mul_plain(values[0], float(weights[0]))
        for value, weight in zip(values[1:], weights[1:]):
            result = self.add(result, self.mul_plain(value, float(weight)))
        return result
