"""Secure multiparty computation over additive secret shares.

This is the SMC baseline of Section III-B: inputs are split into additive
shares held by ``n`` computing parties, additions are free (local), and
multiplications consume Beaver triples produced by an untrusted dealer — the
same "helper third party" trick the paper attributes to Falcon.  The engine
also does the bookkeeping the paper's qualitative argument rests on: every
interactive operation is charged to a communication log (rounds, messages,
bytes), so experiment E3 can show *why* SMC latency grows with circuit depth.

Values are fixed-point encoded floats; each :class:`SharedValue` tracks how
many fixed-point scale factors it carries so multiplication chains decode
correctly at reveal time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.secret_sharing import (
    DEFAULT_PRIME,
    additive_share,
    decode_signed,
    encode_signed,
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
class BeaverTriple:
    """Shares of a multiplication triple ``(a, b, c)`` with ``c = a * b``."""

    a_shares: tuple[int, ...]
    b_shares: tuple[int, ...]
    c_shares: tuple[int, ...]


class TripleDealer:
    """An offline dealer that pre-generates Beaver triples.

    The dealer sees only random values, never the parties' inputs — this is
    the standard offline/online split that makes the online phase fast.
    """

    def __init__(self, parties: int, rng: np.random.Generator):
        if parties < 2:
            raise SecretSharingError("SMC needs at least 2 parties")
        self._parties = parties
        self._rng = rng
        self.triples_issued = 0

    def next_triple(self) -> BeaverTriple:
        """Deal one fresh triple (never reused, or privacy breaks)."""
        prime = DEFAULT_PRIME
        a = int(self._rng.integers(0, 2**62)) % prime
        b = int(self._rng.integers(0, 2**62)) % prime
        c = a * b % prime
        self.triples_issued += 1
        return BeaverTriple(
            a_shares=tuple(additive_share(a, self._parties, self._rng)),
            b_shares=tuple(additive_share(b, self._parties, self._rng)),
            c_shares=tuple(additive_share(c, self._parties, self._rng)),
        )


@dataclass(frozen=True)
class SharedValue:
    """An additively-shared field element with fixed-point scale tracking.

    ``scale_factors`` counts how many times the fixed-point scale ``2^f`` is
    baked into the value (1 after sharing a float, 2 after one
    multiplication, and so on).
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
        self.dealer = TripleDealer(parties, rng)
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

    def add_plain(self, value: SharedValue, plain: float) -> SharedValue:
        """Add a public constant (party 0 adjusts its share; local)."""
        self._check_parties(value)
        encoded = encode_signed(
            round(plain * self.scale ** value.scale_factors)
        )
        shares = list(value.shares)
        shares[0] = (shares[0] + encoded) % DEFAULT_PRIME
        return SharedValue(shares=tuple(shares), scale_factors=value.scale_factors)

    def mul_plain(self, value: SharedValue, plain: float) -> SharedValue:
        """Multiply by a public fixed-point constant (local).

        The constant contributes one extra scale factor, matching how a
        plaintext weight multiplies an encrypted feature.
        """
        self._check_parties(value)
        encoded = round(plain * self.scale)
        shares = tuple(share * encoded % DEFAULT_PRIME for share in value.shares)
        return SharedValue(shares=shares, scale_factors=value.scale_factors + 1)

    def mul(self, left: SharedValue, right: SharedValue) -> SharedValue:
        """Beaver-triple multiplication (one broadcast round).

        Parties open the masked differences ``d = x - a`` and ``e = y - b``
        and locally compute ``z = c + d*b + e*a + d*e``.
        """
        self._check_parties(left)
        self._check_parties(right)
        prime = DEFAULT_PRIME
        triple = self.dealer.next_triple()
        d_shares = [
            (x - a) % prime for x, a in zip(left.shares, triple.a_shares)
        ]
        e_shares = [
            (y - b) % prime for y, b in zip(right.shares, triple.b_shares)
        ]
        # Opening d and e: each party broadcasts its two masked shares.
        self.log.record_broadcast(self.parties, elements_per_party=2)
        d = sum(d_shares) % prime
        e = sum(e_shares) % prime
        shares = []
        for index in range(self.parties):
            z = (
                triple.c_shares[index]
                + d * triple.b_shares[index]
                + e * triple.a_shares[index]
            ) % prime
            if index == 0:  # the public d*e term is added by one party
                z = (z + d * e) % prime
            shares.append(z)
        return SharedValue(
            shares=tuple(shares),
            scale_factors=left.scale_factors + right.scale_factors,
        )

    def dot(self, left: list[SharedValue], right: list[SharedValue]) -> SharedValue:
        """Inner product of two shared vectors.

        Uses one Beaver triple per element; the openings are batched into a
        single communication round, which is the standard optimization.
        """
        if len(left) != len(right) or not left:
            raise SecretSharingError("dot product needs equal, non-empty vectors")
        prime = DEFAULT_PRIME
        openings: list[tuple[BeaverTriple, int, int]] = []
        for x, y in zip(left, right):
            self._check_parties(x)
            self._check_parties(y)
            triple = self.dealer.next_triple()
            d = sum((xs - a) % prime for xs, a in zip(x.shares, triple.a_shares)) % prime
            e = sum((ys - b) % prime for ys, b in zip(y.shares, triple.b_shares)) % prime
            openings.append((triple, d, e))
        # One batched round: every party broadcasts 2 elements per term.
        self.log.record_broadcast(self.parties, elements_per_party=2 * len(left))
        shares = [0] * self.parties
        for triple, d, e in openings:
            for index in range(self.parties):
                z = (
                    triple.c_shares[index]
                    + d * triple.b_shares[index]
                    + e * triple.a_shares[index]
                ) % prime
                if index == 0:
                    z = (z + d * e) % prime
                shares[index] = (shares[index] + z) % prime
        return SharedValue(
            shares=tuple(shares),
            scale_factors=left[0].scale_factors + right[0].scale_factors,
        )

    def dot_plain(self, values: list[SharedValue], weights) -> SharedValue:
        """Inner product with a *public* weight vector (fully local)."""
        if len(values) != len(weights) or not values:
            raise SecretSharingError("dot product needs equal, non-empty vectors")
        result = self.mul_plain(values[0], float(weights[0]))
        for value, weight in zip(values[1:], weights[1:]):
            result = self.add(result, self.mul_plain(value, float(weight)))
        return result
