"""Hold libcrypto's equation sum to a point an oracle computed.

``libcrypto.sum_is_infinity`` answers one question: is
``base·G + Σ kᵢ·Qᵢ`` the point at infinity.  :func:`sums_to` turns that
into equality with an expected point: the sum minus ``expected`` is the
point at infinity, and the sum alone is not unless ``expected`` is.
"""

from __future__ import annotations

from repro.crypto.ec_backend import P
from repro.crypto.libcrypto import sum_is_infinity


def sums_to(base_scalar, terms, expected) -> bool:
    """True when libcrypto's ``base_scalar·G + Σ kᵢ·Qᵢ`` is ``expected``
    (``None``: the point at infinity)."""
    alone = sum_is_infinity(base_scalar, terms)
    if expected is None:
        return alone
    x, y = expected
    return not alone and sum_is_infinity(base_scalar,
                                         list(terms) + [(1, (x, P - y))])
