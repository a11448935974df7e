"""Pin ``batch_verify``'s cost rule so a test picks the path it checks, and
count what a batch spends.

The real rule (``ecdsa._equation_pays``) sends two or more well-formed
signatures to one equation.  A test that needs the checks for a wider
batch (a block's verify record, the routing at 31/32) runs under
:func:`equation_from` instead: one equation from ``width`` signatures up,
OpenSSL checks below.  :func:`counted` tallies the two costs such a test
states: a batch is one equation, the checks, or a failed equation plus
the checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.crypto import ecdsa, libcrypto

#: The narrowest batch a pinned rule checks by the equation.
WIDTH = 32


@contextmanager
def equation_from(width: int = WIDTH):
    with mock.patch.object(ecdsa, "_equation_pays",
                           lambda signatures: signatures >= width):
        yield


@contextmanager
def counted():
    """Yield ``{"equations": [...], "checks": [...]}``: one entry per
    batch equation and per ``ecdsa._check`` call.  An
    equation is counted at the binding's call
    (``libcrypto.sum_is_infinity``), by its terms."""
    spent: dict[str, list] = {"equations": [], "checks": []}
    sum_is_infinity, check = libcrypto.sum_is_infinity, ecdsa._check

    def counting_equation(base_scalar, terms):
        spent["equations"].append(len(terms))
        return sum_is_infinity(base_scalar, terms)

    def counting_check(handle, message, signature):
        spent["checks"].append(handle)
        return check(handle, message, signature)

    with mock.patch.object(libcrypto, "sum_is_infinity", counting_equation), \
            mock.patch.object(ecdsa, "_check", counting_check):
        yield spent


def cost(spent: dict) -> tuple[int, int]:
    """``(equations, checks)`` of a :func:`counted` tally."""
    return len(spent["equations"]), len(spent["checks"])
