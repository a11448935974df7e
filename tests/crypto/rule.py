"""Pin ``batch_verify``'s cost rule so a test picks the path it checks, and
count what a batch spends.

The real rule (``ecdsa._equation_pays``) prices a batch by its signatures,
its distinct keys, the host's cores and three fitted costs, so which path
a 32-signature batch takes depends on the machine.  A test of the
equation, of a failed equation's checks or of a block's verify record runs
under :func:`equation_from` instead: one equation from ``width``
signatures up, OpenSSL checks below, whatever the host.  :func:`counted`
tallies the two costs such a test states: a batch is one equation, the
checks, or a failed equation plus the checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.crypto import ecdsa

#: The narrowest batch a pinned rule checks by the equation.
WIDTH = 32


@contextmanager
def equation_from(width: int = WIDTH):
    with mock.patch.object(ecdsa, "_equation_pays",
                           lambda signatures, keys: signatures >= width):
        yield


@contextmanager
def counted():
    """Yield ``{"equations": [...], "checks": [...]}``: one entry per
    batch equation and per ``ecdsa._check`` call on any thread.  An
    equation is counted where its caller hands it out
    (``ecdsa._equation_sum``), by its terms over all the parts the
    verifier's cores sum; a worker process counts nothing."""
    spent: dict[str, list] = {"equations": [], "checks": []}
    equation_sum, check = ecdsa._equation_sum, ecdsa._check

    def counting_equation(base_scalar, terms):
        spent["equations"].append(len(terms))
        return equation_sum(base_scalar, terms)

    def counting_check(handle, message, signature):
        spent["checks"].append(handle)  # list.append is atomic
        return check(handle, message, signature)

    with mock.patch.object(ecdsa, "_equation_sum", counting_equation), \
            mock.patch.object(ecdsa, "_check", counting_check):
        yield spent


def cost(spent: dict) -> tuple[int, int]:
    """``(equations, checks)`` of a :func:`counted` tally."""
    return len(spent["equations"]), len(spent["checks"])
