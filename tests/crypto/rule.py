"""Pin ``batch_verify``'s cost rule so a test picks the path it checks.

The real rule (``ecdsa._equation_pays``) prices a batch by its signatures,
its distinct keys, the host's cores and three fitted costs, so which path
a 32-signature batch takes depends on the machine.  A test of the
equation, of bisection or of a block's verify telemetry runs under
:func:`equation_from` instead: one equation from ``width`` signatures up,
OpenSSL checks below, whatever the host.
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
