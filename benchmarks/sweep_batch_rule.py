"""Sweep signatures × keys for ``ecdsa.batch_verify``'s cost rule.

For every cell the sweep times three ways to verify one batch of valid
signatures, each through the code ``batch_verify`` runs:

* ``serial``   — the individual OpenSSL checks on one core;
* ``pooled``   — the same checks spread over this host's cores;
* ``equation`` — one key-folded bucket equation.

It then fits the rule's three constants (:func:`fit`): ``c`` in
``⌈n / w⌉ · c`` over the serial and pooled columns, and ``a + b·(n + 2k)``
over the equation column, and prints them in the form
``ecdsa._CHECK_MS`` and ``ecdsa._EQUATION_MS`` take.  The last two columns
are the rule's pick with those constants on one core and on this host's.

    PYTHONPATH=src python benchmarks/sweep_batch_rule.py \\
        > benchmarks/results/batch_rule.txt

Each cell is the median of ``REPEATS`` runs, the three ways alternating.
"""

from __future__ import annotations

import gc
import platform
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.crypto import ecdsa
from repro.crypto.ecdsa import PrivateKey, batch_verify

SIGNATURES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
KEYS = (1, 4, 16, 64)
REPEATS = 7


@contextmanager
def _pinned(**values):
    """Set module attributes of ``ecdsa`` for the duration."""
    saved = {name: getattr(ecdsa, name) for name in values}
    for name, value in values.items():
        setattr(ecdsa, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(ecdsa, name, value)


def _batch(signatures: int, keys: int) -> list:
    signers = [PrivateKey.from_seed(b"sweep-%d" % index) for index in range(keys)]
    return [(signers[index % keys].public_key, b"sweep-%d" % index,
             signers[index % keys].sign(b"sweep-%d" % index))
            for index in range(signatures)]


def _ms(items: list, **pins) -> float:
    with _pinned(**pins):
        gc.collect()
        began = time.perf_counter()
        verdicts = batch_verify(items)
        elapsed = time.perf_counter() - began
    assert all(verdicts)
    return elapsed * 1e3


def sweep() -> list[tuple[int, int, float, float, float]]:
    """``(n, k, serial, pooled, equation)`` per cell, ms."""
    never, always = (lambda n, k: False), (lambda n, k: True)
    cores = ecdsa._CORES
    rows = []
    for signatures in SIGNATURES:
        for keys in KEYS:
            if keys > signatures:
                continue
            items = _batch(signatures, keys)
            for key, _, _ in items:   # every handle built before timing
                key.verify(b"warm", items[0][2])
            runs: dict[str, list[float]] = {"serial": [], "pooled": [],
                                            "equation": []}
            for _ in range(REPEATS):
                runs["serial"].append(_ms(items, _CORES=1, _equation_pays=never))
                runs["pooled"].append(_ms(items, _CORES=cores,
                                          _equation_pays=never))
                runs["equation"].append(_ms(items, _equation_pays=always))
            rows.append((signatures, keys,
                         *(statistics.median(runs[way])
                           for way in ("serial", "pooled", "equation"))))
    return rows


def fit(rows, cores: int) -> tuple[float, float, float]:
    """``(a, b, c)``: the equation's fixed and per-term ms, and ms per check
    per core.  Both fits minimize relative error, so a session's narrow batches
    weigh as much as the wide ones; ``c`` is fitted to
    ``⌈n / w⌉ · c`` over the serial (``w = 1``) and pooled columns, so it
    carries what the pool loses to imperfect scaling."""
    equation = np.array([row[4] for row in rows])
    terms = np.array([[1.0, n + 2 * k] for n, k, *_ in rows]) / equation[:, None]
    (fixed, per_term), *_ = np.linalg.lstsq(terms, np.ones(len(rows)), rcond=None)
    ratios = np.array([-(-row[0] // w) / row[column] for row in rows
                       for w, column in ((1, 2), (cores, 3))])
    check_ms = ratios.sum() / (ratios ** 2).sum()
    return float(fixed), float(per_term), float(check_ms)


def main() -> int:
    rows = sweep()
    cores = ecdsa._CORES
    fixed, per_term, check_ms = fit(rows, cores)

    def pick(n: int, k: int, w: int) -> str:
        pays = fixed + per_term * (n + 2 * k) < -(-n // w) * check_ms
        return "equation" if pays else "openssl"

    print(f"# batch_verify cost sweep: {platform.machine()}, "
          f"{cores} core(s) in this process's affinity, "
          f"Python {platform.python_version()}, median of {REPEATS} runs, ms")
    print(f"{'n':>4} {'k':>3}  {'serial':>8} {'pooled':>8} {'equation':>8}"
          f"  {'rule@1':>8} {'rule@' + str(cores):>8}")
    for n, k, serial, pooled, equation in rows:
        print(f"{n:4d} {k:3d}  {serial:8.2f} {pooled:8.2f} {equation:8.2f}"
              f"  {pick(n, k, 1):>8} {pick(n, k, cores):>8}")
    print()
    print(f"fit: a = {fixed:.1f} ms, b = {per_term:.3f} ms per term, "
          f"c = {check_ms:.2f} ms per check")
    print(f"ecdsa: _CHECK_MS = {check_ms:.2f}, "
          f"_EQUATION_MS = ({fixed:.1f}, {per_term:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
