"""Sweep signatures × keys for ``ecdsa.batch_verify``'s cost rule.

For every cell the sweep times three ways to verify one batch of valid
signatures, each through the code ``batch_verify`` runs, alternating them
inside every repeat so all three see the same host:

* ``serial``   — the individual OpenSSL checks on one core;
* ``pooled``   — the same checks spread over this host's cores;
* ``equation`` — one key-folded OpenSSL equation on the caller's thread.

It then fits the rule's constants (:func:`fit`): ``c`` in ``⌈n / w⌉ · c``
over the serial and pooled columns and ``a + b·(n + k)`` over the equation
column, and prints ``a / c`` and ``b / c`` — the equation in checks, which
a faster or busier host scales alike — in the form
``ecdsa._EQUATION_CHECKS`` takes.  The last two columns are the rule's pick
with those constants on one core and on two; the crossovers below the
table are the narrowest batch each prices to the equation.

    PYTHONPATH=src python benchmarks/sweep_batch_rule.py \\
        > benchmarks/results/batch_rule.txt

Each cell is the median of ``REPEATS`` runs of each way.
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
REPEATS = 15


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
            ways = ("serial", "pooled", "equation")
            runs: dict[str, list[float]] = {way: [] for way in ways}
            for _ in range(REPEATS):
                runs["serial"].append(_ms(items, _CORES=1, _equation_pays=never))
                runs["equation"].append(_ms(items, _equation_pays=always))
                runs["pooled"].append(_ms(items, _CORES=cores,
                                          _equation_pays=never))
            rows.append((signatures, keys,
                         *(statistics.median(runs[way]) for way in ways)))
    return rows


def fit(rows, cores: int) -> tuple[float, float, float]:
    """``(a, b, c)``: the equation's fixed and per-term ms, and ms per
    check per core.  Both fits minimize relative error, so a session's
    narrow batches weigh as much as the wide ones; ``c`` is fitted to
    ``⌈n / w⌉ · c`` over the serial (``w = 1``) and pooled (``w = cores``)
    columns, so it carries what the cores lose to imperfect scaling."""
    timed = np.array([equation for *_, equation in rows])
    terms = np.array([[1.0, n + k] for n, k, *_ in rows]) / timed[:, None]
    (fixed, per_term), *_ = np.linalg.lstsq(terms, np.ones(len(rows)),
                                            rcond=None)
    ratios = np.array([-(-row[0] // w) / row[column] for row in rows
                       for w, column in ((1, 2), (cores, 3))])
    check_ms = ratios.sum() / (ratios ** 2).sum()
    return float(fixed), float(per_term), float(check_ms)


def crossover(a: float, b: float, keys, cores: int) -> int:
    """The fewest signatures the rule prices to the equation, their keys
    ``keys(n)``; 0 when no batch up to 4 096 is."""
    for n in range(1, 4097):
        if a + b * (n + keys(n)) < -(-n // cores):
            return n
    return 0


def main() -> int:
    rows = sweep()
    cores = ecdsa._CORES
    fixed, per_term, check_ms = fit(rows, cores)
    a, b = round(fixed / check_ms, 2), round(per_term / check_ms, 4)

    def pick(n: int, k: int, w: int) -> str:
        return "equation" if a + b * (n + k) < -(-n // w) else "openssl"

    print(f"# batch_verify cost sweep: {platform.machine()}, "
          f"{cores} core(s) in this process's affinity, "
          f"Python {platform.python_version()}, median of {REPEATS} "
          "alternating runs, ms")
    print(f"{'n':>4} {'k':>3}  {'serial':>8} {'pooled':>8} {'equation':>8}"
          f"  {'rule@1':>8} {'rule@2':>8}")
    for n, k, serial, pooled, equation in rows:
        print(f"{n:4d} {k:3d}  {serial:8.2f} {pooled:8.2f} {equation:8.2f}"
              f"  {pick(n, k, 1):>8} {pick(n, k, 2):>8}")
    print()
    print(f"fit: a = {fixed:.2f} ms, b = {per_term:.4f} ms per term, "
          f"c = {check_ms:.3f} ms per check")
    for w in (1, 2):
        shapes = ", ".join(
            f"{label}: n >= {crossover(a, b, keys, w)}"
            for label, keys in (("1 key", lambda n: 1),
                                ("4 keys", lambda n: min(n, 4)),
                                ("a key each", lambda n: n)))
        print(f"crossover on {w} core(s): {shapes}")
    print(f"ecdsa: _EQUATION_CHECKS = ({a}, {b})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
