"""Oblivious primitives: data-independent access patterns.

Section III-B notes that SGX side-channel leaks "can be avoided using
oblivious primitives" (Ohrimenko et al.).  These primitives make memory and
branch behavior independent of secret values, at a measurable cost — which
is exactly what the scaling benchmarks quantify.  Every function counts the
"touches" (element accesses / compare-exchanges) it performs so tests can
assert data-independence: the same shapes always produce the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TEEError
from repro.telemetry import metrics as _tm

# One counter child per operation, resolved per call so the series splits
# under the ambient session_id; ``select`` is deliberately uncounted because
# the sort network calls it twice per compare-exchange and the
# compare-exchange count already captures that work.
_OBLIVIOUS_OPS = _tm.counter(
    "pds2_tee_oblivious_ops_total", "Oblivious primitive invocations, by op",
    labelnames=("op",),
)
_SORT_EXCHANGES = _tm.counter(
    "pds2_tee_oblivious_compare_exchanges_total",
    "Compare-exchanges executed by bitonic sorts",
)


@dataclass
class TouchCounter:
    """Counts memory touches and compare-exchanges for obliviousness audits."""

    element_touches: int = 0
    compare_exchanges: int = 0


#: Process-wide tally the ``oblivious_*`` functions count into; the
#: obliviousness tests read its deltas.
TOUCHES = TouchCounter()


def oblivious_select(condition: bool, if_true: float, if_false: float) -> float:
    """Branch-free selection: ``condition ? if_true : if_false``.

    Computed arithmetically so the instruction trace is identical for both
    outcomes.
    """
    flag = 1.0 if condition else 0.0  # in hardware: a CMOV, not a branch
    return flag * if_true + (1.0 - flag) * if_false


def oblivious_access(array: np.ndarray, index: int) -> float:
    """Read ``array[index]`` while touching *every* element.

    A linear scan with arithmetic selection, the standard O(n) oblivious RAM
    lower bound for one-shot access without an ORAM structure.
    """
    if not 0 <= index < len(array):
        raise TEEError("oblivious access index out of range")
    _OBLIVIOUS_OPS.labels(op="access").inc()
    result = 0.0
    for position in range(len(array)):
        TOUCHES.element_touches += 1
        match = 1.0 if position == index else 0.0
        result += match * float(array[position])
    return result


def oblivious_write(array: np.ndarray, index: int, value: float) -> None:
    """Write ``array[index] = value`` touching every element."""
    if not 0 <= index < len(array):
        raise TEEError("oblivious write index out of range")
    _OBLIVIOUS_OPS.labels(op="write").inc()
    for position in range(len(array)):
        TOUCHES.element_touches += 1
        match = 1.0 if position == index else 0.0
        array[position] = match * value + (1.0 - match) * array[position]


def _compare_exchange(array: np.ndarray, low: int, high: int,
                      ascending: bool) -> None:
    TOUCHES.compare_exchanges += 1
    a, b = float(array[low]), float(array[high])
    swap = (a > b) == ascending
    array[low] = oblivious_select(swap, b, a)
    array[high] = oblivious_select(swap, a, b)


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def oblivious_sort(values: np.ndarray) -> np.ndarray:
    """Bitonic-network sort: the compare-exchange sequence depends only on n.

    Pads to a power of two with max-float sentinels (inf would turn the
    branch-free ``flag * a`` arithmetic into NaN), runs the bitonic network,
    and strips the padding.  Returns a new ascending array.
    """
    _OBLIVIOUS_OPS.labels(op="sort").inc()
    exchanges_before = TOUCHES.compare_exchanges
    n = len(values)
    if n <= 1:
        return np.array(values, dtype=float)
    size = _next_power_of_two(n)
    padded = np.full(size, np.finfo(float).max)
    padded[:n] = np.asarray(values, dtype=float)

    k = 2
    while k <= size:
        j = k // 2
        while j >= 1:
            for i in range(size):
                partner = i ^ j
                if partner > i:
                    ascending = (i & k) == 0
                    _compare_exchange(padded, i, partner, ascending)
            j //= 2
        k *= 2
    _SORT_EXCHANGES.inc(TOUCHES.compare_exchanges - exchanges_before)
    return padded[:n]


@dataclass
class ObliviousAggregator:
    """Sums per-class statistics without revealing which class each row hits.

    The building block for oblivious ML preprocessing (e.g. per-label counts
    for stratified batching inside an enclave): every row touches every
    bucket exactly once.
    """

    num_buckets: int
    counter: TouchCounter = field(default_factory=TouchCounter)

    def __post_init__(self) -> None:
        if self.num_buckets < 1:
            raise TEEError("aggregator needs at least one bucket")
        self._sums = np.zeros(self.num_buckets)
        self._counts = np.zeros(self.num_buckets)

    def add(self, bucket: int, value: float) -> None:
        """Accumulate ``value`` into ``bucket`` touching all buckets."""
        if not 0 <= bucket < self.num_buckets:
            raise TEEError("bucket index out of range")
        _OBLIVIOUS_OPS.labels(op="aggregate_add").inc()
        for position in range(self.num_buckets):
            self.counter.element_touches += 1
            match = 1.0 if position == bucket else 0.0
            self._sums[position] += match * value
            self._counts[position] += match

    @property
    def sums(self) -> np.ndarray:
        return self._sums.copy()

    @property
    def counts(self) -> np.ndarray:
        return self._counts.copy()
