"""A batch's OpenSSL checks and its equation, spread over the verifier's
cores.

``batch_verify`` hands a batch its cost rule prices to OpenSSL to
``ecdsa._check_each``: ``min(cores, n)`` contiguous chunks, the first in
the calling thread and the others on a process-wide pool of ``cores − 1``
threads.  An equation's terms go to ``ecdsa._equation_sum``: ``min(cores,
terms)`` parts of every ``parts``-th term, the first summed in the calling
thread and the others by ``cores − 1`` forked workers.  Pinned here: verdicts equal
one-by-one ``PublicKey.verify`` for every core count; the caller alone
counts, exactly once per item and once per equation; a thread runs only
the check primitive, never a function E25's probes wrap; one core starts
no thread; a forked child (``repro.control.batch`` forks its workers) gets
a pool of its own; a part's sum counts only beside the others; a worker
ends with its verifier, and a killed one changes no verdict; and the rule
prices the shapes it was fitted for the way
``benchmarks/results/batch_rule.txt`` says."""

from __future__ import annotations

import errno
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from functools import lru_cache
from pathlib import Path

import pytest

from repro.control import JobSpec, batch_execute, submit_batch
from repro.control import batch as batch_module
from repro.crypto import ec_backend, ecdsa
from repro.crypto.ecdsa import N, PrivateKey, PublicKey, Signature, batch_verify
from tests.crypto.rule import cost, counted, equation_from

REPO = Path(__file__).resolve().parents[2]


@lru_cache(maxsize=None)
def _signed(index: int, keys: int = 4):
    key = PrivateKey.from_seed(b"pool-%d" % (index % keys))
    message = b"pool-message-%d" % index
    return key.public_key, message, key.sign(message)


def _batch(size: int, forged: tuple[int, ...] = ()) -> list:
    items = [_signed(index) for index in range(size)]
    for index in forged:
        public_key, message, signature = items[index]
        items[index] = (public_key, message + b"!", signature)
    return items


def _cases() -> dict[str, list]:
    public_key, message, signature = _signed(0)
    stranger = PrivateKey.from_seed(b"pool-stranger").public_key
    return {
        "good": _batch(8),
        "forged": _batch(8, forged=(2, 5)),
        "high_s": _batch(5) + [(public_key, message,
                                Signature(signature.r, N - signature.s,
                                          signature.v))],
        "out_of_range": _batch(3) + [
            (public_key, message, Signature(N, signature.s, signature.v)),
            (public_key, message, Signature(signature.r, 0, signature.v))],
        "wrong_key": _batch(6) + [(stranger, message, signature)],
        "31_one_forged": _batch(31, forged=(17,)),
        "33_one_forged": _batch(33, forged=(32,)),
    }


@pytest.fixture
def openssl_only(monkeypatch):
    """Every batch priced to OpenSSL, so each one goes through the pool."""
    monkeypatch.setattr(ecdsa, "_equation_pays", lambda signatures, keys: False)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_cases()))
def test_pooled_verdicts_equal_one_by_one(monkeypatch, cores, case):
    items = _cases()[case]
    expected = [key.verify(message, signature)
                for key, message, signature in items]
    monkeypatch.setattr(ecdsa, "_CORES", cores)
    assert batch_verify(items) == expected
    monkeypatch.setattr(ecdsa, "_equation_pays", lambda signatures, keys: False)
    assert batch_verify(items) == expected
    assert expected.count(False) == {"good": 0, "forged": 2, "high_s": 1,
                                     "out_of_range": 2, "wrong_key": 1,
                                     "31_one_forged": 1,
                                     "33_one_forged": 1}[case]


@pytest.mark.usefixtures("openssl_only")
def test_the_caller_counts_each_item_once(monkeypatch):
    monkeypatch.setattr(ecdsa, "_CORES", 2)
    ok = ecdsa._VERIFY_TOTAL.labels(path="single", outcome="ok")
    fail = ecdsa._VERIFY_TOTAL.labels(path="single", outcome="fail")
    histogram = ecdsa._VERIFY_SECONDS.child()
    for repeat in range(200):
        size = 1 + repeat % 9
        forged = (repeat % size,) if repeat % 3 == 0 else ()
        before = (ok.value, fail.value, histogram.count)
        verdicts = batch_verify(_batch(size, forged))
        assert verdicts.count(False) == len(forged)
        assert (ok.value - before[0], fail.value - before[1],
                histogram.count - before[2]) == \
            (size - len(forged), len(forged), size)


@pytest.mark.usefixtures("openssl_only")
def test_workers_run_only_the_check_primitive(monkeypatch):
    # E25's span recorder wraps PublicKey.verify and batch_verify and is
    # single-threaded: neither may run on a pool thread.
    monkeypatch.setattr(ecdsa, "_CORES", 2)
    main = threading.get_ident()
    entered = {"verify": set(), "batch_verify": set(), "_check": set()}

    def spy(name, real):
        def wrapper(*args, **kwargs):
            entered[name].add(threading.get_ident())
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PublicKey, "verify", spy("verify", PublicKey.verify))
    monkeypatch.setattr(ecdsa, "_check", spy("_check", ecdsa._check))
    checked = spy("batch_verify", batch_verify)
    for size in (2, 5, 16):
        assert checked(_batch(size, forged=(1,))) == \
            [index != 1 for index in range(size)]
    _signed(0)[0].verify(_signed(0)[1], _signed(0)[2])
    assert entered["verify"] == entered["batch_verify"] == {main}
    assert main in entered["_check"] and len(entered["_check"]) >= 2


@pytest.mark.usefixtures("openssl_only")
def test_one_core_starts_no_thread(monkeypatch):
    monkeypatch.setattr(ecdsa, "_CORES", 1)
    monkeypatch.setattr(ecdsa, "_POOL", None)
    threads = threading.active_count()
    assert batch_verify(_batch(16, forged=(3,))) == \
        [index != 3 for index in range(16)]
    assert ecdsa._POOL is None and threading.active_count() == threads


def _child_checks_a_batch() -> None:
    items = _batch(16, forged=(9,))
    raise SystemExit(0 if batch_verify(items) ==
                     [index != 9 for index in range(16)] else 1)


@pytest.mark.usefixtures("openssl_only")
def test_a_forked_child_checks_a_pooled_batch(monkeypatch):
    # The child inherits the parent's pool object but not its thread; a
    # pool it kept would take the child's first chunk and never run it.
    monkeypatch.setattr(ecdsa, "_CORES", 2)
    assert batch_verify(_batch(4)) == [True] * 4
    assert ecdsa._POOL is not None
    child = multiprocessing.get_context("fork").Process(
        target=_child_checks_a_batch)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's pooled batch never returned")
    assert child.exitcode == 0


@pytest.mark.usefixtures("openssl_only")
def test_batch_workers_forked_after_a_pooled_check_finish(tmp_path,
                                                          monkeypatch):
    # A hung worker is reaped after the silence timeout and, with one
    # attempt per job, its job fails.
    monkeypatch.setattr(ecdsa, "_CORES", 2)
    monkeypatch.setattr(batch_module, "_SILENCE_TIMEOUT_S", 20.0)
    assert batch_verify(_batch(4)) == [True] * 4
    root = str(tmp_path / "batch")
    submit_batch(root, [JobSpec(job_id=f"job-{index}", seed=810 + index)
                        for index in range(2)])
    report = batch_execute(root, workers=2, max_attempts=1)
    assert report.counts == {"settled": 2}
    assert report.worker_deaths == 0


def test_the_rule_is_the_committed_fit():
    text = (REPO / "benchmarks" / "results" / "batch_rule.txt").read_text()
    check_ms, *equation = map(float, re.search(
        r"_CHECK_MS = ([\d.]+), "
        r"_EQUATION_MS = \(([\d.]+), ([\d.]+), ([\d.]+)\)",
        text).groups())
    assert ecdsa._CHECK_MS == check_ms
    assert ecdsa._EQUATION_MS == tuple(equation)


@pytest.mark.parametrize("cores, signatures, keys, equation", [
    (1, 15, 4, True),      # an ml_wide block on one core: item 4's gain
    (2, 15, 4, False),     # ... and on two: the checks, spread
    (2, 2, 2, False),
    (1, 512, 64, True),    # a chain_bulk block stays on the equation
    (2, 512, 64, True),
])
def test_the_rule_prices_the_fitted_shapes(monkeypatch, cores, signatures,
                                           keys, equation):
    monkeypatch.setattr(ecdsa, "_CORES", cores)
    assert ecdsa._equation_pays(signatures, keys) is equation


# -- the equation's workers ---------------------------------------------------


@pytest.fixture
def own_pool():
    """A pool of this test's own: the shared one goes before it, and the
    one the test starts goes after it."""
    ecdsa._drop_pool()
    yield
    ecdsa._drop_pool()


def _running(pid: int) -> bool:
    """A process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _wide(forged: tuple[int, ...] = ()) -> list:
    return _batch(64, forged)


@pytest.mark.parametrize("cores", [2, 3])
def test_parts_that_cancel_only_across_the_workers(monkeypatch, own_pool,
                                                   cores):
    # One term a part, each a point; only the sum of the caller's and the
    # workers' parts is the point at infinity.
    monkeypatch.setattr(ecdsa, "_CORES", cores)
    key = _signed(0)[0]
    parts = [(7, (key.x, key.y)), (5, (ecdsa.GX, ecdsa.GY))][:cores - 1]
    x, y = ec_backend.multi_scalar_mult(0, parts)
    terms = parts + [(1, (x, ecdsa.P - y))]
    for term in terms:
        assert ec_backend.multi_scalar_mult(0, [term]) is not None
    assert ecdsa._equation_sum(0, terms) is None
    assert ecdsa._equation_sum(3, terms) == ec_backend.multi_scalar_mult(3, [])
    assert len(ecdsa._POOL[2]) == cores - 1


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_the_caller_counts_one_bucket_sum_per_equation(monkeypatch,
                                                        own_pool, cores):
    # A worker's registry is its own and nobody reads it.
    monkeypatch.setattr(ecdsa, "_CORES", cores)
    good, forged = _wide(), _wide(forged=(9,))
    kinds = [ec_backend._SCALAR_MULTS.labels(kind=kind)
             for kind in ("bucket", "base")]
    before = [kind.value for kind in kinds]
    with equation_from(), counted() as spent:
        assert batch_verify(good) == [True] * 64
        assert batch_verify(forged) == [index != 9 for index in range(64)]
    assert [kind.value - start for kind, start in zip(kinds, before)] == \
        [2, 0]
    assert cost(spent) == (2, 64)
    assert (ecdsa._POOL is None) == (cores == 1)


_EXITS = """
import os, sys
from repro.crypto import ecdsa
ecdsa._CORES = 3
ecdsa._equation_pays = lambda signatures, keys: True
from repro.crypto.ecdsa import PrivateKey, batch_verify
key = PrivateKey.from_seed(b"exit")
assert batch_verify([(key.public_key, b"m", key.sign(b"m"))] * 4) == [True] * 4
print(*ecdsa._POOL[2], flush=True)
os._exit(0)
"""


def test_a_verifier_that_exits_leaves_no_worker():
    # os._exit runs no exit hook: each worker sees EOF on its pipe.
    done = subprocess.run([sys.executable, "-c", _EXITS], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert done.returncode == 0, done.stderr
    workers = [int(pid) for pid in done.stdout.split()]
    assert len(workers) == 2
    deadline = time.monotonic() + 30
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))


def test_a_killed_worker_still_yields_the_oracle_verdicts(monkeypatch,
                                                          own_pool):
    monkeypatch.setattr(ecdsa, "_CORES", 2)
    with equation_from():
        assert batch_verify(_wide()) == [True] * 64
        pool = ecdsa._POOL
        [worker] = pool[2]
        os.kill(worker, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        items = _wide(forged=(5, 40))
        expected = [key.verify(message, signature)
                    for key, message, signature in items]
        with counted() as spent:
            assert batch_verify(items) == expected
        # The caller summed the whole equation itself and dropped (and
        # reaped) the pool; the checks that followed started a new one.
        assert cost(spent) == (1, 64)
        assert ecdsa._POOL is not pool and worker not in ecdsa._POOL[2]
        assert not Path(f"/proc/{worker}").exists()
        assert batch_verify(_wide()) == [True] * 64


def test_a_batch_execute_worker_gets_its_own_equation_pool(tmp_path,
                                                           monkeypatch,
                                                           own_pool):
    # Every batch a job's chain verifies is priced to the equation.  A
    # batch worker that summed on the parent's pipes would steal or leave
    # a part's sum there, and the parent's next verdict would read it.
    monkeypatch.setattr(ecdsa, "_CORES", 2)
    monkeypatch.setattr(ecdsa, "_equation_pays",
                        lambda signatures, keys: True)
    assert batch_verify(_wide()) == [True] * 64
    pool = ecdsa._POOL
    root = str(tmp_path / "batch")
    submit_batch(root, [JobSpec(job_id=f"job-{index}", seed=820 + index)
                        for index in range(2)])
    report = batch_execute(root, workers=2, max_attempts=1)
    assert report.counts == {"settled": 2}
    assert report.worker_deaths == 0
    for forged in ((), (3,), (17, 60)):
        assert batch_verify(_wide(forged)) == \
            [index not in forged for index in range(64)]
    assert ecdsa._POOL is pool and all(map(_running, pool[2]))


def test_a_pool_that_cannot_fork_is_dropped(monkeypatch, own_pool):
    # A pool left without its threads would take a batch's chunks and
    # never answer: a failed start leaves no pool behind.
    monkeypatch.setattr(ecdsa, "_CORES", 2)

    def refused():
        raise BlockingIOError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    with equation_from():
        assert batch_verify(_wide()) == [True] * 64  # summed here
    assert ecdsa._POOL is None
    with pytest.raises(BlockingIOError):
        batch_verify(_batch(8))  # the checks' threads never started
    assert ecdsa._POOL is None
