"""A batch's OpenSSL checks, spread over the verifier's cores.

``batch_verify`` hands a batch its cost rule prices to OpenSSL checks to
``ecdsa._check_each``: ``min(cores, n)`` contiguous chunks, the first in
the calling thread and the others on a process-wide pool of ``cores − 1``
threads.  (An equation runs in the calling thread alone.)  Pinned here:
verdicts equal one-by-one ``PublicKey.verify`` for every core count; the
caller alone counts, exactly once per item; a thread runs only the check
primitive, never a function E25's probes wrap; one core starts no thread;
a forked child (``repro.control.batch`` forks its workers) gets a pool of
its own; a thread that cannot start leaves no pool; and the rule prices
the shapes it was fitted for the way ``benchmarks/results/batch_rule.txt``
says."""

from __future__ import annotations

import multiprocessing
import re
import threading
from functools import lru_cache
from pathlib import Path

import pytest

from repro.control import JobSpec, batch_execute, submit_batch
from repro.control import batch as batch_module
from repro.crypto import ecdsa
from repro.crypto.ecdsa import N, PrivateKey, PublicKey, Signature, batch_verify

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


@pytest.mark.usefixtures("openssl_only")
def test_a_pool_whose_thread_cannot_start_is_dropped(monkeypatch):
    # A pool short of a thread would take a batch's chunk and never
    # answer: a failed start leaves no pool behind.
    monkeypatch.setattr(ecdsa, "_CORES", 3)
    monkeypatch.setattr(ecdsa, "_POOL", None)
    started = []
    real = threading.Thread.start

    def second_refused(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", second_refused)
    with pytest.raises(RuntimeError):
        batch_verify(_batch(8))
    assert ecdsa._POOL is None
    started[0].join(timeout=10)  # the one started thread took its None
    assert not started[0].is_alive()


def test_the_rule_is_the_committed_fit():
    text = (REPO / "benchmarks" / "results" / "batch_rule.txt").read_text()
    equation = map(float, re.search(
        r"_EQUATION_CHECKS = \(([\d.]+), ([\d.]+)\)", text).groups())
    assert ecdsa._EQUATION_CHECKS == tuple(equation)


@pytest.mark.parametrize("cores, signatures, keys, equation", [
    (1, 1, 1, False),      # a lone signature is one check
    (1, 15, 4, True),      # an ml_wide block on one core
    (2, 15, 4, True),      # ... and on two
    (2, 5, 5, True),       # ml_wide's audit of five seals
    (2, 2, 2, False),
    (1, 512, 64, True),    # a chain_bulk block stays on the equation
    (2, 512, 64, True),
])
def test_the_rule_prices_the_fitted_shapes(monkeypatch, cores, signatures,
                                           keys, equation):
    monkeypatch.setattr(ecdsa, "_CORES", cores)
    assert ecdsa._equation_pays(signatures, keys) is equation
