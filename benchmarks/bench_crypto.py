"""Crypto microbenchmarks: fast EC backend vs the affine reference.

Measures keygen / sign / verify under both the textbook affine
implementation (the differential-testing oracle, ``tests/crypto/
affine_oracle.py``) and the Jacobian/wNAF/GLV backend behind the public
API, plus the
chain-facing caches (verification replay, Merkle proofs).

Writes two artifacts under ``benchmarks/results/``:

* ``bench_crypto.txt`` — the human-readable table (via ``reporting``);
* ``BENCH_crypto.json`` — machine-readable numbers so future PRs can track
  the speedup over time.

Run directly (``PYTHONPATH=src python benchmarks/bench_crypto.py``) or via
pytest.  ``--smoke`` cuts iteration counts for CI and skips the hard
speedup assertion (absolute timings on shared runners are noisy; the full
run asserts verify is ≥10x the affine baseline).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent))  # tests/ (the oracle)

from reporting import format_table, report  # noqa: E402

from repro.bench import Experiment, info  # noqa: E402
from repro.crypto import ec_backend  # noqa: E402
from repro.crypto.ecdsa import (  # noqa: E402
    GX,
    GY,
    N,
    PrivateKey,
    _VERIFY_CACHE,
    shared_secret,
)
from repro.crypto.hashing import hash_to_int  # noqa: E402
from repro.crypto.merkle import MerkleTree  # noqa: E402
from tests.crypto.affine_oracle import point_add, point_mul  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
VERIFY_SPEEDUP_TARGET = 10.0


def _time_per_call(fn, iterations: int) -> float:
    """Average milliseconds per call over ``iterations`` runs."""
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations * 1000.0


def _affine_sign(key: PrivateKey, message: bytes):
    """The seed implementation's signing path, on the affine oracle."""
    digest = hash_to_int(message, N)
    k = key._deterministic_nonce(digest, 0)
    point = point_mul(k, (GX, GY))
    r = point[0] % N
    s = pow(k, -1, N) * (digest + r * key.secret) % N
    if s > N // 2:
        s = N - s
    return r, s


def _affine_verify(public, message: bytes, r: int, s: int) -> bool:
    """The seed implementation's verification path, on the affine oracle."""
    digest = hash_to_int(message, N)
    s_inv = pow(s, -1, N)
    point = point_add(
        point_mul(digest * s_inv % N, (GX, GY)),
        point_mul(r * s_inv % N, (public.x, public.y)),
    )
    return point is not None and point[0] % N == r


def run(smoke: bool = False) -> dict:
    iters_fast = 20 if smoke else 200
    iters_slow = 3 if smoke else 20

    key = PrivateKey.from_seed(b"bench-crypto")
    peer = PrivateKey.from_seed(b"bench-peer")
    public = key.public_key
    messages = [b"bench message %d" % i for i in range(max(iters_fast,
                                                           iters_slow))]
    signatures = [key.sign(m) for m in messages]
    ms: dict[str, float] = {}

    # Affine reference (the seed implementation, retained as the oracle).
    counter = iter(range(10**9))
    ms["affine_keygen"] = _time_per_call(
        lambda: point_mul(key.secret + next(counter), (GX, GY)), iters_slow
    )
    ms["affine_sign"] = _time_per_call(
        lambda: _affine_sign(key, messages[next(counter) % len(messages)]),
        iters_slow,
    )
    pairs = iter(range(10**9))
    ms["affine_verify"] = _time_per_call(
        lambda: _affine_verify(
            public, *(lambda i: (messages[i], signatures[i].r,
                                 signatures[i].s))(next(pairs) % len(messages))
        ),
        iters_slow,
    )

    # Fast backend.  Fresh scalars defeat the public-key LRU for keygen;
    # the verify cache is cleared so EC math actually runs.
    scalars = iter(range(1, 10**9))
    ms["fast_keygen"] = _time_per_call(
        lambda: ec_backend.scalar_mult_base(key.secret + next(scalars)),
        iters_fast,
    )
    sign_counter = iter(range(10**9))
    ms["fast_sign"] = _time_per_call(
        lambda: key.sign(messages[next(sign_counter) % len(messages)]),
        iters_fast,
    )
    verify_counter = iter(range(10**9))

    def fast_verify_uncached():
        _VERIFY_CACHE.clear()
        index = next(verify_counter) % len(messages)
        assert public.verify(messages[index], signatures[index])

    ms["fast_verify"] = _time_per_call(fast_verify_uncached, iters_fast)

    assert public.verify(messages[0], signatures[0])
    ms["fast_verify_cached"] = _time_per_call(
        lambda: public.verify(messages[0], signatures[0]), iters_fast * 5
    )
    ms["ecdh"] = _time_per_call(
        lambda: shared_secret(key, peer.public_key), iters_fast
    )

    # Merkle: one tree, repeated proofs (the cached-levels path).
    leaves = [b"leaf-%d" % i for i in range(256)]
    tree = MerkleTree(leaves)
    tree.root
    ms["merkle_proof_cached"] = _time_per_call(
        lambda: tree.proof(137), iters_fast * 5
    )

    speedup = {
        "keygen": ms["affine_keygen"] / ms["fast_keygen"],
        "sign": ms["affine_sign"] / ms["fast_sign"],
        "verify": ms["affine_verify"] / ms["fast_verify"],
    }

    rows = [
        ["keygen (scalar mul G)", f"{ms['affine_keygen']:.3f}",
         f"{ms['fast_keygen']:.3f}", f"{speedup['keygen']:.1f}x"],
        ["sign", f"{ms['affine_sign']:.3f}", f"{ms['fast_sign']:.3f}",
         f"{speedup['sign']:.1f}x"],
        ["verify", f"{ms['affine_verify']:.3f}", f"{ms['fast_verify']:.3f}",
         f"{speedup['verify']:.1f}x"],
        ["verify (LRU replay)", "-", f"{ms['fast_verify_cached']:.4f}", "-"],
        ["ECDH shared secret", "-", f"{ms['ecdh']:.3f}", "-"],
        ["merkle proof (cached)", "-", f"{ms['merkle_proof_cached']:.4f}",
         "-"],
    ]
    report("BENCH_crypto", "fast EC backend vs affine reference (ms/op)",
           format_table(["operation", "affine ms", "fast ms", "speedup"],
                        rows))

    payload = {
        "experiment": "bench_crypto",
        "mode": "smoke" if smoke else "full",
        "iterations": {"fast": iters_fast, "affine": iters_slow},
        "ms": {name: round(value, 5) for name, value in ms.items()},
        "speedup": {name: round(value, 2) for name, value in speedup.items()},
        "verify_speedup_target": VERIFY_SPEEDUP_TARGET,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_crypto.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if not smoke:
        assert speedup["verify"] >= VERIFY_SPEEDUP_TARGET, (
            f"verify speedup {speedup['verify']:.1f}x below the "
            f"{VERIFY_SPEEDUP_TARGET:.0f}x target"
        )
    return payload


def run_bench(quick: bool = False) -> dict:
    """Harness adapter.  Every metric is wall-clock and therefore noisy on
    shared runners, so nothing gates — the trajectory records the speedups
    for eyeballing, and the full pytest run keeps the hard ≥10x assertion.
    """
    payload = run(smoke=quick)
    ms = payload["ms"]
    speedup = payload["speedup"]
    metrics = {
        "verify_speedup": info(speedup["verify"], unit="x"),
        "sign_speedup": info(speedup["sign"], unit="x"),
        "keygen_speedup": info(speedup["keygen"], unit="x"),
        "fast_verify_ms": info(ms["fast_verify"], unit="ms"),
        "fast_sign_ms": info(ms["fast_sign"], unit="ms"),
        "verify_cached_ms": info(ms["fast_verify_cached"], unit="ms"),
    }
    lines = [f"{name}: {value:.2f}x" for name, value in speedup.items()]
    return {"metrics": metrics, "lines": lines, "payload": payload}


EXPERIMENT = Experiment(
    "CRYPTO", "fast EC backend vs affine reference", run_bench,
)


def test_crypto_speedup():
    """Pytest entry point: the full benchmark with the ≥10x assertion."""
    run(smoke=False)


if __name__ == "__main__":
    result = run(smoke="--smoke" in sys.argv)
    print(json.dumps(result["speedup"], indent=2))
