"""Crypto microbenchmarks: the public API vs the affine reference.

Measures keygen / sign / verify under both the textbook affine
implementation (the differential-testing oracle, ``tests/crypto/
affine_oracle.py``) and the public API — ``G``'s comb for keygen and
signing, OpenSSL for verify and ECDH — plus ``batch_verify``'s one
libcrypto equation over 2, 16 and 512 signatures (the last a
``chain_bulk`` block's shape, 64 keys) and the cached Merkle proof path.
Verify and ECDH are timed on a
*first-use* key (its OpenSSL handle parsed in the call) and on a
*recurring* key (handle already held).

Every number is wall-clock and therefore noisy on shared runners, so
nothing gates and the quick suite cuts the iteration counts; the full
suite claims first-use verify is ≥10x the affine baseline.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))  # tests/ (the oracle)

from repro.bench import Experiment, format_table, info  # noqa: E402
from repro.crypto import ec_backend  # noqa: E402
from repro.crypto.ecdsa import (  # noqa: E402
    GX,
    GY,
    N,
    PrivateKey,
    batch_verify,
    shared_secret,
)
from repro.crypto.hashing import hash_to_int  # noqa: E402
from repro.crypto.merkle import MerkleTree  # noqa: E402
from tests.crypto.affine_oracle import point_add, point_mul  # noqa: E402


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


#: Batch-equation shapes: (signatures, keys).
EQUATION_SHAPES = ((2, 2), (16, 4), (512, 64))


def _equation_ms(signatures: int, keys: int, iterations: int) -> float:
    """Milliseconds per ``batch_verify`` of a valid batch, one equation
    under the production rule (every key's handle built first)."""
    signers = [PrivateKey.from_seed(b"bench-equation-%d" % index)
               for index in range(keys)]
    items = [(signers[index % keys].public_key, b"equation %d" % index,
              signers[index % keys].sign(b"equation %d" % index))
             for index in range(signatures)]
    assert batch_verify(items) == [True] * signatures
    return _time_per_call(lambda: batch_verify(items), iterations)


def run_bench(quick: bool = False) -> dict:
    iters_fast = 20 if quick else 200
    iters_slow = 3 if quick else 20

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

    # Fast backend.
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

    # First-use keys: one fresh signer (and one fresh ECDH peer) per call.
    fresh = iter([(k.public_key, k.sign(b"first use"))
                  for k in (PrivateKey.from_seed(b"bench-fresh-%d" % i)
                            for i in range(2 * iters_fast))])

    def verify_first_use():
        public_key, signature = next(fresh)
        assert public_key.verify(b"first use", signature)

    ms["fast_verify"] = _time_per_call(verify_first_use, iters_fast)
    ms["ecdh"] = _time_per_call(
        lambda: shared_secret(key, next(fresh)[0]), iters_fast
    )

    # A recurring key: its handle built by a first use, then timed.
    verify_counter = iter(range(10**9))

    def verify_recurring():
        index = next(verify_counter) % len(messages)
        assert public.verify(messages[index], signatures[index])

    verify_recurring()
    shared_secret(key, peer.public_key)
    ms["verify_recurring"] = _time_per_call(verify_recurring, iters_fast)
    ms["ecdh_recurring"] = _time_per_call(
        lambda: shared_secret(key, peer.public_key), iters_fast
    )

    for signatures, keys in EQUATION_SHAPES:
        ms[f"equation_{signatures}"] = _equation_ms(
            signatures, keys, max(iters_slow, iters_fast * 16 // signatures))

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
        ["verify, first-use key", f"{ms['affine_verify']:.3f}",
         f"{ms['fast_verify']:.3f}", f"{speedup['verify']:.1f}x"],
        ["verify, recurring key", "-",
         f"{ms['verify_recurring']:.3f}", "-"],
        ["ECDH, first-use key", "-", f"{ms['ecdh']:.3f}", "-"],
        ["ECDH, recurring key", "-", f"{ms['ecdh_recurring']:.3f}", "-"],
        *([f"batch equation, {n} sigs / {k} keys", "-",
           f"{ms[f'equation_{n}']:.3f}", "-"] for n, k in EQUATION_SHAPES),
        ["merkle proof (cached)", "-", f"{ms['merkle_proof_cached']:.4f}",
         "-"],
    ]
    lines = format_table(["operation", "affine ms", "fast ms", "speedup"],
                         rows)
    metrics = {
        "verify_speedup": info(speedup["verify"], unit="x"),
        "sign_speedup": info(speedup["sign"], unit="x"),
        "keygen_speedup": info(speedup["keygen"], unit="x"),
        "fast_verify_ms": info(ms["fast_verify"], unit="ms"),
        "fast_sign_ms": info(ms["fast_sign"], unit="ms"),
        "verify_recurring_ms": info(ms["verify_recurring"], unit="ms"),
        "ecdh_first_use_ms": info(ms["ecdh"], unit="ms"),
        "ecdh_recurring_ms": info(ms["ecdh_recurring"], unit="ms"),
        **{f"equation_{n}_ms": info(ms[f"equation_{n}"], unit="ms")
           for n, _ in EQUATION_SHAPES},
    }
    claims = {}
    if not quick:
        claims["verify_speedup_10x"] = speedup["verify"] >= 10.0
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment(
    "CRYPTO", "fast EC backend vs affine reference", run_bench,
)
