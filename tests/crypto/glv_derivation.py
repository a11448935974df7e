"""Where secp256k1's GLV constants come from: the oracle for the six
numbers written down in :mod:`repro.crypto.ec_backend`.

Cube roots of unity by exponentiation, paired up against the curve on the
affine oracle, and a short lattice basis by the extended Euclidean
algorithm.  ``tests/crypto/test_ec_backend.py::TestGLV::test_params_derived``
re-derives the constants with this and compares.
"""

from __future__ import annotations

from math import isqrt

from repro.crypto.ecdsa import GX, GY, N, P
from tests.crypto.affine_oracle import point_mul


def cube_root_of_unity(modulus: int) -> int:
    """A primitive cube root of 1 modulo a prime ``modulus ≡ 1 (mod 3)``."""
    assert modulus % 3 == 1
    exponent = (modulus - 1) // 3
    for base in range(2, 64):
        candidate = pow(base, exponent, modulus)
        if candidate != 1 and pow(candidate, 3, modulus) == 1:
            return candidate
    raise AssertionError("no cube root of unity found")


def glv_basis(lam: int) -> tuple[int, int, int, int]:
    """Two short vectors ``(a1, b1), (a2, b2)`` of the lattice
    ``{(x, y) : x + y·λ ≡ 0 (mod n)}`` via the extended Euclidean algorithm.
    """
    bound = isqrt(N)
    rows: list[tuple[int, int]] = [(N, 0), (lam, 1)]
    r_prev, r_curr = N, lam
    t_prev, t_curr = 0, 1
    while r_curr != 0:
        quotient = r_prev // r_curr
        r_prev, r_curr = r_curr, r_prev - quotient * r_curr
        t_prev, t_curr = t_curr, t_prev - quotient * t_curr
        rows.append((r_curr, t_curr))
    pivot = max(i for i, (r, _) in enumerate(rows) if r >= bound)
    a1, b1 = rows[pivot + 1][0], -rows[pivot + 1][1]
    candidates = [rows[pivot]]
    if pivot + 2 < len(rows):
        candidates.append(rows[pivot + 2])
    r2, t2 = min(candidates, key=lambda row: row[0] * row[0] + row[1] * row[1])
    return a1, b1, r2, -t2


def derive_glv() -> tuple[int, int, int, int, int, int]:
    """``(λ, β, a1, b1, a2, b2)`` with φ(G) = (βx, y) = λ·G."""
    beta = cube_root_of_unity(P)
    lam = cube_root_of_unity(N)
    # Each root has one alternative (its square); try the four pairings.
    for beta_cand in (beta, beta * beta % P):
        for lam_cand in (lam, lam * lam % N):
            if point_mul(lam_cand, (GX, GY)) == (beta_cand * GX % P, GY):
                return (lam_cand, beta_cand, *glv_basis(lam_cand))
    raise AssertionError("no (λ, β) pairing maps G onto φ(G)")
