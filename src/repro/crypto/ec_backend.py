"""Fast secp256k1 point arithmetic for the one job pure Python keeps: ``k·G``.

This module is the engine behind :mod:`repro.crypto.ecdsa`'s signing and
key derivation; the check of one signature and ECDH run in OpenSSL there,
and the batch equation in libcrypto (:mod:`repro.crypto.libcrypto`).  A
textbook affine implementation performs one modular inversion *per point
addition* (≈380 inversions per scalar multiplication).  Here the one
accumulator works in Jacobian coordinates ``(X, Y, Z)``, ``x = X/Z²``,
``y = Y/Z³`` — one inversion per scalar multiplication, at the end — and
independent additions (comb rows) stay affine and share one inversion per
round (:func:`batch_add`).  On top of that:

* the **GLV endomorphism** splits a scalar into two halves below 2¹²⁸;
* a **GLV comb** of ``G`` (:func:`_build_comb`): at most ``2 × rows``
  mixed additions and no doubling, so ``k·G`` skips the doubling chain.

No point but ``G`` has a table, and ``G``'s comb, built on first use, is
the module's only state.  Points at the API boundary are affine ``(x, y)``
tuples or ``None`` for the point at infinity — the convention of the
affine oracle the differential tests hold every path here against
(``tests/crypto/affine_oracle.py``).
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

from repro.telemetry import metrics as _tm

# secp256k1 domain parameters (y^2 = x^3 + 7 over F_p, a = 0).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

AffinePoint = Optional[tuple[int, int]]
#: Jacobian point (X, Y, Z); None is the point at infinity.
JacobianPoint = Optional[tuple[int, int, int]]

# G's comb width in digit bits.  E25 sessions/s and peak_rss_mb against
# it, medians of seeds 1-3 (EXPERIMENTS §E25 "PR 28"): 10 bits gains ≤ 3 %
# but puts ml_wide's RSS up 5-6 %; 8 bits −1 %.
_G_COMB_WIDTH = 9

# Scalar-multiplication calls, by kind (``base``: ``k·G`` on the comb); the
# label lookup is one dict hit against the O(100µs) multiplication it
# counts.  Spans are deliberately absent here: these functions sit under
# crypto.sign/verify timing already, and the sampling profiler names them
# by their own frames.
_SCALAR_MULTS = _tm.counter(
    "pds2_crypto_scalar_mult_total",
    "Elliptic-curve scalar multiplications, by algorithm kind",
    labelnames=("kind",),
)


# -- Jacobian primitives -----------------------------------------------------


def jacobian_double(point: JacobianPoint) -> JacobianPoint:
    """Double a Jacobian point on secp256k1 (a = 0 shortcut: M = 3X²)."""
    if point is None:
        return None
    x1, y1, z1 = point
    if y1 == 0:
        return None
    y1_sq = y1 * y1 % P
    s = 4 * x1 * y1_sq % P
    m = 3 * x1 * x1 % P
    x3 = (m * m - 2 * s) % P
    y3 = (m * (s - x3) - 8 * y1_sq * y1_sq) % P
    z3 = 2 * y1 * z1 % P
    return (x3, y3, z3)


def to_affine(point: JacobianPoint) -> AffinePoint:
    """Project back to affine with the single inversion of the whole mul."""
    if point is None or point[2] == 0:
        return None
    x, y, z = point
    z_inv = pow(z, -1, P)
    z_inv_sq = z_inv * z_inv % P
    return (x * z_inv_sq % P, y * z_inv_sq * z_inv % P)


def batch_inverse(values: Sequence[int], modulus: int) -> list[int]:
    """Inverses of non-zero residues with ONE inversion (Montgomery's trick).

    Three multiplications per value replace its own extended-Euclid run:
    invert the product of all of them, then peel one inverse off per value
    walking backwards through the prefix products.  The caller guarantees
    every value is non-zero mod ``modulus`` (a zero would zero the product).
    """
    if not values:
        return []
    prefix = [1] * (len(values) + 1)
    for index, value in enumerate(values):
        prefix[index + 1] = prefix[index] * value % modulus
    inv_all = pow(prefix[-1], -1, modulus)
    inverses = [0] * len(values)
    for index in range(len(values) - 1, -1, -1):
        inverses[index] = prefix[index] * inv_all % modulus
        inv_all = inv_all * values[index] % modulus
    return inverses


def batch_to_affine(points: list[JacobianPoint]) -> list[AffinePoint]:
    """Normalize many Jacobian points with one shared inversion.

    Used for a comb's row bases, the ends of one Jacobian doubling chain:
    one inversion where one per base would cost one per row more.
    """
    inv_zs = iter(batch_inverse(
        [p[2] for p in points if p is not None and p[2] != 0], P
    ))
    result: list[AffinePoint] = []
    for point in points:
        if point is None or point[2] == 0:
            result.append(None)
            continue
        x, y, _ = point
        z_inv = next(inv_zs)
        z_inv_sq = z_inv * z_inv % P
        result.append((x * z_inv_sq % P, y * z_inv_sq * z_inv % P))
    return result


def batch_add(lefts: Sequence[AffinePoint],
              rights: Sequence[AffinePoint]) -> list[AffinePoint]:
    """``[Pᵢ + Qᵢ]`` for independent affine pairs with ONE shared inversion.

    Slopes are ``(y₂ − y₁)/(x₂ − x₁)``, or ``3x₁²/(2y₁)`` when ``Pᵢ = Qᵢ``;
    ``Pᵢ = −Qᵢ`` and an infinite operand need no denominator.  With every
    denominator in one :func:`batch_inverse` a sum costs about six
    multiplications, against a Jacobian addition's eleven to sixteen.
    """
    p = P
    sums: list[AffinePoint] = [None] * len(lefts)
    chords: list[int] = []
    denominators: list[int] = []
    for index, (left, right) in enumerate(zip(lefts, rights)):
        if left is None:
            sums[index] = right
        elif right is None:
            sums[index] = left
        elif left[0] != right[0]:
            chords.append(index)
            denominators.append(right[0] - left[0])
        elif left[1] == right[1]:  # no point of secp256k1 has y = 0
            chords.append(index)
            denominators.append(2 * left[1])
    for index, inverse in zip(chords, batch_inverse(denominators, p)):
        x1, y1 = lefts[index]
        x2, y2 = rights[index]
        if x1 != x2:
            slope = (y2 - y1) * inverse % p
        else:
            slope = 3 * x1 * x1 * inverse % p
        x3 = (slope * slope - x1 - x2) % p
        sums[index] = (x3, (slope * (x1 - x3) - y1) % p)
    return sums


# -- GLV endomorphism --------------------------------------------------------
#
# secp256k1 has j-invariant 0, so F_p contains a primitive cube root of unity
# β and the map φ(x, y) = (βx, y) is an endomorphism acting as multiplication
# by a cube root of unity λ in Z_n.  Any scalar k then splits as
# ``k ≡ k1 + k2·λ (mod n)`` with |k1|, |k2| ≈ √n, halving the rows of a
# comb.  The constants of this fixed curve — the
# paired roots and a short basis ``(a1, b1), (a2, b2)`` of the lattice
# ``{(x, y) : x + y·λ ≡ 0 (mod n)}`` — are written down; the derivation (cube
# roots by exponentiation, the basis by the extended Euclidean algorithm)
# lives in ``tests/crypto/glv_derivation.py`` and re-derives them as a test.

_GLV_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_GLV_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = 0x3086D221A7D46BCDE86C90E49284EB15


def _glv_split(k: int) -> tuple[int, int]:
    """Decompose ``k ≡ k1 + k2·λ (mod n)`` with ``|k1|, |k2| < 2¹²⁸``.

    Bound, for every integer ``k``: ``(k1, k2)`` is ``(k, 0)`` minus its
    coordinates in the basis (``a1·b2 − a2·b1 = n``) rounded, each off by
    at most ½, so ``|k1| ≤ (a1 + a2)/2`` and ``|k2| ≤ (|b1| + b2)/2 = a2/2``.
    """
    c1 = (2 * _GLV_B2 * k + N) // (2 * N)
    c2 = (-2 * _GLV_B1 * k + N) // (2 * N)
    k1 = k - c1 * _GLV_A1 - c2 * _GLV_A2
    k2 = -c1 * _GLV_B1 - c2 * _GLV_B2
    return k1, k2


_GLV_HALF_BITS = 128  # |k1|, |k2| < 2^128, proved at _glv_split


# -- combs: rows 2^(w·i)·P, read as signed digits of both GLV halves --------

Comb = list[list[tuple[int, int]]]


def _build_comb(point: tuple[int, int], width: int) -> Comb:
    """``comb[i][d − 1] = d · 2^(width·i) · point`` for ``d ≤ 2^(width−1)``.

    ``128 // width`` rows hold a half's digits and one more its last carry
    (no digit of that row exceeds ``2^(width−1)``, so nothing carries out).
    Row bases: one Jacobian doubling chain and one inversion.  Then every
    row doubles in length per :func:`batch_add` (entries ``1..m`` plus the
    ``m``-th give ``m + 1..2m``): ``width − 1`` inversions in all.
    """
    jacobian_bases: list[JacobianPoint] = [(point[0], point[1], 1)]
    for _ in range(_GLV_HALF_BITS // width):
        base = jacobian_bases[-1]
        for _ in range(width):
            base = jacobian_double(base)
        jacobian_bases.append(base)
    comb = [[base] for base in batch_to_affine(jacobian_bases)]
    for _ in range(width - 1):
        size = len(comb[0])
        sums = iter(batch_add([entry for row in comb for entry in row],
                              [row[-1] for row in comb for _ in row]))
        for row in comb:
            row += [next(sums) for _ in range(size)]
    return comb


def _comb_addends(scalar: int, comb: Comb, width: int,
                  addends: list[tuple[int, int]]) -> None:
    """Append affine points that sum to ``scalar · P``, ``P`` the comb's.

    Each GLV half is cut into signed ``width``-bit digits (one above
    ``2^(width−1)`` borrows from the next row), its sign folded into y; the
    ``k2`` half reads ``φ(P)`` as ``(β·x, y)``.  A half the rows cannot
    hold raises instead of losing its top bits.
    """
    p = P
    full = 1 << width
    half = full >> 1
    mask = full - 1
    for k, phi in zip(_glv_split(scalar), (False, True)):
        flip = k < 0
        if flip:
            k = -k
        for row in comb:
            if not k:
                break
            digit = k & mask
            k >>= width
            if digit > half:
                k += 1
                x, y = row[full - digit - 1]
                negative = not flip
            elif digit:
                x, y = row[digit - 1]
                negative = flip
            else:
                continue
            addends.append((_GLV_BETA * x % p if phi else x,
                            p - y if negative else y))
        if k:
            raise ArithmeticError("GLV half exceeds the comb's rows")


@cache
def _g_comb() -> Comb:
    return _build_comb((GX, GY), _G_COMB_WIDTH)


# -- public scalar-multiplication API ----------------------------------------


def scalar_mult_base(scalar: int) -> AffinePoint:
    """``scalar · G``: ``G``'s comb addends summed in one Jacobian
    accumulator, with no doubling chain."""
    scalar %= N
    _SCALAR_MULTS.labels(kind="base").inc()
    if not scalar:
        return None
    addends: list[tuple[int, int]] = []
    _comb_addends(scalar, _g_comb(), _G_COMB_WIDTH, addends)
    # The accumulator lives in three scalar locals with the mixed addition
    # open-coded: helper calls and tuple packing would be the interpreter's
    # dominant cost.  A rare same-x addend doubles through the helper.
    p = P
    (ax, ay), az = addends[0], 1
    for qx, qy in addends[1:]:
        if az == 0:
            ax, ay, az = qx, qy, 1
            continue
        z_sq = az * az % p
        u2 = qx * z_sq % p
        s2 = qy * z_sq * az % p
        if ax == u2:  # the same point doubles, its negation cancels
            ax, ay, az = (jacobian_double((ax, ay, az)) if ay == s2
                          else (0, 0, 0))
            continue
        h = u2 - ax
        r = (s2 - ay) % p
        h_sq = h * h % p
        h_cu = h * h_sq % p
        u1h_sq = ax * h_sq % p
        x3 = (r * r - h_cu - 2 * u1h_sq) % p
        ay = (r * (u1h_sq - x3) - ay * h_cu) % p
        ax = x3
        az = h * az % p
    if az == 0:
        return None
    return to_affine((ax, ay, az))
