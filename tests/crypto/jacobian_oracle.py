"""Jacobian-coordinate engines the fast paths once ran on, kept as oracles.

:func:`wnaf_scalar_mult` is the one-point multiplication of 62b3626, the
fast second oracle for bulk runs the affine one is too slow for, and
:func:`strauss_msm` the many-point one: the interleaved wNAF streams
narrow batch equations ran on before they left Python, the reference
libcrypto's equation sum is held to over hundreds of terms.
:func:`jacobian_add_affine` is the mixed addition those two run on, which
``ec_backend.scalar_mult_base`` open-codes.
"""

from __future__ import annotations

from repro.crypto.ec_backend import (
    N,
    P,
    AffinePoint,
    JacobianPoint,
    batch_to_affine,
    jacobian_double,
    to_affine,
)


def jacobian_add_affine(p1: JacobianPoint, p2: AffinePoint) -> JacobianPoint:
    """Mixed addition: Jacobian + affine (Z2 = 1), saving 5 multiplications."""
    if p2 is None:
        return p1
    if p1 is None:
        x2, y2 = p2
        return (x2, y2, 1)
    x1, y1, z1 = p1
    x2, y2 = p2
    z1_sq = z1 * z1 % P
    u2 = x2 * z1_sq % P
    s2 = y2 * z1_sq * z1 % P
    if x1 == u2:
        if y1 != s2:
            return None
        return jacobian_double(p1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    h_sq = h * h % P
    h_cu = h * h_sq % P
    u1h_sq = x1 * h_sq % P
    x3 = (r * r - h_cu - 2 * u1h_sq) % P
    y3 = (r * (u1h_sq - x3) - y1 * h_cu) % P
    z3 = h * z1 % P
    return (x3, y3, z3)


def wnaf(scalar: int, width: int) -> list[int]:
    """Width-``w`` non-adjacent form of ``scalar`` (least significant first).

    Digits are zero or odd in ``(-2^(w-1), 2^(w-1))``; at most one in any
    ``width`` consecutive positions is non-zero, so a 256-bit scalar needs
    about ``256 / (width + 1)`` point additions.
    """
    digits: list[int] = []
    window = 1 << width
    half = window >> 1
    while scalar > 0:
        if scalar & 1:
            digit = scalar % window
            if digit >= half:
                digit -= window
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def to_jacobian(point: AffinePoint) -> JacobianPoint:
    """Lift an affine point to Jacobian coordinates."""
    if point is None:
        return None
    return (point[0], point[1], 1)


def jacobian_add(p1: JacobianPoint, p2: JacobianPoint) -> JacobianPoint:
    """Add two Jacobian points (general case, 16 field multiplications)."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1_sq = z1 * z1 % P
    z2_sq = z2 * z2 % P
    u1 = x1 * z2_sq % P
    u2 = x2 * z1_sq % P
    s1 = y1 * z2_sq * z2 % P
    s2 = y2 * z1_sq * z1 % P
    if u1 == u2:
        if s1 != s2:
            return None  # P + (-P)
        return jacobian_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h_sq = h * h % P
    h_cu = h * h_sq % P
    u1h_sq = u1 * h_sq % P
    x3 = (r * r - h_cu - 2 * u1h_sq) % P
    y3 = (r * (u1h_sq - x3) - s1 * h_cu) % P
    z3 = h * z1 * z2 % P
    return (x3, y3, z3)


def odd_multiples(point: AffinePoint, width: int) -> list[AffinePoint]:
    """``[1P, 3P, 5P, ..., (2^(width-1) - 1)P]`` by Jacobian additions,
    normalized in one batch."""
    base = to_jacobian(point)
    twice = jacobian_double(base)
    table = [base]
    for _ in range((1 << (width - 1)) // 2 - 1):
        table.append(jacobian_add(table[-1], twice))
    return batch_to_affine(table)


def wnaf_scalar_mult(scalar: int, point: AffinePoint) -> AffinePoint:
    """``ec_backend.scalar_mult`` as of 62b3626: one full-length width-5
    wNAF stream, ~256 doublings, no GLV split and no comb."""
    scalar %= N
    if scalar == 0 or point is None:
        return None
    table = odd_multiples(point, 5)
    accumulator = None
    for digit in reversed(wnaf(scalar, 5)):
        accumulator = jacobian_double(accumulator)
        if digit > 0:
            accumulator = jacobian_add_affine(accumulator, table[digit >> 1])
        elif digit < 0:
            x, y = table[(-digit) >> 1]
            accumulator = jacobian_add_affine(accumulator, (x, P - y))
    return to_affine(accumulator)


def strauss_msm(terms: list[tuple[int, AffinePoint]]) -> AffinePoint:
    """``Σ kᵢ·Pᵢ`` by Strauss interleaving: one full-length width-5 wNAF
    stream per term over its odd multiples, every stream on one shared
    ~256-step doubling chain, one Jacobian mixed addition per digit."""
    streams = [(wnaf(k % N, 5), odd_multiples(point, 5))
               for k, point in terms if point is not None and k % N]
    accumulator = None
    for index in range(max((len(d) for d, _ in streams), default=0) - 1,
                       -1, -1):
        accumulator = jacobian_double(accumulator)
        for digits, table in streams:
            digit = digits[index] if index < len(digits) else 0
            if digit > 0:
                accumulator = jacobian_add_affine(accumulator,
                                                  table[digit >> 1])
            elif digit < 0:
                x, y = table[(-digit) >> 1]
                accumulator = jacobian_add_affine(accumulator, (x, P - y))
    return to_affine(accumulator)
