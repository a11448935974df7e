"""The textbook affine secp256k1 arithmetic: the reference oracle.

Deliberately naive — one modular inversion per addition, plain
double-and-add — and independent of :mod:`repro.crypto.ec_backend`, so the
differential tests in this directory (and ``benchmarks/bench_crypto.py``'s
baseline rows) can hold every optimized path against it.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.ecdsa import N, P

Point = Optional[tuple[int, int]]  # None is the point at infinity.


def point_add(p1: Point, p2: Point) -> Point:
    """Add two points on secp256k1 (affine coordinates)."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        slope = 3 * x1 * x1 * pow(2 * y1, -1, P) % P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (slope * slope - x1 - x2) % P
    y3 = (slope * (x1 - x3) - y1) % P
    return (x3, y3)


def point_mul(scalar: int, point: Point) -> Point:
    """Double-and-add scalar multiplication."""
    if scalar % N == 0 or point is None:
        return None
    scalar %= N
    result: Point = None
    addend = point
    while scalar:
        if scalar & 1:
            result = point_add(result, addend)
        addend = point_add(addend, addend)
        scalar >>= 1
    return result
