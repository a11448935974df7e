"""The Jacobian forms of the batched kernels in ``repro.crypto.ec_backend``.

``ec_backend`` fills Pippenger's buckets with batched affine additions
(:func:`ec_backend.batch_add`, one inversion per round).  Before that it
did the same work one Jacobian addition at a time; that code lives on here
as the reference the batched kernel must equal exactly — same ``(bit,
point)`` events — sharing no addition formula with it.  It is unchanged but
for its imports and :func:`bucket_width`, which must give the kernel's
window width (its floor rose from 4 to 5 bits when the kernel changed) for
the events to be equal.  :func:`wnaf_scalar_mult` is the one-point
multiplication of 62b3626, the fast second oracle for bulk runs the affine
one is too slow for, and :func:`strauss_msm` the many-point one: the
interleaved wNAF streams narrow batch equations ran on before every
equation became one bucket sum.
"""

from __future__ import annotations

from repro.crypto.ec_backend import (
    N,
    P,
    AffinePoint,
    JacobianPoint,
    batch_to_affine,
    jacobian_add_affine,
    jacobian_double,
    to_affine,
)


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


def bucket_width(count: int) -> int:
    """``ec_backend._bucket_events``' window width for ``count`` points."""
    return max(5, count.bit_length() - 3)


def bucket_events(pairs: list[tuple[int, tuple[int, int]]],
                  ) -> list[tuple[int, tuple[int, int]]]:
    """Pippenger's bucket method with one Jacobian addition per fill and two
    per collapse step: the events ``ec_backend._bucket_events`` returns."""
    width = bucket_width(len(pairs))
    full = 1 << width
    half = full >> 1
    mask = full - 1
    windows = max(k.bit_length() for k, _ in pairs) // width + 1
    buckets: list[list[JacobianPoint]] = [[None] * half
                                          for _ in range(windows)]
    for k, point in pairs:
        negated = (point[0], P - point[1])
        for row in buckets:
            if not k:
                break
            digit = k & mask
            k >>= width
            if digit > half:
                digit -= full
                k += 1
            if digit > 0:
                row[digit - 1] = jacobian_add_affine(row[digit - 1], point)
            elif digit < 0:
                row[-digit - 1] = jacobian_add_affine(row[-digit - 1],
                                                      negated)
    sums: list[JacobianPoint] = []
    for row in buckets:
        running: JacobianPoint = None
        total: JacobianPoint = None
        for held in reversed(row):
            running = jacobian_add(running, held)
            total = jacobian_add(total, running)
        sums.append(total)
    return [(width * window, point)
            for window, point in enumerate(batch_to_affine(sums))
            if point is not None]
