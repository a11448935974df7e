"""Fast secp256k1 point arithmetic: Jacobian coordinates, wNAF, fixed-base.

This module is the performance engine behind :mod:`repro.crypto.ecdsa`.  A
textbook affine implementation performs one modular inversion *per point
addition* (≈380 inversions per scalar multiplication).  Here a doubling
chain's accumulator works in Jacobian coordinates ``(X, Y, Z)``, ``x = X/Z²``,
``y = Y/Z³`` — one inversion per scalar multiplication, at the end — and
independent additions (bucket fills, table entries) stay affine and share one
inversion per round (:func:`batch_add`).  On top of that it layers the classic
speed-for-memory trades:

* a **fixed-base comb table** for the generator ``G`` (33 rows of signed
  8-bit digits, 128 affine points each — 4 224 points, ≈ 0.8 MB): key
  generation and signing become at most 33 mixed additions with no doublings
  at all;
* **wNAF** (width-5 non-adjacent form) recoding for variable-point
  multiplication, cutting additions from ~128 to ~43 per 256-bit scalar;
* **Shamir's trick** (interleaved dual-scalar multiplication) for the
  ``u1·G + u2·Q`` inside ECDSA verification: one shared doubling chain instead
  of two, with a wide (width-7) precomputed wNAF table for the ``G`` side;
* the **GLV endomorphism** on every variable-base path: each full-length
  scalar splits into two half-length ones, so ~128 doublings instead of ~256;
* **Pippenger's bucket method** for wide batches of points that will not
  recur (32 or more of a block's signature nonce points): no per-point
  table at all, one batched affine addition per point per window.

There is one variable-base engine, :func:`multi_scalar_mult`; ECDH
(:func:`scalar_mult`), single verification
(:func:`double_scalar_mult_base`) and batch verification are its one-point,
one-pair and many-pair cases.

All tables are built lazily on first use, each entry one batched addition
across every point or row being built, so importing this module costs
nothing.  Points at the API boundary are affine ``(x, y)`` tuples or
``None`` for the point at infinity — the same convention as the textbook
affine oracle the differential tests hold every path here against
(``tests/crypto/affine_oracle.py``).
"""

from __future__ import annotations

from collections import OrderedDict
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

# Fixed-base comb geometry: signed 8-bit digits over 256-bit scalars.  A row
# holds the multiples 1..128 of its window base (a negative digit negates y
# for free), and one row beyond the scalar's 32 bytes takes the final carry.
_COMB_BITS = 8
_COMB_HALF = 1 << (_COMB_BITS - 1)
_COMB_ROWS = 256 // _COMB_BITS + 1

# wNAF widths: wide for the static G table, narrower for per-call points.
_WNAF_BASE_WIDTH = 7
_WNAF_POINT_WIDTH = 5

# One-shot points at or above this count go through Pippenger's buckets
# instead of per-point wNAF tables.  Bucket ÷ Strauss wall time with both
# sides on batched affine additions, measured: 1.38 at 8 points, 1.16 at
# 16, 1.01 at 24, 0.94 at 32, 0.86 at 48, 0.79 at 64, 0.73 at 128, 0.67 at
# 256 (EXPERIMENTS §E25) — the first power of two past the crossover.
_BUCKET_MIN_POINTS = 32

# Scalars at or below this length skip the GLV split in multi-scalar
# multiplication: they are already no longer than the half-length components
# the split would produce, so splitting would only add a second stream.
_GLV_SHORT_BITS = 140

# Scalar-multiplication call counters, one child per algorithm kind; the
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

    Used for the comb's 33 row bases, the ends of Jacobian doubling chains:
    one inversion where one per base would cost 32 more.
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


# -- wNAF recoding -----------------------------------------------------------


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


def _odd_multiples(points: Sequence[tuple[int, int]],
                   width: int) -> list[list[AffinePoint]]:
    """Affine tables ``[1P, 3P, 5P, ..., (2^(width-1) - 1)P]`` for many
    points in lock step: one batched doubling, then one batched addition
    of ``2P`` per entry, every step sharing an inversion across the points."""
    twice = batch_add(points, points)
    column: list[AffinePoint] = list(points)
    tables = [[point] for point in points]
    for _ in range((1 << (width - 1)) // 2 - 1):
        column = batch_add(column, twice)
        for table, entry in zip(tables, column):
            table.append(entry)
    return tables


# -- precomputed tables for G (built lazily, rows in lock step) -------------

_FIXED_BASE_TABLE: Optional[list[list[AffinePoint]]] = None
_G_WNAF_TABLE: Optional[list[AffinePoint]] = None
_PHI_G_WNAF_TABLE: Optional[list[AffinePoint]] = None


def _fixed_base_table() -> list[list[AffinePoint]]:
    """``table[i][d-1] = d · 256^i · G`` for rows ``i`` and digits ``d``.

    Built in affine coordinates with the rows in lock step: entry ``d`` of
    every row is entry ``d − 1`` plus the row's base, one :func:`batch_add`
    over the 33 rows per step — about six multiplications per point and no
    normalization pass afterwards.
    """
    global _FIXED_BASE_TABLE
    if _FIXED_BASE_TABLE is None:
        jacobian_bases: list[JacobianPoint] = [(GX, GY, 1)]
        for _ in range(_COMB_ROWS - 1):
            point = jacobian_bases[-1]
            for _ in range(_COMB_BITS):
                point = jacobian_double(point)
            jacobian_bases.append(point)
        bases = batch_to_affine(jacobian_bases)
        column = batch_add(bases, bases)
        table = [[base, double] for base, double in zip(bases, column)]
        for _ in range(_COMB_HALF - 2):
            column = batch_add(column, bases)
            for row, entry in zip(table, column):
                row.append(entry)
        _FIXED_BASE_TABLE = table
    return _FIXED_BASE_TABLE


def _g_wnaf_table() -> list[AffinePoint]:
    """Affine odd multiples of G for the wide wNAF in Shamir's trick."""
    global _G_WNAF_TABLE
    if _G_WNAF_TABLE is None:
        _G_WNAF_TABLE = _odd_multiples([(GX, GY)], _WNAF_BASE_WIDTH)[0]
    return _G_WNAF_TABLE


# LRU of per-point odd-multiple tables (see ``_point_tables_batched``).
# Real workloads verify many signatures from a small set of keys (validator
# seals, repeat senders), so the per-point precomputation is worth
# remembering across calls.
_POINT_TABLE_CACHE: "OrderedDict[tuple[int, int], list[AffinePoint]]" = \
    OrderedDict()
_POINT_TABLE_CACHE_MAX = 512


# -- public scalar-multiplication API ----------------------------------------


def scalar_mult_base(scalar: int) -> AffinePoint:
    """``scalar · G`` via the signed 8-bit comb table (no doublings)."""
    _SCALAR_MULTS.labels(kind="base").inc()
    scalar %= N
    if scalar == 0:
        return None
    p = P
    # Mixed additions inlined over scalar locals (az == 0 is infinity); this
    # is the signing hot loop, at most 33 iterations with no doublings.
    ax = ay = az = 0
    carry = 0
    for row, byte in zip(_fixed_base_table(),
                         scalar.to_bytes(_COMB_ROWS, "little")):
        digit = byte + carry
        carry = digit > _COMB_HALF
        if carry:  # signed digit: borrow 256 from the next window
            digit -= 1 << _COMB_BITS
        if not digit:
            continue
        if digit > 0:
            qx, qy = row[digit - 1]
        else:
            qx, qy = row[-digit - 1]
            qy = p - qy
        if az == 0:
            ax, ay, az = qx, qy, 1
            continue
        z_sq = az * az % p
        u2 = qx * z_sq % p
        if ax == u2:  # same x: doubling or cancellation (rare)
            result = jacobian_add_affine((ax, ay, az), (qx, qy))
            ax, ay, az = result if result is not None else (0, 0, 0)
            continue
        s2 = qy * z_sq * az % p
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


def scalar_mult(scalar: int, point: AffinePoint) -> AffinePoint:
    """``scalar · point``: the one-point case of :func:`multi_scalar_mult`
    (GLV split into two half-length streams, ~128 doublings)."""
    return multi_scalar_mult(0, [(scalar, point)])


# -- GLV endomorphism --------------------------------------------------------
#
# secp256k1 has j-invariant 0, so F_p contains a primitive cube root of unity
# β and the map φ(x, y) = (βx, y) is an endomorphism acting as multiplication
# by a cube root of unity λ in Z_n.  Any scalar k then splits as
# ``k ≡ k1 + k2·λ (mod n)`` with |k1|, |k2| ≈ √n, halving the doubling chain
# of a multi-scalar multiplication.  The constants of this fixed curve — the
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
    """Decompose ``k ≡ k1 + k2·λ (mod n)`` with half-length components."""
    c1 = (2 * _GLV_B2 * k + N) // (2 * N)
    c2 = (-2 * _GLV_B1 * k + N) // (2 * N)
    k1 = k - c1 * _GLV_A1 - c2 * _GLV_A2
    k2 = -c1 * _GLV_B1 - c2 * _GLV_B2
    return k1, k2


def _phi_g_wnaf_table() -> list[AffinePoint]:
    """Affine odd multiples of φ(G) (the G table mapped through β)."""
    global _PHI_G_WNAF_TABLE
    if _PHI_G_WNAF_TABLE is None:
        _PHI_G_WNAF_TABLE = [
            (_GLV_BETA * x % P, y) for x, y in _g_wnaf_table()
        ]
    return _PHI_G_WNAF_TABLE


# -- Shamir / Strauss interleaved multi-scalar multiplication ----------------


def _signed_stream(scalar: int, width: int,
                   table: list[AffinePoint]) -> tuple[list[int], list[AffinePoint]]:
    """wNAF digits of ``|scalar|`` plus the table, with the sign folded in."""
    if scalar < 0:
        return wnaf(-scalar, width), [(x, P - y) for x, y in table]
    return wnaf(scalar, width), table


def double_scalar_mult_base(scalar_g: int, scalar_q: int,
                            point_q: AffinePoint) -> AffinePoint:
    """``scalar_g · G + scalar_q · Q``: Shamir's trick as used by ECDSA
    verification, the one-pair case of :func:`multi_scalar_mult`."""
    return multi_scalar_mult(scalar_g, [(scalar_q, point_q)])


def _point_tables_batched(points: list[tuple[int, int]],
                          kept: int) -> list[list[AffinePoint]]:
    """Odd-multiple wNAF tables for many points, built in lock step.

    A block-sized batch verification brings dozens of fresh nonce points and
    public keys at once, so the uncached tables are built together by
    :func:`_odd_multiples`: each table entry is one batched affine addition
    across every missing point.  Tables of the first ``kept`` points (public
    keys: repeat senders across blocks) go through the shared per-point LRU;
    the rest (signature nonce points, never seen again) are built and
    dropped, so a block's worth of them cannot evict every sender's table.
    """
    result: list[Optional[list[AffinePoint]]] = []
    missing: list[int] = []
    for index, point in enumerate(points):
        cached = _POINT_TABLE_CACHE.get(point)
        if cached is not None:
            _POINT_TABLE_CACHE.move_to_end(point)
        else:
            missing.append(index)
        result.append(cached)
    if missing:
        built = _odd_multiples([points[index] for index in missing],
                               _WNAF_POINT_WIDTH)
        for index, table in zip(missing, built):
            result[index] = table
            if index < kept:
                _POINT_TABLE_CACHE[points[index]] = table
                if len(_POINT_TABLE_CACHE) > _POINT_TABLE_CACHE_MAX:
                    _POINT_TABLE_CACHE.popitem(last=False)
    return result


def _bucket_events(pairs: list[tuple[int, tuple[int, int]]],
                   ) -> list[tuple[int, tuple[int, int]]]:
    """Pippenger's bucket method: ``Σ kᵢ·Pᵢ`` as addends for a doubling chain.

    Every scalar (``0 < kᵢ < n``) is cut into signed ``c``-bit digits, ``c``
    from the pair count; in window ``j`` a point joins the bucket of its
    digit's magnitude (y negated for a negative digit), and a running sum
    collapses the buckets to ``Sⱼ = Σ_b b·bucket[b]``.  Returns
    ``[(c·j, Sⱼ), …]`` (affine, infinities dropped) with
    ``Σ kᵢ·Pᵢ = Σⱼ 2^(c·j)·Sⱼ``.  All additions are batched
    (:func:`batch_add`): pairwise fill rounds over every bucket of every
    window, then one round per bucket index for all windows' collapses.  A
    point costs ``bits/c`` additions, a window ``2^c``; no table is built.
    """
    # Measured optimum 4-5/4-5/5/5/5-6/6-7/7/8 bits at 32/48/64/96/128/256/
    # 512/1024 points; this rule is within 4 % of it at every count.
    width = max(5, len(pairs).bit_length() - 3)
    full = 1 << width
    half = full >> 1
    mask = full - 1
    # One window beyond the longest scalar takes the final carry.
    windows = max(k.bit_length() for k, _ in pairs) // width + 1
    # Bucket b (magnitude b + 1) of window j is buckets[j·half + b].
    buckets: list[list[AffinePoint]] = [[] for _ in range(windows * half)]
    for k, point in pairs:
        negated = (point[0], P - point[1])
        below = -1  # window j's magnitude m is buckets[below + m]
        while k:
            digit = k & mask
            k >>= width
            if digit > half:  # signed digit: borrow from the next window
                k += 1
                buckets[below + full - digit].append(negated)
            elif digit:
                buckets[below + digit].append(point)
            below += half
    filling = [held for held in buckets if len(held) > 1]
    while filling:
        lefts, rights = [], []
        for held in filling:
            lefts += held[0:len(held) - 1:2]
            rights += held[1::2]
        sums = batch_add(lefts, rights)
        start = 0
        for held in filling:
            paired = len(held) // 2
            held[:] = sums[start:start + paired] + held[2 * paired:]
            start += paired
        filling = [held for held in filling if len(held) > 1]
    values = [held[0] if held else None for held in buckets]
    # Running sums Rᵦ = Σ_{b' ≥ b} bucket[b'] and totals Σᵦ Rᵦ, every window
    # in one round per b: the total takes Rᵦ₊₁ while R moves on to Rᵦ.
    running: list[AffinePoint] = [None] * windows
    totals: list[AffinePoint] = [None] * windows
    for b in range(half - 1, -1, -1):
        both = batch_add(running + totals, values[b::half] + running)
        running, totals = both[:windows], both[windows:]
    return [(width * window, point)
            for window, point in enumerate(batch_add(totals, running))
            if point is not None]


def multi_scalar_mult(base_scalar: int,
                      pairs: list[tuple[int, AffinePoint]],
                      one_shot_pairs: Sequence[tuple[int, AffinePoint]] = (),
                      ) -> AffinePoint:
    """``base_scalar · G + Σ kᵢ · Qᵢ`` with one shared doubling chain.

    Strauss interleaving generalized to arbitrarily many points: every
    scalar is GLV-split into half-length halves and wNAF-recoded, all
    streams share a single ~128-step doubling chain, and all per-point
    precomputation tables are built together in affine lock step.  This
    is the one variable-base engine:
    amortized batch signature verification (the per-signature cost collapses
    to the mixed additions of its streams), single verification
    (:func:`double_scalar_mult_base`, one pair) and ECDH
    (:func:`scalar_mult`, one pair and no base scalar).

    ``one_shot_pairs`` are further ``(kᵢ, Qᵢ)`` terms of the same sum whose
    points will not recur (signature nonce points): their tables stay out
    of the per-point LRU that ``pairs`` (public keys) share across calls,
    and ``_BUCKET_MIN_POINTS`` or more of them skip tables altogether — they
    go through :func:`_bucket_events` and join the doubling chain as
    one addend per window.
    """
    base_scalar %= N
    live = [(k % N, q) for k, q in pairs if q is not None and k % N != 0]
    kept = len(live)
    one_shot = [(k % N, q) for k, q in one_shot_pairs
                if q is not None and k % N != 0]
    if not live and not one_shot:
        return scalar_mult_base(base_scalar)
    _SCALAR_MULTS.labels(kind="multi").inc()
    bucket_events: list[tuple[int, tuple[int, int]]] = []
    if len(one_shot) >= _BUCKET_MIN_POINTS:
        bucket_events = _bucket_events(one_shot)
    else:
        live += one_shot
    tables = _point_tables_batched([q for _, q in live], kept)
    sources: list[tuple[int, int, list[AffinePoint]]] = []
    if base_scalar:
        g1, g2 = _glv_split(base_scalar)
        sources.append((g1, _WNAF_BASE_WIDTH, _g_wnaf_table()))
        sources.append((g2, _WNAF_BASE_WIDTH, _phi_g_wnaf_table()))
    for (scalar, _), table in zip(live, tables):
        if scalar.bit_length() <= _GLV_SHORT_BITS:
            sources.append((scalar, _WNAF_POINT_WIDTH, table))
            continue
        k1, k2 = _glv_split(scalar)
        sources.append((k1, _WNAF_POINT_WIDTH, table))
        if k2:
            sources.append((
                k2, _WNAF_POINT_WIDTH,
                [(_GLV_BETA * x % P, y) for x, y in table],
            ))
    streams = [
        _signed_stream(scalar, width, table)
        for scalar, width, table in sources
        if scalar != 0
    ]
    length = max([len(digits) for digits, _ in streams]
                 + [bit + 1 for bit, _ in bucket_events], default=0)
    p = P
    # Resolve every non-zero digit to its affine addend up front, bucketed
    # by bit position.  With dozens of interleaved streams the inner loop
    # would otherwise spend most of its time skipping zero digits (wNAF
    # density is ~1/6); bucketing turns that scan into one list walk per
    # doubling step.
    events: list[list[tuple[int, int]]] = [[] for _ in range(length)]
    for digits, table in streams:
        for index, digit in enumerate(digits):
            if digit > 0:
                events[index].append(table[digit >> 1])
            elif digit < 0:
                x, y = table[(-digit) >> 1]
                events[index].append((x, p - y))
    for bit, point in bucket_events:
        events[bit].append(point)
    # The accumulator lives in three scalar locals (az == 0 means
    # infinity) with doubling and mixed addition open-coded: over ~128-256
    # iterations tuple packing and helper calls are the dominant
    # interpreter cost.  Rare degenerate branches fall back to the helper.
    ax = ay = az = 0
    for index in range(length - 1, -1, -1):
        if az:
            if ay == 0:
                az = 0
            else:
                y_sq = ay * ay % p
                s = 4 * ax * y_sq % p
                m = 3 * ax * ax % p
                x3 = (m * m - 2 * s) % p
                az = 2 * ay * az % p
                ay = (m * (s - x3) - 8 * y_sq * y_sq) % p
                ax = x3
        for qx, qy in events[index]:
            if az == 0:
                ax, ay, az = qx, qy, 1
                continue
            z_sq = az * az % p
            u2 = qx * z_sq % p
            if ax == u2:  # same x: doubling or cancellation (rare)
                result = jacobian_add_affine((ax, ay, az), (qx, qy))
                ax, ay, az = result if result is not None else (0, 0, 0)
                continue
            s2 = qy * z_sq * az % p
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
