"""The batch signature equation in the interpreter's own libcrypto.

``cryptography`` checks one signature at a time and has no multi-scalar
multiplication.  The libcrypto that CPython's ``hashlib`` already maps into
the process exports one, ``EC_POINTs_mul`` (deprecated since OpenSSL 3.0,
still exported), so :func:`sum_is_infinity` reaches it through ``ctypes``
with no new dependency: one ``EC_POINTs_mul`` and one
``EC_POINT_is_at_infinity`` per equation, on the caller's thread.

Every argument and result is declared ``c_void_p``, so no pointer is cut to
a C ``int``, and every ``EC_POINT`` and ``BN_CTX`` a call makes is freed
before it returns, each ``BIGNUM`` with the ``BN_CTX`` that handed it out.
Where the library, one of its symbols or the curve cannot be loaded,
:data:`LIBCRYPTO` is None and :func:`repro.crypto.ecdsa.batch_verify`
checks every signature in ``cryptography`` instead.
"""

from __future__ import annotations

import ctypes
import ctypes.util
from typing import Optional, Sequence

#: secp256k1's group order, and its OpenSSL NID.
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_NID_SECP256K1 = 714

#: Each libcrypto function called here, by its argument count.
_ARITY = {
    "BN_CTX_new": 0, "BN_CTX_free": 1, "BN_CTX_start": 1, "BN_CTX_get": 1,
    "BN_bin2bn": 3, "EC_GROUP_new_by_curve_name": 1, "EC_POINT_new": 1,
    "EC_POINT_free": 1, "EC_POINT_set_affine_coordinates": 5,
    "EC_POINTs_mul": 7, "EC_POINT_is_at_infinity": 2, "ERR_clear_error": 0,
    "OpenSSL_version": 1,
}


class Libcrypto:
    """The functions of one loaded libcrypto, its version string and its
    secp256k1 group (read-only, kept for the process)."""

    def __init__(self, library: ctypes.CDLL) -> None:
        for name, arity in _ARITY.items():
            function = getattr(library, name)  # AttributeError if missing
            function.argtypes = [ctypes.c_void_p] * arity
            function.restype = ctypes.c_void_p
            setattr(self, name, function)
        self.version = ctypes.string_at(self.OpenSSL_version(0)).decode()
        self.group = self.EC_GROUP_new_by_curve_name(_NID_SECP256K1)
        if not self.group:
            raise OSError("libcrypto has no secp256k1")


def load() -> Optional[Libcrypto]:
    """The libcrypto ``ctypes.util.find_library`` names, or None when it
    finds none or the one it finds lacks a function or the curve."""
    name = ctypes.util.find_library("crypto")
    if name is None:
        return None
    try:
        return Libcrypto(ctypes.CDLL(name))
    except (OSError, AttributeError):
        return None


LIBCRYPTO = load()


def _bignum(lib: Libcrypto, context: int, value: int) -> Optional[int]:
    """A ``BIGNUM`` of ``context``'s frame set to ``value`` (< 2²⁵⁶), or
    None when the context can hand out no more."""
    bignum = lib.BN_CTX_get(context)
    return bignum and lib.BN_bin2bn(value.to_bytes(32, "big"), 32, bignum)


def sum_is_infinity(base_scalar: int,
                    terms: Sequence[tuple[int, tuple[int, int]]]) -> bool:
    """True when ``base_scalar·G + Σ kᵢ·Qᵢ`` is the point at infinity.

    Scalars are taken mod n and a term whose scalar is 0 leaves the sum;
    each ``Qᵢ`` is a canonical affine ``(x, y)``.  False also when no
    libcrypto is loaded, when it refuses a point (off the curve) and when
    it fails the sum: the caller then checks each signature.  Every
    ``BIGNUM`` is the context's, freed with it.
    """
    lib = LIBCRYPTO
    if lib is None:
        return False
    group = lib.group
    context, total = lib.BN_CTX_new(), lib.EC_POINT_new(group)
    points: list[int] = []
    holds = False
    try:
        if not (context and total):
            return False
        lib.BN_CTX_start(context)
        x, y = lib.BN_CTX_get(context), lib.BN_CTX_get(context)
        scalars = []
        for k, (qx, qy) in terms:
            k %= N
            if not k:
                continue
            points.append(lib.EC_POINT_new(group))
            scalars.append(_bignum(lib, context, k))
            if not (x and y and points[-1] and scalars[-1]
                    and lib.BN_bin2bn(qx.to_bytes(32, "big"), 32, x)
                    and lib.BN_bin2bn(qy.to_bytes(32, "big"), 32, y)
                    and lib.EC_POINT_set_affine_coordinates(
                        group, points[-1], x, y, context)):
                return False
        base = None
        if base_scalar % N:
            base = _bignum(lib, context, base_scalar % N)
            if not base:
                return False
        count = len(points)
        holds = bool(
            lib.EC_POINTs_mul(group, total, base, count,
                              (ctypes.c_void_p * count)(*points),
                              (ctypes.c_void_p * count)(*scalars), context)
            and lib.EC_POINT_is_at_infinity(group, total))
        return holds
    finally:
        if not holds:  # a refusal leaves its reason on this thread's queue
            lib.ERR_clear_error()
        for point in points:
            lib.EC_POINT_free(point)
        lib.EC_POINT_free(total)
        lib.BN_CTX_free(context)  # and every BIGNUM of its frame
