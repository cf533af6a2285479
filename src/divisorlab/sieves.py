"""Exact arithmetic kernels: divisor-count and two-squares sieves, their
summatory functions, a binary table cache, and the power-free core table
n = root^r * core with the squarefree core families read off it.

Every result of this module is exact.  The arithmetic is integer, except
that summatory_d takes its quotients floor(n/k) as truncated float64
divisions when n + isqrt(n) < 2^53, where each one is provably exact (see
summatory_d).  Summatory values are returned as Python ints.  Both tables
come from one divisor-sum sieve of a character, sum_{d | n} chi(d), run in
an int16 work array that becomes the uint16 table in place: every partial
sum is bounded by d(n) < 6720 up to a table limit of 1e12, and the one range
check is |sum| < 2^13, so r(n) = 4 * sum still fits.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import numerics
from .errors import CapacityError, RangeError, TableFormatError, TableKindMismatch

# The one memory ceiling, checked before every allocation sized by a
# caller's input; 2 GiB keeps a workstation responsive.
MEMORY_CEILING_BYTES = 2 << 30
# peak bytes per entry, tracemalloc in a fresh process at limits 1e6 and 4e6
_TABLE_BYTES_PER_ENTRY = 2    # the uint16 values, sieved or loaded
_CORE_BYTES_PER_ENTRY = 24    # core_tables: root, the index range, root^r

# Beyond this the 16-bit storage assumption (d(n) < 6720 for n <= 1e12)
# no longer holds, and D(x) approaches the practical int64 comfort zone.
MAX_TABLE_LIMIT = 10**12
MAX_SUMMATORY_X = 10**17

_MAGIC = b"DVT1"
_FORMAT_VERSION = 1
# the table file header: magic, version, kind byte, limit
_HEADER = struct.Struct("<4sIBQ")


class TableKind(Enum):
    DIVISOR = 0
    SUM_OF_TWO_SQUARES = 1


@dataclass(frozen=True, eq=False)
class DivisorTable:
    """Sieved values d(n) or r(n) for 1 <= n <= limit.

    ``values`` has length limit+1 with values[0] = 0 so that values[n] is
    the count for n.  The array is immutable by convention; treat it as
    read-only after construction.  A table equals only itself and hashes by
    identity: comparing the arrays would not give one truth value.
    """

    kind: TableKind
    values: np.ndarray

    def __post_init__(self):
        if self.values.dtype != np.uint16:
            raise TypeError("table values must be uint16")

    @property
    def limit(self) -> int:
        return len(self.values) - 1


def check_memory(nbytes: int, what: str) -> None:
    """Raise CapacityError if ``what`` needs more than MEMORY_CEILING_BYTES;
    the message names the need to three digits, whatever its size."""
    if nbytes > MEMORY_CEILING_BYTES:
        raise CapacityError(f"{what} needs about {numerics.short(nbytes)} bytes, over the "
                            f"{MEMORY_CEILING_BYTES}-byte memory ceiling")


def _check_capacity(limit: int) -> None:
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > MAX_TABLE_LIMIT:
        raise CapacityError(f"limit {limit} exceeds the 16-bit-safe bound {MAX_TABLE_LIMIT}")
    check_memory(_TABLE_BYTES_PER_ENTRY * (limit + 1), f"table of limit {limit}")


def _divisor_sum(limit: int, chi: tuple[int, ...]) -> np.ndarray:
    """sum_{d | n} chi(d) for 0 <= n <= limit as int16, chi(d) = chi[d % p]
    with p = len(chi).

    Pair the divisors (k, m) of n = k*m with k <= sqrt(limit): k^2 gets
    chi(k), and each pair m > k gets chi(k) + chi(m).  chi(m) is periodic in
    m, so the pairs with m = m0 (mod p), m0 = k+1..k+p, are one strided add
    from k*m0 with step p*k, skipped when the sum is 0; one that starts past
    the limit is an empty slice.  The adds touch about sum_{k<=sqrt(L)} L/k
    ~ L*log(sqrt(L)) cells in all.
    """
    _check_capacity(limit)
    p = len(chi)
    work = np.zeros(limit + 1, dtype=np.int16)
    for k in range(1, math.isqrt(limit) + 1):
        ck = chi[k % p]
        work[k * k] += ck
        for m0 in range(k + 1, k + p + 1):
            add = ck + chi[m0 % p]
            if add:
                work[k * m0::p * k] += add
    if int(work.min()) <= -(1 << 13) or int(work.max()) >= 1 << 13:
        raise CapacityError(f"divisor sum left the 16-bit range at limit {limit}")
    return work


def sieve_divisors(limit: int) -> DivisorTable:
    """d(n) = sum_{d | n} 1 for n <= limit."""
    return DivisorTable(TableKind.DIVISOR, _divisor_sum(limit, (1,)).view(np.uint16))


def sieve_r(limit: int) -> DivisorTable:
    """r(n), the number of (a, b) in Z^2 with a^2 + b^2 = n, for n <= limit:
    4 * sum_{d | n} chi(d) with chi the non-principal character mod 4."""
    work = _divisor_sum(limit, (0, 1, 0, -1))
    work *= 4
    return DivisorTable(TableKind.SUM_OF_TWO_SQUARES, work.view(np.uint16))


def sieve(kind: TableKind, limit: int,
          table: DivisorTable | None = None) -> DivisorTable:
    """``table`` if it holds ``kind`` up to ``limit``, else a new sieve of
    that kind up to ``limit``."""
    if table is not None and table.kind is kind and table.limit >= limit:
        return table
    return sieve_divisors(limit) if kind is TableKind.DIVISOR else sieve_r(limit)


def core_tables(limit: int, r: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """(core, root) int64 arrays with n = root[n]^r * core[n] and core[n]
    r-power-free, for 0 <= n <= limit (core[0] = 0).

    Ascending strided writes root[f^r::f^r] = f leave root[n] equal to the
    largest f with f^r | n.
    """
    if r < 2:
        raise ValueError("power must be >= 2")
    check_memory(_CORE_BYTES_PER_ENTRY * (limit + 1), f"core table up to {limit}")
    root = np.ones(limit + 1, dtype=np.int64)
    if r >= int(limit).bit_length():   # 2^r > limit: every n is its own core
        return np.arange(limit + 1, dtype=np.int64), root
    f = 2
    while f**r <= limit:
        root[f**r::f**r] = f
        f += 1
    core = np.arange(limit + 1, dtype=np.int64) // root**r
    return core, root


def _isqrt(v: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """floor(sqrt(v)) of an int64 array 0 <= v < 2^62 (the check squares
    root + 1): the float sqrt moved by at most one by exact integer checks.
    work, an int64 array of shape (2,) + v.shape, takes the root (work[0],
    returned) and the one temporary, so a caller in a loop allocates
    nothing."""
    b, t = np.empty((2,) + v.shape, dtype=np.int64) if work is None else work
    np.sqrt(v, out=b, casting="unsafe")
    np.multiply(b, b, out=t)
    b -= np.greater(t, v, out=t)
    np.add(b, 1, out=t)
    np.multiply(t, t, out=t)
    b += np.less_equal(t, v, out=t)
    return b


def core_families(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The squarefree q <= limit // 4 and amax = isqrt(limit // q) >= 2.

    These index the square-root identities with entries <= limit: each
    family is {a^2 q : 1 <= a <= amax}, and sqrt(a^2 q) + sqrt(b^2 q) =
    sqrt(s^2 q) needs s >= 2.  Squarefree q > limit // 4 carry only the
    single entry q.  The core table is dropped before the roots are taken.
    """
    q = np.flatnonzero(core_tables(limit // 4)[1][1:] == 1) + 1
    return q, _isqrt(limit // q)


def _floor_arg(x) -> int:
    if not 0 <= x < math.inf:
        raise ValueError(f"summatory argument must be finite and >= 0, got {x}")
    n = int(math.floor(x))
    if n > MAX_SUMMATORY_X:
        raise RangeError(f"x={x} beyond the 64-bit-safe summatory range")
    return n


def _chunked_sum(term, stop: int, dtype=np.int64) -> int:
    """sum of the int64 term(ks) over ks = range(1, stop) as fresh dtype
    arrays (float64 only for stop <= 2^53), in chunks of numerics.BLOCK, so
    peak memory stays at a few blocks for any stop."""
    total = 0
    for lo in range(1, stop, numerics.BLOCK):
        ks = np.arange(lo, min(stop, lo + numerics.BLOCK), dtype=dtype)
        total += int(np.sum(term(ks), dtype=np.int64))
    return total


def summatory_d(x) -> int:
    """D(x) = sum_{n <= x} d(n), by the Dirichlet hyperbola method.

    D(x) = 2*sum_{k<=sqrt(x)} floor(x/k) - floor(sqrt(x))^2, exact in
    O(sqrt(x)) operations.  When n + isqrt(n) < 2^53 for n = floor(x), the
    quotient q = n // k is the float64 n/k truncated, 1.5-2x faster than
    int64 floor division: n/k <= q + 1 - 1/k, and the rounding adds at most
    (q+1)*2^-53 < 1/k since (q+1)*k <= n + k < 2^53, so n/k rounds below
    q + 1.  Above that, where float(n) itself may round, the division is
    int64.
    """
    n = _floor_arg(x)
    root = math.isqrt(n)
    if n + root < 1 << 53:
        nf = float(n)
        total = _chunked_sum(lambda k: np.divide(nf, k, out=k).astype(np.int64),
                             root + 1, np.float64)
    else:
        total = _chunked_sum(lambda k: n // k, root + 1)
    return 2 * total - root * root


def summatory_r(x) -> int:
    """R(x) = sum_{n <= x} r(n) = 4*isqrt(x) + 4*sum_{1 <= a <= sqrt(x)}
    isqrt(x - a^2), the lattice points off the origin: axes, then quadrants."""
    n = _floor_arg(x)
    root = math.isqrt(n)
    # One set of block buffers for the call.  Fresh temporaries in every
    # block let the allocator give the heap top back and fault it in again:
    # 586,000 minor faults and as much system time as user time at x = 1e16.
    buf = np.empty((3, numerics.BLOCK), dtype=np.int64)

    def term(a):
        v = np.multiply(a, a, out=buf[0, :a.size])
        return _isqrt(np.subtract(n, v, out=v), buf[1:, :a.size])

    return 4 * (root + _chunked_sum(term, root + 1))


def save_table(table: DivisorTable, path) -> None:
    """Write a table cache: magic, version, kind byte, limit, values, CRC-32.

    A temporary file beside ``path`` is renamed over it when complete, so a
    write that dies part-way leaves no truncated file under that name.
    """
    payload = table.values[1:].astype("<u2").tobytes()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, table.kind.value, table.limit))
            fh.write(payload)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            # name the file the caller asked for, not the temporary beside it
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def load_table(path, expected_kind: TableKind | None = None) -> DivisorTable:
    """Read a table cache, verifying magic, version, length, and checksum;
    the payload is read once, straight into the table's values[1:]."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TableFormatError(f"{path}: file too short for a table header")
        magic, version, kind_byte, limit = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TableFormatError(f"{path}: bad magic {magic!r}")
        if version != _FORMAT_VERSION:
            raise TableFormatError(f"{path}: unsupported format version {version}")
        try:
            kind = TableKind(kind_byte)
        except ValueError:
            raise TableFormatError(f"{path}: unknown kind byte {kind_byte}") from None
        expected_len = _HEADER.size + 2 * limit + 4
        size = os.fstat(fh.fileno()).st_size
        if size != expected_len:
            raise TableFormatError(
                f"{path}: expected {expected_len} bytes for limit {limit}, got {size}")
        check_memory(_TABLE_BYTES_PER_ENTRY * (limit + 1), f"table of limit {limit}")
        values = np.zeros(limit + 1, dtype="<u2")
        payload = values[1:].view(np.uint8)
        fh.readinto(payload)
        (crc_stored,) = struct.unpack("<I", fh.read(4))
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise TableFormatError(f"{path}: checksum mismatch")
    if expected_kind is not None and kind != expected_kind:
        raise TableKindMismatch(
            f"{path}: table kind is {kind.name}, caller requested {expected_kind.name}")
    return DivisorTable(kind, values.astype(np.uint16, copy=False))
