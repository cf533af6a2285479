"""Exact arithmetic kernels: divisor-count and two-squares sieves, their
summatory functions, alternating divisor sums, and a binary table cache.

Everything in this module is exact integer arithmetic.  Summatory values are
returned as Python ints.  Both tables come from one divisor-sum sieve of a
character, sum_{d | n} chi(d), run in an int16 work array that becomes the
uint16 table in place: every partial sum is bounded by d(n) < 6720 up to a
table limit of 1e12, and the one range check is |sum| < 2^13, so r(n) =
4 * sum still fits.
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


class TableKind(Enum):
    DIVISOR = 0
    SUM_OF_TWO_SQUARES = 1


@dataclass(frozen=True)
class DivisorTable:
    """Sieved values d(n) or r(n) for 1 <= n <= limit.

    ``values`` has length limit+1 with values[0] = 0 so that values[n] is
    the count for n.  The array is immutable by convention; treat it as
    read-only after construction.
    """

    limit: int
    kind: TableKind
    values: np.ndarray

    def __post_init__(self):
        if self.values.dtype != np.uint16:
            raise TypeError("table values must be uint16")
        if len(self.values) != self.limit + 1:
            raise ValueError("values length must be limit+1")

    def value(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise RangeError(f"n={n} outside table range [1, {self.limit}]")
        return int(self.values[n])


def check_memory(nbytes: int, what: str) -> None:
    """Raise CapacityError if ``what`` needs more than MEMORY_CEILING_BYTES."""
    if nbytes > MEMORY_CEILING_BYTES:
        raise CapacityError(f"{what} needs about {nbytes} bytes, over the "
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
    return DivisorTable(limit=limit, kind=TableKind.DIVISOR,
                        values=_divisor_sum(limit, (1,)).view(np.uint16))


def sieve_r(limit: int) -> DivisorTable:
    """r(n), the number of (a, b) in Z^2 with a^2 + b^2 = n, for n <= limit:
    4 * sum_{d | n} chi(d) with chi the non-principal character mod 4."""
    work = _divisor_sum(limit, (0, 1, 0, -1))
    work *= 4
    return DivisorTable(limit=limit, kind=TableKind.SUM_OF_TWO_SQUARES,
                        values=work.view(np.uint16))


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
    f = 2
    while f**r <= limit:
        root[f**r::f**r] = f
        f += 1
    core = np.arange(limit + 1, dtype=np.int64) // root**r
    return core, root


def core_families(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The squarefree q <= limit // 4 and amax = isqrt(limit // q) >= 2.

    These index the square-root identities with entries <= limit: each
    family is {a^2 q : 1 <= a <= amax}, and sqrt(a^2 q) + sqrt(b^2 q) =
    sqrt(s^2 q) needs s >= 2.  Squarefree q > limit // 4 carry only the
    single entry q.
    """
    _, root = core_tables(limit // 4)
    q = np.flatnonzero(root[1:] == 1) + 1
    amax = np.array([math.isqrt(limit // int(v)) for v in q], dtype=np.int64)
    return q, amax


def _floor_arg(x) -> int:
    if x < 0:
        raise ValueError(f"summatory argument must be >= 0, got {x}")
    n = int(math.floor(x))
    if n > MAX_SUMMATORY_X:
        raise RangeError(f"x={x} beyond the 64-bit-safe summatory range")
    return n


# cap on transient array size in the summatory loops; keeps peak memory flat
# even at the top of the supported range
_CHUNK = 1 << 22


def _sum_floor_quotients(n: int, start: int, stop: int, step: int) -> int:
    """sum over k in range(start, stop, step) of floor(n/k), chunked."""
    total = 0
    for lo in range(start, stop, step * _CHUNK):
        hi = min(stop, lo + step * _CHUNK)
        ks = np.arange(lo, hi, step, dtype=np.int64)
        total += int(np.sum(n // ks, dtype=np.int64))
    return total


def summatory_d(x) -> int:
    """D(x) = sum_{n <= x} d(n), by the Dirichlet hyperbola method.

    D(x) = 2*sum_{n<=sqrt(x)} floor(x/n) - floor(sqrt(x))^2, exact in
    O(sqrt(x)) integer operations.
    """
    n = _floor_arg(x)
    if n == 0:
        return 0
    root = math.isqrt(n)
    return 2 * _sum_floor_quotients(n, 1, root + 1, 1) - root * root


def summatory_r(x) -> int:
    """R(x) = sum_{n <= x} r(n) = 4*isqrt(x) + 4*sum_{1 <= a <= sqrt(x)}
    isqrt(x - a^2), the lattice points off the origin: axes, then quadrants.
    Each isqrt is a float sqrt moved by at most one by exact integer checks."""
    n = _floor_arg(x)
    root = math.isqrt(n)
    total = root
    for lo in range(1, root + 1, _CHUNK):
        v = n - np.arange(lo, min(root + 1, lo + _CHUNK), dtype=np.int64) ** 2
        b = np.sqrt(v.astype(float)).astype(np.int64)
        b -= (b * b > v)
        b += ((b + 1) * (b + 1) <= v)
        total += int(np.sum(b, dtype=np.int64))
    return 4 * total


def _count_odd_pairs(y: int) -> int:
    """#{(a, b) : a, b odd, ab <= y}, by the hyperbola method."""
    if y <= 0:
        return 0
    root = math.isqrt(y)
    # number of odd b <= y/a is (floor(y/a) + 1) // 2 = y//a - (y//2)//a
    inner = _sum_floor_quotients(y, 1, root + 1, 2) \
        - _sum_floor_quotients(y // 2, 1, root + 1, 2)
    odd_to_root = (root + 1) // 2
    return 2 * inner - odd_to_root * odd_to_root


def alternating_summatory_d(x) -> int:
    """sum_{n <= 4x} (-1)^n d(n), exact, in O(sqrt(x)) operations.

    Splitting at parity: the sum equals D(y) - 2*T(y) with y = floor(4x)
    and T(y) the number of divisor pairs (a, b), ab <= y, both odd
    (every even-n divisor pair has a or b even, so d-even mass is
    D(y) - T(y)).
    """
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    y = _floor_arg(4 * x)
    if y == 0:
        return 0
    return summatory_d(y) - 2 * _count_odd_pairs(y)


def save_table(table: DivisorTable, path) -> None:
    """Write a table cache: magic, version, kind byte, limit, values, CRC-32.

    A temporary file beside ``path`` is renamed over it when complete, so a
    write that dies part-way leaves no truncated file under that name.
    """
    payload = table.values[1:].astype("<u2").tobytes()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    header = _MAGIC + struct.pack("<IBQ", _FORMAT_VERSION, table.kind.value, table.limit)
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_table(path, expected_kind: TableKind | None = None) -> DivisorTable:
    """Read a table cache, verifying magic, version, length, and checksum;
    the payload is read once, straight into the table's values[1:]."""
    header_len = 4 + 4 + 1 + 8
    with open(path, "rb") as fh:
        header = fh.read(header_len)
        if len(header) < header_len:
            raise TableFormatError(f"{path}: file too short for a table header")
        if header[:4] != _MAGIC:
            raise TableFormatError(f"{path}: bad magic {header[:4]!r}")
        version, kind_byte, limit = struct.unpack("<IBQ", header[4:])
        if version != _FORMAT_VERSION:
            raise TableFormatError(f"{path}: unsupported format version {version}")
        try:
            kind = TableKind(kind_byte)
        except ValueError:
            raise TableFormatError(f"{path}: unknown kind byte {kind_byte}") from None
        expected_len = header_len + 2 * limit + 4
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
    return DivisorTable(limit=int(limit), kind=kind,
                        values=values.astype(np.uint16, copy=False))
