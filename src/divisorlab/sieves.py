"""Exact arithmetic kernels: divisor-count and two-squares sieves, their
summatory functions, alternating divisor sums, and a binary table cache.

Everything in this module is exact integer arithmetic.  Summatory values are
returned as Python ints; sieved tables hold unsigned 16-bit counts, which is
safe up to a table limit of 1e12 (max d(n) there is 6720).
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

# 2 bytes per entry; 2 GiB default ceiling keeps a workstation responsive.
DEFAULT_MEMORY_CEILING_BYTES = 2 << 30

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


def _check_capacity(limit: int, memory_ceiling_bytes: int) -> None:
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > MAX_TABLE_LIMIT:
        raise CapacityError(f"limit {limit} exceeds the 16-bit-safe bound {MAX_TABLE_LIMIT}")
    if 2 * (limit + 1) > memory_ceiling_bytes:
        raise CapacityError(
            f"table of limit {limit} needs {2 * (limit + 1)} bytes, "
            f"ceiling is {memory_ceiling_bytes}")


def sieve_divisors(limit: int,
                   memory_ceiling_bytes: int = DEFAULT_MEMORY_CEILING_BYTES) -> DivisorTable:
    """Sieve d(n) for n <= limit by counting divisor pairs below sqrt(n).

    For every k <= sqrt(limit): n = k^2 gets one divisor (k itself), and
    every n = k*m with m > k gets two (k and n/k).  This touches
    sum_{k<=sqrt(L)} L/k ~ L*log(sqrt(L)) array cells, all via strided
    numpy adds, so it is fast and allocation-light.
    """
    _check_capacity(limit, memory_ceiling_bytes)
    values = np.zeros(limit + 1, dtype=np.uint16)
    root = math.isqrt(limit)
    for k in range(1, root + 1):
        values[k * k] += 1
        start = k * (k + 1)
        if start <= limit:
            values[start::k] += 2
    if int(values.max()) >= 65535:
        raise CapacityError(f"divisor count overflowed 16 bits at limit {limit}")
    return DivisorTable(limit=limit, kind=TableKind.DIVISOR, values=values)


def sieve_r(limit: int,
            memory_ceiling_bytes: int = DEFAULT_MEMORY_CEILING_BYTES) -> DivisorTable:
    """Sieve r(n), the number of (a, b) in Z^2 with a^2 + b^2 = n.

    Uses r(n) = 4 * sum_{d | n} chi(d) with chi the non-principal character
    mod 4.  Pair divisors (k, m), k <= m, and add chi(k) + chi(m) per pair;
    chi(m) along the slice n = k*m is periodic in m with period 4, so each
    k costs a handful of strided adds.
    """
    _check_capacity(limit, memory_ceiling_bytes)
    work = np.zeros(limit + 1, dtype=np.int32)
    root = math.isqrt(limit)
    chi = (0, 1, 0, -1)  # chi(d) for d mod 4
    for k in range(1, root + 1):
        ck = chi[k % 4]
        if ck:
            work[k * k] += ck
        # pairs (k, m) with m > k: add chi(k) over the whole slice ...
        start = k * (k + 1)
        if start > limit:
            continue
        if ck:
            work[start::k] += ck
        # ... and chi(m) split by m mod 4 (step 4k in n)
        for m0 in (k + 1, k + 2, k + 3, k + 4):
            cm = chi[m0 % 4]
            if cm and k * m0 <= limit:
                work[k * m0::4 * k] += cm
    work *= 4
    if int(work.min()) < 0 or int(work.max()) >= 65535:
        raise CapacityError(f"r(n) left the 16-bit range at limit {limit}")
    return DivisorTable(limit=limit, kind=TableKind.SUM_OF_TWO_SQUARES,
                        values=work.astype(np.uint16))


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


def _sum_floor_quotients(n: int, start: int, stop: int, step: int,
                         transform=None) -> int:
    """sum over k in range(start, stop, step) of floor(n/k), chunked;
    ``transform`` post-processes each quotient block before summing."""
    total = 0
    for lo in range(start, stop, step * _CHUNK):
        hi = min(stop, lo + step * _CHUNK)
        ks = np.arange(lo, hi, step, dtype=np.int64)
        block = n // ks
        if transform is not None:
            block = transform(block)
        total += int(np.sum(block, dtype=np.int64))
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
    """R(x) = sum_{n <= x} r(n) via the mod-4 character identity.

    R(x) = 4 * sum_{j >= 0} (floor(x/(4j+1)) - floor(x/(4j+3))), cut off
    exactly when 4j+1 > x.  O(x) elementary terms, all exact.
    """
    n = _floor_arg(x)
    if n == 0:
        return 0
    total = _sum_floor_quotients(n, 1, n + 1, 4) \
        - _sum_floor_quotients(n, 3, n + 1, 4)
    return 4 * total


def _count_odd_pairs(y: int) -> int:
    """#{(a, b) : a, b odd, ab <= y}, by the hyperbola method."""
    if y <= 0:
        return 0
    root = math.isqrt(y)
    # number of odd b <= y/a is (floor(y/a) + 1) // 2
    inner = _sum_floor_quotients(y, 1, root + 1, 2,
                                 transform=lambda q: (q + 1) // 2)
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
    """Read a table cache, verifying magic, version, length, and checksum."""
    raw = Path(path).read_bytes()
    header_len = 4 + 4 + 1 + 8
    if len(raw) < header_len + 4:
        raise TableFormatError(f"{path}: file too short for a table header")
    if raw[:4] != _MAGIC:
        raise TableFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, kind_byte, limit = struct.unpack("<IBQ", raw[4:header_len])
    if version != _FORMAT_VERSION:
        raise TableFormatError(f"{path}: unsupported format version {version}")
    try:
        kind = TableKind(kind_byte)
    except ValueError:
        raise TableFormatError(f"{path}: unknown kind byte {kind_byte}") from None
    expected_len = header_len + 2 * limit + 4
    if len(raw) != expected_len:
        raise TableFormatError(
            f"{path}: expected {expected_len} bytes for limit {limit}, got {len(raw)}")
    payload = raw[header_len:header_len + 2 * limit]
    (crc_stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise TableFormatError(f"{path}: checksum mismatch")
    if expected_kind is not None and kind != expected_kind:
        raise TableKindMismatch(
            f"{path}: table kind is {kind.name}, caller requested {expected_kind.name}")
    values = np.zeros(limit + 1, dtype=np.uint16)
    values[1:] = np.frombuffer(payload, dtype="<u2")
    return DivisorTable(limit=int(limit), kind=kind, values=values)
