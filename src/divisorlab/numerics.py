"""Shared machinery: extended-precision constants, an exact longdouble floor,
compensated accumulation, named-choice enums, 17-significant-digit rendering.

All phase/smooth-part arithmetic in this package runs in numpy longdouble
(80-bit extended on x86-64, 64-bit mantissa).  That keeps the cancellation
between a ~1e10 smooth term and an exact integer below 1e-8 absolute, which
double precision alone cannot guarantee at the top of the supported range.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

# Constants parsed from strings so they carry full longdouble precision
# (np.longdouble(float) would round through a 53-bit double first).
EULER_GAMMA = np.longdouble("0.577215664901532860606512090082402431")
PI_LD = np.longdouble("3.14159265358979323846264338327950288")
TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900577")

# elements in each transient array of a blocked numpy loop (summatory chunks,
# moment node blocks, Voronoi point blocks); no result depends on it
BLOCK = 1 << 15


def floor_int(x: np.ndarray) -> np.ndarray:
    """floor(x) of a longdouble array as int64, exact for finite |x| < 2^63
    (ceil(x) is -floor_int(-x)): the cast truncates toward zero and the
    comparison, exact too, moves negative non-integers down by one.  About
    25 times faster than np.floor, which takes 200 ns a longdouble."""
    f = x.astype(np.int64)
    return f - (f > x)


class KahanAccumulator:
    """Compensated scalar accumulator; deterministic for a fixed add order."""

    __slots__ = ("total", "_carry")

    def __init__(self) -> None:
        self.total = np.longdouble(0)
        self._carry = np.longdouble(0)

    def add(self, value) -> None:
        y = np.longdouble(value) - self._carry
        t = self.total + y
        self._carry = (t - self.total) - y
        self.total = t

    def value(self) -> float:
        return float(self.total)


class NamedEnum(Enum):
    """An Enum of named choices, looked up by their string values."""

    @classmethod
    def parse(cls, name: str):
        """The member named ``name``; the ValueError lists the known names."""
        known = sorted(m.value for m in cls)
        if name not in known:
            raise ValueError(f"unknown {cls.__name__} {name!r}; known: {', '.join(known)}")
        return cls(name)


def fmt17(value) -> str:
    """Render a real with 17 significant digits (round-trip exact for doubles)."""
    return format(float(value), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Tiny JSON renderer with floats forced to 17 significant digits.

    Supports the flat report structures this package emits (dict / list /
    str / Enum, as its value / bool / int / float / None).  Deterministic key
    order is the caller's responsibility (plain dicts preserve insertion order).
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, Enum):
        return render_json(obj.value)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{render_json(str(k))}: {render_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{render_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj)!r} as JSON")


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log|y| against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys, dtype=float))
    if len(xs) < 2:
        raise ValueError("need at least two points for a slope")
    lx = np.log(xs)
    ly = np.log(ys)
    lx_c = lx - lx.mean()
    return float(np.dot(lx_c, ly - ly.mean()) / np.dot(lx_c, lx_c))
