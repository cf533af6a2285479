"""Record and confirm the benchmark's committed reference values.

    python3 perfbench/reference.py record    # rewrite perfbench/reference.json
    python3 perfbench/reference.py confirm   # check it by independent routes

``record`` evaluates, with the library at the current commit, every menu
entry the workloads can draw: moment integrals R_k(x) = int_1^x error^k on
the moment-study grids, the cubic and quartic coefficients, every spacing
count and minimal gap, and the stdout (plus file digest) of every CLI
command.  Re-record only when the library's outputs are meant to change.

``confirm`` recomputes those values by routes that share no code with the
library and prints the largest deviation per group:

  * moment integrals: own divisor and lattice sieves, own step sums and
    order-12 Gauss-Legendre in longdouble (the library uses order 8);
  * diagonal series: the quartic series regrouped as
    2(T^2 - sum_q U_q^2) + sum_q sum_s conv_q(s)^2, the cubic one summed
    triple by triple, both in Python floats;
  * spacing counts: sorted sums of roots with binary searches (the library
    inverts the inner square root); exact zeros by integer core grouping;
  * CLI values: hyperbola and lattice counts in Python ints with mpmath
    smooth parts, mpmath Voronoi sums, DVT files parsed with zlib.

It exits 1 if any deviation exceeds the tolerance the checks use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import struct
import sys
import zlib
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads as W  # noqa: E402

GAMMA = np.longdouble("0.57721566490153286060651209008240243104")
PI = np.longdouble("3.14159265358979323846264338327950288420")


# ---------------------------------------------------------------------------
# record

def record() -> dict:
    from divisorlab import constants, moments, spacing
    from divisorlab.error_terms import ErrorTermKind
    ref = {"moments": {}, "constants": {}, "spacing": {"counts": {}, "gaps": {}},
           "cli": {}}
    for kind, (step, top) in W.MOMENT_GRID.items():
        xs = W.STARTS + [float(step * k) for k in range(1, top // step + 1)]
        profile = moments.moment_profile(ErrorTermKind.parse(kind),
                                         W.MOMENT_POWERS[kind], xs, threads=2)
        ref["moments"][kind] = {"x": xs, "values": {str(p): v for p, v in profile.items()}}
    for cutoff in sorted(set(W.SERIES_CUTOFF.values()) | {W.THEORY_CUTOFF}):
        for name in ("cubic_moment_coefficient", "quartic_moment_coefficient"):
            value = getattr(constants, name)(cutoff)
            ref["constants"][f"{name}_{cutoff}"] = {"value": value.value,
                                                    "tail_bound": value.tail_bound}
    for form, box in _all_boxes():
        for j in W.DELTA_EXPONENTS:
            res = spacing.count_box(spacing.BoxSpec(
                form=spacing.SpacingForm.parse(form), delta=2.0 ** -j, **box))
            ref["spacing"]["counts"][W.box_key(form, box, j)] = {
                "count": res.count, "trivial_count": res.trivial_count,
                "exact_zero_count": res.exact_zero_count, "ratio": res.ratio}
    gaps = ref["spacing"]["gaps"]
    for limit in _menu_values(W.GAP_THREE_LIMITS):
        res = spacing.min_gap_three(limit)
        gaps[f"three_{limit}"] = {"gap": res.min_scaled_gap, "argmin": list(res.argmin)}
    for limit in _menu_values(W.GAP_FOUR_LIMITS):
        for sign in (1, -1):
            res = spacing.min_gap_four(limit, sign)
            gaps[f"four_{limit}_{sign:+d}"] = {"gap": res.min_scaled_gap,
                                               "argmin": list(res.argmin)}
    for argv, rc, out, digest in _run_cli_menu():
        if rc != 0:
            raise SystemExit(f"menu command failed ({rc}): {argv}")
        ref["cli"][W.command_key(argv)] = {"stdout": out, "sha256": digest}
    return ref


def _all_boxes():
    seen = []
    for boxes in W.COUNT_BOXES.values():
        for form, box, _ in boxes:
            if (form, box) not in seen:
                seen.append((form, box))
    return seen


def _menu_values(menus: dict) -> list:
    return sorted({v for values in menus.values() for v in values})


def _run_cli_menu():
    """Every CLI menu command, run in one temporary directory with a cache."""
    workdir = ROOT / ".perfbench" / "reference-work"
    shutil.rmtree(workdir, ignore_errors=True)
    W.cli_queries_prepare({}, workdir)
    try:
        for entries in W.cli_menus().values():
            for entry in entries:
                rc, out, _ = W.run_cli(entry["argv"])
                path = W.sieve_output(entry["argv"])
                digest = hashlib.sha256(Path(path).read_bytes()).hexdigest() \
                    if path and rc == 0 else None
                yield entry["argv"], rc, W.TIMESTAMP_LINE.sub("", out), digest
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# independent routes

def divisor_prefix(top: int) -> np.ndarray:
    """D(n) for n = 0..top from a naive every-multiple divisor sieve."""
    d = np.zeros(top + 1, dtype=np.int64)
    for k in range(1, top + 1):
        d[k::k] += 1
    return np.cumsum(d)


def lattice_prefix(top: int) -> np.ndarray:
    """R(n) for n = 0..top by placing every lattice point."""
    c = np.zeros(top + 1, dtype=np.int64)
    for a in range(math.isqrt(top) + 1):
        b = np.arange(math.isqrt(top - a * a) + 1)
        np.add.at(c, a * a + b * b, (2 if a else 1) * np.where(b > 0, 2, 1))
    c[0] = 0
    return np.cumsum(c)


class Integrator:
    """int_1^x error^k for k = 2, 3, 4 by order-12 Gauss-Legendre on every
    segment where the step part is constant."""

    ORDER = 12

    def __init__(self, kind: str, top: float):
        self.kind = kind
        self.den = 4 if kind == "delta-star" else 1
        ticks = math.ceil(top * self.den) + 1
        if kind == "circle":
            self.prefix = lattice_prefix(ticks)
        else:
            self.prefix = divisor_prefix(ticks)
        x, w = np.polynomial.legendre.leggauss(self.ORDER)
        self.nodes = (x.astype(np.longdouble) + 1) / 2
        self.weights = w.astype(np.longdouble) / 2
        first = self.den           # the segment starting at x = 1
        parts = [self._segments(np.arange(lo, min(lo + 65536, ticks - 1)))
                 for lo in range(first, ticks - 1, 65536)]
        per_seg = np.concatenate(parts, axis=1)
        self.cumulative = np.zeros((3, ticks), dtype=np.longdouble)
        self.cumulative[:, first + 1:] = np.cumsum(per_seg, axis=1)

    def _constant(self, t: np.ndarray) -> np.ndarray:
        P = self.prefix
        if self.kind == "delta-star":
            return (-2 * P[t // 4] + 4 * P[t // 2] - P[t]).astype(np.longdouble) / 2
        return P[t].astype(np.longdouble)

    def _error(self, t: np.ndarray, xs: np.ndarray) -> np.ndarray:
        smooth = PI * xs if self.kind == "circle" else xs * (np.log(xs) + 2 * GAMMA - 1)
        return self._constant(t)[:, None] - smooth

    def _segments(self, t: np.ndarray, left=None, width=None) -> np.ndarray:
        if left is None:
            left = t.astype(np.longdouble) / self.den
            width = np.longdouble(1) / self.den
        err = self._error(t, left[:, None] + width * self.nodes[None, :])
        return np.stack([np.sum(err ** k * self.weights, axis=1) * width
                         for k in (2, 3, 4)])

    def at(self, x: float, power: int) -> float:
        t = math.floor(x * self.den)
        value = self.cumulative[power - 2, t]
        left = np.longdouble(t) / self.den
        if x * self.den > t:
            piece = self._segments(np.array([t]), np.array([left]),
                                   np.longdouble(x) - left)
            value += piece[power - 2, 0]
        return float(value)


def cubic_series(cutoff: int, d: list[int]) -> float:
    """Sum over exact triples (a^2 q, b^2 q, (a+b)^2 q), term by term."""
    terms = []
    for q in range(1, cutoff // 4 + 1):
        if oracles.squarefree_split(q)[0] != q:
            continue
        smax = math.isqrt(cutoff // q)
        for s in range(2, smax + 1):
            for a in range(1, s):
                b = s - a
                terms.append(d[a * a * q] * d[b * b * q] * d[s * s * q]
                             * (a * b * s) ** -1.5 * q ** -2.25)
    return math.fsum(terms)


def quartic_series(cutoff: int, d: list[int]) -> float:
    """2(T^2 - sum_q U_q^2) + sum_q sum_s conv_q(s)^2 with w(n) = d(n) n^-3/4:
    distinct-core pairs pair only with their reversal, same-core pairs with
    every pair of equal root sum."""
    w = [0.0] + [d[n] * n ** -0.75 for n in range(1, cutoff + 1)]
    T = math.fsum(v * v for v in w)
    u_by_core: dict[int, list[float]] = {}
    for n in range(1, cutoff + 1):
        u_by_core.setdefault(oracles.squarefree_split(n)[0], []).append(w[n] ** 2)
    total = 2 * (T * T - math.fsum(math.fsum(v) ** 2 for v in u_by_core.values()))
    same = []
    for q in u_by_core:
        amax = math.isqrt(cutoff // q)
        wq = [w[a * a * q] for a in range(1, amax + 1)]
        conv = Counter()
        for i, wa in enumerate(wq):
            for j, wb in enumerate(wq):
                conv[i + j] += wa * wb
        same.append(math.fsum(v * v for v in conv.values()))
    return total + math.fsum(same)


def _roots(lo: int, hi: int) -> np.ndarray:
    return np.sqrt(np.arange(lo + 1, hi + 1, dtype=np.longdouble))


def _pair_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None] + b[None, :]).ravel()


TIE_BAND = np.longdouble(1e-12)


def _within(s1: np.ndarray, s2: np.ndarray, t, strict: bool) -> tuple[int, int]:
    """(#{(i, j) : |s1_i - s2_j| clearly inside t}, #{... within 1e-12 of t}),
    by sorting s2.  Pairs in the second set are exact ties |comb| = t (or
    near enough that rounding decides them); a correct count of the closed
    (strict: open) inequality lies between the first number and the sum."""
    s2 = np.sort(s2)
    def count(width, side_hi, side_lo):
        hi = np.searchsorted(s2, s1 + width, side=side_hi)
        lo = np.searchsorted(s2, s1 - width, side=side_lo)
        return int(np.sum(hi - lo))
    inside = count(t - TIE_BAND, "left", "right")
    return inside, count(t + TIE_BAND, "right", "left") - inside


def _zeros_plus(M, Mp, K, L) -> int:
    """Box tuples with sqrt m + sqrt n + sqrt k = sqrt l exactly."""
    def by_core(lo, hi):
        out: dict[int, list[int]] = {}
        for v in range(lo + 1, hi + 1):
            q, r = oracles.squarefree_split(v)
            out.setdefault(q, []).append(r)
        return out
    A, B, C, E = by_core(M, 2 * M), by_core(Mp, 2 * Mp), by_core(K, 2 * K), by_core(L, 2 * L)
    total = 0
    for q, es in E.items():
        if q in A and q in B and q in C:
            sums = Counter(a + b + c for a in A[q] for b in B[q] for c in C[q])
            total += sum(sums[e] for e in es)
    return total


def sorted_sum_count(form: str, box: dict, delta: float) -> tuple[int, int]:
    """(count clearly inside, threshold ties) for one box, by sorted sums."""
    d = np.longdouble(delta)
    if form == "four-root-minus":
        M, Mp, K, L = box["M"], box["Mp"], box["K"], box["L"]
        return _within(_pair_sums(_roots(M, 2 * M), _roots(Mp, 2 * Mp)),
                       _pair_sums(_roots(K, 2 * K), _roots(L, 2 * L)),
                       d * np.sqrt(np.longdouble(K)), strict=False)
    if form == "four-root-plus":
        M, Mp, K, L = box["M"], box["Mp"], box["K"], box["L"]
        s1 = (_roots(M, 2 * M)[:, None, None] + _roots(Mp, 2 * Mp)[None, :, None]
              + _roots(K, 2 * K)[None, None, :]).ravel()
        inside, ties = _within(s1, _roots(L, 2 * L), d * np.sqrt(np.longdouble(K)),
                               strict=False)
        return inside - _zeros_plus(M, Mp, K, L), ties
    if form == "four-root-kth":
        N = box["M"]
        s = _pair_sums(_roots(N, 2 * N), _roots(N, 2 * N))
        return _within(s, s, d * np.sqrt(np.longdouble(N)), strict=True)
    if form == "three-root":
        M, Mp = box["M"], box["Mp"]
        t = d * np.sqrt(np.longdouble(M))
        top = int((math.sqrt(2 * M) + math.sqrt(2 * Mp) + float(t) + 1) ** 2)
        return _within(_pair_sums(_roots(M, 2 * M), _roots(Mp, 2 * Mp)),
                       _roots(0, top), t, strict=False)
    K, alpha = box["K"], np.longdouble(box["alpha"])
    t = alpha * _roots(K, 2 * K)
    frac = t - np.floor(t)
    dist = np.minimum(frac, 1 - frac)
    inside = int(np.count_nonzero(dist < d - TIE_BAND))
    return inside, int(np.count_nonzero(dist < d + TIE_BAND)) - inside


def exact_error_term(kind: str, x: float) -> float:
    import mpmath
    n = int(x)
    with mpmath.workdps(40):
        if kind == "circle":
            return float(oracles.lattice_summatory(n) - mpmath.pi * x)
        def delta(y):
            y = mpmath.mpf(y)
            return oracles.divisor_summatory(int(mpmath.floor(y))) \
                - y * (mpmath.log(y) + 2 * mpmath.euler - 1)
        if kind == "delta":
            return float(delta(x))
        return float(-delta(x) + 2 * delta(2 * mpmath.mpf(x)) - delta(4 * mpmath.mpf(x)) / 2)


def series_mpmath(kind: str, N: int, x: float) -> float:
    import mpmath
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for n in range(1, N + 1):
            if kind == "circle":
                w, arg = oracles.two_squares_count(n), 2 * mpmath.pi * mpmath.sqrt(n * x) + mpmath.pi / 4
            else:
                w = oracles.divisor_count(n) * ((-1) ** n if kind == "delta-star" else 1)
                arg = 4 * mpmath.pi * mpmath.sqrt(n * x) - mpmath.pi / 4
            if w:
                total += w * mpmath.mpf(n) ** -0.75 * mpmath.cos(arg)
        amp = -1 / mpmath.pi if kind == "circle" else 1 / (mpmath.pi * mpmath.sqrt(2))
        return float(amp * x ** 0.25 * total)


# ---------------------------------------------------------------------------
# confirm

class Report:
    def __init__(self):
        self.bad = 0

    def line(self, group: str, worst: float, tol: float, detail: str = "") -> None:
        ok = worst <= tol
        self.bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {group:34s} worst {worst:.3e} "
              f"(tolerance {tol:.1e}) {detail}", flush=True)


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def confirm(ref: dict) -> int:
    rep = Report()
    integrators = {}
    for kind, entry in ref["moments"].items():
        top = max(entry["x"])
        integrators[kind] = Integrator(kind, top)
        worst = 0.0
        for p, values in entry["values"].items():
            for x, v in zip(entry["x"], values):
                want = integrators[kind].at(x, int(p))
                worst = max(worst, abs(v - want) / abs(want))
        rep.line(f"moments {kind} ({len(entry['x'])} points)", worst, W.MOMENT_RTOL)

    d = [0] + np.diff(divisor_prefix(max(W.SERIES_CUTOFF.values()) + 1)).tolist()
    for key, value in ref["constants"].items():
        cutoff = int(key.rsplit("_", 1)[1])
        if key.startswith("cubic"):
            want = 3 * cubic_series(cutoff, d) / (28 * math.pi ** 3)
        else:
            want = 3 * quartic_series(cutoff, d) / (64 * math.pi ** 4)
        rep.line(f"constants {key}", abs(value["value"] - want) / want, 1e-12)

    mismatched, tied = [], []
    for key, value in ref["spacing"]["counts"].items():
        form, box, j = key.split("|")
        inside, ties = sorted_sum_count(form, json.loads(box), 2.0 ** -int(j))
        if not inside <= value["count"] <= inside + ties:
            mismatched.append(f"{key}: {value['count']} outside [{inside}, {inside + ties}]")
        if ties:
            tied.append(f"{key}: {value['count']} in [{inside}, {inside + ties}]")
    rep.line(f"spacing counts ({len(ref['spacing']['counts'])})", len(mismatched), 0,
             "; ".join(mismatched))
    print("     boxes with exact threshold ties, where rounding decides the count: "
          + ("; ".join(tied) or "none"))
    worst = 0.0
    for key, value in ref["spacing"]["gaps"].items():
        parts = key.split("_")
        exact = oracles.scaled_gap_three(*value["argmin"]) if parts[0] == "three" \
            else oracles.scaled_gap_four(*value["argmin"], int(parts[2]))
        worst = max(worst, abs(value["gap"] - exact) / exact)
    rep.line("spacing gaps vs mpmath at argmin", worst, W.GAP_MPMATH_RTOL)

    confirm_cli(ref["cli"], integrators, d, rep)
    return 1 if rep.bad else 0


def _numbers(text: str) -> list[float]:
    return [float(t) for t in re.findall(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?", text)]


def confirm_cli(cli_ref: dict, integrators: dict, d: list[int], rep: Report) -> None:
    worst: dict[str, float] = {}

    def note(group, value):
        worst[group] = max(worst.get(group, 0.0), value)

    for key, entry in cli_ref.items():
        argv, out = key.split(" "), entry["stdout"]
        cmd = next(a for a in argv if a in ("eval", "voronoi", "moment", "fit",
                                             "short-interval", "spacing", "constants",
                                             "sieve"))
        kind = _flag(argv, "--kind")
        if cmd == "eval":
            x = float(_flag(argv, "--x"))
            # the smooth part is rounded in 64-bit-mantissa arithmetic
            allowance = max(1e-6, 4 * 2.0 ** -64 * x * math.log(x))
            note(f"cli eval {kind}", abs(float(out) - exact_error_term(kind, x)) / allowance)
        elif cmd == "voronoi" and "--x" in argv:
            N, x = int(_flag(argv, "--truncation")), float(_flag(argv, "--x"))
            scale = oracles.series_scale(N, [x]) * (4 if kind == "circle" else 1)
            note("cli voronoi --x", abs(float(out) - series_mpmath(kind, N, x)) / scale / 1e-9)
        elif cmd == "voronoi":
            N, X = int(_flag(argv, "--truncation")), float(_flag(argv, "--scale"))
            seed = int(_flag(argv, "--seed"))
            xs = np.random.default_rng(seed).uniform(X, 2 * X, size=100)
            gaps = np.array([exact_error_term(kind, float(x)) for x in xs]) \
                - oracles.series_float64(kind, N, xs)
            rms, sup = math.sqrt(float(np.mean(gaps * gaps))), float(np.max(np.abs(gaps)))
            got = json.loads(out) if out.startswith("{") else \
                dict(zip(out.splitlines()[0].split(","), out.splitlines()[1].split(",")))
            note("cli voronoi --scale (rms, sup)",
                 max(abs(float(got["rms"]) - rms) / rms,
                     abs(float(got["sup"]) - sup) / sup) / 1e-6)
        elif cmd in ("moment", "short-interval", "fit"):
            integ = integrators[kind]
            power = int(_flag(argv, "--power"))
            if cmd == "moment":
                a, b = float(_flag(argv, "--from", "1")), float(_flag(argv, "--to"))
                want = [integ.at(b, power) - integ.at(a, power)]
                got = [json.loads(out)["integral"]] if out.startswith("{") \
                    else [_numbers(out.splitlines()[1])[2]]
            elif cmd == "short-interval":
                a = float(_flag(argv, "--x"))
                b = a + float(_flag(argv, "--h"))
                want = [integ.at(b, power) - integ.at(a, power)]
                got = [json.loads(out)["moment"]]
            else:
                grid = [float(g) for g in _flag(argv, "--grid").split(",")]
                want = [integ.at(x, power) for x in grid]
                if out.startswith("{"):
                    doc = json.loads(out)
                    got = [r + doc["theory_coefficient"] * x ** doc["main_exponent"]
                           for x, r in doc["residual_series"]]
                else:
                    got = [_numbers(line)[2] for line in out.splitlines()[1:]]
            note(f"cli {cmd}", max(abs(g - w) / abs(w) for g, w in zip(got, want))
                 / W.MOMENT_RTOL)
        elif cmd == "spacing":
            form = _flag(argv, "--form")
            box = {k: int(_flag(argv, f"--{k}")) for k in ("M", "Mp", "K", "L")
                   if f"--{k}" in argv}
            if "--alpha" in argv:
                box["alpha"] = float(_flag(argv, "--alpha"))
            count = json.loads(out)["count"] if out.startswith("{") \
                else int(out.splitlines()[1].split(",")[6])
            inside, ties = sorted_sum_count(form, box, float(_flag(argv, "--delta")))
            note("cli spacing (counts outside the tie range)",
                 float(not inside <= count <= inside + ties))
        elif cmd == "constants":
            name, cutoff = _flag(argv, "--name"), int(_flag(argv, "--cutoff"))
            series = cubic_series(cutoff, d) if name.startswith("cubic") \
                else quartic_series(cutoff, d)
            if name == "cubic_coefficient":
                series *= 3 / (28 * math.pi ** 3)
            elif name == "quartic_coefficient":
                series *= 3 / (64 * math.pi ** 4)
            value = float(re.search(r'"value": (\S+),', out).group(1))
            note("cli constants", abs(value - series) / series / 1e-12)
        else:
            note("cli sieve (file mismatches)", float(not _sieve_file_ok(argv, entry)))
    for group, value in sorted(worst.items()):
        rep.line(group + " / tolerance", value, 1.0)


def _sieve_file_ok(argv: list[str], entry: dict) -> bool:
    """Re-create the DVT file from its documented layout and an own sieve."""
    kind, limit = _flag(argv, "--kind"), int(_flag(argv, "--limit"))
    if kind == "divisor":
        values = np.diff(divisor_prefix(limit))
    else:
        values = np.diff(lattice_prefix(limit))
    payload = values.astype("<u2").tobytes()
    blob = b"DVT1" + struct.pack("<IBQ", 1, 0 if kind == "divisor" else 1, limit) \
        + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return hashlib.sha256(blob).hexdigest() == entry["sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("record", "confirm"))
    args = parser.parse_args(argv)
    if args.action == "record":
        W.REFERENCE_FILE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
        return 0
    return confirm(W.load_reference())


if __name__ == "__main__":
    sys.exit(main())
