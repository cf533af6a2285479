"""Command-line surface: table building, error-term evaluation, truncated
series, moments and fits, spacing experiments, and constants reports.

Exit status: 0 on success, 1 on usage errors, 2 on compute/range errors.
All numeric output is rendered with 17 significant digits; reruns with an
identical configuration produce byte-identical artifacts except for the
single timestamp key in the constants report.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from pathlib import Path

from . import constants as constants_mod
from . import moments, spacing, voronoi
from .error_terms import ErrorTermKind, error_term, step_table_need
from .errors import DivisorLabError
from .numerics import fmt17, render_json
from .sieves import TableKind, load_table, save_table, sieve_divisors, sieve_r

CACHE_ENV = "DIVISORLAB_CACHE"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _number(text: str) -> float:
    """Parse a finite numeric flag, accepting scientific notation like 1e6."""
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise _UsageError(f"not a finite number: {text!r}")
    return value


def _integer(text: str) -> int:
    value = _number(text)
    if value != int(value):
        raise _UsageError(f"expected an integer, got {text!r}")
    return int(value)


def _grid(text: str) -> list[float]:
    return [_number(part) for part in text.split(",") if part]


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n",
                              encoding="utf-8")


def _cache_dir(args) -> Path | None:
    raw = args.cache_dir or os.environ.get(CACHE_ENV)
    return Path(raw) if raw else None


_CACHE_PATTERN = re.compile(r"^(divisor|two-squares)-(\d+)\.dvt$")


def _load_or_sieve(kind: TableKind, limit: int, cache: Path | None):
    """Reuse the largest adequate cached table, else sieve (and cache)."""
    tag = "divisor" if kind is TableKind.DIVISOR else "two-squares"
    if cache is not None and cache.is_dir():
        best = None
        for entry in sorted(cache.iterdir()):
            m = _CACHE_PATTERN.match(entry.name)
            if m and m.group(1) == tag and int(m.group(2)) >= limit:
                if best is None or int(m.group(2)) < best[0]:
                    best = (int(m.group(2)), entry)
        if best is not None:
            return load_table(best[1], expected_kind=kind)
    table = sieve_divisors(limit) if kind is TableKind.DIVISOR else sieve_r(limit)
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
        save_table(table, cache / f"{tag}-{limit}.dvt")
    return table


def _table_for(kind: ErrorTermKind, upto: float, cache: Path | None):
    return _load_or_sieve(*step_table_need(kind, int(upto) + 1), cache)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_sieve(args) -> None:
    kind = TableKind.DIVISOR if args.kind == "divisor" else TableKind.SUM_OF_TWO_SQUARES
    table = sieve_divisors(args.limit) if kind is TableKind.DIVISOR \
        else sieve_r(args.limit)
    save_table(table, args.output)
    sys.stdout.write(f"wrote {args.kind} table, limit {args.limit}, to {args.output}\n")


def _cmd_eval(args) -> None:
    kind = ErrorTermKind.parse(args.kind)
    _write_output(fmt17(error_term(kind, args.x)), args.output)


def _cmd_voronoi(args) -> None:
    kind = ErrorTermKind.parse(args.kind)
    if args.scale is not None:
        stats = voronoi.remainder_stats(kind, args.truncation, args.scale,
                                        sample_count=args.samples, seed=args.seed)
        if args.format == "json":
            text = render_json({
                "kind": kind.value, "X": stats.X, "N": stats.truncation,
                "sample_count": stats.sample_count, "seed": stats.seed,
                "rms": stats.rms, "sup": stats.sup,
            })
        else:
            text = "kind,X,N,sample_count,seed,rms,sup\n" + ",".join([
                kind.value, fmt17(stats.X), str(stats.truncation),
                str(stats.sample_count), str(stats.seed),
                fmt17(stats.rms), fmt17(stats.sup)])
        _write_output(text, args.output)
    elif args.x is not None:
        _write_output(fmt17(voronoi.truncated(kind, args.truncation, args.x)),
                      args.output)
    else:
        raise _UsageError("voronoi needs either --x or --scale")


def _moment_csv_row(kind, power, X, integral, theory) -> str:
    if theory is None:
        main = residual = ""
    else:
        main_val = theory * X ** moments.main_exponent(power)
        main = fmt17(main_val)
        residual = fmt17(integral - main_val)
    return ",".join([kind.value, str(power), fmt17(X), fmt17(integral),
                     main, residual])


def _cmd_moment(args) -> None:
    kind = ErrorTermKind.parse(args.kind)
    cache = _cache_dir(args)
    table = _table_for(kind, args.to, cache)
    res = moments.moment(kind, args.power, (getattr(args, "from"), args.to),
                         order=args.order, threads=args.threads, table=table)
    theory = None
    if kind is ErrorTermKind.DELTA and args.power in (2, 3, 4):
        theory = moments.theory_coefficient(kind, args.power, cutoff=args.cutoff)
    if args.format == "json":
        doc = {
            "kind": kind.value, "power": args.power,
            "interval": [getattr(args, "from"), args.to],
            "integral": res.integral,
            "quadrature_order": res.quadrature_order,
            "partition_count": res.partition_count,
        }
        if theory is not None:
            main = theory * args.to ** moments.main_exponent(args.power)
            doc["main_term"] = main
            doc["residual"] = res.integral - main
        _write_output(render_json(doc), args.output)
        return
    header = "kind,power,X,integral,main_term,residual\n"
    _write_output(header + _moment_csv_row(kind, args.power, args.to,
                                           res.integral, theory), args.output)


def _cmd_fit(args) -> None:
    kind = ErrorTermKind.parse(args.kind)
    cache = _cache_dir(args)
    grid = args.grid
    table = _table_for(kind, max(grid), cache)
    theory = moments.theory_coefficient(kind, args.power, cutoff=args.cutoff) \
        if args.power in (2, 3, 4) else None
    report = moments.fit_main_term(kind, args.power, grid, order=args.order,
                                   threads=args.threads, table=table,
                                   theory=theory)
    if args.format == "json":
        text = render_json({
            "kind": kind.value,
            "power": report.power,
            "main_exponent": report.main_exponent,
            "fitted_coefficient": report.fitted_coefficient,
            "theory_coefficient": report.theory_coefficient,
            "residual_series": [[x, r] for x, r in report.residual_series],
            "residual_slope": report.residual_slope,
        })
    else:
        lines = ["kind,power,X,integral,main_term,residual"]
        for (x, resid) in report.residual_series:
            main = report.theory_coefficient * x ** report.main_exponent
            lines.append(",".join([kind.value, str(report.power), fmt17(x),
                                   fmt17(main + resid), fmt17(main), fmt17(resid)]))
        text = "\n".join(lines)
    _write_output(text, args.output)


def _cmd_short_interval(args) -> None:
    kind = ErrorTermKind.parse(args.kind)
    cache = _cache_dir(args)
    table = _table_for(kind, args.x + args.h, cache)
    res = moments.short_interval_ratio(kind, args.power, args.x, args.h,
                                       order=args.order, threads=args.threads,
                                       table=table)
    text = render_json({
        "kind": kind.value, "power": res.power, "X": res.X, "H": res.H,
        "moment": res.moment, "main_term": res.main_term, "ratio": res.ratio,
        "in_asymptotic_range": res.in_asymptotic_range,
    })
    _write_output(text, args.output)


_SPACING_CSV_HEADER = "form,M,Mp,K,L,delta,count,bound_2_15,bound_2_16,ratio"


def spacing_csv_row(result: spacing.SpacingCount) -> str:
    spec = result.spec
    cells = [spec.form.value]
    for value in (spec.M, spec.Mp, spec.K, spec.L):
        cells.append("" if value is None else str(value))
    cells.append(fmt17(spec.delta))
    cells.append(str(result.count))
    cells.append(fmt17(result.bound_primary))
    cells.append("" if result.bound_secondary is None
                 else fmt17(result.bound_secondary))
    cells.append(fmt17(result.ratio))
    return ",".join(cells)


def _cmd_spacing(args) -> None:
    form = spacing.SpacingForm.parse(args.form)
    spec = spacing.BoxSpec(form=form, delta=args.delta, M=args.M, Mp=args.Mp,
                           K=args.K, L=args.L, root_k=args.root_k,
                           alpha=args.alpha, beta=args.beta,
                           exclude_exact=args.exclude_exact)
    result = spacing.count_box(spec)
    if args.format == "json":
        doc = {
            "form": form.value, "M": spec.M, "Mp": spec.Mp, "K": spec.K,
            "L": spec.L, "delta": spec.delta, "root_k": spec.root_k,
            "alpha": spec.alpha, "beta": spec.beta,
            "exclude_exact": spec.excludes_exact(),
            "count": result.count, "trivial_count": result.trivial_count,
            "exact_zero_count": result.exact_zero_count,
            "bound_2_15": result.bound_primary,
            "bound_2_16": result.bound_secondary,
            "bound_value": result.bound_value, "ratio": result.ratio,
        }
        _write_output(render_json(doc), args.output)
        return
    _write_output(_SPACING_CSV_HEADER + "\n" + spacing_csv_row(result),
                  args.output)


def _cmd_constants(args) -> None:
    table = None
    if args.name in ("cubic_diagonal", "cubic_coefficient"):
        series = constants_mod.cubic_diagonal_series(args.cutoff, table) \
            if args.name == "cubic_diagonal" \
            else constants_mod.cubic_moment_coefficient(args.cutoff, table)
    elif args.name in ("quartic_diagonal", "quartic_coefficient"):
        series = constants_mod.quartic_diagonal_series(args.cutoff, table) \
            if args.name == "quartic_diagonal" \
            else constants_mod.quartic_moment_coefficient(args.cutoff, table)
    else:
        raise _UsageError(f"unknown constant {args.name!r}")
    text = render_json({
        "name": series.name,
        "value": series.value,
        "tail_bound": series.tail_bound,
        "cutoff": series.cutoff,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    })
    _write_output(text, args.output)


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="divisorlab",
                     description="divisor/circle error-term laboratory")
    parser.add_argument("--threads", type=_integer, default=1,
                        help="worker threads for segment integration")
    parser.add_argument("--cache-dir", default=None,
                        help=f"table cache directory (or ${CACHE_ENV})")
    parser.add_argument("--output", default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build and store a value table")
    p.add_argument("--kind", choices=("divisor", "sum-of-two-squares"),
                   required=True)
    p.add_argument("--limit", type=_integer, required=True)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("eval", help="evaluate an error term at one point")
    p.add_argument("--kind", required=True)
    p.add_argument("--x", type=_number, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("voronoi", help="truncated series value or remainder stats")
    p.add_argument("--kind", required=True)
    p.add_argument("--truncation", "-N", type=_integer, required=True)
    p.add_argument("--x", type=_number, default=None)
    p.add_argument("--scale", type=_number, default=None,
                   help="sample remainders on [scale, 2*scale]")
    p.add_argument("--samples", type=_integer, default=100)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=_cmd_voronoi)

    p = sub.add_parser("moment", help="integrate a power of an error term")
    p.add_argument("--kind", required=True)
    p.add_argument("--power", type=_integer, required=True)
    p.add_argument("--from", type=_number, default=1.0)
    p.add_argument("--to", type=_number, required=True)
    p.add_argument("--order", type=_integer, default=8)
    p.add_argument("--cutoff", type=_integer, default=10**5,
                   help="series cutoff for the theory coefficient")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("fit", help="fit the main-term coefficient over an X grid")
    p.add_argument("--kind", required=True)
    p.add_argument("--power", type=_integer, required=True)
    p.add_argument("--grid", type=_grid, required=True,
                   help="comma-separated ascending X values (>= 4)")
    p.add_argument("--order", type=_integer, default=8)
    p.add_argument("--cutoff", type=_integer, default=10**5)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("short-interval", help="moment ratio over [X, X+H]")
    p.add_argument("--kind", required=True)
    p.add_argument("--power", type=_integer, required=True)
    p.add_argument("--x", type=_number, required=True)
    p.add_argument("--h", type=_number, required=True)
    p.add_argument("--order", type=_integer, default=8)
    p.set_defaults(func=_cmd_short_interval)

    p = sub.add_parser("spacing", help="exact count for one spacing box")
    p.add_argument("--form", required=True)
    p.add_argument("--delta", type=_number, required=True)
    p.add_argument("--M", type=_integer, default=None)
    p.add_argument("--Mp", type=_integer, default=None)
    p.add_argument("--K", type=_integer, default=None)
    p.add_argument("--L", type=_integer, default=None)
    p.add_argument("--root-k", type=_integer, default=2)
    p.add_argument("--alpha", type=_number, default=None)
    p.add_argument("--beta", type=_number, default=0.0)
    p.add_argument("--exclude-exact", action="store_true", default=None)
    p.set_defaults(func=_cmd_spacing)

    p = sub.add_parser("constants", help="diagonal series / moment coefficients")
    p.add_argument("--name", required=True,
                   choices=("cubic_diagonal", "quartic_diagonal",
                            "cubic_coefficient", "quartic_coefficient"))
    p.add_argument("--cutoff", type=_integer, default=10**5)
    p.set_defaults(func=_cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise _UsageError("--threads must be >= 1")
        power = getattr(args, "power", None)
        if power is not None and not moments.MIN_POWER <= power <= moments.MAX_POWER:
            raise _UsageError(
                f"--power {power} unsupported; valid range is "
                f"{moments.MIN_POWER}..{moments.MAX_POWER}")
        args.func(args)
        return 0
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return 1
    except (DivisorLabError, ValueError) as exc:
        sys.stderr.write(f"compute error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
