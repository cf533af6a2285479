"""Command-line surface: table building, error-term evaluation, truncated
series, moments and fits, spacing experiments, and constants reports.

Exit status: 0 on success, 1 on usage errors (an unknown ``--kind``,
``--form`` or ``--name`` among them), 2 on compute/range and file errors.
``short-interval`` and ``constants`` print JSON under either ``--format``.
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
from dataclasses import asdict
from pathlib import Path

from . import constants as constants_mod
from . import moments, spacing, voronoi
from .error_terms import ErrorTermKind, error_term, step_table_need
from .errors import DivisorLabError, RangeError, TableFormatError, TableKindMismatch
from .numerics import render_json
# sieve_divisors and sieve_r stay bound: perfbench/tracing.py wraps them here
from .sieves import (TableKind, load_table, save_table, sieve,  # noqa: F401
                     sieve_divisors, sieve_r)

CACHE_ENV = "DIVISORLAB_CACHE"
_KINDS = [kind.value for kind in ErrorTermKind]


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
    values = [_number(part) for part in text.split(",") if part]
    if not values:
        raise _UsageError(f"empty grid: {text!r}")
    return values


_CACHE_PATTERN = re.compile(r"^(divisor|two-squares)-(\d+)\.dvt$")


def _step_need(args, kind: ErrorTermKind, stops, start: float = 1.0):
    """moments.check_profile, then step_table_need up to ``stops[-1]``."""
    moments.check_profile(kind, (args.power,), stops, start, args.threads)
    return step_table_need(kind, int(stops[-1]) + 1)


def _table_for(args, need):
    """The step table ``need`` names: the smallest adequate table in the cache
    directory, else a new sieve (cached when there is one).  A damaged cache
    file is reported on stderr and sieved again."""
    raw = args.cache_dir or os.environ.get(CACHE_ENV)
    cache = Path(raw) if raw else None
    table_kind, limit = need
    tag = "divisor" if table_kind is TableKind.DIVISOR else "two-squares"
    if cache is not None and cache.is_dir():
        found = sorted((int(m.group(2)), entry) for entry in cache.iterdir()
                       if (m := _CACHE_PATTERN.match(entry.name))
                       and m.group(1) == tag and int(m.group(2)) >= limit)
        if found:
            try:
                return load_table(found[0][1], expected_kind=table_kind)
            except (TableFormatError, TableKindMismatch) as exc:
                sys.stderr.write(f"cache: {exc}; sieving again\n")
    table = sieve(table_kind, limit)
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
        save_table(table, cache / f"{tag}-{limit}.dvt")
    return table


# ---------------------------------------------------------------------------
# subcommands: each builds one record of its result and hands it to _report

def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else render_json(value)


def _report(args, doc, rows: list[dict] | None = None) -> None:
    """Write ``doc`` by render_json (a number renders as itself) to stdout or
    ``--output``; under ``--format csv`` write ``rows`` instead, if given: a
    header of their keys, then one line of cells per row."""
    if args.format == "json" or rows is None:
        text = render_json(doc)
    else:
        text = "\n".join([",".join(rows[0])]
                         + [",".join(_cell(v) for v in row.values()) for row in rows])
    if args.output is None:
        sys.stdout.write(text + "\n")
    else:
        Path(args.output).write_text(text + "\n", encoding="utf-8")


def _cmd_sieve(args) -> None:
    if args.output is None:
        raise _UsageError("sieve writes a table file; give --output FILE")
    kind = TableKind.DIVISOR if args.kind == "divisor" else TableKind.SUM_OF_TWO_SQUARES
    save_table(sieve(kind, args.limit), args.output)
    sys.stdout.write(f"wrote {args.kind} table, limit {args.limit}, to {args.output}\n")


def _cmd_eval(args) -> None:
    kind = ErrorTermKind(args.kind)
    _report(args, error_term(kind, args.x))


def _cmd_voronoi(args) -> None:
    kind = ErrorTermKind(args.kind)
    if args.x is not None:
        _report(args, voronoi.truncated(kind, args.truncation, args.x))
        return
    stats = voronoi.remainder_stats(kind, args.truncation, args.scale,
                                    sample_count=args.samples, seed=args.seed)
    doc = {"kind": kind.value, "X": stats.X, "N": stats.truncation,
           "sample_count": stats.sample_count, "seed": stats.seed,
           "rms": stats.rms, "sup": stats.sup}
    _report(args, doc, [doc])


def _moment_row(kind, power, X, integral, main, residual) -> dict:
    """The CSV row of one moment integral, for ``moment`` and ``fit``."""
    return {"kind": kind.value, "power": power, "X": X, "integral": integral,
            "main_term": main, "residual": residual}


# moment, fit and short-interval run their own check, then _step_need, before
# they resolve the theory coefficient, and sieve or load the table last
def _cmd_moment(args) -> None:
    kind = ErrorTermKind(args.kind)
    a, b = getattr(args, "from"), args.to
    moments.check_interval(a, b)
    need = _step_need(args, kind, [b], a)
    try:
        theory = moments.theory_coefficient(kind, args.power, cutoff=args.cutoff)
    except RangeError:    # no main term for this kind and power
        theory = None
    table = _table_for(args, need)
    res = moments.moment(kind, args.power, (a, b), threads=args.threads, table=table)
    doc = asdict(res)
    main = residual = None
    if theory is not None:
        # the main term's increment over [a, b]; from a = 1 it stays c*b^e,
        # the form the fit's residuals use
        e = moments.main_exponent(args.power)
        main = theory * (b ** e - (a ** e if a > 1 else 0))
        residual = res.integral - main
        doc.update(main_term=main, residual=residual)
    _report(args, doc, [_moment_row(kind, args.power, b, res.integral,
                                    main, residual)])


def _cmd_fit(args) -> None:
    kind = ErrorTermKind(args.kind)
    moments.check_fit(args.power, args.grid)
    need = _step_need(args, kind, args.grid)
    theory = moments.theory_coefficient(kind, args.power, cutoff=args.cutoff)
    table = _table_for(args, need)
    report = moments.fit_main_term(kind, args.power, args.grid,
                                   threads=args.threads, table=table, theory=theory)
    rows = []
    for x, resid in report.residual_series:
        main = report.theory_coefficient * x ** report.main_exponent
        rows.append(_moment_row(kind, report.power, x, main + resid, main, resid))
    _report(args, asdict(report), rows)


def _cmd_short_interval(args) -> None:
    kind = ErrorTermKind(args.kind)
    moments.check_short_interval(args.power, args.x, args.h)
    need = _step_need(args, kind, [args.x + args.h], args.x)
    coefficient = moments.theory_coefficient(kind, args.power)
    table = _table_for(args, need)
    res = moments.short_interval_ratio(kind, args.power, args.x, args.h,
                                       threads=args.threads, table=table,
                                       coefficient=coefficient)
    _report(args, asdict(res))


# the spacing CSV row: these keys of the JSON doc, in this order
_SPACING_COLUMNS = ("form", "M", "Mp", "K", "L", "delta", "count",
                    "bound_2_15", "bound_2_16", "ratio")


def _cmd_spacing(args) -> None:
    form = spacing.SpacingForm(args.form)
    spec = spacing.BoxSpec(form=form, delta=args.delta, M=args.M, Mp=args.Mp,
                           K=args.K, L=args.L, root_k=args.root_k,
                           alpha=args.alpha, beta=args.beta,
                           exclude_exact=args.exclude_exact)
    result = spacing.count_box(spec)
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
    _report(args, doc, [{key: doc[key] for key in _SPACING_COLUMNS}])


# --name -> its function in constants, looked up per call: perfbench wraps it
_CONSTANTS = {
    "cubic_diagonal": "cubic_diagonal_series",
    "quartic_diagonal": "quartic_diagonal_series",
    "cubic_coefficient": "cubic_moment_coefficient",
    "quartic_coefficient": "quartic_moment_coefficient",
}


def _cmd_constants(args) -> None:
    series = getattr(constants_mod, _CONSTANTS[args.name])(args.cutoff)
    _report(args, {**asdict(series),
                   "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())})


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
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--x", type=_number, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("voronoi", help="truncated series value or remainder stats")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--truncation", "-N", type=_integer, required=True)
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--x", type=_number)
    point.add_argument("--scale", type=_number,
                       help="sample remainders on [scale, 2*scale]")
    p.add_argument("--samples", type=_integer, default=100)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=_cmd_voronoi)

    p = sub.add_parser("moment", help="integrate a power of an error term")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--power", type=_integer, required=True)
    p.add_argument("--from", type=_number, default=1.0)
    p.add_argument("--to", type=_number, required=True)
    p.add_argument("--cutoff", type=_integer, default=10**5,
                   help="series cutoff for the theory coefficient")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("fit", help="fit the main-term coefficient over an X grid")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--power", type=_integer, required=True)
    p.add_argument("--grid", type=_grid, required=True,
                   help="comma-separated ascending X values (>= 4)")
    p.add_argument("--cutoff", type=_integer, default=10**5)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("short-interval", help="moment ratio over [X, X+H]")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--power", type=_integer, required=True)
    p.add_argument("--x", type=_number, required=True)
    p.add_argument("--h", type=_number, required=True)
    p.set_defaults(func=_cmd_short_interval)

    p = sub.add_parser("spacing", help="exact count for one spacing box")
    p.add_argument("--form", required=True,
                   choices=[form.value for form in spacing.SpacingForm])
    p.add_argument("--delta", type=_number, required=True)
    p.add_argument("--M", type=_integer, default=None)
    p.add_argument("--Mp", type=_integer, default=None)
    p.add_argument("--K", type=_integer, default=None)
    p.add_argument("--L", type=_integer, default=None)
    p.add_argument("--root-k", type=_integer, default=2)
    p.add_argument("--alpha", type=_number, default=None)
    p.add_argument("--beta", type=_number, default=0.0)
    p.add_argument("--exclude-exact", action="store_true")
    p.set_defaults(func=_cmd_spacing)

    p = sub.add_parser("constants", help="diagonal series / moment coefficients")
    p.add_argument("--name", required=True, choices=_CONSTANTS)
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
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
