"""Command-line interface.

One subcommand per operation family; ``--json`` switches any of them to
structured output.  Exit codes: 0 success, 1 domain error (bad input,
failed verification), 2 usage error.

Each handler imports the modules beyond the package's core (``search``,
``pushdown``, ``tables``, ``passclass``, ``bounds``) itself, because a
command usually runs in a fresh process, which should pay only for its own
command.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .codes import canonicalize, parse_code, parse_matching, surface_stats
from .errors import FlatBasketError, NotAKnot
from .invariants import (
    _COEFF,
    _alexander_of_matrix,
    _capped_matrix,
    _checked_signature,
    alexander,
    arf_from_determinant,
    determinant_from_alexander,
    parse_polynomial,
)
from .seifert import format_rows, symmetrized

__all__ = ["build_parser", "cli_dispatch", "main"]


def _int(text: str) -> int:
    """An integer option: ASCII digits after an optional sign.  ``int``
    alone also reads other scripts' digits, ``_`` and surrounding space."""
    if _COEFF.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # longer than Python's int-conversion limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _emit(payload: dict, as_json: bool, plain: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _poly_json(poly) -> dict:
    """Coefficient array starting at the minimum degree."""
    offset = poly.min_degree or 0
    return {"coeffs": list(poly.coeffs[offset:]), "min_degree": offset}


def _cmd_validate(args) -> int:
    code = parse_code(args.code)
    canonical = canonicalize(code)
    _emit(
        {
            "code": ",".join(map(str, code.word)),
            "canonical": ",".join(map(str, canonical.word)),
            "bands": code.n,
        },
        args.json,
        f"valid code with {code.n} bands; canonical form {canonical}",
    )
    return 0


def _cmd_stats(args) -> int:
    code = parse_code(args.code)
    stats = surface_stats(code)
    _emit(
        {
            "bands": stats.bands,
            "euler": stats.euler,
            "boundary": stats.boundary,
            "genus": stats.genus,
        },
        args.json,
        f"bands={stats.bands} euler={stats.euler} "
        f"boundary={stats.boundary} genus={stats.genus}",
    )
    return 0


def _cmd_matrix(args) -> int:
    matrix = _capped_matrix(parse_code(args.code))
    if args.symmetrized:
        rows = symmetrized(matrix)
    else:
        rows = matrix.rows
    if args.json:
        print(json.dumps({"matrix": [list(r) for r in rows]}))
    else:
        print(format_rows(rows))
    return 0


def _cmd_alexander(args) -> int:
    delta = alexander(parse_code(args.code), checked=True)
    _emit(
        {
            "raw": _poly_json(delta.raw),
            "normalized": _poly_json(delta.normalized),
            "span": delta.span,
            "leading": delta.leading,
        },
        args.json,
        str(delta.normalized),
    )
    return 0


def _cmd_invariants(args) -> int:
    code = parse_code(args.code)
    matrix = _capped_matrix(code)
    stats = surface_stats(code)
    delta = _alexander_of_matrix(code, matrix, "fraction_free", checked=True)
    sigma = _checked_signature(matrix.rows, delta.raw)
    payload = {
        "bands": stats.bands,
        "boundary": stats.boundary,
        "genus": stats.genus,
        "alexander": _poly_json(delta.normalized),
        "signature": sigma,
        "determinant": None,
        "arf": None,
    }
    if stats.boundary == 1:
        payload["determinant"] = determinant_from_alexander(delta)
        payload["arf"] = arf_from_determinant(payload["determinant"])
    plain = (
        f"bands={payload['bands']} boundary={payload['boundary']} "
        f"genus={payload['genus']} delta={delta.normalized} "
        f"det={payload['determinant']} arf={payload['arf']} "
        f"signature={payload['signature']}"
    )
    _emit(payload, args.json, plain)
    return 0


def _cmd_bound(args) -> int:
    from .bounds import fpbk_lower_bound

    code = parse_code(args.code)
    if surface_stats(code).boundary != 1:
        raise NotAKnot("the bound applies to knots only")
    delta = alexander(code, checked=True)
    bound = fpbk_lower_bound(delta, genus=args.genus)
    _emit(
        {
            "degree_bound": bound.degree_bound,
            "genus_bound": bound.genus_bound,
            "overall": bound.overall,
            "case": bound.case_tag,
        },
        args.json,
        f"degree bound {bound.degree_bound} ({bound.case_tag}), "
        f"genus bound {bound.genus_bound}, overall {bound.overall}",
    )
    return 0


def _cmd_passclass(args) -> int:
    from .passclass import pass_class

    cls = pass_class(parse_code(args.code))
    family = f"{cls.family}_{cls.components}" if cls.family else "undetermined"
    _emit(
        {
            "family": cls.family,
            "components": cls.components,
            "certainty": cls.certainty,
        },
        args.json,
        f"pass class {family} ({cls.certainty}; {cls.components} component(s))",
    )
    return 0


def _cmd_orbit_check(args) -> int:
    from .passclass import orbit_invariant_check

    diagram = parse_matching(args.matching)
    report = orbit_invariant_check(diagram)
    _emit(
        {
            "arf_values": list(report.arf_values),
            "orbit_size": report.orbit_size,
            "pass": report.passed,
        },
        args.json,
        f"orbit of {report.orbit_size} codes, arf values {set(report.arf_values)}: "
        + ("constant" if report.passed else "NOT constant"),
    )
    return 0 if report.passed else 1


def _cmd_flatten(args) -> int:
    from .pushdown import flatten_trace, load_diagram

    diagram = load_diagram(args.diagram)
    result = flatten_trace(diagram)
    if args.trace and not args.json:
        for step in result.steps:
            print(
                f"push-down at y={step.height} interval "
                f"[{step.interval[0]},{step.interval[1]}]: "
                f"euler {step.euler_before}->{step.euler_after}, "
                f"boundary {step.boundary_before}->{step.boundary_after}"
            )
    payload = {
        "code": ",".join(map(str, result.code.word)),
        "bands": result.code.n,
        "push_downs": len(result.steps),
    }
    _emit(
        payload,
        args.json,
        f"flat basket code {result.code} after {len(result.steps)} push-downs",
    )
    return 0


def _cmd_search(args) -> int:
    from .search import (
        SearchQuery, _code_texts, _json_parts, _record_lines, _write_store, search
    )

    target = parse_polynomial(args.target) if args.target else None
    query = SearchQuery(
        bands=args.bands,
        target=target,
        knots_only=args.knots_only,
        dedup_mirror=args.dedup_mirror,
        jobs=args.jobs,
    )
    records = search(query)
    codes = _code_texts(records)
    if args.store:
        appended, verified = _write_store(args.store, records, codes)
        print(
            f"store {args.store}: {appended} appended, {verified} verified",
            file=sys.stderr,
        )
    lines = _record_lines(records, codes, _json_parts if args.json else _plain_parts)
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")
    print(f"{len(records)} records", file=sys.stderr)
    return 0


def _plain_parts(record) -> tuple[str, str]:
    """A plain ``search`` line before and after the code string."""
    return "code=", (
        f" b={record.boundary} genus={record.genus} delta={record.delta.normalized} "
        f"det={record.determinant} arf={record.arf} signature={record.signature}"
    )


def _cmd_census(args) -> int:
    from .search import census

    histogram = census(args.bands, jobs=args.jobs)
    items = sorted(histogram.items(), key=lambda kv: (len(kv[0].coeffs), kv[0].coeffs))
    if args.json:
        print(
            json.dumps(
                [
                    {"delta": _poly_json(poly), "count": count}
                    for poly, count in items
                ]
            )
        )
    else:
        for poly, count in items:
            print(f"{count:8d}  {poly}")
    return 0


def _cmd_verify_table(args) -> int:
    from .tables import CHECK_NAMES, load_references, load_table, verify_table

    records = load_table(args.table)
    references = load_references(args.references)
    report = verify_table(records, references)
    if args.json:
        print(
            json.dumps(
                [
                    {"name": row.name, "checks": row.checks, "passed": row.passed}
                    for row in report.rows
                ]
            )
        )
    else:
        for row in report.rows:
            marks = " ".join(
                name if row.checks[name] else name.upper() + "!"
                for name in CHECK_NAMES
            )
            print(f"{'ok  ' if row.passed else 'FAIL'} {row.name:6s} {marks}")
        print(
            f"{sum(row.passed for row in report.rows)}/{len(report.rows)} rows pass"
        )
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatbasket",
        description="Exact computations with flat plumbing basket codes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="structured output")
        return p

    for name, func, text in (
        ("validate", _cmd_validate, "parse and canonicalize a code"),
        ("stats", _cmd_stats, "surface statistics of a code"),
        ("matrix", _cmd_matrix, "Seifert matrix of a code"),
        ("alexander", _cmd_alexander, "Alexander polynomial of a code"),
        ("invariants", _cmd_invariants, "all invariants of a code"),
        ("bound", _cmd_bound, "lower bound for the basket number"),
        ("passclass", _cmd_passclass, "pass-equivalence class of a code"),
    ):
        p = add(name, func, text)
        p.add_argument("--code", required=True, help="basket code text")
        if name == "matrix":
            p.add_argument(
                "--symmetrized", action="store_true", help="print V + V^T"
            )
        if name == "bound":
            p.add_argument("--genus", type=_int, default=None, help="three genus")

    p = add("orbit-check", _cmd_orbit_check, "Arf constancy over a labeling orbit, n <= 8")
    p.add_argument(
        "--matching", required=True, help="paired word, e.g. 1,2,1,2"
    )

    p = add("flatten", _cmd_flatten, "flatten a rectilinear band diagram")
    p.add_argument("--diagram", required=True, help="diagram file")
    p.add_argument("--trace", action="store_true", help="print each push-down")

    p = add("search", _cmd_search, "enumerate codes with filters, n <= 6")
    p.add_argument("-n", "--bands", type=_positive_int, required=True)
    p.add_argument("--target", help="Alexander polynomial to match")
    p.add_argument("--knots-only", action="store_true")
    p.add_argument("--dedup-mirror", action="store_true")
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes, at most one per CPU; same output for any value; "
        "more than one saves time only at n = 6",
    )
    p.add_argument("--store", help="append-only result store path")

    p = add("census", _cmd_census, "histogram of knot polynomials, n <= 6")
    p.add_argument("-n", "--bands", type=_positive_int, required=True)
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes, at most one per CPU; same output for any value; "
        "more than one saves time only at n = 6",
    )

    p = add("verify-table", _cmd_verify_table, "verify the bundled knot table")
    p.add_argument("--table", default=None, help="alternative table file")
    p.add_argument("--references", default=None, help="alternative references")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser for every :func:`cli_dispatch` call; parsing leaves it unchanged."""
    return build_parser()


def cli_dispatch(argv: list[str]) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (FlatBasketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
