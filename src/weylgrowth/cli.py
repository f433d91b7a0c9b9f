"""Command-line interface: catalog, growth, poincare, fit, verify-paper.

Exit codes: 0 success (all checks pass for verify-paper), 1 verification
failure, 2 invalid input or a count or series that does not fit in
memory, 3 arithmetic overflow, 4 checkpoint mismatch, 5 internal error
(an enumeration invariant failed, or the root closure of a W_J component
called finite or affine did not end).  :func:`main` prints every error a
command raises once, as one ``error:`` line on stderr, and takes codes 2-5
from one ordered table of exception types, ``_EXIT_CODES``; argparse
exits 2 on its own for a malformed command line.
All numeric output is exact decimal integers.

verify-paper runs one loop over the reference quotients of
``golden.QUOTIENT_FACTORS``, each over its hyperbolic growth series (HA2
or HA3), and ``--debug-full-dedup`` is passed on to
:func:`~weylgrowth.weyl.enumerate_levels`, the one place that reads it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path

from . import algebra, golden
from .algebra import (
    build_catalog,
    finite_families_help,
    invariant_degrees,
    load_gcm_file,
)
from .series import (
    IntPolynomial,
    TruncatedSeries,
    affine_poincare,
    cyclotomic_trial_division,
    expand_factored,
    finite_poincare,
    ratio_fit,
    series_div,
    series_mul,
)
from .weyl import CheckpointMismatchError, GrowthSeries, enumerate_levels

CHECKPOINT_DIR_ENV = "WEYLGROWTH_CHECKPOINT_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_OVERFLOW = 3
EXIT_CHECKPOINT = 4
EXIT_INTERNAL = 5

# The exit code of each error a command may raise, the first type that
# matches winning: CheckpointMismatchError is a RuntimeError, so it comes
# first.  LevelTooLargeError is a MemoryError.
_EXIT_CODES = {CheckpointMismatchError: EXIT_CHECKPOINT, OverflowError: EXIT_OVERFLOW,
               **dict.fromkeys((ValueError, KeyError, OSError, MemoryError), EXIT_INVALID_INPUT),
               RuntimeError: EXIT_INTERNAL}


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


_WORKERS_HELP = "must be >= 1; accepted for compatibility and has no effect"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_growth_args(p: argparse.ArgumentParser) -> None:
    """The source of the matrix and the enumeration flags of growth and fit."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--algebra", help="catalog name, e.g. A3, D5, AffA2, HA3")
    group.add_argument("--gcm-file", help='JSON file {"labels": [...], "matrix": [[...]]}')
    p.add_argument("--order", type=_nonneg_int, required=True, help="growth series order")
    p.add_argument("--checkpoint", help="file that holds the state of the depth-first count, to resume it "
                                        f"(relative paths resolve under ${CHECKPOINT_DIR_ENV})")
    p.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    p.add_argument("--debug-full-dedup", action="store_true",
                   help="check both factors of the count: hold the levels of its walk of the parabolic "
                        "quotient whole and compare each one, as a set, with an independent breadth-first "
                        "search over the orbit of the walk's weight, and compare the subgroup's series with "
                        "the same search over a chain of its nodes")


@functools.cache  # parse_args never changes the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylgrowth",
        description="Exact Weyl group growth series and rational-form analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        return p

    command("catalog", cmd_catalog, "list the algebra families the catalog can build")

    _add_growth_args(command("growth", cmd_growth, "enumerate the growth series of a Weyl group"))

    p = command("poincare", cmd_poincare, "closed-form Poincare polynomial or affine series")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--algebra", help="finite algebra for the polynomial")
    group.add_argument("--affine", help="finite algebra whose affinization to expand")
    p.add_argument("--order", type=_nonneg_int, help="truncation order (affine mode)")

    p = command("fit", cmd_fit, "divide a finite Poincare polynomial by a growth series")
    _add_growth_args(p)
    p.add_argument("--candidate", required=True, help="finite algebra supplying the numerator")
    p.add_argument("--margin", type=_positive_int, default=5)

    p = command("verify-paper", cmd_verify_paper, "recompute and check the built-in reference results")
    p.add_argument("--order", type=_nonneg_int, default=27,
                   help="growth order for the hyperbolic runs (default 27; 12 is a quick CI gate)")
    p.add_argument("--margin", type=_positive_int, default=5)
    p.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)

    for p in sub.choices.values():
        p.add_argument("--output", choices=("text", "json", "csv"), default="text")
    return parser


def _growth(args: argparse.Namespace) -> tuple[str, GrowthSeries]:
    """The name of the matrix given by --algebra or --gcm-file, and its growth series to --order."""
    if args.algebra is not None:
        desc = build_catalog(args.algebra)
        name, gcm = desc.name, desc.gcm
    else:
        name, gcm = Path(args.gcm_file).stem, load_gcm_file(args.gcm_file)
    checkpoint = args.checkpoint
    if checkpoint is not None:
        checkpoint = os.path.join(os.environ.get(CHECKPOINT_DIR_ENV, ""), checkpoint)
    return name, enumerate_levels(gcm, args.order, checkpoint, workers=args.workers,
                                  full_history_dedup=args.debug_full_dedup)


def _emit(fmt: str, payload, csv_rows, text: str) -> None:
    """Write ``payload`` as JSON, ``csv_rows`` as CSV, or ``text`` as is."""
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
    else:
        sys.stdout.write(text)


def _lines(payload: dict) -> str:
    """One "key: value" line per entry, with list values space-joined; an
    empty list leaves the line at "key:"."""
    return "".join(
        " ".join([f"{key}:", *map(str, value if isinstance(value, list) else [value])]) + "\n"
        for key, value in payload.items()
    )


def cmd_catalog(args: argparse.Namespace) -> int:
    families = finite_families_help()
    _emit(args.output, families,
          [("name", "ranks", "kind"), *((f["name"], f["ranks"], f["kind"]) for f in families)],
          "".join(f"{f['name']:<8} {f['ranks']:<12} {f['kind']}\n" for f in families))
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    name, series = _growth(args)
    payload = {"algebra": name, "order": series.order, "coeffs": list(series.coeffs),
               "complete": series.complete}
    _emit(args.output, payload, [("index", "coefficient"), *enumerate(series.coeffs)], _lines(payload))
    return EXIT_OK


def cmd_poincare(args: argparse.Namespace) -> int:
    if args.affine is not None:
        if args.order is None:
            raise ValueError("affine mode requires --order")
        desc = build_catalog(args.affine)
        degrees = invariant_degrees(desc)  # NotFiniteError for non-finite bases
        series = affine_poincare(degrees, args.order)
        payload = {"algebra": f"affine {desc.name}", "order": series.order, "coeffs": list(series.coeffs)}
    else:
        desc = build_catalog(args.algebra)
        payload = {"algebra": desc.name, "coeffs": list(finite_poincare(invariant_degrees(desc)).coeffs)}
    _emit(args.output, payload, [("index", "coefficient"), *enumerate(payload["coeffs"])], _lines(payload))
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    candidate = build_catalog(args.candidate)
    numerator = finite_poincare(invariant_degrees(candidate))
    name, growth = _growth(args)
    series = growth
    if growth.complete:  # a finite group's series is exact at every order
        series = TruncatedSeries.from_polynomial(IntPolynomial(growth.coeffs), args.order)
    result = ratio_fit(numerator, series, args.margin)
    quotient = list(result.quotient.coeffs) if result.quotient is not None else None
    payload = {
        "algebra": name,
        "candidate": candidate.name,
        "order": result.order_checked,
        "margin": args.margin,
        "verdict": result.verdict,
        "degree": result.degree,
        "margin_checked": result.margin_checked,
        "quotient": quotient,
        "evidence": list(result.evidence),
    }
    rows = [("index", "coefficient"),
            ("verdict", result.verdict),
            ("degree", "" if result.degree is None else result.degree),
            ("margin_checked", result.margin_checked),
            ("evidence", " ".join(map(str, result.evidence))),
            *enumerate(quotient or [])]
    text = _lines({**payload, "quotient": quotient or []})
    if result.quotient is not None:
        text += f"quotient_polynomial: {result.quotient}\n"
    _emit(args.output, payload, rows, text)
    return EXIT_OK


def _item(item: str, status: str, expected="", actual="") -> dict:
    """One verify-paper check, its values as text."""
    return {"item": item, "status": status, "expected": str(expected), "actual": str(actual)}


def _verify_report(order: int, margin: int) -> list[dict]:
    """Run every reference check, at reduced order where applicable.

    Each quotient of ``golden.QUOTIENT_FACTORS`` is fitted over its
    hyperbolic growth series when that reaches the degree of the
    candidate's polynomial plus the margin, and otherwise checked as the
    prefix of the series quotient that the series reaches.
    """
    growths = {name: enumerate_levels(build_catalog(name).gcm, min(order, top))
               for name, top in (("HA3", 27), ("HA2", 24))}
    g3 = growths["HA3"]
    expected3 = golden.HA3_GROWTH_REFERENCE[: min(order, 27) + 1]
    items = [_item("growth-ha3", "pass" if g3.coeffs == expected3 else "fail",
                   list(expected3), list(g3.coeffs))]

    # Each quotient fitted at full order: the quotient when the fit passed, None when it failed.
    fitted: dict[tuple[str, str], IntPolynomial | None] = {}
    for (hyp_name, cand_name), factors in golden.QUOTIENT_FACTORS.items():
        growth = growths[hyp_name]
        expected_q = expand_factored(map(IntPolynomial, factors))
        numerator = finite_poincare(invariant_degrees(build_catalog(cand_name)))
        item = f"fit-{hyp_name.lower()}-{cand_name.lower()}"
        if growth.order < numerator.degree + margin:
            q = series_div(numerator, growth, growth.order).coeffs
            want = TruncatedSeries.from_polynomial(expected_q, growth.order).coeffs
            items.append(_item(f"{item}-prefix", "pass" if q == want else "fail", list(want), list(q)))
            continue
        result = ratio_fit(numerator, growth, margin)
        ok = (
            result.is_polynomial
            and result.quotient == expected_q
            and series_mul(growth, result.quotient).coeffs
            == TruncatedSeries.from_polynomial(numerator, growth.order).coeffs
        )
        fitted[(hyp_name, cand_name)] = result.quotient if ok else None
        items.append(_item(item, "pass" if ok else "fail", list(expected_q.coeffs),
                           list(result.quotient.coeffs) if result.quotient is not None
                           else f"non_terminating {list(result.evidence)}"))

    for hyp_name, cand_name in golden.NON_TERMINATING_CANDIDATES:
        numerator = finite_poincare(invariant_degrees(build_catalog(cand_name)))
        item = f"nonterminating-{hyp_name.lower()}-{cand_name.lower()}"
        growth = growths[hyp_name]
        if growth.order < numerator.degree + margin:
            items.append(_item(item, "skip", "", f"needs order >= {numerator.degree + margin}"))
            continue
        result = ratio_fit(numerator, growth, margin)
        ok = not result.is_polynomial and len(result.evidence) > 0
        items.append(_item(item, "pass" if ok else "fail",
                           "non_terminating with evidence", f"{result.verdict} {list(result.evidence)}"))

    for cand_name in ("A2", "A3", "A4", "D4", "D5"):
        desc = build_catalog(cand_name)
        series = enumerate_levels(desc.gcm, 10 * desc.rank_param + 10)
        expected_total = algebra.weyl_group_order(desc)
        poincare = finite_poincare(invariant_degrees(desc))
        ok = series.complete and series.total == expected_total and series.coeffs == poincare.coeffs
        items.append(_item(f"finite-order-{cand_name.lower()}", "pass" if ok else "fail",
                           f"total {expected_total}, coeffs {list(poincare.coeffs)}",
                           f"total {series.total}, coeffs {list(series.coeffs)}, complete {series.complete}"))

    bott_order = min(15, order)
    for base in ("A1", "A2"):
        desc = build_catalog("Aff" + base)
        series = enumerate_levels(desc.gcm, bott_order)
        expected = affine_poincare(invariant_degrees(build_catalog(base)), bott_order)
        ok = not series.complete and series.coeffs == expected.coeffs
        items.append(_item(f"affine-series-{base.lower()}", "pass" if ok else "fail",
                           list(expected.coeffs), list(series.coeffs)))

    quotient = fitted.get(("HA2", "D4"))
    if quotient is None:
        items.append(_item("cyclotomic-content-ha2-d4", "skip", "",
                           "the HA2/D4 fit failed" if ("HA2", "D4") in fitted
                           else "needs the full HA2/D4 fit (order >= 17)"))
    else:
        factors, residual = cyclotomic_trial_division(quotient, 12)
        ok = (factors == golden.HA2_D4_CYCLOTOMIC_FACTORS
              and residual.coeffs == golden.HA2_D4_CYCLOTOMIC_RESIDUAL)
        items.append(_item("cyclotomic-content-ha2-d4", "pass" if ok else "fail",
                           f"factors {golden.HA2_D4_CYCLOTOMIC_FACTORS}, "
                           f"residual {golden.HA2_D4_CYCLOTOMIC_RESIDUAL}",
                           f"factors {factors}, residual {tuple(residual.coeffs)}"))

    return items


def cmd_verify_paper(args: argparse.Namespace) -> int:
    items = _verify_report(args.order, args.margin)
    width = max(len(i["item"]) for i in items)
    text = ""
    for i in items:
        line = f"{i['status'].upper():<5} {i['item']:<{width}}"
        if i["status"] == "fail":
            line += f"  expected {i['expected']}  actual {i['actual']}"
        elif i["status"] == "skip":
            line += f"  ({i['actual']})"
        text += line.rstrip() + "\n"
    failed = sum(1 for i in items if i["status"] == "fail")
    text += f"{len(items)} checks, {failed} failed\n"
    _emit(args.output, items, [("item", "status", "expected", "actual"), *(i.values() for i in items)], text)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
