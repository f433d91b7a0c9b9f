"""Command-line interface: catalog, growth, poincare, fit, verify-paper.

Exit codes: 0 success (all checks pass for verify-paper), 1 verification
failure, 2 invalid input, 3 arithmetic overflow, 4 checkpoint mismatch.
All numeric output is exact decimal integers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: one command plus the knobs it needs."""

    command: str
    algebra: str | None = None
    gcm_file: str | None = None
    affine: str | None = None
    candidate: str | None = None
    order: int | None = None
    margin: int = 5
    output: str = "text"
    checkpoint: str | None = None
    workers: int = 1
    debug_full_dedup: bool = False


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylgrowth",
        description="Exact Weyl group growth series and rational-form analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", choices=("text", "json", "csv"), default="text")

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--algebra", help="catalog name, e.g. A3, D5, AffA2, HA3")
        group.add_argument("--gcm-file", help='JSON file {"labels": [...], "matrix": [[...]]}')

    p = sub.add_parser("catalog", help="list the algebra families the catalog can build")
    add_output(p)

    p = sub.add_parser("growth", help="enumerate the growth series of a Weyl group")
    add_source(p)
    p.add_argument("--order", type=_nonneg_int, required=True)
    p.add_argument("--checkpoint", help=f"level checkpoint file (relative paths resolve under ${CHECKPOINT_DIR_ENV})")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--debug-full-dedup", action="store_true",
                   help="also build each level by deduplicating all reflections against every earlier level, and check it matches")
    add_output(p)

    p = sub.add_parser("poincare", help="closed-form Poincare polynomial or affine series")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--algebra", help="finite algebra for the polynomial")
    group.add_argument("--affine", help="finite algebra whose affinization to expand")
    p.add_argument("--order", type=_nonneg_int, help="truncation order (affine mode)")
    add_output(p)

    p = sub.add_parser("fit", help="divide a finite Poincare polynomial by a growth series")
    add_source(p)
    p.add_argument("--candidate", required=True, help="finite algebra supplying the numerator")
    p.add_argument("--order", type=_nonneg_int, required=True, help="growth series order")
    p.add_argument("--margin", type=_positive_int, default=5)
    p.add_argument("--checkpoint")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--debug-full-dedup", action="store_true")
    add_output(p)

    p = sub.add_parser("verify-paper", help="recompute and check the built-in reference results")
    p.add_argument("--order", type=_nonneg_int, default=27,
                   help="growth order for the hyperbolic runs (default 27; 12 is a quick CI gate)")
    p.add_argument("--margin", type=_positive_int, default=5)
    p.add_argument("--workers", type=_positive_int, default=1)
    add_output(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        algebra=getattr(args, "algebra", None),
        gcm_file=getattr(args, "gcm_file", None),
        affine=getattr(args, "affine", None),
        candidate=getattr(args, "candidate", None),
        order=getattr(args, "order", None),
        margin=getattr(args, "margin", 5),
        output=getattr(args, "output", "text"),
        checkpoint=getattr(args, "checkpoint", None),
        workers=getattr(args, "workers", 1),
        debug_full_dedup=getattr(args, "debug_full_dedup", False),
    )


def _resolve_source(config: RunConfig) -> tuple[str, algebra.GeneralizedCartanMatrix]:
    if config.algebra is not None:
        desc = build_catalog(config.algebra)
        return desc.name, desc.gcm
    gcm = load_gcm_file(config.gcm_file)
    return Path(config.gcm_file).stem, gcm


def _resolve_checkpoint(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(CHECKPOINT_DIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    return str(p)


def _print(text: str) -> None:
    sys.stdout.write(text)


def _emit_csv(rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    _print(buf.getvalue())


def _emit_coeff_table(payload: dict, fmt: str) -> None:
    """Shared emitter for growth/poincare results keyed by coefficient list."""
    if fmt == "json":
        _print(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        rows = [("index", "coefficient")]
        rows += [(i, c) for i, c in enumerate(payload["coeffs"])]
        _emit_csv(rows)
    else:
        for key, value in payload.items():
            if key == "coeffs":
                value = " ".join(str(c) for c in value)
            _print(f"{key}: {value}\n")


def cmd_catalog(config: RunConfig) -> int:
    families = finite_families_help()
    if config.output == "json":
        _print(json.dumps(families, indent=2) + "\n")
    elif config.output == "csv":
        rows = [("name", "ranks", "kind")]
        rows += [(f["name"], f["ranks"], f["kind"]) for f in families]
        _emit_csv(rows)
    else:
        for f in families:
            _print(f"{f['name']:<8} {f['ranks']:<12} {f['kind']}\n")
    return EXIT_OK


def cmd_growth(config: RunConfig) -> int:
    name, gcm = _resolve_source(config)
    series = enumerate_levels(
        gcm,
        config.order,
        _resolve_checkpoint(config.checkpoint),
        workers=config.workers,
        full_history_dedup=config.debug_full_dedup,
        algebra_name=name,
    )
    _emit_coeff_table(
        {"algebra": name, "order": series.order, "coeffs": list(series.coeffs),
         "complete": series.complete},
        config.output,
    )
    return EXIT_OK


def cmd_poincare(config: RunConfig) -> int:
    if config.affine is not None:
        if config.order is None:
            raise ValueError("affine mode requires --order")
        desc = build_catalog(config.affine)
        degrees = invariant_degrees(desc)  # NotFiniteError for non-finite bases
        series = affine_poincare(degrees, config.order)
        _emit_coeff_table(
            {"algebra": f"affine {desc.name}", "order": series.order, "coeffs": list(series.coeffs)},
            config.output,
        )
        return EXIT_OK
    desc = build_catalog(config.algebra)
    poly = finite_poincare(invariant_degrees(desc))
    _emit_coeff_table({"algebra": desc.name, "coeffs": list(poly.coeffs)}, config.output)
    return EXIT_OK


def cmd_fit(config: RunConfig) -> int:
    name, gcm = _resolve_source(config)
    candidate = build_catalog(config.candidate)
    numerator = finite_poincare(invariant_degrees(candidate))
    growth = enumerate_levels(
        gcm, config.order, _resolve_checkpoint(config.checkpoint),
        workers=config.workers, full_history_dedup=config.debug_full_dedup,
        algebra_name=name,
    )
    result = ratio_fit(numerator, growth, config.margin)
    payload = {
        "algebra": name,
        "candidate": candidate.name,
        "order": growth.order,
        "margin": config.margin,
        "verdict": result.verdict,
        "degree": result.degree,
        "margin_checked": result.margin_checked,
        "quotient": list(result.quotient.coeffs) if result.quotient is not None else None,
        "evidence": list(result.evidence),
    }
    if config.output == "json":
        _print(json.dumps(payload, indent=2) + "\n")
    elif config.output == "csv":
        rows = [("index", "coefficient"),
                ("verdict", result.verdict),
                ("degree", "" if result.degree is None else result.degree),
                ("margin_checked", result.margin_checked),
                ("evidence", " ".join(str(i) for i in result.evidence))]
        if result.quotient is not None:
            rows += [(i, c) for i, c in enumerate(result.quotient.coeffs)]
        _emit_csv(rows)
    else:
        for key, value in payload.items():
            if key in ("quotient", "evidence"):
                value = "" if value is None else " ".join(str(c) for c in value)
            _print(f"{key}: {value}\n")
        if result.quotient is not None:
            _print(f"quotient_polynomial: {result.quotient}\n")
    return EXIT_OK


def _verify_report(order: int, margin: int, workers: int) -> list[dict]:
    """Run every reference check, at reduced order where applicable."""
    items: list[dict] = []

    def add(item: str, status: str, expected="", actual=""):
        items.append({"item": item, "status": status, "expected": str(expected), "actual": str(actual)})

    ha3 = build_catalog("HA3")
    ha2 = build_catalog("HA2")
    ha3_order = min(order, 27)
    ha2_order = min(order, 24)
    g3 = enumerate_levels(ha3.gcm, ha3_order, workers=workers, algebra_name="HA3")
    g2 = enumerate_levels(ha2.gcm, ha2_order, workers=workers, algebra_name="HA2")

    expected3 = golden.HA3_GROWTH_REFERENCE[: ha3_order + 1]
    add("growth-ha3", "pass" if g3.coeffs == expected3 else "fail",
        list(expected3), list(g3.coeffs))

    fitted: dict[tuple[str, str], IntPolynomial] = {}

    def check_quotient(hyp_name: str, growth: GrowthSeries, cand_name: str):
        expected_q = expand_factored(
            IntPolynomial(f) for f in golden.QUOTIENT_FACTORS[(hyp_name, cand_name)]
        )
        numerator = finite_poincare(invariant_degrees(build_catalog(cand_name)))
        item = f"fit-{hyp_name.lower()}-{cand_name.lower()}"
        if growth.order >= numerator.degree + margin:
            result = ratio_fit(numerator, growth, margin)
            ok = (
                result.is_polynomial
                and result.quotient == expected_q
                and series_mul(TruncatedSeries(growth.coeffs), result.quotient).coeffs
                == TruncatedSeries.from_polynomial(numerator, growth.order).coeffs
            )
            if ok:
                fitted[(hyp_name, cand_name)] = result.quotient
            add(item, "pass" if ok else "fail",
                list(expected_q.coeffs),
                list(result.quotient.coeffs) if result.quotient is not None
                else f"non_terminating {list(result.evidence)}")
        else:
            q = series_div(numerator, TruncatedSeries(growth.coeffs), growth.order).coeffs
            want = TruncatedSeries.from_polynomial(expected_q, growth.order).coeffs
            add(f"{item}-prefix", "pass" if q == want else "fail", list(want), list(q))

    check_quotient("HA3", g3, "D5")
    check_quotient("HA2", g2, "D4")
    check_quotient("HA2", g2, "A3")
    check_quotient("HA2", g2, "A4")

    for hyp_name, cand_name in golden.NON_TERMINATING_CANDIDATES:
        numerator = finite_poincare(invariant_degrees(build_catalog(cand_name)))
        item = f"nonterminating-{hyp_name.lower()}-{cand_name.lower()}"
        growth = g3 if hyp_name == "HA3" else g2
        if growth.order < numerator.degree + margin:
            add(item, "skip", "", f"needs order >= {numerator.degree + margin}")
            continue
        result = ratio_fit(numerator, growth, margin)
        ok = not result.is_polynomial and len(result.evidence) > 0
        add(item, "pass" if ok else "fail",
            "non_terminating with evidence", f"{result.verdict} {list(result.evidence)}")

    for cand_name in ("A2", "A3", "A4", "D4", "D5"):
        desc = build_catalog(cand_name)
        series = enumerate_levels(desc.gcm, 10 * desc.rank_param + 10, workers=workers)
        expected_total = algebra.weyl_group_order(desc)
        poincare = finite_poincare(invariant_degrees(desc))
        ok = series.complete and series.total == expected_total and series.coeffs == poincare.coeffs
        add(f"finite-order-{cand_name.lower()}", "pass" if ok else "fail",
            f"total {expected_total}, coeffs {list(poincare.coeffs)}",
            f"total {series.total}, coeffs {list(series.coeffs)}, complete {series.complete}")

    bott_order = min(15, order)
    for base in ("A1", "A2"):
        desc = build_catalog("Aff" + base)
        series = enumerate_levels(desc.gcm, bott_order, workers=workers)
        expected = affine_poincare(invariant_degrees(build_catalog(base)), bott_order)
        ok = not series.complete and series.coeffs == expected.coeffs
        add(f"affine-series-{base.lower()}", "pass" if ok else "fail",
            list(expected.coeffs), list(series.coeffs))

    quotient = fitted.get(("HA2", "D4"))
    if quotient is None:
        add("cyclotomic-content-ha2-d4", "skip", "", "needs the full HA2/D4 fit (order >= 17)")
    else:
        factors, residual = cyclotomic_trial_division(quotient, 12)
        ok = (factors == golden.HA2_D4_CYCLOTOMIC_FACTORS
              and residual.coeffs == golden.HA2_D4_CYCLOTOMIC_RESIDUAL)
        add("cyclotomic-content-ha2-d4", "pass" if ok else "fail",
            f"factors {golden.HA2_D4_CYCLOTOMIC_FACTORS}, residual {golden.HA2_D4_CYCLOTOMIC_RESIDUAL}",
            f"factors {factors}, residual {tuple(residual.coeffs)}")

    return items


def cmd_verify_paper(config: RunConfig) -> int:
    items = _verify_report(config.order, config.margin, config.workers)
    if config.output == "json":
        _print(json.dumps(items, indent=2) + "\n")
    elif config.output == "csv":
        rows = [("item", "status", "expected", "actual")]
        rows += [(i["item"], i["status"], i["expected"], i["actual"]) for i in items]
        _emit_csv(rows)
    else:
        width = max(len(i["item"]) for i in items)
        for i in items:
            line = f"{i['status'].upper():<5} {i['item']:<{width}}"
            if i["status"] == "fail":
                line += f"  expected {i['expected']}  actual {i['actual']}"
            elif i["status"] == "skip":
                line += f"  ({i['actual']})"
            _print(line.rstrip() + "\n")
        failed = sum(1 for i in items if i["status"] == "fail")
        _print(f"{len(items)} checks, {failed} failed\n")
    return EXIT_OK if all(i["status"] != "fail" for i in items) else EXIT_VERIFY_FAILED


_COMMANDS = {
    "catalog": cmd_catalog,
    "growth": cmd_growth,
    "poincare": cmd_poincare,
    "fit": cmd_fit,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        return _COMMANDS[config.command](config)
    except CheckpointMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
