"""The three benchmark workloads: seeded inputs, one pass each, and checks.

Every expected answer is held here as a literal or derived from one with
the small pure-Python polynomial helpers below; nothing is read from
``weylgrowth.golden``, so a change that edits both the code and the
frozen reference values is still caught.  Only public names of the
package are used, and calls go through module attributes
(``series.ratio_fit``, ``cli.main``) so that the traced run's wrappers
see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from weylgrowth import algebra, cli, series

# P(D5) / growth(HA3) = (1 + t^4) * F15, the paper's headline quotient.
HA3_D5_FACTORS = (
    (1, 0, 0, 0, 1),
    (1, 0, -1, -1, -2, -1, 0, 1, 3, 2, 2, 1, -1, -1, -1, -1),
)
HA3_D5_DEGREE = 19
HA3_ORDER = 27
HA3_RANK = 5
D5_DEGREES = (2, 4, 5, 6, 8)

# Invariant degrees of the finite types the series workload draws from.
# Each slot holds types of one rank whose series cost about the same, so
# a seed changes which types run but not how much work a pass does.
SERIES_SLOTS = (
    {"B8": (2, 4, 6, 8, 10, 12, 14, 16), "C8": (2, 4, 6, 8, 10, 12, 14, 16),
     "D8": (2, 4, 6, 8, 8, 10, 12, 14), "E8": (2, 8, 12, 14, 18, 20, 24, 30)},
    {"B6": (2, 4, 6, 8, 10, 12), "C6": (2, 4, 6, 8, 10, 12),
     "D6": (2, 4, 6, 6, 8, 10), "E6": (2, 5, 6, 8, 9, 12)},
    {"B4": (2, 4, 6, 8), "C4": (2, 4, 6, 8), "D4": (2, 4, 4, 6), "F4": (2, 6, 8, 12)},
    {"A2": (2, 3), "B2": (2, 4), "G2": (2, 6)},
)
SERIES_ORDER = 2000
SERIES_MARGIN = 5

FREE3_ORDER = 17
FREE3_RESUME_ORDER = 18
# Every off-diagonal pair has a_ij * a_ji = 4, so each pair of reflections
# generates an infinite dihedral group and W = Z2 * Z2 * Z2.  Of the
# matrices with entries -1, -2 and -4 this one grows coordinates fastest,
# so levels leave the packed-key path earliest (level 12).
FREE3_MATRIX = ((2, -1, -4), (-4, 2, -1), (-1, -4, 2))
FREE3_LABELS = ("a", "b", "c")


@dataclass
class Outcome:
    """What one pass did: operations attempted and failed, and the work done."""

    attempted: int = 0
    failed: int = 0
    # ``work`` is what elements_per_s counts: Weyl group elements produced
    # on the enumerating workloads, growth coefficients on the series one.
    work: int = 0
    elements: int = 0
    candidates: int = 0
    stdout_bytes: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


# --- pure-Python reference arithmetic, independent of weylgrowth.series ---

def poly_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_product(polys) -> tuple[int, ...]:
    out = (1,)
    for p in polys:
        out = poly_mul(out, p)
    while len(out) > 1 and out[-1] == 0:
        out = out[:-1]
    return out


def finite_poincare_ref(degrees) -> tuple[int, ...]:
    return poly_product((1,) * d for d in degrees)


def series_quotient(num, den, order: int) -> list[int]:
    """num / den as a power series through ``order``; den[0] must be 1."""
    q = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * q[k - j]
        q.append(acc)
    return q


def cyclotomic_multiplicities(degrees) -> tuple[tuple[int, int], ...]:
    """Phi_k divides prod (1-t^d)/(1-t) exactly #{d : k | d} times, k >= 2."""
    top = max(degrees)
    counts = ((k, sum(1 for d in degrees if d % k == 0)) for k in range(2, top + 1))
    return tuple((k, m) for k, m in counts if m)


# --- helpers -----------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main`` in-process, capturing what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def write_permuted_gcm(path: Path, matrix, labels, seed: int, errors: list[str]) -> None:
    """Write the matrix with its nodes in a seeded order (seed 0 keeps the
    given order) and check that ``load_gcm_file`` reads it back."""
    order = list(range(len(matrix)))
    if seed != 0:
        random.Random(seed).shuffle(order)
    permuted = tuple(tuple(matrix[i][j] for j in order) for i in order)
    names = tuple(labels[i] for i in order)
    path.write_text(json.dumps({"labels": list(names), "matrix": [list(r) for r in permuted]}))
    gcm = algebra.load_gcm_file(path)
    if gcm.entries != permuted or gcm.labels != names:
        errors.append(f"{path.name} does not round-trip")


# --- ha3-fit -------------------------------------------------------------------

def setup_ha3_fit(seed: int, tmp: Path, wrong: bool = False) -> dict:
    errors: list[str] = []
    hyp = algebra.build_catalog("HA3").gcm
    path = tmp / "ha3.json"
    write_permuted_gcm(path, hyp.entries, hyp.labels, seed, errors)
    d5 = algebra.invariant_degrees(algebra.build_catalog("D5"))
    if sorted(d5) != sorted(D5_DEGREES):
        errors.append(f"D5 invariant degrees {d5}")
    quotient = list(poly_product(HA3_D5_FACTORS))
    if wrong:
        quotient[7] += 1
    growth = series_quotient(finite_poincare_ref(D5_DEGREES), quotient, HA3_ORDER)
    return {"gcm": str(path), "quotient": quotient, "growth": growth, "errors": errors}


def pass_ha3_fit(inp: dict) -> Outcome:
    out = Outcome()
    code, text = run_cli(["fit", "--gcm-file", inp["gcm"], "--candidate", "D5",
                          "--order", str(HA3_ORDER), "--margin", "5", "--output", "json"])
    out.stdout_bytes += len(text.encode())
    ok = code == 0
    if ok:
        got = json.loads(text)
        ok = (got["verdict"] == "polynomial" and got["degree"] == HA3_D5_DEGREE
              and got["quotient"] == inp["quotient"])
    out.check(ok, f"fit HA3/D5: exit {code}, verdict, degree or quotient differs")
    growth = inp["growth"]
    out.elements = out.work = sum(growth[1:])
    out.candidates = HA3_RANK * sum(growth[:-1])
    return out


# --- series-closed-form -----------------------------------------------------------

def setup_series_closed_form(seed: int, tmp: Path, wrong: bool = False) -> dict:
    rng = random.Random(seed)
    menu = [rng.choice(sorted(slot.items())) for slot in SERIES_SLOTS]
    rng.shuffle(menu)
    errors = []
    cases = []
    for name, degrees in menu:
        got = algebra.invariant_degrees(algebra.build_catalog(name))
        if sorted(got) != sorted(degrees):
            errors.append(f"{name} invariant degrees {got}")
        quotient = list(poly_product((1,) + (0,) * (d - 2) + (-1,) for d in degrees))
        multiplicities = cyclotomic_multiplicities(degrees)
        if wrong:
            k, m = multiplicities[0]
            multiplicities = ((k, m + 1),) + multiplicities[1:]
        cases.append({"name": name, "degrees": degrees,
                      "poincare": finite_poincare_ref(degrees),
                      "quotient": tuple(quotient),
                      "multiplicities": multiplicities})
    return {"cases": cases, "errors": errors}


def pass_series_closed_form(inp: dict) -> Outcome:
    out = Outcome()
    n = SERIES_ORDER
    for case in inp["cases"]:
        name, degrees = case["name"], case["degrees"]
        p = series.finite_poincare(degrees)
        out.check(p.coeffs == case["poincare"], f"{name} finite_poincare")
        s = series.affine_poincare(degrees, n)
        out.check(s.order == n and s.coeffs[0] == 1, f"{name} affine_poincare")
        fit = series.ratio_fit(p, s, SERIES_MARGIN)
        out.check(fit.is_polynomial and fit.quotient.coeffs == case["quotient"],
                  f"{name} ratio_fit {fit.verdict}")
        q = fit.quotient if fit.quotient is not None else series.IntPolynomial(case["quotient"])
        back = series.series_mul(s, q).coeffs
        want = case["poincare"] + (0,) * (n + 1 - len(case["poincare"]))
        out.check(back == want, f"{name} series_mul")
        factors, residual = series.cyclotomic_trial_division(p, max(degrees))
        out.check(factors == case["multiplicities"] and residual.coeffs == (1,),
                  f"{name} cyclotomic_trial_division")
        out.work += n + 1
    return out


# --- free3-ckpt ----------------------------------------------------------------

def setup_free3_ckpt(seed: int, tmp: Path, wrong: bool = False) -> dict:
    errors: list[str] = []
    path = tmp / "free3.json"
    write_permuted_gcm(path, FREE3_MATRIX, FREE3_LABELS, seed, errors)
    growth = [1] + [3 * 2 ** (k - 1) for k in range(1, FREE3_RESUME_ORDER + 1)]
    if wrong:
        growth[-1] += 1
    return {"gcm": str(path), "checkpoint": str(tmp / "free3.ckpt.npz"),
            "growth": growth, "errors": errors}


def pass_free3_ckpt(inp: dict) -> Outcome:
    out = Outcome()
    growth = inp["growth"]
    for order in (FREE3_ORDER, FREE3_RESUME_ORDER):
        code, text = run_cli(["growth", "--gcm-file", inp["gcm"], "--order", str(order),
                              "--checkpoint", inp["checkpoint"], "--workers", "2",
                              "--output", "json"])
        out.stdout_bytes += len(text.encode())
        ok = code == 0 and json.loads(text)["coeffs"] == growth[: order + 1]
        out.check(ok, f"growth to order {order}: exit {code}, coefficients differ")
    out.elements = out.work = sum(growth[1:])
    out.candidates = 3 * (sum(growth[:FREE3_ORDER]) + growth[FREE3_ORDER])
    return out


WORKLOADS = {
    "ha3-fit": (setup_ha3_fit, pass_ha3_fit),
    "series-closed-form": (setup_series_closed_form, pass_series_closed_form),
    "free3-ckpt": (setup_free3_ckpt, pass_free3_ckpt),
}
