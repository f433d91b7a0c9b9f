"""Exact integer polynomials, truncated power series, and growth-series fits.

All coefficient arithmetic uses Python integers, so results are exact at
any magnitude.  The fit machinery decides whether a finite Poincare
polynomial divided by a growth series truncates to a polynomial, which is
the rational-form question for hyperbolic growth series.

Products and quotients are built one coefficient at a time, each as an
exact dot product ``sum(map(mul, ...))`` that runs in C and skips zeros
past each operand's last nonzero coefficient.  A product or quotient
through ``order`` costs O(order * deg) integer multiplications when one
operand is a polynomial of degree ``deg`` (for a quotient: the
denominator, or the quotient itself once it truncates), and O(order**2),
with the inner sums in C, when both are dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

__all__ = [
    "NonUnitConstantTermError",
    "InsufficientOrderError",
    "IntPolynomial",
    "TruncatedSeries",
    "RatioFitResult",
    "finite_poincare",
    "affine_poincare",
    "series_mul",
    "series_div",
    "ratio_fit",
    "expand_factored",
    "cyclotomic_polynomial",
    "cyclotomic_trial_division",
]

POLYNOMIAL = "polynomial"
NON_TERMINATING = "non_terminating"


class NonUnitConstantTermError(ValueError):
    """Series division needs a denominator with constant term +1 or -1."""


class InsufficientOrderError(ValueError):
    """The growth series is too short for the requested fit margin."""


def _degree(cs) -> int:
    """Index of the last nonzero entry of ``cs``; -1 when every entry is 0."""
    k = len(cs) - 1
    while k >= 0 and not cs[k]:
        k -= 1
    return k


def _convolve(a, b, n: int) -> list[int]:
    """Coefficients 0..n-1 of the product of coefficient tuples ``a``, ``b``.

    Coefficient k is one dot product over the indices where both operands
    have entries, so it costs O(min(k, len(a), len(b))) multiplications.
    """
    out = []
    for k in range(min(n, len(a) + len(b) - 1)):
        lo, hi = max(0, k - len(b) + 1), min(k + 1, len(a))
        out.append(sum(map(mul, a[lo:hi], reversed(b[k - hi + 1 : k - lo + 1]))))
    return out + [0] * (n - len(out))


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies t**i.

    Trailing zeros are stripped on construction, so equality is structural.
    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs[: _degree(cs) + 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return IntPolynomial(tuple(_convolve(a, b, len(a) + len(b) - 1)))

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_quotient(self, divisor: "IntPolynomial"):
        """Quotient self / divisor over the integers, or None if not exact."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        if len(rem) < len(dcs):
            return None if rem else IntPolynomial()
        q = [0] * (len(rem) - len(dcs) + 1)
        for top in range(len(rem) - 1, len(dcs) - 2, -1):
            if rem[top] == 0:
                continue
            t, r = divmod(rem[top], dcs[-1])
            if r:
                return None
            shift = top - (len(dcs) - 1)
            q[shift] = t
            for k, c in enumerate(dcs):
                rem[shift + k] -= t * c
        return IntPolynomial(tuple(q)) if not any(rem) else None

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            mag = abs(c)
            body = term if (mag == 1 and i > 0) else (str(mag) if i == 0 else f"{mag}*{term}")
            parts.append(("- " if c < 0 else "+ ") + body if parts else ("-" + body if c < 0 else body))
        return " ".join(parts)


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series known exactly through ``order`` = len(coeffs) - 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_polynomial(p: IntPolynomial, order: int) -> "TruncatedSeries":
        cs = p.coeffs[: order + 1]
        return TruncatedSeries(cs + (0,) * (order + 1 - len(cs)))


def _series_prefix(x, order: int, role: str) -> tuple[int, ...]:
    """Coefficients 0..order of a polynomial or series-like operand.

    Polynomials extend with zeros; anything else (a TruncatedSeries; a
    GrowthSeries is one) must already be known through ``order``.
    """
    cs = tuple(int(c) for c in x.coeffs)
    if isinstance(x, IntPolynomial):
        return cs[: order + 1] + (0,) * (order + 1 - len(cs[: order + 1]))
    if len(cs) < order + 1:
        raise ValueError(f"{role} is only known to order {len(cs) - 1}, need {order}")
    return cs[: order + 1]


def _available_order(x) -> int | None:
    return None if isinstance(x, IntPolynomial) else len(x.coeffs) - 1


def series_mul(a, b) -> TruncatedSeries:
    """Cauchy product truncated to the shorter operand's order.

    Zeros past either operand's last nonzero coefficient are skipped, so a
    product through ``order`` with a polynomial of degree ``deg`` costs
    O(order * deg) multiplications and one of two dense series O(order**2),
    each coefficient summed in C.
    """
    orders = [o for o in (_available_order(a), _available_order(b)) if o is not None]
    if not orders:
        raise ValueError("series_mul needs at least one truncated operand")
    order = min(orders)
    xa = _series_prefix(a, order, "left factor")
    xb = _series_prefix(b, order, "right factor")
    out = _convolve(xa[: _degree(xa) + 1], xb[: _degree(xb) + 1], order + 1)
    return TruncatedSeries(tuple(out))


def series_div(numerator, denominator, order: int) -> TruncatedSeries:
    """Exact long division of series, valid through ``order``.

    The denominator's constant term must be +1 or -1 (true for every
    growth series), which keeps all quotient coefficients integral.
    Quotient coefficient k is ``num[k]`` minus one dot product, summed in
    C, of the denominator's coefficients 1..deg against the quotient
    coefficients before k, skipping zeros past the denominator's degree
    ``deg`` and past the quotient's last nonzero coefficient so far.  A
    sparse or low-degree denominator therefore costs O(order * deg); a
    dense one, such as a growth series, O(order * deg(quotient)) when the
    quotient truncates and O(order**2) when it does not.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    den = _series_prefix(denominator, order, "denominator")
    num = _series_prefix(numerator, order, "numerator")
    lead = den[0]
    if lead not in (1, -1):
        raise NonUnitConstantTermError(f"denominator constant term is {lead}, must be +1 or -1")
    tail = den[1 : _degree(den) + 1]
    q, top = [], -1  # top: index of the last nonzero quotient coefficient so far
    for k in range(order + 1):
        # q[k] = lead * (num[k] - sum of den[k - j] * q[j] over lo <= j <= top)
        lo = max(0, k - len(tail))
        acc = num[k] - sum(map(mul, tail[k - top - 1 : k - lo], reversed(q[lo : top + 1])))
        q.append(acc * lead)
        if acc:
            top = k
    return TruncatedSeries(tuple(q))


@dataclass(frozen=True)
class RatioFitResult:
    """Outcome of dividing a finite Poincare polynomial by a growth series.

    The quotient decides the verdict: a polynomial ``quotient`` gives the
    ``polynomial`` verdict and its degree, with ``margin_checked`` zero
    coefficients verified past it; ``None`` gives ``non_terminating``, and
    ``evidence`` lists the nonzero quotient indices inside the top margin
    window.  Either way the verdict only speaks for coefficients up to
    ``order_checked``.
    """

    quotient: IntPolynomial | None
    margin_checked: int
    evidence: tuple[int, ...]
    order_checked: int

    @property
    def is_polynomial(self) -> bool:
        return self.quotient is not None

    @property
    def verdict(self) -> str:
        return POLYNOMIAL if self.is_polynomial else NON_TERMINATING

    @property
    def degree(self) -> int | None:
        return self.quotient.degree if self.is_polynomial else None


def ratio_fit(finite_poly: IntPolynomial, growth, min_margin: int = 5) -> RatioFitResult:
    """Decide whether finite_poly / growth truncates to a polynomial.

    The quotient is computed exactly to the growth series' order.  If the
    final ``min_margin`` (or more) coefficients are all zero the verdict
    is ``polynomial``; otherwise ``non_terminating`` with the offending
    indices as evidence.  Requires order >= deg(finite_poly) + min_margin
    so a polynomial of maximal plausible degree could still be margined.
    """
    if min_margin < 1:
        raise ValueError("min_margin must be >= 1")
    if finite_poly.is_zero:
        raise ValueError("finite polynomial must be nonzero")
    order = len(growth.coeffs) - 1
    if growth.coeffs[0] != 1:
        raise ValueError("growth series must have constant term 1")
    if order < finite_poly.degree + min_margin:
        raise InsufficientOrderError(
            f"growth order {order} < degree {finite_poly.degree} + margin {min_margin}"
        )
    q = series_div(finite_poly, growth, order).coeffs
    last_nonzero = _degree(q)
    margin = order - last_nonzero
    if margin >= min_margin:
        return RatioFitResult(IntPolynomial(q[: last_nonzero + 1]), margin, (), order)
    evidence = tuple(k for k in range(order - min_margin + 1, order + 1) if q[k])
    return RatioFitResult(None, margin, evidence, order)


def finite_poincare(degrees) -> IntPolynomial:
    """Product of (1 + t + ... + t^(d-1)) over the invariant degrees.

    The result is palindromic of degree sum(d - 1) and evaluates at t = 1
    to the Weyl group order prod(d).
    """
    ds = [int(d) for d in degrees]
    if any(d < 2 for d in ds):
        raise ValueError("invariant degrees must all be >= 2")
    return expand_factored(IntPolynomial((1,) * d) for d in ds)


def affine_poincare(degrees, order: int) -> TruncatedSeries:
    """Affine growth series: the finite polynomial times prod 1/(1 - t^(d-1))."""
    if order < 0:
        raise ValueError("order must be >= 0")
    series = TruncatedSeries.from_polynomial(finite_poincare(degrees), order)
    for d in degrees:
        one_minus = IntPolynomial((1,) + (0,) * (int(d) - 2) + (-1,))
        series = series_div(series, one_minus, order)
    return series


def expand_factored(factors) -> IntPolynomial:
    """Exact product of a list of polynomials; the empty product is 1."""
    out = IntPolynomial((1,))
    for f in factors:
        out = out * f
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial via (t^n - 1) / prod of proper divisors."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    p = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            p = p.exact_quotient(cyclotomic_polynomial(d))
    return p


def cyclotomic_trial_division(p: IntPolynomial, max_cyclotomic_index: int):
    """Peel off cyclotomic factors with index <= max_cyclotomic_index.

    Returns ``(factors, residual)`` where factors is a tuple of
    (index, multiplicity) pairs and the product of those factors times the
    residual reconstructs ``p``.  Index 1 denotes the sign-normalized
    first cyclotomic 1 - t, so all divisors have constant term +1 and the
    residual keeps the sign of p's constant term.
    """
    if p.is_zero:
        raise ValueError("polynomial must be nonzero")
    factors = []
    for k in range(1, max_cyclotomic_index + 1):
        divisor = IntPolynomial((1, -1)) if k == 1 else cyclotomic_polynomial(k)
        mult = 0
        while True:
            q = p.exact_quotient(divisor)
            if q is None:
                break
            p, mult = q, mult + 1
        if mult:
            factors.append((k, mult))
    return tuple(factors), p

