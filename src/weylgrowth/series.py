"""Exact integer polynomials, truncated power series, and growth-series fits.

All coefficient arithmetic uses Python integers, so results are exact at
any magnitude.  The fit machinery decides whether a finite Poincare
polynomial divided by a growth series truncates to a polynomial, which is
the rational-form question for hyperbolic growth series.

Every product goes through one kernel, ``_convolve``: Kronecker
substitution packs each operand into one integer, so a product costs one
CPython big-integer multiplication (Karatsuba, in C) plus packing and
unpacking linear in the operands' byte size.  Series division is a
recurrence that builds one quotient coefficient per step as an exact dot
product summed in C, starting at the numerator's first nonzero
coefficient; ``ratio_fit`` runs it only to deg P + margin and finishes
with one product and the division of a residual that is zero whenever the
quotient truncates by then.  ``affine_poincare`` divides by each
1 - t^m as a running sum along the residue classes mod m, O(order)
additions in C per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, count
from operator import mul, sub

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
    return next(compress(range(len(cs) - 1, -1, -1), reversed(cs)), -1)


def _offset(n: int, w: int) -> int:
    """2**(8w - 1) in each of n base-2**(8w) digits."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _convolve(a, b, n: int) -> list[int]:
    """Coefficients 0..n-1 of the product of integer sequences ``a``, ``b``.

    Kronecker substitution at base B = 2**(8w): each operand becomes the
    one integer sum of c_i * B**i, the two are multiplied once, and the
    product's digits are read back.  Packing and unpacking shift every
    digit by B/2, so each shifted digit lies in [0, B) and none borrows
    from the next.  That holds when B/2 exceeds every operand coefficient
    and max|a| * max|b| * min(len(a), len(b)), which bounds every product
    coefficient; w is the least width that does.  The cost is one CPython
    big-integer product (Karatsuba, in C) of len(a) * w and len(b) * w
    bytes, plus packing and unpacking linear in those byte counts.
    """
    m = min(n, len(a) + len(b) - 1)
    if m <= 0 or not (a and b):
        return [0] * n
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    w = max(top_a, top_b, top_a * top_b * min(len(a), len(b))).bit_length() // 8 + 1
    half = 1 << (8 * w - 1)

    def pack(cs):
        raw = b"".join([(c + half).to_bytes(w, "little") for c in cs])
        return int.from_bytes(raw, "little") - _offset(len(cs), w)

    digits = ((pack(a) * pack(b) + _offset(m, w)) & ((1 << (8 * w * m)) - 1)).to_bytes(w * m, "little")
    return [int.from_bytes(digits[i : i + w], "little") - half for i in range(0, w * m, w)] + [0] * (n - m)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies t**i.

    Trailing zeros are stripped on construction, so equality is structural.
    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(map(int, self.coeffs))
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
        cs = tuple(map(int, self.coeffs))
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
    cs = tuple(map(int, x.coeffs))
    if isinstance(x, IntPolynomial):
        return cs[: order + 1] + (0,) * (order + 1 - len(cs[: order + 1]))
    if len(cs) < order + 1:
        raise ValueError(f"{role} is only known to order {len(cs) - 1}, need {order}")
    return cs[: order + 1]


def _available_order(x) -> int | None:
    return None if isinstance(x, IntPolynomial) else len(x.coeffs) - 1


def series_mul(a, b) -> TruncatedSeries:
    """Cauchy product truncated to the shorter operand's order.

    Zeros past either operand's last nonzero coefficient are dropped and
    the rest is one ``_convolve``: a single big-integer product of the
    packed operands, plus packing and unpacking linear in their size.
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
    Every quotient coefficient before the numerator's first nonzero one,
    at index ``s``, is zero; from there, quotient coefficient k is
    ``num[k]`` minus one dot product, summed in C, of the denominator's
    coefficients 1..deg against the quotient coefficients s..k-1, skipping
    zeros past the denominator's degree ``deg`` and past the quotient's
    last nonzero coefficient so far.  A zero numerator costs one O(order)
    scan in C; a sparse or low-degree denominator O((order - s) * deg); a
    dense one, such as a growth series, O((order - s) * deg(quotient)) when
    the quotient truncates and O((order - s)**2) when it does not.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    den = _series_prefix(denominator, order, "denominator")
    num = _series_prefix(numerator, order, "numerator")
    lead = den[0]
    if lead not in (1, -1):
        raise NonUnitConstantTermError(f"denominator constant term is {lead}, must be +1 or -1")
    tail = den[1 : _degree(den) + 1]
    start = next(compress(count(), num), order + 1)  # q[k] = 0 for every k < start
    q, top = [0] * start, -1  # top: index of the last nonzero quotient coefficient so far
    for k in range(start, order + 1):
        # q[k] = lead * (num[k] - sum of den[k - j] * q[j] over lo <= j <= top)
        lo = max(start, k - len(tail))
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

    The quotient P/S is computed exactly to the growth series' order.  If
    the final ``min_margin`` (or more) coefficients are all zero the
    verdict is ``polynomial``; otherwise ``non_terminating`` with the
    offending indices as evidence.  Requires order >= deg(finite_poly) +
    min_margin so a polynomial of maximal plausible degree could still be
    margined.

    The division's recurrence runs only through K = deg P + min_margin,
    giving Q_K.  One ``_convolve`` gives the residual R = P - Q_K * S
    through the order, and the quotient past K is R / S, because
    P/S = Q_K + R/S and R vanishes through K.  When the quotient truncates
    by K, R is zero and the fit costs O(K**2) plus one product; otherwise
    dividing R costs what the full recurrence would.
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
    # Q_K = P/S through K = cut; then P/S = Q_K + R/S, where R = P - Q_K * S
    # vanishes through K.
    cut = finite_poly.degree + min_margin
    head = series_div(finite_poly, growth, cut).coeffs
    s = _series_prefix(growth, order, "growth series")
    num = _series_prefix(finite_poly, order, "finite polynomial")
    residual = list(map(sub, num, _convolve(head, s[: _degree(s) + 1], order + 1)))
    q = head + series_div(TruncatedSeries(residual), growth, order).coeffs[cut + 1 :]
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
    """Affine growth series: the finite polynomial times prod 1/(1 - t^(d-1)).

    Multiplying by 1/(1 - t^m) is a running sum along each residue class
    mod m, so each factor is ``itertools.accumulate`` over the slices
    ``cs[r::m]``: O(order) additions in C and no division.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    cs = list(TruncatedSeries.from_polynomial(finite_poincare(degrees), order).coeffs)
    for d in degrees:
        m = int(d) - 1
        for r in range(min(m, order + 1)):
            cs[r::m] = accumulate(cs[r::m])
    return TruncatedSeries(tuple(cs))


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

