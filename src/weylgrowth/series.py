"""Exact integer polynomials, truncated power series, and growth-series fits.

All coefficient arithmetic uses Python integers, so results are exact at
any magnitude.  The fit machinery decides whether a finite Poincare
polynomial divided by a growth series truncates to a polynomial, which is
the rational-form question for hyperbolic growth series.

Every product goes through one kernel, ``_convolve``: Kronecker
substitution packs each operand into one integer, so a product costs one
CPython big-integer multiplication (Karatsuba, in C) plus packing and
unpacking linear in the operands' byte size.  One pair of helpers,
``_pack`` and ``_unpack``, writes and reads those digits for every
product and for the fit; digits that fit in 8 bytes are 64-bit words,
converted by ``struct`` with the loop in C, and wider ones take the
least width and one ``int.to_bytes``/``int.from_bytes`` per coefficient.
Series division is a recurrence that builds one quotient coefficient per
step as an exact dot product summed in C, starting at the numerator's
first nonzero coefficient; ``ratio_fit`` runs it only to deg P + margin,
then checks the residual P - Q * S for zero on the packed product, and
unpacks and divides it only when it is not zero, that is, when the
quotient has not truncated by then.  Operands are read as Python ints
once: the module's own types hold them already, and anything else, such
as numpy integers, is converted on entry.

Products of powers of 1 - t^m have a second kernel, ``_expand``: a
shifted difference for each positive power and, for each exact division,
a running sum along the residue classes mod m, O(n) additions in C each
and no product.  ``affine_poincare`` divides by each 1 - t^(d-1) with it.
A finite Poincare polynomial prod (1 - t^d) / (1 - t)^r and a cyclotomic
polynomial, prod over d | n of (1 - t^d)^mu(n/d) (Moebius), are expanded
by it from their cyclotomic factors, which they carry, so
``cyclotomic_trial_division`` reads those factors off and expands the
rest as the residual, with no division.  A polynomial that carries none,
such as a quotient fitted over a walk's series, is divided by each
cyclotomic polynomial in turn, by long division.

Bott's affine series P(t) / prod (1 - t^(d-1)) carries the same kind of
form with signed exponents: P's factors less each Phi_k with k | d - 1.
When both operands carry a form, ``series_mul`` expands the sum of the
two forms and ``ratio_fit`` the difference through the order, by one
expander, ``_expand_form``, with no product and no division; a
polynomial quotient carries its form.  Any other operand, such as a
walk's growth series, takes the packed product and division above.  On
the ``series-closed-form`` benchmark workload the read-offs took the
median ``solve_s`` from 11.5 to 3.7 ms over ten alternating pairs
and a traced pass's ``series_div`` calls from 4 to none
(``BENCH_20261022_series_forms.json``, 2 cores, Python 3.11.7).
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, compress, count, repeat
from operator import add, mul, sub

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

# Bytes that ``poincare --affine`` holds per coefficient of Bott's series
# at its peak, for the memory budget of :func:`affine_poincare`: the
# coefficients as Python ints, the lists and tuples that expand them, and
# their decimal text.  tracemalloc read peaks of 311, 334 and 341 bytes per
# coefficient over the whole command for E8, the largest type, with JSON
# output, at orders 100,000, 1,000,000 and 2,000,000 (text and CSV: 270
# and 286 at the first two; Python 3.11.7).  The ints grow by a few bytes
# each time the order doubles, so this allows for orders ten times those.
_AFFINE_TERM_BYTES = 384


def _memory_budget() -> int:
    """Bytes that one computation may hold: half the physical memory.

    This is the package's one budget rule: :func:`affine_poincare` refuses
    a series whose coefficients would pass it, and the whole levels and
    orbit states of the walk's cross-checks are charged to it
    (:mod:`weylgrowth.weyl`).
    """
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


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


def _width(bound: int) -> int:
    """Digit width in bytes whose half-base 2**(8w - 1) exceeds ``bound``.

    Up to 8 bytes the width is 8, so each digit is one 64-bit word that
    ``struct`` reads and writes in C; past 8 it is the least that does.
    """
    return max(8, bound.bit_length() // 8 + 1)


def _pack(cs, w: int) -> int:
    """The integer sum of cs[i] * B**i at base B = 2**(8w); every |cs[i]| < B/2.

    Each digit is shifted by B/2 into [0, B) and written as w little-endian
    bytes, so none borrows from the next; the shifts come off the whole
    integer at once.
    """
    half = 1 << (8 * w - 1)
    if w == 8:
        raw = struct.pack(f"<{len(cs)}Q", *map(add, cs, repeat(half)))
    else:
        raw = b"".join([(c + half).to_bytes(w, "little") for c in cs])
    return int.from_bytes(raw, "little") - _offset(len(cs), w)


def _unpack(x: int, m: int, w: int) -> list[int]:
    """Digits 0..m-1 of x = sum of d_i * B**i at base B = 2**(8w); every |d_i| < B/2."""
    half = 1 << (8 * w - 1)
    raw = ((x + _offset(m, w)) & ((1 << (8 * w * m)) - 1)).to_bytes(w * m, "little")
    if w == 8:
        return list(map(sub, struct.unpack(f"<{m}Q", raw), repeat(half)))
    return [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * m, w)]


def _product_bound(a, b) -> int:
    """A bound on every coefficient of a, of b and of their product."""
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    return max(top_a, top_b, top_a * top_b * min(len(a), len(b)))


def _convolve(a, b, n: int) -> list[int]:
    """Coefficients 0..n-1 of the product of integer sequences ``a``, ``b``.

    Kronecker substitution at base B = 2**(8w): ``_pack`` makes each
    operand the one integer sum of c_i * B**i, the two are multiplied once,
    and ``_unpack`` reads the product's digits back.  Both shift every digit
    by B/2, which keeps it in [0, B) when B/2 exceeds every operand
    coefficient and max|a| * max|b| * min(len(a), len(b)), a bound on every
    product coefficient.  Digits that fit in 8 bytes are 64-bit words,
    packed and unpacked by ``struct`` with the loop in C; wider ones
    take the least width, one ``int.to_bytes``/``int.from_bytes`` each.
    The cost is one CPython big-integer product (Karatsuba, in C) of
    len(a) * w and len(b) * w bytes, plus packing and unpacking linear in
    those byte counts.
    """
    m = min(n, len(a) + len(b) - 1)
    if m <= 0 or not (a and b):
        return [0] * n
    w = _width(_product_bound(a, b))
    return _unpack(_pack(a, w) * _pack(b, w), m, w) + [0] * (n - m)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies t**i.

    Trailing zeros are stripped on construction, so equality is structural.
    The zero polynomial has an empty coefficient tuple and degree -1.
    A polynomial that this module expands from cyclotomic factors
    (:func:`finite_poincare`, :func:`cyclotomic_polynomial`, and a
    :func:`ratio_fit` quotient read off two such forms) carries them as
    ``(index, multiplicity)`` pairs, index 1 meaning 1 - t, for
    :func:`cyclotomic_trial_division` to read off; any other carries None.
    The factors take no part in equality, hashing or ``repr``.
    """

    coeffs: tuple[int, ...] = ()
    _cyclotomic: tuple[tuple[int, int], ...] | None = field(default=None, init=False, compare=False, repr=False)

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
    """A power series known exactly through ``order`` = len(coeffs) - 1.

    A series that this module expands from a product of cyclotomic
    polynomials to signed powers (:func:`affine_poincare`, and
    :func:`series_mul` of two such operands) carries that product as
    ``(index, exponent)`` pairs, index 1 meaning 1 - t, for
    :func:`series_mul` and :func:`ratio_fit` to read their answers off;
    any other carries None.  The form takes no part in equality, hashing
    or ``repr``.
    """

    coeffs: tuple[int, ...]
    _cyclotomic: tuple[tuple[int, int], ...] | None = field(default=None, init=False, compare=False, repr=False)

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
        if order < 0:
            raise ValueError("a truncated series needs at least the constant term")
        cs = p.coeffs[: order + 1]
        return _series(cs + (0,) * (order + 1 - len(cs)))


def _series(cs, form=None) -> TruncatedSeries:
    """A TruncatedSeries of ``cs``, which are Python ints already and not read
    again, carrying the cyclotomic form ``form`` when that is not None."""
    out = object.__new__(TruncatedSeries)
    object.__setattr__(out, "coeffs", tuple(cs))
    if form is not None:
        object.__setattr__(out, "_cyclotomic", form)
    return out


def _ints(x) -> tuple[int, ...]:
    """``x.coeffs`` as Python ints; this module's own types hold them already.

    Anything else, such as numpy integers, is converted here, once per
    operand, so fixed-width values stay exact.
    """
    if isinstance(x, (IntPolynomial, TruncatedSeries)):
        return x.coeffs
    return tuple(map(int, x.coeffs))


def _series_prefix(x, order: int, role: str) -> tuple[int, ...]:
    """Coefficients 0..order of a polynomial or series-like operand.

    Polynomials extend with zeros; anything else (a TruncatedSeries; a
    GrowthSeries is one) must already be known through ``order``.
    """
    cs = _ints(x)
    if isinstance(x, IntPolynomial):
        return cs[: order + 1] + (0,) * (order + 1 - len(cs[: order + 1]))
    if len(cs) < order + 1:
        raise ValueError(f"{role} is only known to order {len(cs) - 1}, need {order}")
    return cs[: order + 1]


def _available_order(x) -> int | None:
    return None if isinstance(x, IntPolynomial) else len(x.coeffs) - 1


def series_mul(a, b) -> TruncatedSeries:
    """Cauchy product truncated to the shorter operand's order.

    When both operands carry a cyclotomic form, the product is the
    expansion of their summed forms (:func:`_expand_form`), and carries
    that sum.  Otherwise zeros past either operand's last nonzero
    coefficient are dropped and the rest is one ``_convolve``: a single
    big-integer product of the packed operands, plus packing and unpacking
    linear in their size.
    """
    orders = [o for o in (_available_order(a), _available_order(b)) if o is not None]
    if not orders:
        raise ValueError("series_mul needs at least one truncated operand")
    order = min(orders)
    forms = getattr(a, "_cyclotomic", None), getattr(b, "_cyclotomic", None)
    if None not in forms:
        form = _add_forms(*forms)
        return _series(_expand_form(form, order + 1), form)
    xa = _series_prefix(a, order, "left factor")
    xb = _series_prefix(b, order, "right factor")
    return _series(_convolve(xa[: _degree(xa) + 1], xb[: _degree(xb) + 1], order + 1))


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
    return _series(q)


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

    When P and S both carry a cyclotomic form, the quotient through the
    order is the expansion of P's form less S's (:func:`_expand_form`),
    and a polynomial quotient carries that difference.  Otherwise the
    division's recurrence runs only through K = deg P + min_margin,
    giving Q_K, and P/S = Q_K + R/S, where the residual R = P - Q_K * S
    vanishes through K.  R is checked for zero packed: the Kronecker
    product of Q_K and S (``_convolve``'s packing, at a width that bounds
    P's coefficients too) must agree with packed P in its order + 1 low
    digits.  Only when it does not are the product's digits unpacked and
    R / S divided out for the quotient past K.  When the quotient
    truncates by K the fit costs O(K**2), one product and one comparison;
    otherwise dividing R costs what the full recurrence would.
    """
    if min_margin < 1:
        raise ValueError("min_margin must be >= 1")
    if finite_poly.is_zero:
        raise ValueError("finite polynomial must be nonzero")
    forms = finite_poly._cyclotomic, getattr(growth, "_cyclotomic", None)
    form = _add_forms(*forms, -1) if None not in forms else None
    s = _ints(growth)
    growth, order = _series(s), len(s) - 1
    if s[0] != 1:
        raise ValueError("growth series must have constant term 1")
    if order < finite_poly.degree + min_margin:
        raise InsufficientOrderError(
            f"growth order {order} < degree {finite_poly.degree} + margin {min_margin}"
        )
    if form is not None:
        q = _expand_form(form, order + 1)
    else:
        p = finite_poly.coeffs
        cut = finite_poly.degree + min_margin
        q = list(series_div(finite_poly, growth, cut).coeffs)
        used = s[: _degree(s) + 1]
        # |P's coefficients| < B/2 and |the product's| < B/2, so each digit of R
        # lies in (-B, B), and R's low order + 1 digits are all zero exactly when
        # the packed difference is 0 mod B**(order + 1).
        w = _width(max(max(map(abs, p)), _product_bound(q, used)))
        product = _pack(q, w) * _pack(used, w)
        if (product - _pack(p, w)) & ((1 << (8 * w * (order + 1))) - 1):
            residual = list(map(sub, p + (0,) * (order - finite_poly.degree), _unpack(product, order + 1, w)))
            q += series_div(_series(residual), growth, order).coeffs[cut + 1 :]
        else:
            q += [0] * (order - cut)
    last_nonzero = _degree(q)
    margin = order - last_nonzero
    if margin >= min_margin:
        quotient = IntPolynomial(tuple(q[: last_nonzero + 1]))
        # A positive form is a polynomial, expanded whole: every form this
        # module makes on a series has degree >= 0 (Bott's has 0), so the
        # quotient's is at most deg P.
        if form is not None and all(e > 0 for _, e in form):
            object.__setattr__(quotient, "_cyclotomic", form)
        return RatioFitResult(quotient, margin, (), order)
    evidence = tuple(k for k in range(order - min_margin + 1, order + 1) if q[k])
    return RatioFitResult(None, margin, evidence, order)


def _expand(cs: list[int], powers) -> list[int]:
    """``cs`` times the product of (1 - t^m)^e over the (m, e) of ``powers``,
    mod t^len(cs), in place.

    A positive e is e shifted differences, c_i - c_(i-m); a negative e is
    -e divisions by 1 - t^m, each a running sum along every residue class
    mod m (``itertools.accumulate`` over the slices ``cs[r::m]``).  Each
    step is O(len(cs)) additions in C, with no product and no long
    division, and a product that is a polynomial of degree below len(cs)
    comes out exact.
    """
    n = len(cs)
    for m, e in powers:
        for _ in range(e):
            cs[m:] = map(sub, cs[m:], cs[: n - m])
        for _ in range(-e):
            for r in range(min(m, n)):
                cs[r::m] = accumulate(cs[r::m])
    return cs


@lru_cache(maxsize=None)
def _cyclotomic_powers(k: int) -> tuple[tuple[int, int], ...]:
    """Phi_k, index 1 meaning 1 - t, as the (m, e) of a product of (1 - t^m)^e.

    With that sign, the Phi_d of all divisors d of k multiply to 1 - t^k,
    so Phi_k is 1 - t^k over the Phi_d of its proper divisors, and e is
    mu(k/m), the Moebius function, for each divisor m of k.
    """
    powers = Counter({k: 1})
    for d in range(1, k):
        if k % d == 0:
            powers.subtract(dict(_cyclotomic_powers(d)))
    return tuple((m, e) for m, e in powers.items() if e)


def _add_forms(a, b, sign: int = 1) -> tuple[tuple[int, int], ...]:
    """The cyclotomic form of the product of ``a`` and ``b``**sign: the
    exponents added index by index, zeros dropped, indices increasing."""
    total = Counter(dict(a))
    for k, e in b:
        total[k] += sign * e
    return tuple(sorted((k, e) for k, e in total.items() if e))


def _expand_form(form, n: int | None = None) -> list[int]:
    """Coefficients 0..n-1 of the product of Phi_k^e over the (k, e) of
    ``form``, index 1 meaning 1 - t; with n None, every e must be >= 0 and
    the product comes whole.

    The product is one map m -> e of powers of 1 - t^m
    (:func:`_cyclotomic_powers`) that :func:`_expand` expands, positive
    powers first, so that no division makes large intermediates.  When
    every e is >= 0 the product is a polynomial, of degree sum of m e,
    expanded only through that degree and padded with zeros to n.
    """
    powers = Counter()
    for k, e in form:
        for m, x in _cyclotomic_powers(k):
            powers[m] += e * x
    size = 1 + sum(m * e for m, e in powers.items()) if all(e >= 0 for _, e in form) else n
    n = size if n is None else n
    size = min(n, size)
    cs = _expand([1] + [0] * (size - 1), sorted(powers.items(), key=lambda me: me[1] < 0))
    return cs + [0] * (n - size)


def _cyclotomic_product(factors) -> IntPolynomial:
    """The product of Phi_k^e over the (k, e) of ``factors``, k increasing
    and index 1 meaning 1 - t, carrying ``factors`` as its factorization
    (:func:`_expand_form`)."""
    p = IntPolynomial(_expand_form(factors))
    object.__setattr__(p, "_cyclotomic", tuple(factors))
    return p


def finite_poincare(degrees) -> IntPolynomial:
    """Product of (1 + t + ... + t^(d-1)) over the invariant degrees.

    The result is palindromic of degree sum(d - 1) and evaluates at t = 1
    to the Weyl group order prod(d).  It is prod (1 - t^d) / (1 - t)^r,
    so Phi_k divides it #{i : k | d_i} times, for each k >= 2; it is
    expanded from those factors (:func:`_cyclotomic_product`) and carries
    them.
    """
    ds = [int(d) for d in degrees]
    if any(d < 2 for d in ds):
        raise ValueError("invariant degrees must all be >= 2")
    counts = Counter(k for d in ds for k in range(2, d + 1) if d % k == 0)
    return _cyclotomic_product(sorted(counts.items()))


def affine_poincare(degrees, order: int) -> TruncatedSeries:
    """Affine growth series: the finite polynomial times prod 1/(1 - t^(d-1)).

    Multiplying by 1/(1 - t^m) is a running sum along each residue class
    mod m (:func:`_expand`): O(order) additions in C and no division.  The
    series carries its cyclotomic form: the finite polynomial's factors
    less, for each d, every Phi_k with k dividing d - 1.  An order whose
    order + 1 coefficients, at _AFFINE_TERM_BYTES each, pass
    :func:`_memory_budget` raises MemoryError before anything is built.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    needed, budget = (order + 1) * _AFFINE_TERM_BYTES, _memory_budget()
    if needed > budget:
        raise MemoryError(f"a series of order {order} needs about {needed} bytes, "
                          f"more than the budget of {budget} bytes")
    p = finite_poincare(degrees)
    cs = _expand(list(TruncatedSeries.from_polynomial(p, order).coeffs), [(int(d) - 1, -1) for d in degrees])
    bott = [(k, 1) for d in degrees for k in range(1, int(d)) if (int(d) - 1) % k == 0]
    return _series(cs, _add_forms(p._cyclotomic, bott, -1))


def expand_factored(factors) -> IntPolynomial:
    """Exact product of a list of polynomials; the empty product is 1."""
    out = IntPolynomial((1,))
    for f in factors:
        out = out * f
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial: t - 1 for n = 1, and from n = 2 on
    the product of (1 - t^d)^mu(n/d) over the divisors d of n
    (:func:`_cyclotomic_product`), which carries its one factor."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return IntPolynomial((-1, 1)) if n == 1 else _cyclotomic_product(((n, 1),))


def cyclotomic_trial_division(p: IntPolynomial, max_cyclotomic_index: int):
    """Peel off cyclotomic factors with index <= max_cyclotomic_index.

    Returns ``(factors, residual)`` where factors is a tuple of
    (index, multiplicity) pairs and the product of those factors times the
    residual reconstructs ``p``.  Index 1 denotes the sign-normalized
    first cyclotomic 1 - t, so all divisors have constant term +1 and the
    residual keeps the sign of p's constant term.

    A polynomial that carries its cyclotomic factors (:class:`IntPolynomial`)
    has them read off, and the rest expanded as the residual
    (:func:`_cyclotomic_product`); any other, such as a quotient fitted over
    a walk's series, is divided by each factor in turn until the division
    leaves a remainder.
    """
    if p.is_zero:
        raise ValueError("polynomial must be nonzero")
    if p._cyclotomic is not None:
        return (tuple(f for f in p._cyclotomic if f[0] <= max_cyclotomic_index),
                _cyclotomic_product([f for f in p._cyclotomic if f[0] > max_cyclotomic_index]))
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
