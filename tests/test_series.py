from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylgrowth import (
    InsufficientOrderError,
    IntPolynomial,
    NonUnitConstantTermError,
    TruncatedSeries,
    affine_poincare,
    build_catalog,
    cyclotomic_polynomial,
    cyclotomic_trial_division,
    expand_factored,
    finite_poincare,
    invariant_degrees,
    ratio_fit,
    series_div,
    series_mul,
    weyl_orbit_oracle,
)
from weylgrowth.series import _convolve
from weylgrowth.golden import (
    HA2_D4_CYCLOTOMIC_FACTORS,
    HA2_D4_CYCLOTOMIC_RESIDUAL,
    QUOTIENT_FACTORS,
)


def _expansion(key):
    return expand_factored(IntPolynomial(f) for f in QUOTIENT_FACTORS[key])


# -------------------------------------------------------------- polynomials

def test_polynomial_strips_trailing_zeros():
    p = IntPolynomial((1, 0, 2, 0, 0))
    assert p.coeffs == (1, 0, 2) and p.degree == 2


def test_zero_polynomial():
    z = IntPolynomial((0, 0))
    assert z.is_zero and z.degree == -1 and z.coeffs == ()


def test_polynomial_arithmetic():
    a = IntPolynomial((1, 1))
    b = IntPolynomial((1, -1))
    assert (a * b).coeffs == (1, 0, -1)
    assert (a + b).coeffs == (2,)
    assert (a - b).coeffs == (0, 2)
    assert (3 * a).coeffs == (3, 3)
    assert a(10) == 11


def test_polynomial_sum_pads_the_shorter_operand_and_products_take_ints_only():
    assert IntPolynomial((1,)) + IntPolynomial((1, 2)) == IntPolynomial((2, 2))
    with pytest.raises(TypeError):
        IntPolynomial((1,)) * 1.5


def test_exact_quotient():
    num = IntPolynomial((-1, 0, 0, 1))  # t^3 - 1
    assert num.exact_quotient(IntPolynomial((-1, 1))).coeffs == (1, 1, 1)
    assert num.exact_quotient(IntPolynomial((1, 1))) is None
    assert IntPolynomial((2, 2)).exact_quotient(IntPolynomial((4,))) is None
    with pytest.raises(ZeroDivisionError):
        num.exact_quotient(IntPolynomial(()))


def test_polynomial_str():
    assert str(IntPolynomial((1, -1, -1, 0, 0, 1))) == "1 - t - t^2 + t^5"
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((0, 2))) == "2*t"


# ----------------------------------------------------------- finite series

def test_finite_poincare_single_degree():
    assert finite_poincare([2]).coeffs == (1, 1)


def test_finite_poincare_a3():
    assert finite_poincare([2, 3, 4]).coeffs == (1, 3, 5, 6, 5, 3, 1)


def test_finite_poincare_d5():
    p = finite_poincare(invariant_degrees(build_catalog("D5")))
    assert p.degree == 20
    assert p(1) == 1920


def test_finite_poincare_rejects_small_degrees():
    with pytest.raises(ValueError):
        finite_poincare([2, 1])


def _inversion_counts(n):
    counts = Counter(
        sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        for p in permutations(range(n))
    )
    return tuple(counts[i] for i in range(max(counts) + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_type_a_counts_match_symmetric_group_inversions(n):
    # Independent oracle: permutations of n letters counted by inversions.
    degrees = invariant_degrees(build_catalog(f"A{n - 1}"))
    assert finite_poincare(degrees).coeffs == _inversion_counts(n)


@given(st.lists(st.integers(2, 6), min_size=1, max_size=4))
def test_finite_poincare_palindromic_with_total(degrees):
    p = finite_poincare(degrees)
    assert p.coeffs == p.coeffs[::-1]
    total = 1
    for d in degrees:
        total *= d
    assert p(1) == total


# ----------------------------------------------------------- affine series

def test_affine_poincare_a1():
    assert affine_poincare([2], 5).coeffs == (1, 2, 2, 2, 2, 2)


def test_affine_poincare_a2():
    # Derived by series division and confirmed by the direct orbit BFS.
    assert affine_poincare([2, 3], 4).coeffs == (1, 3, 6, 9, 12)
    bfs = weyl_orbit_oracle(build_catalog("AffA2").gcm, 10)
    assert affine_poincare([2, 3], 10).coeffs == bfs.coeffs


def test_affine_poincare_order_zero():
    assert affine_poincare([2, 4, 6, 4], 0).coeffs == (1,)


# -------------------------------------------------------- series arithmetic

def test_series_mul_truncates():
    a = TruncatedSeries((1, 1))
    b = TruncatedSeries((1, -1))
    assert series_mul(a, b).coeffs == (1, 0)


def test_series_mul_with_polynomial():
    s = TruncatedSeries((1, 1, 1, 1))
    p = IntPolynomial((1, -1))
    assert series_mul(s, p).coeffs == (1, 0, 0, 0)


def test_series_div_reciprocal():
    growth = TruncatedSeries((1, 2, 2, 2, 2))
    recip = series_div(IntPolynomial((1,)), growth, 4)
    assert series_mul(recip, growth).coeffs == (1, 0, 0, 0, 0)


def test_series_div_rejects_non_unit_constant():
    with pytest.raises(NonUnitConstantTermError):
        series_div(IntPolynomial((1,)), TruncatedSeries((2, 1)), 1)


def test_truncated_series_needs_a_constant_term():
    with pytest.raises(ValueError, match="constant term"):
        TruncatedSeries(())
    with pytest.raises(ValueError, match="constant term"):
        TruncatedSeries.from_polynomial(IntPolynomial((1, 1)), -1)


def test_series_functions_reject_bad_arguments():
    with pytest.raises(ValueError, match="order"):
        series_div(IntPolynomial((1,)), TruncatedSeries((1, 1)), -1)
    with pytest.raises(ValueError, match="order"):
        affine_poincare((2,), -1)
    with pytest.raises(ValueError, match="truncated"):
        series_mul(IntPolynomial((1, 1)), IntPolynomial((1, -1)))
    with pytest.raises(ValueError, match="nonzero"):
        cyclotomic_trial_division(IntPolynomial(()), 12)


def test_series_div_needs_enough_numerator_data():
    with pytest.raises(ValueError, match="order"):
        series_div(TruncatedSeries((1, 1)), TruncatedSeries((1, 1, 1)), 2)


@given(
    num=st.lists(st.integers(-9, 9), max_size=8),
    tail=st.lists(st.integers(-5, 5), max_size=10),
    unit=st.sampled_from([1, -1]),
)
def test_series_div_mul_round_trip(num, tail, unit):
    order = 10
    den = TruncatedSeries((unit, *tail, *([0] * (order - len(tail)))))
    a = IntPolynomial(num)
    q = series_div(a, den, order)
    assert series_mul(q, den).coeffs == TruncatedSeries.from_polynomial(a, order).coeffs


@given(
    a=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    b=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
)
def test_series_mul_commutes(a, b):
    sa, sb = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
    assert series_mul(sa, sb).coeffs == series_mul(sb, sa).coeffs


class _Int64Coeffs:
    """A series-like operand whose coefficients are a fixed-width numpy array."""

    def __init__(self, coeffs):
        self.coeffs = np.array(coeffs, dtype=np.int64)


def test_int64_operands_stay_exact():
    big = 2**62
    a = _Int64Coeffs([big, big, 0])
    assert series_mul(a, IntPolynomial((2,))).coeffs == (2**63, 2**63, 0)
    assert series_mul(a, a).coeffs == (2**124, 2**125, 2**124)
    # 2^62 / (1 + 2^62 t) = sum of (-1)^k 2^(62 (k + 1)) t^k
    q = series_div(_Int64Coeffs([big, 0, 0, 0]), _Int64Coeffs([1, big, 0, 0]), 3)
    assert q.coeffs == (2**62, -(2**124), 2**186, -(2**248))
    assert series_mul(q, _Int64Coeffs([1, big, 0, 0])).coeffs == (2**62, 0, 0, 0)
    fit = ratio_fit(IntPolynomial((1, big)), _Int64Coeffs([1, big, 0, 0, 0, 0, 0]), 3)
    assert (fit.quotient, fit.margin_checked, fit.evidence) == (IntPolynomial((1,)), 6, ())


# Schoolbook reference, independent of weylgrowth.series: operands are plain
# lists, implicitly zero past their end.

def _at(cs, i):
    return cs[i] if i < len(cs) else 0


def _reference_mul(a, b, n):
    return tuple(sum(_at(a, i) * _at(b, k - i) for i in range(k + 1)) for k in range(n))


def _reference_div(num, den, n):
    q = []
    for k in range(n):
        acc = _at(num, k) - sum(_at(den, j) * q[k - j] for j in range(1, k + 1))
        assert acc % den[0] == 0
        q.append(acc // den[0])
    return tuple(q)


_ENTRY = st.one_of(st.just(0), st.integers(-(10**30), 10**30))


def _draw_series(data, min_order):
    """A TruncatedSeries known to min_order or a little past it, often ending in zeros."""
    cs = data.draw(st.lists(_ENTRY, min_size=min_order + 1, max_size=min_order + 4))
    zeros = data.draw(st.integers(0, len(cs)))
    cs = cs[: len(cs) - zeros] + [0] * zeros
    return TruncatedSeries(tuple(cs)), cs


def _draw_polynomial(data, order):
    """A polynomial that may be zero, sparse, or of degree above ``order``."""
    cs = data.draw(st.lists(_ENTRY, max_size=order + 10))
    return IntPolynomial(tuple(cs)), cs


def _draw_denominator(data, order):
    unit = data.draw(st.sampled_from([1, -1]))
    shape = data.draw(st.sampled_from(["dense", "one_minus_t_d", "constant"]))
    if shape == "dense":
        cs = [unit] + data.draw(st.lists(_ENTRY, max_size=order + 10))
    elif shape == "one_minus_t_d":
        cs = [unit] + [0] * (data.draw(st.integers(1, order + 5)) - 1) + [-unit]
    else:
        cs = [unit]
    if data.draw(st.booleans()):
        return IntPolynomial(tuple(cs)), cs
    cs = (cs + [0] * (order + 1))[: order + 1 + data.draw(st.integers(0, 3))]
    return TruncatedSeries(tuple(cs)), cs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_series_mul_matches_schoolbook(data):
    order = data.draw(st.integers(0, 40))
    a, ca = _draw_series(data, order)
    if data.draw(st.booleans()):
        b, cb = _draw_polynomial(data, order)
        n = len(ca)
    else:
        b, cb = _draw_series(data, order)
        n = min(len(ca), len(cb))
    want = _reference_mul(ca, cb, n)
    assert series_mul(a, b).coeffs == want
    assert series_mul(b, a).coeffs == want
    product = IntPolynomial(tuple(ca)) * IntPolynomial(tuple(cb))
    assert product == IntPolynomial(_reference_mul(ca, cb, len(ca) + len(cb)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_series_div_matches_schoolbook(data):
    order = data.draw(st.integers(0, 40))
    den, cden = _draw_denominator(data, order)
    shape = data.draw(st.sampled_from(["polynomial", "series", "truncating"]))
    if shape == "polynomial":
        num, cnum = _draw_polynomial(data, order)
    elif shape == "series":
        num, cnum = _draw_series(data, order)
    else:
        # num = den * quotient, then one late coefficient nudged: the quotient
        # truncates and may start again past a run of zeros.
        quotient = data.draw(st.lists(_ENTRY, max_size=8))
        cnum = list(_reference_mul(cden, quotient, order + 1))
        cnum[data.draw(st.integers(0, order))] += data.draw(st.integers(-3, 3))
        num = IntPolynomial(tuple(cnum))
    assert series_div(num, den, order).coeffs == _reference_div(cnum, cden, order + 1)


# Coefficients at the edges of a w-byte digit, which holds magnitudes below
# 2^(8w - 1): 2^(8k - 1) is the smallest that needs k + 1 bytes, and
# 2^(8k) - 1 and 2^(8k) sit on either side of the unsigned k-byte limit.
# Products whose bound stays below 2^63 take 64-bit words (k <= 3, and
# [v] * [-v] at k = 4, whose bound is 2^62); the rest take wider digits.
_EDGES = [e for k in range(1, 10) for e in (2 ** (8 * k - 1), 2 ** (8 * k) - 1, 2 ** (8 * k))]


@pytest.mark.parametrize("v", _EDGES)
def test_products_at_digit_width_edges(v):
    operands = [
        ([v], [-v]),
        ([v, -v, v], [-v, v]),
        ([v] * 4, [v] * 3),
        ([-v] * 3, [v, v, v, v, v]),
        ([v, 0, -v, 1, -1], [-v, 1, v]),
        ([1, -1, 1], [v, -v]),
        ([0, 0, 0], [v, -v]),
        ([-v], [0]),
    ]
    for a, b in operands:
        for n in (1, len(a) + len(b) - 1, len(a) + len(b) + 2):
            assert tuple(_convolve(a, b, n)) == _reference_mul(a, b, n)
            assert tuple(_convolve(b, a, n)) == _reference_mul(a, b, n)
        full = _reference_mul(a, b, len(a) + len(b) - 1)
        assert IntPolynomial(tuple(a)) * IntPolynomial(tuple(b)) == IntPolynomial(full)
        order = min(len(a), len(b)) - 1
        want = _reference_mul(a, b, order + 1)
        assert series_mul(TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))).coeffs == want
        assert series_mul(TruncatedSeries(tuple(a[: order + 1])), IntPolynomial(tuple(b))).coeffs == want


def test_convolve_empty_operand():
    assert _convolve((), (1, 2), 3) == [0, 0, 0]
    assert _convolve((5,), (), 2) == [0, 0]
    assert _convolve((), (), 0) == []
    assert (IntPolynomial(()) * IntPolynomial((1, 2))).is_zero


@settings(max_examples=60, deadline=None)
@given(degrees=st.lists(st.integers(2, 40), min_size=1, max_size=6), order=st.integers(0, 300))
def test_affine_poincare_matches_division(degrees, order):
    want = TruncatedSeries.from_polynomial(finite_poincare(degrees), order)
    for d in degrees:
        want = series_div(want, IntPolynomial((1,) + (0,) * (d - 2) + (-1,)), order)
    assert affine_poincare(degrees, order) == want


# ---------------------------------------------------------------- ratio fit

def test_ratio_fit_quotients_ha2(ha2_growth_24):
    for cand, key in (("D4", ("HA2", "D4")), ("A3", ("HA2", "A3")), ("A4", ("HA2", "A4"))):
        numerator = finite_poincare(invariant_degrees(build_catalog(cand)))
        result = ratio_fit(numerator, ha2_growth_24, 5)
        assert result.is_polynomial
        assert result.quotient == _expansion(key)
        assert result.margin_checked >= 5 and result.evidence == ()


def test_ratio_fit_expected_degrees(ha2_growth_24):
    numerator = finite_poincare(invariant_degrees(build_catalog("A3")))
    result = ratio_fit(numerator, ha2_growth_24, 5)
    assert result.degree == 5
    assert result.quotient.coeffs == (1, -1, -1, 0, 0, 1)
    assert result.is_polynomial and result.verdict == "polynomial"
    assert result.degree == result.quotient.degree


def test_ratio_fit_verdict_stable_across_orders(ha2_growth_24):
    from weylgrowth import GrowthSeries

    numerator = finite_poincare(invariant_degrees(build_catalog("D4")))
    quotients = []
    for order in (17, 20, 24):
        window = GrowthSeries(ha2_growth_24.coeffs[: order + 1], False)
        result = ratio_fit(numerator, window, 5)
        assert result.is_polynomial
        quotients.append(result.quotient)
    assert quotients[0] == quotients[1] == quotients[2]


def test_ratio_fit_insufficient_order(ha2_growth_24):
    from weylgrowth import GrowthSeries

    numerator = finite_poincare(invariant_degrees(build_catalog("D4")))
    short = GrowthSeries(ha2_growth_24.coeffs[:13], False)
    with pytest.raises(InsufficientOrderError):
        ratio_fit(numerator, short, 5)


def test_ratio_fit_non_terminating_synthetic():
    # 1 / affine-A1 growth = (1-t)/(1+t), which never truncates.
    growth = TruncatedSeries((1,) + (2,) * 12)
    result = ratio_fit(IntPolynomial((1,)), growth, 5)
    assert not result.is_polynomial
    assert result.quotient is None and result.degree is None
    assert result.verdict == "non_terminating"
    assert result.evidence and all(8 <= k <= 12 for k in result.evidence)


def _reference_fit(cp, cs, margin):
    """The four RatioFitResult fields from the full schoolbook quotient."""
    order = len(cs) - 1
    q = _reference_div(cp, cs, order + 1)
    last = max((k for k, c in enumerate(q) if c), default=-1)
    if order - last >= margin:
        return IntPolynomial(q[: last + 1]), order - last, (), order
    return None, order - last, tuple(k for k in range(order - margin + 1, order + 1) if q[k]), order


def _fit_fields(cp, cs, margin):
    """The same four fields from ``ratio_fit``."""
    result = ratio_fit(IntPolynomial(tuple(cp)), TruncatedSeries(tuple(cs)), margin)
    return result.quotient, result.margin_checked, result.evidence, result.order_checked


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ratio_fit_matches_schoolbook(data):
    margin = data.draw(st.integers(1, 6))
    cp = [1] + data.draw(st.lists(_ENTRY, max_size=8))
    cp[-1] = cp[-1] or 1
    k = len(cp) - 1 + margin  # the fit's recurrence stops at deg P + margin
    shape = data.draw(st.sampled_from(["dense", "truncating", "nudged"]))
    if shape == "dense":
        # A random growth series: the quotient almost never truncates.
        order = data.draw(st.integers(k, k + 30))
        cs = [1] + data.draw(st.lists(_ENTRY, min_size=order, max_size=order))
    else:
        # S = P / Q, so P / S = Q, whose degree may lie past K.
        cq = [1] + data.draw(st.lists(_ENTRY, max_size=k + 6))
        cq[-1] = cq[-1] or 1
        order = data.draw(st.integers(k, len(cq) + margin + 8))
        cs = list(_reference_div(cp, cq, order + 1))
        if shape == "nudged" and order > k:
            # One coefficient past K changed: the quotient agrees with Q up to
            # there, so its tail starts again after a run of zeros.
            cs[data.draw(st.integers(k + 1, order))] += data.draw(st.sampled_from([-2, -1, 1, 3]))
    assert _fit_fields(cp, cs, margin) == _reference_fit(cp, cs, margin)


def _nudged(cs, where, k):
    """cs with one coefficient raised by 1: at K + 1, the first index past the
    fit's recurrence, or at the order, the top digit of its packed check."""
    cs = list(cs)
    if where != "nowhere":
        cs[{"K + 1": k + 1, "order": len(cs) - 1}[where]] += 1
    return cs


@pytest.mark.parametrize("where", ["nowhere", "K + 1", "order"])
@pytest.mark.parametrize("name", ["G2", "E8"])
def test_ratio_fit_of_an_affine_series_nudged_at_the_edges_of_its_check(name, where):
    # P / affine series = prod(1 - t^(d - 1)), of degree deg P.  G2's series
    # fits 64-bit digits; E8's product bound needs wider ones.
    degrees = invariant_degrees(build_catalog(name))
    p, margin = finite_poincare(degrees), 5
    k = p.degree + margin
    order = k + 12
    cs = _nudged(affine_poincare(degrees, order).coeffs, where, k)
    got = _fit_fields(p.coeffs, cs, margin)
    assert got == _reference_fit(p.coeffs, cs, margin)
    if where == "nowhere":
        want = expand_factored(IntPolynomial((1,) + (0,) * (d - 2) + (-1,)) for d in degrees)
        assert got[:3] == (want, order - p.degree, ())
    elif where == "order":
        assert got[1:3] == (0, (order,))
    else:
        assert got[0] is None


@pytest.mark.parametrize("where", ["nowhere", "K + 1", "order"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("v", [2**60 - 1, 2**60, 2**61 - 1, 2**61, 2**63 - 1, 2**63, 2**64 + 1])
def test_ratio_fit_at_the_64_bit_word_edge(v, sign, where):
    # S = 1 + v t^3 and P = S * (1 + t), so P / S = 1 + t.  The fit's product
    # bound is max|Q_K| * max|S| * min(K + 1, len(S)): 4v, or 8v once a nudge
    # lengthens S.  So the digits are 64-bit words below v = 2^61 (2^60 when
    # nudged) and wider from there; growth coefficients on either side of
    # 2^63 are covered as well.
    margin, order = 3, 14
    cp = [1, 1, 0, sign * v, sign * v]
    k = len(cp) - 1 + margin
    cs = _nudged([1, 0, 0, sign * v] + [0] * (order - 3), where, k)
    got = _fit_fields(cp, cs, margin)
    assert got == _reference_fit(cp, cs, margin)
    assert (got[0] == IntPolynomial((1, 1))) == (where == "nowhere")


def test_ratio_fit_validates_inputs(ha2_growth_24):
    with pytest.raises(ValueError):
        ratio_fit(IntPolynomial((1,)), ha2_growth_24, 0)
    with pytest.raises(ValueError):
        ratio_fit(IntPolynomial(()), ha2_growth_24, 5)
    with pytest.raises(ValueError):
        ratio_fit(IntPolynomial((1,)), TruncatedSeries((2, 1, 1, 1, 1, 1, 1)), 5)


# -------------------------------------------------------------- cyclotomics

def test_expand_factored_empty():
    assert expand_factored([]).coeffs == (1,)


def test_expand_factored_degree_five_quotient():
    p = expand_factored([IntPolynomial((1, 0, -1)), IntPolynomial((1, -1, 0, -1))])
    assert p.coeffs == (1, -1, -1, 0, 0, 1)


def test_expand_factored_degree_eleven_quotient():
    assert _expansion(("HA2", "D4")).coeffs == (1, 0, -1, 0, -2, -1, 0, -1, 1, 1, 1, 1)


def test_cyclotomic_values():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(2).coeffs == (1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclotomic_product_identity(n):
    # prod over divisors d of n of the d-th cyclotomic equals t^n - 1
    product = expand_factored(cyclotomic_polynomial(d) for d in range(1, n + 1) if n % d == 0)
    assert product.coeffs == (-1,) + (0,) * (n - 1) + (1,)


def test_trial_division_one_plus_t():
    factors, residual = cyclotomic_trial_division(IntPolynomial((1, 1)), 12)
    assert factors == ((2, 1),) and residual.coeffs == (1,)


def test_trial_division_degree_eleven_quotient():
    factors, residual = cyclotomic_trial_division(_expansion(("HA2", "D4")), 12)
    assert factors == HA2_D4_CYCLOTOMIC_FACTORS
    assert residual.coeffs == HA2_D4_CYCLOTOMIC_RESIDUAL


def test_trial_division_degree_nineteen_quotient_not_exhausted():
    factors, residual = cyclotomic_trial_division(_expansion(("HA3", "D5")), 24)
    assert factors == ((8, 1),)
    assert residual.degree == 15
    assert residual.coeffs == QUOTIENT_FACTORS[("HA3", "D5")][1]


def test_trial_division_reconstructs_input():
    p = _expansion(("HA2", "D4"))
    factors, residual = cyclotomic_trial_division(p, 12)
    rebuilt = residual
    for index, mult in factors:
        for _ in range(mult):
            rebuilt = rebuilt * (IntPolynomial((1, -1)) if index == 1 else cyclotomic_polynomial(index))
    assert rebuilt == p


# ------------------------------------------- carried cyclotomic factors

def _schoolbook(polys):
    out = [1]
    for p in polys:
        product = [0] * (len(out) + len(p) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(p):
                product[i + j] += x * y
        out = product
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 30), min_size=1, max_size=8))
def test_factors_read_off_finite_poincare_match_trial_division(degrees):
    # finite_poincare carries its cyclotomic factors; a copy of its
    # coefficients carries none and is trial-divided, for every cut-off.
    p = finite_poincare(degrees)
    assert p.coeffs == _schoolbook((1,) * d for d in degrees)
    plain = IntPolynomial(p.coeffs)
    for k in range(1, max(degrees) + 2):
        assert cyclotomic_trial_division(p, k) == cyclotomic_trial_division(plain, k)


def test_cyclotomic_polynomials_match_the_division_chain():
    # Phi_n = (t^n - 1) / prod of Phi_d over the proper divisors d of n,
    # divided out one by one; Phi_105 is the first with a coefficient -2.
    chain = {}
    for n in range(1, 106):
        p = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
        for d in range(1, n):
            if n % d == 0:
                p = p.exact_quotient(chain[d])
        chain[n] = p
        assert cyclotomic_polynomial(n) == p
    assert min(chain[105].coeffs) == -2


def test_carried_factors_change_no_equality_hash_or_repr():
    for p in (finite_poincare((2, 8, 12, 14, 18, 20, 24, 30)), cyclotomic_polynomial(12)):
        plain = IntPolynomial(p.coeffs)
        assert p == plain and hash(p) == hash(plain)
        assert repr(p) == repr(plain) and str(p) == str(plain)
    assert (finite_poincare((2, 4)) * IntPolynomial((1,)))._cyclotomic is None


def test_finite_poincare_of_no_degrees_is_one_with_no_factors():
    p = finite_poincare(())
    assert p == IntPolynomial((1,)) and p._cyclotomic == ()
    assert cyclotomic_trial_division(p, 12) == ((), IntPolynomial((1,)))


def test_only_a_polynomial_without_carried_factors_is_divided(monkeypatch):
    calls = []
    divide = IntPolynomial.exact_quotient

    def counted(self, divisor):
        calls.append(divisor)
        return divide(self, divisor)

    monkeypatch.setattr(IntPolynomial, "exact_quotient", counted)
    p = finite_poincare(invariant_degrees(build_catalog("E8")))
    factors, residual = cyclotomic_trial_division(p, 30)
    assert calls == [] and residual == IntPolynomial((1,))
    assert cyclotomic_trial_division(IntPolynomial(p.coeffs), 30) == (factors, residual)
    assert calls
