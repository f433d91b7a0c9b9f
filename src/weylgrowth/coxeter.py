"""Coxeter combinatorics of a Cartan matrix, in pure Python: positive roots,
degrees, and the parabolic subgroup W_J that a count factors out.

Nothing here walks a group or imports numpy, so a caller that needs only
roots, degrees or W_J(t) does not load the walk of :mod:`weylgrowth.weyl`.

A finite Weyl group's positive roots are the closure of its simple roots
under the simple reflections (:func:`_positive_roots`), and its degrees
are read off their heights (:func:`_degrees`, :func:`_root_degrees`).
That closure is the one rule for roots: the W_0 of an affine component
is the largest finite group among its connected node sets of corank 1,
each closed by it (:func:`_base_degrees`).

A count walks W^J, the orbit of the dominant weight lambda = sum of
omega_i over the nodes i off J, and multiplies its series by W_J(t)
(:func:`~weylgrowth.weyl.enumerate_levels`).  The matrix alone fixes J:
:func:`_parabolic` types each component of each candidate J, by
:func:`cartan_type` when W is infinite, in one loop for any W, and states
the rule.  W_J(t) has a closed form, with no walk: one Bott series over
the degrees of the finite parts W_0 of all its affine components together,
times the polynomial of the degrees of its finite components.
"""

from __future__ import annotations

import math
from collections import Counter

from .algebra import GeneralizedCartanMatrix, cartan_type, is_finite_type
from .series import IntPolynomial, affine_poincare, finite_poincare, series_mul


def _root_bound(rank: int) -> int:
    """N = r max(r, 15), the most positive roots a finite Weyl group of rank
    r can have.

    A finite Weyl group of rank r has N = r h / 2 positive roots summed over
    its components, and its Coxeter number h is at most max(2r, 30), so
    N <= r max(r, 15), with equality for E8 (Humphreys, *Reflection Groups
    and Coxeter Groups*, 3.18).  N is also the length of its longest
    element, so every level of a finite W past N is empty.
    """
    return rank * max(rank, 15)


def _positive_roots(gcm: GeneralizedCartanMatrix) -> set[tuple[int, ...]]:
    """The positive roots of a finite Weyl group over its simple roots.

    A root beta, over the simple roots, is moved by s_i at coordinate i
    alone, by -sum_j a_ij beta_j; where that is positive s_i beta is a root
    that much higher.  Every positive root above height 1 lies one such
    step above a lower one, so closing the simple roots under these steps
    gives every positive root.

    A finite Weyl group of rank r has at most :func:`_root_bound` positive
    roots, and an infinite W has infinitely many positive real roots, so a
    closure that passes that bound raises RuntimeError.
    """
    rank = gcm.rank
    bound = _root_bound(rank)
    columns = list(zip(*gcm.entries))
    # (beta, A beta): s_i moves beta up by -(A beta)_i where that is positive.
    roots = [(tuple(int(i == j) for j in range(rank)), columns[i]) for i in range(rank)]
    seen = {beta for beta, _ in roots}
    for beta, pair in roots:  # roots grows as the loop goes: a breadth-first closure
        for i, c in enumerate(pair):
            if c < 0:
                up = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if up not in seen:
                    if len(roots) == bound:
                        raise RuntimeError(f"W_J on the nodes {' '.join(gcm.labels)} is not finite: "
                                           f"it has more than {bound} positive roots")
                    seen.add(up)
                    roots.append((up, tuple(p - c * x for p, x in zip(pair, columns[i]))))
    return seen


def _degrees(roots, rank: int) -> tuple[int, ...]:
    """The degrees of the finite Weyl group of rank ``rank`` whose positive
    roots are ``roots``, in increasing order, read off their heights.

    With n_h the positive roots of height h, the exponents of W are the
    dual partition of (n_1, n_2, ...), so its degrees are d_k = 1 + #{h :
    n_h > k} for k < rank (Kostant, *Amer. J. Math.* 81, 1959), and W(t) =
    prod (1 - t^d_k)/(1 - t) (Macdonald, "The Poincare series of a Coxeter
    group", *Math. Ann.* 199, 1972), which :func:`finite_poincare` expands.
    Both hold for a reducible W: the n_h of its components add, and the
    dual of a sum of partitions is the union of their duals.
    """
    heights = Counter(map(sum, roots)).values()
    return tuple(1 + sum(n > k for n in heights) for k in reversed(range(rank)))


def _root_degrees(gcm: GeneralizedCartanMatrix) -> tuple[int, ...]:
    """The degrees of a finite Weyl group, in increasing order, from the
    heights of its positive roots (:func:`_positive_roots`, :func:`_degrees`);
    RuntimeError when the roots pass the bound of a finite Weyl group."""
    return _degrees(_positive_roots(gcm), gcm.rank)


def _base_degrees(gcm: GeneralizedCartanMatrix) -> tuple[int, ...]:
    """The degrees of W_0, the largest parabolic subgroup of corank 1 of a
    connected affine Weyl group.

    Every vertex stabiliser of an affine Weyl group embeds in its finite
    Weyl group, and a special vertex has all of it, so the largest is that
    group (Humphreys, *Reflection Groups and Coxeter Groups*, 4.3 and 8.9).
    Its node set, S less a special node, is the connected Dynkin diagram of
    that group, so W_0 is the largest among the connected node sets of
    corank 1 (:func:`_components`), each a finite W whose degrees
    :func:`_root_degrees` reads off.  The first of the largest is taken.
    """
    rank = gcm.rank
    corank_1 = ([mu for mu in range(rank) if mu != nu] for nu in range(rank))
    return max((_root_degrees(gcm.subdiagram(nodes)) for nodes in corank_1
                if len(_components(gcm, nodes)) == 1), key=math.prod)


def _components(gcm: GeneralizedCartanMatrix, nodes) -> list[tuple[int, ...]]:
    """The connected components of the subdiagram of ``gcm`` on ``nodes``,
    each breadth-first from its first node, so that every prefix of one is
    connected."""
    left, parts = set(nodes), []
    for start in nodes:
        if start in left:
            left.remove(start)
            part = [start]
            for mu in part:  # part grows as the loop goes: a breadth-first search
                near = [nu for nu, a in enumerate(gcm.entries[mu]) if a and nu in left]
                left.difference_update(near)
                part += near
            parts.append(tuple(part))
    return parts


def _parabolic(gcm: GeneralizedCartanMatrix, max_order: int) -> tuple[tuple[int, ...], IntPolynomial]:
    """lambda, in weight coordinates, and W_J(t) for the parabolic subgroup
    W_J that a count factors out of W; lambda depends on the matrix alone,
    never on max_order.

    J is S less one node k, so lambda is the fundamental weight omega_k.
    The candidates for k are the last node when W is finite
    (:func:`is_finite_type`), and then every W_J is finite too, since
    every proper principal submatrix of a finite matrix is (Kac, Lemma
    4.5), so its components are typed finite with no test (the
    catalogue's E8 goes to E7); every node is one otherwise.  A candidate
    qualifies when each connected component of S less k
    (:func:`_components`) is finite or affine (:func:`cartan_type`).  W_J(t)
    is the product of its components' series, so it is one Bott series
    P(t) / prod (1 - t^(d_i - 1)) (:func:`affine_poincare`) over the degrees
    d_i of W_0, the largest parabolic subgroup of corank 1, of every affine
    component together (:func:`_base_degrees`), times the polynomial of the
    degrees of the finite ones, read off the heights of their positive
    roots with no walk (:func:`_root_degrees`).
    The k taken is the one whose W_J(t) has the largest sum of coefficients
    through N, the root bound of W's rank (:func:`_root_bound`), the first
    on a tie.  A finite W_J ends by then, so its sum is |W_J|,
    the product of its degrees, and only the series of a candidate with an
    affine component is expanded; a W with no affine candidate takes its
    largest finite W_J.  W_J(t) is cut at max_order when a component is
    affine, and whole otherwise, for a finite W as for an infinite one.  A
    root closure that passes the bound of a finite group raises
    RuntimeError.  When no J qualifies, J is empty: lambda is rho and
    W_J(t) is 1.  :func:`is_finite_type` runs once on W, and, when W is
    infinite, :func:`cartan_type` once on each component of each
    candidate, with one root closure for each finite component of a
    candidate that qualifies and one for each connected node set of
    corank 1 of an affine one.  On a connected W no two candidates share a
    component: a component of S less k is one of S less k', for k' != k,
    only when it is a whole component of S.
    """
    rank = gcm.rank
    bound, best = _root_bound(rank), None
    finite_w = is_finite_type(gcm)
    for node in [rank - 1] if finite_w else range(rank):
        parts = [gcm.subdiagram(part) for part in _components(gcm, [mu for mu in range(rank) if mu != node])]
        kinds = ["finite"] * len(parts) if finite_w else [cartan_type(sub) for sub in parts]
        if "indefinite" in kinds:
            continue
        finite = [d for sub, kind in zip(parts, kinds) if kind == "finite" for d in _root_degrees(sub)]
        affine = [d for sub, kind in zip(parts, kinds) if kind == "affine" for d in _base_degrees(sub)]
        series = (series_mul(affine_poincare(affine, max(bound, max_order)), finite_poincare(finite))
                  if affine else None)
        size = sum(series.coeffs[:bound + 1]) if affine else math.prod(finite)
        if best is None or size > best[0]:
            best = size, node, finite, series
    if best is None:
        return (1,) * rank, IntPolynomial((1,))
    _, k, finite, series = best
    factor = finite_poincare(finite) if series is None else IntPolynomial(series.coeffs[:max_order + 1])
    return tuple(int(mu == k) for mu in range(rank)), factor
