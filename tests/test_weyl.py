import errno
import importlib.util
import io
import json
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylgrowth import coxeter, weyl
from weylgrowth import (
    CheckpointMismatchError,
    GeneralizedCartanMatrix,
    IntPolynomial,
    LevelTooLargeError,
    TruncatedSeries,
    affine_poincare,
    build_catalog,
    cartan_type,
    enumerate_levels,
    finite_poincare,
    gamma_reflect,
    gcm_digest,
    invariant_degrees,
    is_finite_type,
    level_sets,
    series_mul,
    validate_gcm,
    weyl_group_order,
    weyl_orbit_oracle,
)
from weylgrowth.cli import main
from weylgrowth.golden import HA3_GROWTH_REFERENCE

from conftest import _read_checkpoint, _rewrite_checkpoint

# Derived by the orbit oracle and cross-checked against the level BFS.
HA2_GROWTH_PREFIX = (1, 4, 10, 20, 35, 57, 89, 136, 205, 306, 454, 671, 989, 1455, 2138)


# ------------------------------------------------------------------ reflect

def test_reflect_zero_gives_unit_vectors():
    gcm = build_catalog("HA3").gcm
    for mu in range(gcm.rank):
        out = gamma_reflect(gcm, (0,) * gcm.rank, mu)
        assert out == tuple(1 if i == mu else 0 for i in range(gcm.rank))


def test_reflect_ha3_level_two_element():
    gcm = build_catalog("HA3").gcm
    start = tuple(1 if lbl == "-1" else 0 for lbl in gcm.labels)
    out = gamma_reflect(gcm, start, gcm.index_of("0"))
    assert out == (1, 2, 0, 0, 0)  # alpha_{-1} + 2 alpha_0


def test_reflect_validates_arguments():
    gcm = build_catalog("A2").gcm
    with pytest.raises(IndexError):
        gamma_reflect(gcm, (0, 0), 2)
    with pytest.raises(IndexError):
        gamma_reflect(gcm, (0, 0), -1)
    with pytest.raises(ValueError):
        gamma_reflect(gcm, (0, 0, 0), 0)


@st.composite
def gcm_and_vector(draw):
    n = draw(st.integers(1, 4))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                m[i][j] = draw(st.integers(-3, -1))
                m[j][i] = draw(st.integers(-3, -1))
    vec = tuple(draw(st.integers(-6, 6)) for _ in range(n))
    mu = draw(st.integers(0, n - 1))
    return validate_gcm(m), vec, mu


@given(gcm_and_vector())
def test_reflect_is_an_involution(args):
    gcm, vec, mu = args
    assert gamma_reflect(gcm, gamma_reflect(gcm, vec, mu), mu) == vec


# -------------------------------------------------------------- enumeration

def test_a1_series():
    series = enumerate_levels(build_catalog("A1").gcm, 10)
    assert series.coeffs == (1, 1) and series.complete


def test_a2_series():
    series = enumerate_levels(build_catalog("A2").gcm, 10)
    assert series.coeffs == (1, 2, 2, 1) and series.complete


def test_affine_a1_series():
    series = enumerate_levels(build_catalog("AffA1").gcm, 6)
    assert isinstance(series, TruncatedSeries) and series.order == 6
    assert series.coeffs == (1, 2, 2, 2, 2, 2, 2)
    assert not series.complete


def test_ha3_series_prefix():
    series = enumerate_levels(build_catalog("HA3").gcm, 9)
    assert series.coeffs == HA3_GROWTH_REFERENCE[:10]


def test_ha2_series_prefix():
    series = enumerate_levels(build_catalog("HA2").gcm, 14)
    assert series.coeffs == HA2_GROWTH_PREFIX


def test_order_zero():
    series = enumerate_levels(build_catalog("HA3").gcm, 0)
    assert series.coeffs == (1,) and not series.complete


def test_level_one_count_is_rank():
    for name in ("A4", "AffA2", "HA2", "HA3"):
        gcm = build_catalog(name).gcm
        assert enumerate_levels(gcm, 1).coeffs[1] == gcm.rank


def test_invalid_arguments():
    gcm = build_catalog("A2").gcm
    with pytest.raises(ValueError):
        enumerate_levels(gcm, -1)
    with pytest.raises(ValueError):
        enumerate_levels(gcm, 3, workers=0)
    with pytest.raises(ValueError):
        enumerate_levels(gcm, 3, "ck.ckpt", full_history_dedup=True)


def test_level_sets_and_the_oracle_refuse_a_negative_order():
    gcm = build_catalog("A2").gcm
    with pytest.raises(ValueError, match="max_order must be >= 0"):
        level_sets(gcm, -1)
    with pytest.raises(ValueError, match="max_order must be >= 0"):
        weyl_orbit_oracle(gcm, -1)


def test_worker_counts_agree():
    gcm = build_catalog("HA2").gcm
    assert enumerate_levels(gcm, 10, workers=1) == enumerate_levels(gcm, 10, workers=4)


def test_full_history_check_keeps_the_counts():
    for name in ("HA2", "AffA2", "D4"):
        gcm = build_catalog(name).gcm
        assert (
            enumerate_levels(gcm, 10, full_history_dedup=True).coeffs
            == enumerate_levels(gcm, 10).coeffs
        )


def test_full_history_check_catches_a_repeated_row(monkeypatch):
    # A _children that repeats a row gives a level one row longer than the
    # orbit oracle's, and the cross-check must say so at level 1.
    children = weyl._children

    def repeat_first(*args, **kwargs):
        rows = children(*args, **kwargs)
        return np.concatenate([rows[:1], rows])

    monkeypatch.setattr(weyl, "_children", repeat_first)
    gcm = build_catalog("HA2").gcm
    with pytest.raises(RuntimeError, match="level 1 differs from the orbit oracle"):
        enumerate_levels(gcm, 8, full_history_dedup=True)


def test_full_history_check_walks_the_quotients_a_count_takes(monkeypatch):
    # A _children that loses the last child of each chunk whenever lambda
    # has a zero breaks the walk of every proper quotient, which every
    # count of HA2 takes, and leaves the whole group, lambda = rho, alone.
    # The check must run the walks the count runs, not the whole group.
    children = weyl._children

    def drop_last_in_a_quotient(C, *args, **kwargs):
        rows = children(C, *args, **kwargs)
        return rows[:-1] if 0 in C.lam else rows

    monkeypatch.setattr(weyl, "_children", drop_last_in_a_quotient)
    gcm = build_catalog("HA2").gcm
    assert tuple(map(len, level_sets(gcm, 8))) == HA2_GROWTH_PREFIX[:9]
    with pytest.raises(RuntimeError, match="differs from the orbit oracle"):
        enumerate_levels(gcm, 8, full_history_dedup=True)


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_whole_exceptional_groups_match_their_poincare_polynomials(name):
    # The count walks the quotient by E6 (E7) or E7 (E8), and W_J(t) comes
    # from the quotients below it, down to A1.
    desc = build_catalog(name)
    series = enumerate_levels(desc.gcm, 130)
    assert series.complete
    assert series.coeffs == finite_poincare(invariant_degrees(desc)).coeffs


def test_e7_whole_group():
    desc = build_catalog("E7")
    series = enumerate_levels(desc.gcm, 100)
    assert series.complete and series.total == weyl_group_order(desc) == 2903040


def test_children_fill_out_when_it_is_long_enough():
    gcm = build_catalog("HA3").gcm
    C = weyl._Cartan(gcm.entries)
    parents = level_sets(gcm, 4)[4]
    pair = C.matrix @ parents.T
    masks = pair <= 0, pair < 2
    fresh = weyl._children(C, parents, pair, masks=masks)
    out = np.full((gcm.rank * len(parents), gcm.rank), -1, dtype=np.int64)
    into = weyl._children(C, parents, pair, out, masks=masks)
    assert into.base is out and np.array_equal(into, fresh)
    assert (out[len(fresh):] == -1).all()
    short = out[:len(fresh) - 1]
    elsewhere = weyl._children(C, parents, pair, short, masks=masks)
    assert elsewhere.base is not out and np.array_equal(elsewhere, fresh)


@st.composite
def gcm_and_rows(draw):
    # Off-diagonal entries down to -4, drawn for each side of a bond apart,
    # and coordinates up to the largest one _check_coordinate_budget admits.
    n = draw(st.integers(2, 5))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    bonds = st.sampled_from((-1, -2, -3, -4))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                m[i][j], m[j][i] = draw(bonds), draw(bonds)
    A = np.asarray(m, dtype=np.int64)
    c = int(np.abs(A).max()) * n
    limit = (1 << weyl._SAFE_BITS) // (c * (c + 3))
    coord = st.one_of(st.integers(0, 4), st.just(limit), st.integers(0, limit))
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=12))
    return A, np.asarray(rows, dtype=np.int64)


def _children_by_rule(A, rows):
    """The canonical-parent rule on Python ints: up-moves at nu that leave
    no left descent below nu, grouped by nu, the last node's group first."""
    A, rows = A.tolist(), rows.tolist()
    rank = len(A)
    pairs = [[sum(a * g for a, g in zip(A[mu], row)) for mu in range(rank)] for row in rows]
    children = []
    for nu in reversed(range(rank)):
        for row, pair in zip(rows, pairs):
            p = 1 - pair[nu]
            if p > 0 and all(pair[mu] + p * A[mu][nu] < 2 for mu in range(nu)):
                children.append(row[:nu] + [row[nu] + p] + row[nu + 1:])
    return children


@settings(max_examples=200, deadline=None)
@given(gcm_and_rows())
def test_pairings_and_children_match_python_ints(args):
    A, rows = args
    C = weyl._Cartan(A)
    weyl._check_coordinate_budget(C, rows)  # the rows are inside the budget
    exact = (A.astype(object) @ rows.T.astype(object)).tolist()
    pair = weyl._pairings(C, rows)
    assert pair.tolist() == exact
    out = np.full(pair.shape, -7, dtype=np.int64)
    assert weyl._pairings(C, rows, out) is out and out.tolist() == exact
    expected = _children_by_rule(A, rows)
    masks = pair <= 0, pair < 2
    assert weyl._children(C, rows, pair, masks=masks).tolist() == expected
    spill = np.full((A.shape[0] * len(rows), A.shape[0]), -1, dtype=np.int64)
    assert weyl._children(C, rows, pair, spill, masks=masks).tolist() == expected


def _descents_by_rule(A, row):
    """The left descents of an element on Python ints: nodes with pairing >= 2."""
    return sum(sum(a * g for a, g in zip(line, row)) >= 2 for line in A.tolist())


@settings(max_examples=200, deadline=None)
@given(gcm_and_rows())
def test_leaf_counts_match_python_ints(args):
    # The last level of a count is never built: its size and left descents
    # come from the parents' masks and must be those of the children.
    A, rows = args
    C = weyl._Cartan(A)
    pair = weyl._pairings(C, rows)
    children = _children_by_rule(A, rows)
    expected = (len(children), sum(_descents_by_rule(A, child) for child in children))
    assert weyl._leaf_counts(C, pair, masks=(pair <= 0, pair < 2)) == expected


@pytest.mark.parametrize("name", ["HA3", "HA2"])
def test_small_chunks_count_like_whole_levels(monkeypatch, name):
    # Chunks of 7 rows make the depth-first count split every level past
    # the first few across many chunks and subtrees.  Chunks of 1 row also
    # fill its spill array, so that children go to fresh arrays at times.
    # The counts must be the orbit oracle's, and the level sets those of
    # the default chunk size.
    gcm = build_catalog(name).gcm
    whole = weyl_orbit_oracle(gcm, 12).coeffs
    levels = level_sets(gcm, 12)
    for chunk_rows in (7, 1):
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", chunk_rows)
        assert enumerate_levels(gcm, 12).coeffs == whole
        small = level_sets(gcm, 12)
        assert len(small) == len(levels)
        assert all(np.array_equal(a, b) for a, b in zip(small, levels))


@pytest.mark.parametrize("order", [2, 6])
def test_lost_child_breaks_the_edge_count(monkeypatch, tmp_path, order):
    # At order 1 the walk counts level 1 from the masks of the identity and
    # builds no child, so order 2 is the first to lose one.
    real = weyl._children
    monkeypatch.setattr(weyl, "_children",
                        lambda A, parents, pair, **kw: real(A, parents, pair, **kw)[1:])
    ck = tmp_path / "ha2.ckpt"
    with pytest.raises(RuntimeError, match="up-edges"):
        enumerate_levels(build_catalog("HA2").gcm, order, ck)
    assert not ck.exists()  # the short level 1 is caught before the walk's one save


def test_lost_leaf_breaks_the_edge_count(monkeypatch):
    # Without a checkpoint the last level is only counted; a counter that
    # loses a child, and with it at least one left descent, must be caught.
    real = weyl._leaf_counts

    def lose_one(*args, **kwargs):
        count, descents = real(*args, **kwargs)
        return (count - 1, descents - 1) if count else (count, descents)

    monkeypatch.setattr(weyl, "_leaf_counts", lose_one)
    with pytest.raises(RuntimeError, match="up-edges"):
        enumerate_levels(build_catalog("HA2").gcm, 6)


@pytest.mark.parametrize("name,positive_roots,small_chunk", [("A2", 3, 1), ("E6", 36, 64)])
def test_counted_last_level_at_the_longest_element(monkeypatch, name, positive_roots, small_chunk):
    # The longest element has length N, the number of positive roots.  At
    # order N - 1 and N the counted last level holds elements; at N + 1 it
    # is empty, and the count is complete.  Small chunks split the last
    # level's parents into chunks that count children and chunks that do not.
    desc = build_catalog(name)
    for chunk_rows in (weyl._CHUNK_ROWS, small_chunk):
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", chunk_rows)
        for order in (positive_roots - 1, positive_roots, positive_roots + 1):
            series = enumerate_levels(desc.gcm, order)
            assert series.coeffs == tuple(map(len, level_sets(desc.gcm, order)))
            assert series.complete == (order > positive_roots)
            assert (series.total == weyl_group_order(desc)) == (order >= positive_roots)


@st.composite
def small_gcm(draw):
    n = draw(st.integers(2, 4))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    bonds = st.sampled_from((-1, -2, -3))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                m[i][j], m[j][i] = draw(bonds), draw(bonds)
    return validate_gcm(m)


@settings(max_examples=60, deadline=None)
@given(small_gcm())
def test_enumerator_and_orbit_oracle_agree(gcm):
    # Most drawn matrices are not symmetric, so the orientation of A in the
    # canonical-parent rule (rows pair, columns move) matters here.  A count
    # walks the quotient W^J by the W_J that _parabolic picks.  Its levels,
    # built breadth-first, must be those of the orbit of lambda, and its
    # depth-first count their sizes.  Its series times W_J(t) must be the
    # orbit oracle's count of the whole group, the sizes of the whole-group
    # levels of level_sets, and the count under the full-history check of
    # the walks it takes.  W_J gives W_J(t): the whole count of its orbit of
    # rho when that ends, for a finite W as for an infinite one, and
    # otherwise, for an affine component in W_J, its levels through the
    # order.
    # Neither reference calls _parabolic, is_finite_type or cartan_type.
    order = 8
    lam, factor = coxeter._parabolic(gcm, order)
    C = weyl._Cartan(gcm.entries, lam)
    identity = np.zeros((1, gcm.rank), dtype=np.int64)
    levels = []
    for i, rows in weyl._count(C, [(0, identity)], order + 1, []):  # builds level order
        if i == len(levels):
            levels.append([])
        levels[i] += map(tuple, rows.tolist())
    for k, expected in enumerate(weyl._orbit_levels(gcm, order, lam), 1):
        assert sorted(levels[k] if k < len(levels) else []) == sorted(expected)
    tally = []
    for _ in weyl._count(C, [(0, identity)], order, tally):  # counts level order
        pass
    assert [count for count, _, _ in tally] == list(map(len, levels))
    whole = weyl_orbit_oracle(gcm, order)
    assert tuple(map(len, level_sets(gcm, order))) == whole.coeffs
    assert enumerate_levels(gcm, order) == whole
    assert enumerate_levels(gcm, order, full_history_dedup=True) == whole
    if factor.degree > 0:
        # Of rank 3 at most, so its longest element has length 9 at most.
        sub = gcm.delete_node(gcm.labels[lam.index(1)])
        sub_series = weyl_orbit_oracle(sub, 10)
        whole = sub_series.complete
        assert factor.coeffs == sub_series.coeffs[:None if whole else order + 1]
        if not sub_series.complete:  # an affine component: W_J(t) is Bott's series
            assert not is_finite_type(gcm)
            parts = coxeter._components(sub, range(sub.rank))
            assert "affine" in {cartan_type(sub.subdiagram(part)) for part in parts}
    else:
        assert lam == (1,) * gcm.rank


@pytest.mark.parametrize("name,nodes", [
    ("HA2", None), ("HA3", None), ("HA4", None), ("HA5", None), ("HA6", None),
    ("HA3", (4, 3, 2, 1, 0)), ("HA3", (2, 0, 4, 1, 3)), ("HA3", (1, 3, 0, 4, 2)),
], ids=["HA2", "HA3", "HA4", "HA5", "HA6", "HA3-reversed", "HA3-shuffled", "HA3-shuffled-again"])
def test_parabolic_lambda_does_not_depend_on_the_order(name, nodes):
    # The lambda a count walks, and so the rows of its checkpoint, is fixed
    # by the matrix: every order, the lowest ones included, takes the same.
    gcm = build_catalog(name).gcm
    if nodes is not None:
        gcm = GeneralizedCartanMatrix(tuple(tuple(gcm.entries[i][j] for j in nodes) for i in nodes),
                                      tuple(gcm.labels[i] for i in nodes))
    assert len({coxeter._parabolic(gcm, n)[0] for n in range(31)}) == 1


FINITE_CATALOGUE = ([f"A{r}" for r in range(1, 9)] + [f"{x}{r}" for x in "BC" for r in range(2, 9)]
                    + [f"D{r}" for r in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"])


def test_parabolic_lambda_of_every_catalogue_type():
    # The waiting rows of a checkpoint of format 8 are lambda - w(lambda),
    # so the node a count leaves out is part of the format: the last node
    # of a finite type, node 0 of affine A_n and node -1 of HA_n.
    left_out = {**{name: build_catalog(name).gcm.labels[-1] for name in FINITE_CATALOGUE},
                **{f"AffA{r}": "0" for r in range(1, 8)}, **{f"HA{r}": "-1" for r in range(2, 11)}}
    for name, label in left_out.items():
        gcm = build_catalog(name).gcm
        assert coxeter._parabolic(gcm, 10)[0] == tuple(int(mu == label) for mu in gcm.labels), name


def test_finite_longest_elements_lie_within_the_whole_count_bound():
    # An infinite W counts each finite W_J of rank r through one level past
    # r max(r, 15).  The longest element of every finite type in the
    # catalogue has length N = sum(d_i - 1) at most that, and E8 meets it.
    for name in FINITE_CATALOGUE:
        desc = build_catalog(name)
        rank = desc.gcm.rank
        length = sum(d - 1 for d in invariant_degrees(desc))
        assert length <= rank * max(rank, 15)
        assert (length == rank * max(rank, 15)) == (name == "E8")


@pytest.mark.parametrize("n,name,node", [
    (2, "A3", 2), (3, "D4", 3), (4, "D5", 3), (5, "E6", 4), (6, "E7", 4), (7, "E8", 4),
])
def test_each_ha_factors_out_its_largest_finite_subgroup_whole(n, name, node):
    # The largest finite W_J of HA_n, ``name`` less ``node``, is sized whole
    # from its root heights, and HA_n less its node -1, affine A_n, beats
    # it: through N = r max(r, 15) its series sums to more than |W_J|.  So
    # W_J is affine A_n, whose W_0 is A_n, and W_J(t) is Bott's series for
    # the degrees of A_n, cut at the order.
    gcm = build_catalog(f"HA{n}").gcm
    degrees = invariant_degrees(build_catalog(f"A{n}"))
    for order in (0, 12):
        lam, factor = coxeter._parabolic(gcm, order)
        assert lam == (1,) + (0,) * (n + 1)
        assert factor.coeffs == affine_poincare(degrees, order).coeffs
    bound = (n + 2) * max(n + 2, 15)
    finite = gcm.delete_node(gcm.labels[node])
    assert coxeter._root_degrees(finite) == tuple(sorted(invariant_degrees(build_catalog(name))))
    assert sum(affine_poincare(degrees, bound).coeffs) > weyl_group_order(build_catalog(name))


def test_root_heights_give_the_degrees_of_every_catalogue_finite_type():
    # Kostant's height theorem against the table of invariant_degrees.
    for name in FINITE_CATALOGUE:
        desc = build_catalog(name)
        assert coxeter._root_degrees(desc.gcm) == tuple(sorted(invariant_degrees(desc))), name


def test_a_reducible_group_is_the_product_of_its_components():
    # B3, G2, A1 and A2 side by side, their nodes interleaved: the degrees
    # are those of the parts together, and a count of the whole group,
    # which factors out the reducible W_J less the last node, is the
    # product of the parts' polynomials.
    parts = [build_catalog(name) for name in ("B3", "G2", "A1", "A2")]
    blocks = [p.gcm.entries for p in parts]
    offsets = [sum(len(b) for b in blocks[:i]) for i in range(len(blocks))]
    rank = sum(map(len, blocks))
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for block, offset in zip(blocks, offsets):
        for i, row in enumerate(block):
            for j, a in enumerate(row):
                m[offset + i][offset + j] = a
    nodes = (0, 3, 5, 1, 6, 4, 7, 2)
    gcm = validate_gcm([[m[i][j] for j in nodes] for i in nodes])
    assert coxeter._root_degrees(gcm) == tuple(sorted(d for p in parts for d in invariant_degrees(p)))
    product = IntPolynomial((1,))
    for p in parts:
        product = product * finite_poincare(invariant_degrees(p))
    series = enumerate_levels(gcm, 40)
    assert series.complete and series.coeffs == product.coeffs
    assert enumerate_levels(gcm, 40, full_history_dedup=True) == series


def test_full_history_check_catches_a_wrong_subgroup_series(monkeypatch, capsys):
    # With the root-height degrees off by one, W_J(t) is wrong: HA3's W_0,
    # A3, gets the degrees 3, 4, 5.  A plain count multiplies it in
    # unchecked; the full-history check must compare it with the orbit
    # oracle and refuse it.
    degrees = coxeter._degrees
    monkeypatch.setattr(coxeter, "_degrees", lambda *args: tuple(d + 1 for d in degrees(*args)))
    gcm = build_catalog("HA3").gcm
    assert enumerate_levels(gcm, 10).coeffs != HA3_GROWTH_REFERENCE[:11]
    with pytest.raises(RuntimeError, match="differs from the orbit oracle"):
        enumerate_levels(gcm, 10, full_history_dedup=True)
    assert main(["growth", "--algebra", "HA3", "--order", "10", "--debug-full-dedup"]) == 5
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name,order", [("HA3", 27), ("HA7", 4), ("E8", 121)])
def test_a_count_tests_finiteness_once_per_subgroup_and_walks_once(monkeypatch, name, order):
    # W_J(t) comes from root heights, so W^J is the one walk.  W tests
    # itself once.  An infinite W then types each connected component of a
    # candidate W_J once, and no node set twice: HA3 has six (affine A3,
    # A1, A3, A4 twice, D4) and HA7 ten.  It closes the roots of each
    # finite component once, and of each connected node set of corank 1 of
    # an affine one once, so a node set is closed twice only when it is
    # both: HA3's A3 on the nodes 1 2 3.  A finite W types nothing more,
    # since every component of a finite W_J is finite, and closes the roots
    # of its one candidate: E8's E7.
    calls = {"finite": 0, "walks": 0}
    typed, closed = [], []
    is_finite, count = coxeter.is_finite_type, weyl._count
    kind, roots = coxeter.cartan_type, coxeter._positive_roots

    def counted(key, f):
        def wrapper(*args, **kw):
            calls[key] += 1
            return f(*args, **kw)
        return wrapper

    def logged(log, f):
        def wrapper(gcm, *args, **kw):
            log.append(gcm.labels)
            return f(gcm, *args, **kw)
        return wrapper

    monkeypatch.setattr(coxeter, "is_finite_type", counted("finite", is_finite))
    monkeypatch.setattr(weyl, "_count", counted("walks", count))
    monkeypatch.setattr(coxeter, "cartan_type", logged(typed, kind))
    monkeypatch.setattr(coxeter, "_positive_roots", logged(closed, roots))
    gcm = build_catalog(name).gcm
    enumerate_levels(gcm, order)
    assert calls["finite"] == 1
    assert calls["walks"] == 1
    assert len(typed) == {"HA3": 6, "HA7": 10, "E8": 0}[name]
    assert len({frozenset(labels) for labels in typed}) == len(typed)
    if name == "E8":
        assert [set(labels) for labels in closed] == [set(gcm.labels[:-1])]
        return
    expected = Counter()
    for labels in typed:
        sub = gcm.subdiagram([gcm.index_of(label) for label in labels])
        if cartan_type(sub) == "finite":
            expected[frozenset(labels)] += 1
            continue
        for nu in range(sub.rank):
            nodes = [mu for mu in range(sub.rank) if mu != nu]
            if len(coxeter._components(sub, nodes)) == 1:
                expected[frozenset(sub.labels[mu] for mu in nodes)] += 1
    assert Counter(map(frozenset, closed)) == expected
    assert name != "HA3" or expected[frozenset({"1", "2", "3"})] == 2


def test_bott_factor_of_every_small_affine_matrix_matches_the_orbit_oracle(connected_gcms):
    # The connected affine GCMs of rank 2 and 3 with bonds down to -4, in
    # every node order and orientation: A1^(1) and A2^(2) (1 + 2 matrices),
    # then A2^(1), C2^(1), D3^(2), A4^(2), G2^(1) and D4^(3) (1 + 3 + 3 + 6
    # + 6 + 6).
    # Next to one more node, unbonded, the affine group is the W_J that a
    # count factors out, and Bott's series for it must equal the orbit
    # oracle's count of the affine group through order 20.
    found = Counter()
    for rank in (2, 3):
        for gcm in connected_gcms(rank, (1, 2, 3, 4)):
            if cartan_type(gcm) != "affine":
                continue
            found[rank] += 1
            entries = [list(row) + [0] for row in gcm.entries] + [[0] * rank + [2]]
            lam, factor = coxeter._parabolic(validate_gcm(entries), 20)
            assert lam == (0,) * rank + (1,)
            assert factor.coeffs == weyl_orbit_oracle(gcm, 20).coeffs, gcm.entries
    assert found == {2: 3, 3: 25}


TWO_AFFINE = {
    # Affine A1 and affine A1, joined through the last node.
    "aff-a1-a1": (((2, -2, 0, 0, -1), (-2, 2, 0, 0, 0), (0, 0, 2, -2, -1), (0, 0, -2, 2, 0),
                   (-1, 0, -1, 0, 2)), ("A1", "A1"), 12),
    # Affine A2 and affine A1, joined through the last node.
    "aff-a2-a1": (((2, -1, -1, 0, 0, -1), (-1, 2, -1, 0, 0, 0), (-1, -1, 2, 0, 0, 0),
                   (0, 0, 0, 2, -2, -1), (0, 0, 0, -2, 2, 0), (-1, 0, 0, -1, 0, 2)), ("A2", "A1"), 10),
}


@pytest.mark.parametrize("name", TWO_AFFINE)
def test_a_subgroup_of_two_affine_components_is_one_bott_series(name):
    # Leaving out the joining node leaves two affine components, and W_J(t)
    # is one Bott series over the degrees of both W_0, which must be the
    # product of the two components' series.  The count, with and without
    # the full-history check, must be the orbit oracle's.  The orders stay
    # small: the checked count of the first matrix at order 30 held 1.6 GB.
    entries, bases, order = TWO_AFFINE[name]
    gcm = validate_gcm(entries)
    lam, factor = coxeter._parabolic(gcm, order)
    assert lam == (0,) * (gcm.rank - 1) + (1,)
    product = IntPolynomial((1,))
    for base in bases:
        product = IntPolynomial(series_mul(affine_poincare(invariant_degrees(build_catalog(base)), order),
                                           product).coeffs)
    assert factor == product
    oracle = weyl_orbit_oracle(gcm, order)
    assert enumerate_levels(gcm, order) == oracle
    assert enumerate_levels(gcm, order, full_history_dedup=True) == oracle


def test_full_history_check_catches_a_wrong_affine_factor_at_the_order(monkeypatch):
    # Bott's series with its coefficient at the order, 10, one too high
    # changes only that coefficient of the count.  The check of W_J(t) must
    # reach the order to refuse it.
    bott = coxeter.affine_poincare

    def off_at_ten(degrees, order):
        coeffs = list(bott(degrees, order).coeffs)
        coeffs[10] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr(coxeter, "affine_poincare", off_at_ten)
    gcm = build_catalog("HA3").gcm
    wrong = enumerate_levels(gcm, 10).coeffs
    assert wrong[:10] == HA3_GROWTH_REFERENCE[:10] and wrong[10] == HA3_GROWTH_REFERENCE[10] + 1
    with pytest.raises(RuntimeError, match="W_J\\(t\\) on the nodes 0 1 2 3 differs from the orbit oracle"):
        enumerate_levels(gcm, 10, full_history_dedup=True)


@pytest.mark.parametrize("name,order,cosets", [("HA3", 27, 107_542), ("HA2", 30, 144_051),
                                               ("free3", 18, 262_144)])
def test_a_count_walks_the_cosets_of_its_affine_subgroup(name, order, cosets):
    # HA_n walks its quotient by affine A_n, and the free product of three
    # Z2 its quotient by an infinite dihedral group, level k of 2**(k-1)
    # cosets: the first of three such W_J, which tie; by D4, A3 and nothing
    # the walks held 259,193, 344,118 and 786,430 rows.
    gcm = validate_gcm(FREE3) if name == "free3" else build_catalog(name).gcm
    lam, factor = coxeter._parabolic(gcm, order)
    assert lam == (1,) + (0,) * (gcm.rank - 1)
    walked = weyl._quotient(gcm, lam, order)
    assert walked(1) == cosets
    assert (walked * factor).coeffs[:order + 1] == enumerate_levels(gcm, order).coeffs


def test_deep_run_overflow_is_detected():
    # Triple-bond rank-2 matrix: coordinates grow geometrically, reaching
    # 2**55 by order 40 and finally the 64-bit budget, which must be a hard
    # error.
    gcm = validate_gcm([[2, -3], [-3, 2]])
    deep = enumerate_levels(gcm, 40)
    assert deep.coeffs == (1,) + (2,) * 40 and not deep.complete
    assert weyl_orbit_oracle(gcm, 40).coeffs == deep.coeffs
    with pytest.raises(OverflowError):
        enumerate_levels(gcm, 100)


# ------------------------------------------------------------------- levels

def test_level_sets_unique_and_nonnegative():
    for name, order in (("HA2", 10), ("AffA2", 10), ("A3", 20)):
        levels = level_sets(build_catalog(name).gcm, order)
        stacked = np.concatenate(levels)
        assert stacked.min() >= 0
        assert len(np.unique(stacked, axis=0)) == len(stacked)


def test_level_candidates_land_two_apart():
    gcm = build_catalog("HA2").gcm
    enumerate_levels(gcm, 8, full_history_dedup=True)
    levels = [set(map(tuple, lvl)) for lvl in level_sets(gcm, 8)]
    for i in range(1, len(levels) - 1):
        for gamma in levels[i]:
            for mu in range(gcm.rank):
                image = gamma_reflect(gcm, gamma, mu)
                in_next = image in levels[i + 1] if i + 1 < len(levels) else False
                in_back = image in levels[i - 1]
                assert in_next or in_back
                assert image not in levels[i]


def test_level_sets_match_counts():
    gcm = build_catalog("HA3").gcm
    levels = level_sets(gcm, 8)
    assert tuple(len(lvl) for lvl in levels) == HA3_GROWTH_REFERENCE[:9]


def test_level_sets_refuse_a_level_over_the_memory_budget(monkeypatch):
    # A budget of exactly the bytes of HA2 levels 0..7: they fit, and with
    # level 8 the rows held pass it.  The depth-first walk copies chunks of
    # several levels in turn, so the level whose chunk crosses is not fixed.
    budget = sum(HA2_GROWTH_PREFIX[:8]) * 4 * 8
    monkeypatch.setattr(weyl, "_memory_budget", lambda: budget)
    gcm = build_catalog("HA2").gcm
    assert tuple(map(len, level_sets(gcm, 7))) == HA2_GROWTH_PREFIX[:8]
    with pytest.raises(LevelTooLargeError, match=f"needs about .* bytes to build, more than "
                                                 f"the budget of {budget} bytes") as info:
        level_sets(gcm, 8)
    assert isinstance(info.value, MemoryError)
    assert info.value.bytes_needed > budget and 1 <= info.value.level <= 8


# ------------------------------------------------------------------- oracle

def test_oracle_charges_its_states_to_the_memory_budget(monkeypatch):
    # The orbit of rho of HA3 holds 2,789 states through level 9, 803,232
    # bytes at _ORACLE_STATE_BYTES each, and 4,580 through level 10,
    # 1,319,040 bytes: level 10 is the first past a budget of 1,000,000.
    monkeypatch.setattr(weyl, "_memory_budget", lambda: 1_000_000)
    with pytest.raises(LevelTooLargeError, match="budget of 1000000 bytes") as info:
        weyl_orbit_oracle(build_catalog("HA3").gcm, 12)
    assert info.value.level == 10
    assert info.value.bytes_needed == sum(HA3_GROWTH_REFERENCE[1:11]) * weyl._ORACLE_STATE_BYTES
    assert weyl_orbit_oracle(build_catalog("HA3").gcm, 9).coeffs == HA3_GROWTH_REFERENCE[:10]


def test_oracle_a3():
    series = weyl_orbit_oracle(build_catalog("A3").gcm, 30)
    assert series.coeffs == (1, 3, 5, 6, 5, 3, 1)
    assert series.complete and series.total == 24


def test_oracle_rank_one():
    series = weyl_orbit_oracle(build_catalog("A1").gcm, 5)
    assert series.coeffs == (1, 1) and series.complete


def test_oracle_rejects_a_reflection_off_the_adjacent_levels():
    # Not a Cartan matrix, and built without validate_gcm: a reflection of
    # a state of level 3 gives the state of level 1.
    gcm = GeneralizedCartanMatrix(((-2, -2), (1, 1)), ("0", "1"))
    with pytest.raises(RuntimeError, match="reflection for level 4 already in level 1"):
        weyl_orbit_oracle(gcm, 8)


def test_oracle_ha3_prefix():
    assert weyl_orbit_oracle(build_catalog("HA3").gcm, 5).coeffs == HA3_GROWTH_REFERENCE[:6]


@pytest.mark.parametrize("name,order", [("A2", 12), ("D4", 30), ("AffA1", 12), ("AffA2", 12),
                                        ("HA7", 4)])
def test_oracle_equals_enumeration(name, order):
    gcm = build_catalog(name).gcm
    a = enumerate_levels(gcm, order)
    b = weyl_orbit_oracle(gcm, order)
    assert a.coeffs == b.coeffs and a.complete == b.complete


# -------------------------------------------------------------- checkpoints

def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.ckpt"
    partial = enumerate_levels(gcm, 6, ck)
    assert ck.exists() and partial.coeffs == HA2_GROWTH_PREFIX[:7]
    resumed = enumerate_levels(gcm, 12, ck)
    fresh = enumerate_levels(gcm, 12)
    assert resumed.coeffs == fresh.coeffs
    assert resumed.complete == fresh.complete


def test_checkpoint_truncating_resume(tmp_path):
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.ckpt"
    enumerate_levels(gcm, 8, ck)
    shorter = enumerate_levels(gcm, 3, ck)
    assert shorter.coeffs == HA2_GROWTH_PREFIX[:4] and not shorter.complete


def test_checkpoint_complete_group(tmp_path):
    gcm = build_catalog("A3").gcm
    ck = tmp_path / "a3.ckpt"
    first = enumerate_levels(gcm, 30, ck)
    assert first.complete
    again = enumerate_levels(gcm, 50, ck)
    assert again == first
    trimmed = enumerate_levels(gcm, 6, ck)
    assert trimmed.coeffs == first.coeffs and not trimmed.complete


FREE3 = ((2, -1, -4), (-4, 2, -1), (-1, -4, 2))  # W = Z2 * Z2 * Z2, level k 3 * 2**(k-1)


def _no_whole_levels(*args, **kwargs):
    pytest.fail("a checkpointed count built whole levels")


def test_finished_checkpoint_holds_no_rows(monkeypatch, tmp_path):
    # HA3 walks its quotient by D4 from the identity, as a plain count
    # does, and builds no whole level.  Once the walk to order 26 has ended
    # nothing waits: the file holds the order and the tally of 27 levels,
    # and no rows.  A lower order is answered from the tally and
    # leaves the file alone; a higher one walks again from the identity.
    monkeypatch.setattr(weyl, "_whole_levels", _no_whole_levels)
    gcm = build_catalog("HA3").gcm
    ck = tmp_path / "ha3.ckpt"
    assert enumerate_levels(gcm, 26, ck) == enumerate_levels(gcm, 26)
    state = weyl.LevelCheckpoint.load(ck, gcm)
    assert state.complete and state.order == 26
    assert state.done == 27 and len(state.tally) == 27
    assert state.waiting.shape == (0, 5) and state.chunks.shape == (0, 2)
    assert ck.stat().st_size < 1 << 16
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl.LevelCheckpoint, "save", lambda *args: pytest.fail("file rewritten"))
        assert enumerate_levels(gcm, 20, ck) == enumerate_levels(gcm, 20)
    assert weyl.LevelCheckpoint.load(ck, gcm).content_digest == state.content_digest
    assert enumerate_levels(gcm, 28, ck) == enumerate_levels(gcm, 28)
    grown = weyl.LevelCheckpoint.load(ck, gcm)
    assert grown.complete and grown.order == 28 and len(grown.tally) == 29
    assert np.array_equal(grown.tally[:26], state.tally[:26])


def test_checkpoint_resumes_under_another_chunk_size_and_worker_count(monkeypatch, tmp_path):
    # The chunk size and the worker count change neither what a finished
    # walk stores nor a resume: a walk interrupted under one chunk size
    # finishes under another, and a file written under one of each is
    # picked up under another.
    monkeypatch.setattr(weyl, "_whole_levels", _no_whole_levels)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    gcm = build_catalog("HA3").gcm
    tallies = []
    for chunk_rows, workers, resume_rows in ((weyl._CHUNK_ROWS, 1, 3), (7, 1, 1), (1, 3, 7)):
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", chunk_rows)
        ck = tmp_path / f"c{chunk_rows}w{workers}.ckpt"
        with pytest.raises(_Interrupt):
            _interrupted(gcm, 9, ck, 5)
        assert len(weyl.LevelCheckpoint.load(ck, gcm).waiting)
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", resume_rows)
        assert enumerate_levels(gcm, 9, ck, workers=workers).coeffs == HA3_GROWTH_REFERENCE[:10]
        state = weyl.LevelCheckpoint.load(ck, gcm)
        assert state.complete and len(state.waiting) == 0
        tallies.append(state.tally)
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", chunk_rows)
        resumed = enumerate_levels(gcm, 11, ck, workers=4 - workers)
        assert resumed.coeffs == HA3_GROWTH_REFERENCE[:12]
        assert weyl.LevelCheckpoint.load(ck, gcm).order == 11
    assert all(np.array_equal(tally, tallies[0]) for tally in tallies)


class _Interrupt(Exception):
    pass


def _interrupted(gcm, order, ck, after, calls=None):
    """Run a checkpointed count whose _tally raises _Interrupt on the walk's
    chunk number ``after``, and append the level of each chunk it starts
    to ``calls``.  The walk's own calls are those at the full rank (the
    counts of W_J are of lower rank)."""
    real = weyl._tally
    calls = [] if calls is None else calls
    start = len(calls)

    def tally(C, rows, i, t, out=None):
        if C.rank == gcm.rank:
            calls.append(i)
            if len(calls) - start == after:
                raise _Interrupt
        return real(C, rows, i, t, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl, "_tally", tally)
        return enumerate_levels(gcm, order, ck)


@pytest.mark.parametrize("chunk_rows", [1, 7, weyl._CHUNK_ROWS])
@pytest.mark.parametrize("name,order,deep_order", [("HA2", 10, 28), ("HA3", 10, 26),
                                                  ("free3", 8, 16)])
def test_interrupted_walk_resumes_to_the_plain_count(monkeypatch, tmp_path, chunk_rows,
                                                     name, order, deep_order):
    # The walk saves after every chunk and is interrupted in the middle of
    # its chunk 2, 4, 8, ... of each run, until a run ends.  Each run must
    # go on from the chunks the last one left waiting, so that the chunks
    # finished over all runs are those of one uninterrupted walk.  With
    # chunks of 16,384 rows the order is one whose levels span several
    # chunks.
    gcm = validate_gcm(FREE3) if name == "free3" else build_catalog(name).gcm
    if chunk_rows == weyl._CHUNK_ROWS:
        order = deep_order
    plain = enumerate_levels(gcm, order)
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    uninterrupted = []
    assert _interrupted(gcm, order, tmp_path / "whole.ckpt", 0, uninterrupted) == plain
    ck = tmp_path / "walk.ckpt"
    calls, after, resumed_with_waiting_rows = [], 2, 0
    while True:
        try:
            result = _interrupted(gcm, order, ck, after, calls)
            break
        except _Interrupt:
            state = weyl.LevelCheckpoint.load(ck, gcm)
            assert not state.complete and state.order == order
            resumed_with_waiting_rows += len(state.waiting) > 0
            calls.pop()  # the chunk cut short is done again by the next run
        after *= 2
    assert resumed_with_waiting_rows >= 2
    assert calls == uninterrupted
    assert result == plain
    assert weyl.LevelCheckpoint.load(ck, gcm).complete


def test_interrupted_walk_answers_below_its_waiting_chunks_and_restarts(monkeypatch, tmp_path):
    # HA2 in chunks of 4 rows, interrupted in chunk 10 of the walk to order
    # 12, has its lowest waiting chunk at level 6: levels 0..5 are counted
    # whole.  An order below 6 is answered from the tally and leaves the
    # file alone; an order past 12 walks again from the identity.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    ck = tmp_path / "ha2.ckpt"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 12, ck, 10)
    state = weyl.LevelCheckpoint.load(ck, gcm)
    assert state.done == 6 and not state.complete
    monkeypatch.setattr(weyl, "_whole_levels", _no_whole_levels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl.LevelCheckpoint, "save", lambda *args: pytest.fail("file rewritten"))
        assert enumerate_levels(gcm, 5, ck).coeffs == HA2_GROWTH_PREFIX[:6]
    assert weyl.LevelCheckpoint.load(ck, gcm).content_digest == state.content_digest
    calls = []
    assert _interrupted(gcm, 14, ck, 0, calls).coeffs == HA2_GROWTH_PREFIX
    assert calls[:2] == [0, 1]  # the identity first, then level 1
    again = weyl.LevelCheckpoint.load(ck, gcm)
    assert again.complete and again.order == 14


def test_interrupted_walk_resumes_at_a_lower_order(monkeypatch, tmp_path):
    # The walk of the test above, asked for order 10, goes on from its
    # waiting chunks at levels 6, 8 and 9 instead of the identity: the
    # chunk at level 9 first, whose children it only counts.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    monkeypatch.setattr(weyl, "_whole_levels", _no_whole_levels)
    ck = tmp_path / "ha2.ckpt"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 12, ck, 10)
    assert weyl.LevelCheckpoint.load(ck, gcm).chunks[:, 0].tolist() == [6, 8, 9]
    calls = []
    assert _interrupted(gcm, 10, ck, 0, calls) == enumerate_levels(gcm, 10)
    assert len(calls) == 11 and calls[0] == 9
    state = weyl.LevelCheckpoint.load(ck, gcm)
    assert state.complete and state.order == 10


def test_walk_resumed_at_a_lower_order_saves_a_chunk_at_that_order(monkeypatch, tmp_path):
    # Resumed at order 9, the walk of the test above tallies its waiting
    # chunk at level 9 four rows at a time and builds no children of it.
    # Interrupted after one such chunk, it leaves the rest of level 9
    # waiting, at the order of the file it saves, and that file resumes.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    ck = tmp_path / "ha2.ckpt"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 12, ck, 10)
    calls = []
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 9, ck, 2, calls)
    assert calls == [9, 9]
    state = weyl.LevelCheckpoint.load(ck, gcm)
    assert state.order == 9 and state.chunks[-1, 0] == 9
    assert enumerate_levels(gcm, 9, ck) == enumerate_levels(gcm, 9)
    assert weyl.LevelCheckpoint.load(ck, gcm).complete


@settings(max_examples=40, deadline=None)
@given(small_gcm(), st.integers(0, 8), st.integers(0, 8))
def test_checkpointed_count_equals_the_plain_count(gcm, first, second):
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "ck.ckpt"
        assert enumerate_levels(gcm, first, ck) == enumerate_levels(gcm, first)
        assert enumerate_levels(gcm, second, ck) == enumerate_levels(gcm, second)


def test_checkpoint_rejects_other_algebra(tmp_path):
    ck = tmp_path / "state.ckpt"
    enumerate_levels(build_catalog("A2").gcm, 2, ck)
    with pytest.raises(CheckpointMismatchError):
        enumerate_levels(build_catalog("A3").gcm, 4, ck)


def test_checkpoint_rejects_unknown_version(tmp_path, capsys):
    gcm = build_catalog("A2").gcm
    ck = tmp_path / "state.ckpt"
    enumerate_levels(gcm, 2, ck)
    _rewrite_checkpoint(ck, version=99)
    with pytest.raises(CheckpointMismatchError, match="version 99, expected 9"):
        enumerate_levels(gcm, 4, ck)
    digest = np.str_(gcm_digest(gcm))
    # Formats 7 and 8: the walk from the identity, as format 9 stores it.
    v8 = {"algebra_digest": digest, "order": np.int64(2),
          "tally": np.asarray([[1, 1, 0], [1, 1, 1], [1, 0, 1]]), "chunks": np.zeros((0, 2)),
          "waiting": np.zeros((0, 2)), "content_digest": np.str_("0" * 64)}
    # Format 6: the same, with the lambda it walks.
    v6 = {**v8, "lam": np.asarray([0, 1])}
    # Format 5: the walk from the identity, with a complete flag.
    v5 = {**v6, "lam": np.asarray([1, 1]), "tally": np.asarray([[1, 2, 0], [2, 2, 2], [2, 0, 2]]),
          "complete": np.bool_(True)}
    # Format 4: the walk from a stored base level.
    v4 = {**v5, "base_index": np.int64(1), "base": np.eye(2, dtype=np.int64)}
    # Format 3: one whole level, its index and the counts so far.
    v3 = {"algebra_digest": digest, "level_index": np.int64(2),
          "level": np.asarray([[2, 1], [1, 2]]), "coeffs": np.asarray([1, 2, 2]),
          "complete": np.bool_(False), "content_digest": np.str_("0" * 64)}
    # Format 2: the same layout without the content digest.
    v2 = {key: value for key, value in v3.items() if key != "content_digest"}
    # The two-level layout of format 1.
    v1 = {**{key: value for key, value in v2.items() if key != "level"},
          "older": np.eye(2, dtype=np.int64), "newer": v3["level"]}
    ck = tmp_path / "state.npz"
    for version, members in ((8, v8), (7, v8), (6, v6), (5, v5), (4, v4), (3, v3), (2, v2), (1, v1)):
        with open(ck, "wb") as fh:
            np.savez(fh, version=np.int64(version), **members)
        with pytest.raises(CheckpointMismatchError,
                           match=r"version 8 or older \(an npz archive\), expected 9"):
            enumerate_levels(gcm, 4, ck)
        assert main(["growth", "--algebra", "A2", "--order", "4", "--checkpoint", str(ck)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "an npz archive" in captured.err


def test_checkpoint_of_format_7_is_refused(monkeypatch, tmp_path, capsys):
    # Format 7 walked HA3's quotient by D4, the orbit of omega at node 2,
    # and stored it in an npz archive.  A finished format-7 file holds that
    # walk's tally, which the factor of affine A3 would turn into wrong
    # coefficients without a walk.  The count must refuse the file, exit 4.
    gcm = build_catalog("HA3").gcm
    ck = tmp_path / "ha3.npz"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl, "CHECKPOINT_VERSION", 7)
        weyl._quotient(gcm, (0, 0, 0, 1, 0), 10, ck)
        old = weyl.LevelCheckpoint.load(ck, gcm)
    assert old.complete
    stale = IntPolynomial(tuple(old.tally[:, 0])) * coxeter._parabolic(gcm, 10)[1]
    assert stale.coeffs[:11] != HA3_GROWTH_REFERENCE[:11]
    with open(ck, "wb") as fh:
        np.savez(fh, version=np.int64(7), algebra_digest=np.str_(old.algebra_digest),
                 order=np.int64(old.order), tally=old.tally, chunks=old.chunks,
                 waiting=old.waiting, content_digest=np.str_(old.content_digest))
    with pytest.raises(CheckpointMismatchError, match=r"version 8 or older \(an npz archive\), expected 9"):
        enumerate_levels(gcm, 10, ck)
    assert main(["growth", "--algebra", "HA3", "--order", "10", "--checkpoint", str(ck)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "version 8 or older" in captured.err


@pytest.mark.parametrize("edit", [
    lambda data: {"tally": np.r_[data["tally"][:-1], data["tally"][-1:] + [1, 0, 0]]},
    lambda data: {"tally": data["tally"][:-1]},
    lambda data: {"waiting": data["waiting"][:, :-1]},
    lambda data: {"waiting": -data["waiting"]},
    lambda data: {"waiting": np.concatenate([data["waiting"][:-1], data["waiting"][:1]])},
    lambda data: {"tally": np.r_[data["tally"][:3], data["tally"][3:4] - [1, 0, 0], data["tally"][4:]]},
], ids=["last-count", "short-coeffs", "width", "negative", "repeated-row", "interior-count"])
def test_checkpoint_rejects_inconsistent_contents(monkeypatch, tmp_path, edit):
    # HA2 interrupted in chunk 6 of the walk to order 6 has counted levels
    # 0..4 and has the 3 rows of level 5 waiting.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    ck = tmp_path / "ha2.ckpt"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 6, ck, 6)
    data = _read_checkpoint(ck)
    assert data["chunks"].tolist() == [[5, 3]] and len(data["tally"]) == 5
    _rewrite_checkpoint(ck, **edit(data))
    with pytest.raises(CheckpointMismatchError, match="inconsistent"):
        enumerate_levels(gcm, 10, ck)


def _waiting_rows_of_a_level(data):
    """The edit that repeats a waiting row within the deepest waiting chunk."""
    waiting = data["waiting"].copy()
    waiting[-1] = waiting[-2]
    return {"waiting": waiting}


@pytest.mark.parametrize("edit,problem", [
    (_waiting_rows_of_a_level, "repeated waiting row"),
    (lambda data: {"chunks": np.r_[[[0, data["chunks"][0, 1]]], data["chunks"][1:]]}, "outside"),
    (lambda data: {"chunks": np.r_[data["chunks"][:-1], [[13, data["chunks"][-1, 1]]]]}, "outside"),
    (lambda data: {"chunks": data["chunks"][:-1]}, "do not cover"),
    (lambda data: {"waiting": -data["waiting"]}, "negative"),
    # Without its waiting chunks the file reads as a finished walk, whose
    # partly counted levels break the edge count.
    (lambda data: {"chunks": np.zeros((0, 2), np.int64), "waiting": data["waiting"][:0]}, "up-edges"),
    (lambda data: {"tally": np.r_[data["tally"][:2], data["tally"][2:3] + [0, 1, 0], data["tally"][3:]]},
     "up-edges"),
    (lambda data: {"tally": data["tally"][:5]}, "tally of 5 levels, but no chunk waits below level 6"),
    (lambda data: {"waiting": data["waiting"] + 1}, "digest"),
], ids=["repeated-row", "level-zero", "level-past-order", "uncovered-rows", "negative",
        "dropped-chunks", "edge-count", "short-tally", "digest"])
def test_interrupted_checkpoint_rejects_inconsistent_waiting_chunks(monkeypatch, tmp_path,
                                                                   edit, problem):
    # HA2 in chunks of 4 rows, interrupted in chunk 10 of the walk to order
    # 12, leaves chunks waiting at levels 6, 8 and 9; levels 0..5 are done.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    ck = tmp_path / "ha2.ckpt"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 12, ck, 10)
    data = _read_checkpoint(ck)
    assert data["chunks"][:, 0].tolist() == [6, 8, 9] and len(data["tally"]) == 9
    _rewrite_checkpoint(ck, **edit(data))
    with pytest.raises(CheckpointMismatchError, match=f"inconsistent.*{problem}"):
        enumerate_levels(gcm, 12, ck)


def _forged_waiting_rows(state, gcm, forgery):
    """The waiting rows of ``state``, whose chunks are at levels 6, 8 and 9,
    with the first row made no element of W^J ("bumped"), the identity, an
    element of level 5 ("shallow") or 7 ("deep"), or swapped with the first
    row of the next chunk, at level 8; the rows stay nonnegative and
    distinct."""
    rows, next_chunk = state.waiting.copy(), int(state.chunks[0, 1])
    if forgery == "bumped":
        rows[0, 0] += 1
    elif forgery == "identity":
        rows[0] = 0
    elif forgery in ("shallow", "deep"):
        level = 5 if forgery == "shallow" else 7
        rows[0] = weyl._whole_levels(gcm, level, False, coxeter._parabolic(gcm, level)[0])[level][0]
    else:
        rows[[0, next_chunk]] = rows[[next_chunk, 0]]
    return rows


@pytest.mark.parametrize("forgery", ["bumped", "identity", "shallow", "deep", "swapped"])
def test_checkpoint_rejects_a_forged_waiting_row_before_walking(monkeypatch, tmp_path, capsys,
                                                                forgery):
    # HA2 in chunks of 4 rows, interrupted in chunk 10 of the walk to order
    # 12, leaves chunks waiting at levels 6, 8 and 9.  One waiting row is
    # replaced and the file saved again, so its digest, which is unkeyed,
    # matches.  The resumed count must refuse it, exit 4, before its walk,
    # the only one a count makes, starts.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    ck = tmp_path / "ha2.ckpt"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 12, ck, 10)
    state = weyl.LevelCheckpoint.load(ck, gcm)
    assert state.chunks[:, 0].tolist() == [6, 8, 9]
    replace(state, waiting=_forged_waiting_rows(state, gcm, forgery)).save(ck)
    assert weyl.LevelCheckpoint.load(ck, gcm).content_digest != state.content_digest
    count, walks = weyl._count, []

    def counted(C, *args):
        walks.append(C.lam)
        return count(C, *args)

    monkeypatch.setattr(weyl, "_count", counted)
    with pytest.raises(CheckpointMismatchError, match="inconsistent.*does not reflect down to the identity"):
        enumerate_levels(gcm, 12, ck)
    assert main(["growth", "--algebra", "HA2", "--order", "12", "--checkpoint", str(ck)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "does not reflect down" in captured.err
    assert walks == []


@settings(max_examples=40, deadline=None)
@given(small_gcm())
def test_waiting_row_check_accepts_each_level_of_w_j_at_its_own_level_only(gcm):
    # Each level i of W^J, from the walk to order 6, passes as waiting rows
    # of level i, and fails as rows of level i - 1 or i + 1.
    lam = coxeter._parabolic(gcm, 6)[0]
    C = weyl._Cartan(gcm.entries, lam)
    for i, rows in enumerate(weyl._whole_levels(gcm, 6, False, lam)[1:], 1):
        for level in (i - 1, i, i + 1):
            state = weyl.LevelCheckpoint("", 7, np.zeros((0, 3), np.int64),
                                         np.asarray([[level, len(rows)]]), rows)
            if level == i:
                weyl._check_waiting_rows(C, state, "ck")
            else:
                with pytest.raises(CheckpointMismatchError, match="does not reflect down"):
                    weyl._check_waiting_rows(C, state, "ck")


def test_checkpoint_save_syncs_before_replace(tmp_path, monkeypatch):
    events = []
    monkeypatch.setattr(weyl.os, "fsync", lambda fd: events.append("fsync"))
    real_replace = weyl.os.replace
    monkeypatch.setattr(weyl.os, "replace", lambda a, b: (events.append("replace"), real_replace(a, b)))
    enumerate_levels(build_catalog("A2").gcm, 1, tmp_path / "a2.ckpt")
    assert events == ["fsync", "replace"]


def test_checkpoint_rejects_garbage_file(tmp_path):
    ck = tmp_path / "state.ckpt"
    ck.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointMismatchError):
        enumerate_levels(build_catalog("A2").gcm, 4, ck)


def _interrupted_ha2(monkeypatch, ck):
    """HA2 in chunks of 4 rows, interrupted in chunk 10 of the walk to order
    12, saved to ``ck`` after every chunk; chunks wait at levels 6, 8 and 9."""
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    with pytest.raises(_Interrupt):
        _interrupted(build_catalog("HA2").gcm, 12, ck, 10)


def _with_header(edit):
    """The file whose header is ``edit`` of the good one's, a dict, and whose
    payload is the good one's."""
    return lambda line, payload: json.dumps(edit(json.loads(line))).encode() + b"\n" + payload


def _huge_waiting(line, payload):
    """A header that claims 10**12 waiting rows, padded to a 1 KiB file."""
    header = json.loads(line)
    header = json.dumps({**header, "waiting": [10 ** 12, header["waiting"][1]]}).encode() + b"\n"
    return header + b"\0" * (1024 - len(header))


_CHECKPOINT_KEYS = ("version", "algebra_digest", "order", "tally", "chunks", "waiting",
                    "content_digest")

# Each malformed file, made from the good one's header line and payload,
# with the reason load gives for refusing it.
_MALFORMED = {
    "empty": (lambda line, payload: b"", "no header line"),
    "no-newline": (lambda line, payload: line, "no header line"),
    "not-json": (lambda line, payload: line[:-1] + b"\n" + payload, "Expecting"),
    "not-utf8": (lambda line, payload: line.replace(b'"order"', b'"\xffrder"') + b"\n" + payload,
                 "can't decode"),
    "not-object": (lambda line, payload: b"[" + line + b"]\n" + payload, "not a JSON object"),
    "nested": (lambda line, payload: b"[" * 50_000 + b"]" * 50_000 + b"\n" + payload, "recursion"),
    **{f"no-{key}": (_with_header(lambda h, key=key: {k: v for k, v in h.items() if k != key}),
                     f"lacks {key}$")
       for key in _CHECKPOINT_KEYS},
    **{f"shape-{name}": (_with_header(edit), "not pairs of nonnegative integers") for name, edit in (
        ("arity-3", lambda h: {**h, "waiting": [*h["waiting"], 1]}),
        ("arity-1", lambda h: {**h, "tally": h["tally"][:1]}),
        ("not-a-list", lambda h: {**h, "chunks": 6}),
        ("negative", lambda h: {**h, "chunks": [-h["chunks"][0], 2]}),
        ("float", lambda h: {**h, "tally": [h["tally"][0], 3.0]}),
        ("string", lambda h: {**h, "waiting": [str(h["waiting"][0]), h["waiting"][1]]}),
        ("bool", lambda h: {**h, "tally": [h["tally"][0], True]}),
    )},
    "order-float": (_with_header(lambda h: {**h, "order": 12.5}), "not an integer"),
    "digest-number": (_with_header(lambda h: {**h, "content_digest": 0}), "not a string"),
    "huge-waiting": (_huge_waiting, r"need 32000000000264 bytes after the header, not \d+$"),
    "payload-short": (lambda line, payload: line + b"\n" + payload[:-1],
                      "need 488 bytes after the header, not 487"),
    "payload-long": (lambda line, payload: line + b"\n" + payload + b"\0",
                     "need 488 bytes after the header, not 489"),
}


@pytest.mark.parametrize("malform,reason", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_checkpoint_rejects_a_malformed_file(monkeypatch, tmp_path, capsys, malform, reason):
    # Each malformed file is refused as a checkpoint mismatch, exit 4, and
    # no JSON or numpy error escapes load.  The forged 10**12 waiting rows
    # are refused before any array is made.
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.ckpt"
    _interrupted_ha2(monkeypatch, ck)
    line, _, payload = ck.read_bytes().partition(b"\n")
    ck.write_bytes(malform(line, payload))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointMismatchError, match=f"unreadable checkpoint .*{reason}"):
            weyl.LevelCheckpoint.load(ck, gcm)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert main(["growth", "--algebra", "HA2", "--order", "12", "--checkpoint", str(ck)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "unreadable checkpoint" in captured.err


@pytest.mark.parametrize("interrupted", [False, True], ids=["finished", "interrupted"])
def test_checkpoint_round_trip(monkeypatch, tmp_path, interrupted):
    # A saved walk, finished or interrupted (HA2 in chunks of 4 rows), loads
    # back with equal arrays and the same digest, and saving what was loaded
    # writes the same bytes again.
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.ckpt"
    saved, save = [], weyl.LevelCheckpoint.save
    monkeypatch.setattr(weyl.LevelCheckpoint, "save",
                        lambda self, path: (saved.append(self), save(self, path)))
    if interrupted:
        _interrupted_ha2(monkeypatch, ck)
    else:
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", 4)
        enumerate_levels(gcm, 12, ck)
    loaded = weyl.LevelCheckpoint.load(ck, gcm)
    assert loaded.complete != interrupted and loaded.order == 12
    for name in ("tally", "chunks", "waiting"):
        assert np.array_equal(getattr(loaded, name), getattr(saved[-1], name))
        assert getattr(loaded, name).dtype == np.int64
    assert loaded.content_digest == saved[-1].content_digest
    again = tmp_path / "again.ckpt"
    loaded.save(again)
    assert again.read_bytes() == ck.read_bytes()


def test_failed_checkpoint_save_keeps_the_previous_file(monkeypatch, tmp_path):
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.ckpt"
    enumerate_levels(gcm, 6, ck)
    before = ck.read_bytes()
    state = weyl.LevelCheckpoint.load(ck, gcm)

    class FullDisk(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(weyl, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        replace(state, order=7).save(ck)
    assert ck.read_bytes() == before
    assert weyl.LevelCheckpoint.load(ck, gcm).content_digest == state.content_digest
    assert [p.name for p in tmp_path.iterdir()] == ["ha2.ckpt"]


def test_profile_script_smoke(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "profile_enumeration.py"
    spec = importlib.util.spec_from_file_location("profile_enumeration", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.profile("HA2", 6)
    lines = capsys.readouterr().out.splitlines()
    # HA2 walks the cosets of affine A2, its W_J on every node but -1;
    # times Bott's series of affine A2 they count the whole group.
    assert lines[0].startswith("HA2: walks W^J for J = {0 1 2},")
    assert lines[1].split() == ["level", "cosets", "total", "max", "coord", "seconds"]
    cosets = IntPolynomial((1, *(int(line.split()[1]) for line in lines[2:8])))
    affine_a2 = IntPolynomial(affine_poincare(invariant_degrees(build_catalog("A2")), 6).coeffs)
    assert (cosets * affine_a2).coeffs[:7] == HA2_GROWTH_PREFIX[:7]
    assert lines[8].startswith(f"total cosets {cosets(1)},")


def test_digest_distinguishes_algebras():
    a = gcm_digest(build_catalog("A2").gcm)
    b = gcm_digest(build_catalog("AffA2").gcm)
    assert a != b
    assert a == gcm_digest(build_catalog("A2").gcm)
