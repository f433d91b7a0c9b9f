import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylgrowth import weyl
from weylgrowth import (
    CheckpointMismatchError,
    GeneralizedCartanMatrix,
    LevelTooLargeError,
    build_catalog,
    enumerate_levels,
    finite_poincare,
    gamma_reflect,
    gcm_digest,
    invariant_degrees,
    level_sets,
    validate_gcm,
    weyl_group_order,
    weyl_orbit_oracle,
)
from weylgrowth.golden import HA3_GROWTH_REFERENCE

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
        enumerate_levels(gcm, 3, "ck.npz", full_history_dedup=True)


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
    with pytest.raises(RuntimeError, match="level 1 differs from the orbit oracle"):
        level_sets(gcm, 8, full_history_dedup=True)


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
    gcm = build_catalog(name).gcm
    whole = tuple(len(lvl) for lvl in level_sets(gcm, 12))
    for chunk_rows in (7, 1):
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", chunk_rows)
        assert enumerate_levels(gcm, 12).coeffs == whole


@pytest.mark.parametrize("order", [2, 6])
def test_lost_child_breaks_the_edge_count(monkeypatch, tmp_path, order):
    # At order 1 the walk counts level 1 from the masks of the identity and
    # builds no child, so order 2 is the first to lose one.
    real = weyl._children
    monkeypatch.setattr(weyl, "_children",
                        lambda A, parents, pair, **kw: real(A, parents, pair, **kw)[1:])
    ck = tmp_path / "ha2.npz"
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
    # count of the whole group (J empty), which the full-history check ties
    # to the orbit of rho, and the oracle's count.  W_J, counted whole on
    # its own, must end.
    order = 8
    lam, factor = weyl._parabolic(gcm, order)
    C = weyl._Cartan(gcm.entries, lam)
    reference = weyl._orbit_levels(gcm, order, lam)
    sizes = [1] + [len(level) for _, level, _ in weyl._levels(C, order, [], reference)]
    tally = []
    weyl._count(C, [(0, np.zeros((1, gcm.rank), dtype=np.int64))], order, tally)
    assert [count for count, _, _ in tally] == sizes
    whole = enumerate_levels(gcm, order, full_history_dedup=True)
    assert enumerate_levels(gcm, order) == whole
    assert weyl_orbit_oracle(gcm, order) == whole
    if factor.degree > 0:
        # Of rank 3 at most, so its longest element has length 9 at most.
        sub = gcm.delete_node(gcm.labels[lam.index(1)])
        sub_series = enumerate_levels(sub, 10, full_history_dedup=True)
        assert sub_series.complete and sub_series.coeffs[:order + 1] == factor.coeffs
    else:
        assert lam == (1,) * gcm.rank


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
    levels = [set(map(tuple, lvl)) for lvl in level_sets(gcm, 8, full_history_dedup=True)]
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
    # A budget for an HA2 step from a level of at most 100 rows: level 7
    # (136 rows) is built from level 6 (89 rows), level 8 is not.
    monkeypatch.setattr(weyl, "_memory_budget", lambda: 4 * 100 * 4 * 8 * weyl._WORKING_COPIES)
    gcm = build_catalog("HA2").gcm
    assert tuple(map(len, level_sets(gcm, 7))) == HA2_GROWTH_PREFIX[:8]
    with pytest.raises(LevelTooLargeError, match="level 8 needs about 34816 bytes") as info:
        level_sets(gcm, 12)
    assert isinstance(info.value, MemoryError)
    assert info.value.level == 8 and info.value.bytes_needed == 4 * 136 * 4 * 8 * 2


# ------------------------------------------------------------------- oracle

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


@pytest.mark.parametrize("name,order", [("A2", 12), ("D4", 30), ("AffA1", 12), ("AffA2", 12)])
def test_oracle_equals_enumeration(name, order):
    gcm = build_catalog(name).gcm
    a = enumerate_levels(gcm, order)
    b = weyl_orbit_oracle(gcm, order)
    assert a.coeffs == b.coeffs and a.complete == b.complete


# -------------------------------------------------------------- checkpoints

def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.npz"
    partial = enumerate_levels(gcm, 6, ck)
    assert ck.exists() and partial.coeffs == HA2_GROWTH_PREFIX[:7]
    resumed = enumerate_levels(gcm, 12, ck)
    fresh = enumerate_levels(gcm, 12)
    assert resumed.coeffs == fresh.coeffs
    assert resumed.complete == fresh.complete


def test_checkpoint_truncating_resume(tmp_path):
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.npz"
    enumerate_levels(gcm, 8, ck)
    shorter = enumerate_levels(gcm, 3, ck)
    assert shorter.coeffs == HA2_GROWTH_PREFIX[:4] and not shorter.complete


def test_checkpoint_complete_group(tmp_path):
    gcm = build_catalog("A3").gcm
    ck = tmp_path / "a3.npz"
    first = enumerate_levels(gcm, 30, ck)
    assert first.complete
    again = enumerate_levels(gcm, 50, ck)
    assert again == first
    trimmed = enumerate_levels(gcm, 6, ck)
    assert trimmed.coeffs == first.coeffs and not trimmed.complete


FREE3 = ((2, -1, -4), (-4, 2, -1), (-1, -4, 2))  # W = Z2 * Z2 * Z2, level k 3 * 2**(k-1)


def _no_whole_levels(*args):
    pytest.fail("a checkpointed count built whole levels")


def test_finished_checkpoint_holds_no_rows(monkeypatch, tmp_path):
    # HA3 walks its quotient by D4 from the identity, as a plain count
    # does, and builds no whole level.  Once the walk to order 26 has ended
    # nothing waits: the file holds lambda, the order and the tally of 27
    # levels, and no rows.  A lower order is answered from the tally and
    # leaves the file alone; a higher one walks again from the identity.
    monkeypatch.setattr(weyl, "_levels", _no_whole_levels)
    gcm = build_catalog("HA3").gcm
    ck = tmp_path / "ha3.npz"
    assert enumerate_levels(gcm, 26, ck) == enumerate_levels(gcm, 26)
    state = weyl.LevelCheckpoint.load(ck, gcm)
    assert state.complete and state.order == 26 and state.lam == (0, 0, 0, 1, 0)
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
    monkeypatch.setattr(weyl, "_levels", _no_whole_levels)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    gcm = build_catalog("HA3").gcm
    tallies = []
    for chunk_rows, workers, resume_rows in ((weyl._CHUNK_ROWS, 1, 3), (7, 1, 1), (1, 3, 7)):
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", chunk_rows)
        ck = tmp_path / f"c{chunk_rows}w{workers}.npz"
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
    assert _interrupted(gcm, order, tmp_path / "whole.npz", 0, uninterrupted) == plain
    ck = tmp_path / "walk.npz"
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
    # HA2 in chunks of 7 rows, interrupted in chunk 10 of the walk to order
    # 12, has its lowest waiting chunk at level 6: levels 0..5 are counted
    # whole.  An order below 6 is answered from the tally and leaves the
    # file alone; another order walks again from the identity.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    ck = tmp_path / "ha2.npz"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 12, ck, 10)
    state = weyl.LevelCheckpoint.load(ck, gcm)
    assert state.done == 6 and not state.complete
    monkeypatch.setattr(weyl, "_levels", _no_whole_levels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl.LevelCheckpoint, "save", lambda *args: pytest.fail("file rewritten"))
        assert enumerate_levels(gcm, 5, ck).coeffs == HA2_GROWTH_PREFIX[:6]
    assert weyl.LevelCheckpoint.load(ck, gcm).content_digest == state.content_digest
    calls = []
    assert _interrupted(gcm, 14, ck, 0, calls).coeffs == HA2_GROWTH_PREFIX
    assert calls[:2] == [0, 1]  # the identity first, then level 1
    again = weyl.LevelCheckpoint.load(ck, gcm)
    assert again.complete and again.order == 14 and again.lam == state.lam


def test_resume_walks_the_stored_lambda(monkeypatch, tmp_path):
    # A walk of the whole group (lambda = rho, W_J trivial), resumed to a
    # larger order where _parabolic would pick a quotient, keeps rho.
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.npz"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl, "_parabolic", lambda gcm, n: ((1,) * gcm.rank, weyl.IntPolynomial((1,))))
        assert enumerate_levels(gcm, 8, ck).coeffs == HA2_GROWTH_PREFIX[:9]
    assert weyl.LevelCheckpoint.load(ck, gcm).lam == (1, 1, 1, 1)
    assert enumerate_levels(gcm, 14, ck).coeffs == HA2_GROWTH_PREFIX
    assert weyl.LevelCheckpoint.load(ck, gcm).lam == (1, 1, 1, 1)


@settings(max_examples=40, deadline=None)
@given(small_gcm(), st.integers(0, 8), st.integers(0, 8))
def test_checkpointed_count_equals_the_plain_count(gcm, first, second):
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "ck.npz"
        assert enumerate_levels(gcm, first, ck) == enumerate_levels(gcm, first)
        assert enumerate_levels(gcm, second, ck) == enumerate_levels(gcm, second)


def test_checkpoint_rejects_other_algebra(tmp_path):
    ck = tmp_path / "state.npz"
    enumerate_levels(build_catalog("A2").gcm, 2, ck)
    with pytest.raises(CheckpointMismatchError):
        enumerate_levels(build_catalog("A3").gcm, 4, ck)


def _rewrite_checkpoint(ck, drop=(), **changes):
    data = dict(np.load(ck, allow_pickle=False))
    for key in drop:
        del data[key]
    data.update(changes)
    with open(ck, "wb") as fh:
        np.savez(fh, **data)


def test_checkpoint_rejects_unknown_version(tmp_path):
    gcm = build_catalog("A2").gcm
    ck = tmp_path / "state.npz"
    enumerate_levels(gcm, 2, ck)
    _rewrite_checkpoint(ck, version=np.int64(99))
    with pytest.raises(CheckpointMismatchError, match="version"):
        enumerate_levels(gcm, 4, ck)
    # Format version 4: the walk from a stored base level.
    v4 = {"algebra_digest": np.str_(gcm_digest(gcm)), "lam": np.asarray([1, 1]),
          "order": np.int64(2), "base_index": np.int64(1), "base": np.eye(2, dtype=np.int64),
          "tally": np.asarray([[1, 2, 0], [2, 2, 2], [2, 0, 2]]), "chunks": np.zeros((0, 2)),
          "waiting": np.zeros((0, 2)), "complete": np.bool_(True),
          "content_digest": np.str_("0" * 64)}
    with open(ck, "wb") as fh:
        np.savez(fh, version=np.int64(4), **v4)
    with pytest.raises(CheckpointMismatchError, match="version 4"):
        enumerate_levels(gcm, 4, ck)
    # Format version 3: one whole level, its index and the counts so far.
    old = {"algebra_digest": np.str_(gcm_digest(gcm)), "level_index": np.int64(2),
           "level": np.asarray([[2, 1], [1, 2]]), "coeffs": np.asarray([1, 2, 2]),
           "complete": np.bool_(False), "content_digest": np.str_("0" * 64)}
    with open(ck, "wb") as fh:
        np.savez(fh, version=np.int64(3), **old)
    with pytest.raises(CheckpointMismatchError, match="version 3"):
        enumerate_levels(gcm, 4, ck)
    # Format version 2: the same layout without the content digest.
    _rewrite_checkpoint(ck, drop=["content_digest"], version=np.int64(2))
    with pytest.raises(CheckpointMismatchError, match="version"):
        enumerate_levels(gcm, 4, ck)
    # The two-level layout of format version 1.
    _rewrite_checkpoint(ck, drop=["level"], version=np.int64(1),
                        older=np.eye(2, dtype=np.int64), newer=np.load(ck)["level"])
    with pytest.raises(CheckpointMismatchError, match="version"):
        enumerate_levels(gcm, 4, ck)


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
    # 0..4 and has the 7 rows of level 5 waiting.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    ck = tmp_path / "ha2.npz"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 6, ck, 6)
    data = dict(np.load(ck, allow_pickle=False))
    assert data["chunks"].tolist() == [[5, 7]] and len(data["tally"]) == 5
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
    (lambda data: {"chunks": np.r_[data["chunks"][:-1], [[12, data["chunks"][-1, 1]]]]}, "outside"),
    (lambda data: {"chunks": data["chunks"][:-1]}, "do not cover"),
    (lambda data: {"waiting": -data["waiting"]}, "negative"),
    (lambda data: {"complete": np.bool_(True)}, "complete flag"),
    (lambda data: {"tally": np.r_[data["tally"][:2], data["tally"][2:3] + [0, 1, 0], data["tally"][3:]]},
     "up-edges"),
    (lambda data: {"tally": data["tally"][:5]}, "tally of 5 levels, but no chunk waits below level 6"),
    (lambda data: {"waiting": data["waiting"] + 1}, "digest"),
], ids=["repeated-row", "level-zero", "level-at-order", "uncovered-rows", "negative",
        "complete-flag", "edge-count", "short-tally", "digest"])
def test_interrupted_checkpoint_rejects_inconsistent_waiting_chunks(monkeypatch, tmp_path,
                                                                   edit, problem):
    # HA2 in chunks of 7 rows, interrupted in chunk 10 of the walk to order
    # 12, leaves chunks waiting at levels 6, 8 and 9; levels 0..5 are done.
    gcm = build_catalog("HA2").gcm
    monkeypatch.setattr(weyl, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(weyl, "_SAVE_EVERY_S", 0)
    ck = tmp_path / "ha2.npz"
    with pytest.raises(_Interrupt):
        _interrupted(gcm, 12, ck, 10)
    data = dict(np.load(ck, allow_pickle=False))
    assert data["chunks"][:, 0].tolist() == [6, 8, 9] and len(data["tally"]) == 9
    _rewrite_checkpoint(ck, **edit(data))
    with pytest.raises(CheckpointMismatchError, match=f"inconsistent.*{problem}"):
        enumerate_levels(gcm, 12, ck)


@pytest.mark.parametrize("lam", [(0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0), (0, 0, 1),
                                 (1, 0, 0, 0)],
                         ids=["zero", "two-nodes", "not-0-1", "short", "infinite-W_J"])
def test_checkpoint_rejects_a_bad_lambda(tmp_path, lam):
    # HA2 less its node -1 is affine A2, so omega_{-1} leaves an infinite W_J.
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.npz"
    enumerate_levels(gcm, 6, ck)
    _rewrite_checkpoint(ck, lam=np.asarray(lam, dtype=np.int64))
    with pytest.raises(CheckpointMismatchError, match="inconsistent.*lambda"):
        enumerate_levels(gcm, 10, ck)


def test_checkpoint_save_syncs_before_replace(tmp_path, monkeypatch):
    events = []
    monkeypatch.setattr(weyl.os, "fsync", lambda fd: events.append("fsync"))
    real_replace = weyl.os.replace
    monkeypatch.setattr(weyl.os, "replace", lambda a, b: (events.append("replace"), real_replace(a, b)))
    enumerate_levels(build_catalog("A2").gcm, 1, tmp_path / "a2.npz")
    assert events == ["fsync", "replace"]


def test_checkpoint_rejects_garbage_file(tmp_path):
    ck = tmp_path / "state.npz"
    ck.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointMismatchError):
        enumerate_levels(build_catalog("A2").gcm, 4, ck)


def test_profile_script_smoke(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "profile_enumeration.py"
    spec = importlib.util.spec_from_file_location("profile_enumeration", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.profile("HA2", 6)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["level", "count", "total", "max", "coord", "seconds"]
    table = [line.split() for line in lines[1:7]]
    assert [int(row[1]) for row in table] == list(HA2_GROWTH_PREFIX[1:7])
    assert lines[7].startswith(f"total elements {sum(HA2_GROWTH_PREFIX[:7])},")


def test_digest_distinguishes_algebras():
    a = gcm_digest(build_catalog("A2").gcm)
    b = gcm_digest(build_catalog("AffA2").gcm)
    assert a != b
    assert a == gcm_digest(build_catalog("A2").gcm)
