import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylgrowth import weyl
from weylgrowth import (
    CheckpointMismatchError,
    LevelTooLargeError,
    build_catalog,
    enumerate_levels,
    gamma_reflect,
    gcm_digest,
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


def test_full_history_dedup_matches_windowed():
    for name in ("HA2", "AffA2", "D4"):
        gcm = build_catalog(name).gcm
        assert (
            enumerate_levels(gcm, 10, full_history_dedup=True).coeffs
            == enumerate_levels(gcm, 10).coeffs
        )


def test_chunk_size_and_workers_keep_checkpoint_rows(monkeypatch, tmp_path):
    # Neither the chunk size nor the worker count may change the counts or
    # the rows of the breadth-first level a checkpoint stores.  A budget for
    # an HA3 step from a level of at most 300 rows saves level 6 (252 rows)
    # and leaves levels 7 to 9 to the depth-first count.
    monkeypatch.setattr(weyl, "_memory_budget", lambda: 5 * 300 * 5 * 8 * weyl._WORKING_COPIES)
    gcm = build_catalog("HA3").gcm
    rows = []
    for chunk_rows, workers in ((weyl._CHUNK_ROWS, 1), (7, 1), (7, 3)):
        monkeypatch.setattr(weyl, "_CHUNK_ROWS", chunk_rows)
        ck = tmp_path / f"c{chunk_rows}w{workers}.npz"
        assert enumerate_levels(gcm, 9, ck, workers=workers).coeffs == HA3_GROWTH_REFERENCE[:10]
        state = weyl.LevelCheckpoint.load(ck, gcm)
        assert state.level_index == 6
        rows.append(state.level)
    assert all(np.array_equal(rows[0], other) for other in rows[1:])


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


def test_checkpoint_stops_at_the_memory_budget(monkeypatch, tmp_path):
    # A budget for an HA2 step from a level of at most 100 rows: the walk
    # saves level 6 (89 rows), builds level 7 (136 rows) whole and counts
    # the rest below it depth-first.
    monkeypatch.setattr(weyl, "_memory_budget", lambda: 4 * 100 * 4 * 8 * weyl._WORKING_COPIES)
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.npz"
    assert enumerate_levels(gcm, 12, ck).coeffs == HA2_GROWTH_PREFIX[:13]
    state = weyl.LevelCheckpoint.load(ck, gcm)
    assert state.level_index == 6 and not state.complete
    assert state.coeffs == HA2_GROWTH_PREFIX[:7]
    assert enumerate_levels(gcm, 14, ck).coeffs == HA2_GROWTH_PREFIX


@pytest.mark.parametrize("order", [1, 6])
def test_lost_child_breaks_the_edge_count(monkeypatch, tmp_path, order):
    real = weyl._children
    monkeypatch.setattr(weyl, "_children",
                        lambda A, parents, pair, **kw: real(A, parents, pair, **kw)[1:])
    ck = tmp_path / "ha2.npz"
    with pytest.raises(RuntimeError, match="up-edges"):
        enumerate_levels(build_catalog("HA2").gcm, order, ck)
    assert not ck.exists()  # the short level 1 is caught before it is saved


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
def test_enumerator_oracle_and_reference_agree(gcm):
    # Most drawn matrices are not symmetric, so the orientation of A in the
    # canonical-parent rule (rows pair, columns move) matters here.
    series = enumerate_levels(gcm, 8)
    assert weyl_orbit_oracle(gcm, 8) == series
    assert enumerate_levels(gcm, 8, full_history_dedup=True) == series


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
    lambda data: {"coeffs": np.r_[data["coeffs"][:-1], data["coeffs"][-1] + 1]},
    lambda data: {"coeffs": data["coeffs"][:-1]},
    lambda data: {"level_index": data["level_index"] + 1},
    lambda data: {"level": data["level"][:, :-1]},
    lambda data: {"level": -data["level"]},
    lambda data: {"level": np.concatenate([data["level"][:-1], data["level"][:1]])},
    lambda data: {"coeffs": np.r_[data["coeffs"][:3], data["coeffs"][3] - 1, data["coeffs"][4:]]},
], ids=["last-count", "short-coeffs", "level-index", "width", "negative", "repeated-row",
        "interior-count"])
def test_checkpoint_rejects_inconsistent_contents(tmp_path, edit):
    gcm = build_catalog("HA2").gcm
    ck = tmp_path / "ha2.npz"
    enumerate_levels(gcm, 6, ck)
    _rewrite_checkpoint(ck, **edit(dict(np.load(ck, allow_pickle=False))))
    with pytest.raises(CheckpointMismatchError, match="inconsistent"):
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
