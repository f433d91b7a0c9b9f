import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylgrowth import (
    CartanMatrixError,
    NotFiniteError,
    RankOutOfRangeError,
    UnknownFamilyError,
    build_catalog,
    cartan_type,
    enumerate_levels,
    gcm_from_json,
    invariant_degrees,
    is_finite_type,
    load_gcm_file,
    validate_gcm,
    weyl_group_order,
    weyl_orbit_oracle,
)
from weylgrowth import coxeter


# ---------------------------------------------------------------- validation

def test_validate_rank_one():
    gcm = validate_gcm([[2]])
    assert gcm.rank == 1 and gcm.entries == ((2,),)


def test_validate_affine_a1():
    gcm = validate_gcm([[2, -2], [-2, 2]])
    assert gcm.entries == ((2, -2), (-2, 2))


def test_validate_rejects_asymmetric_zero():
    with pytest.raises(CartanMatrixError, match="asymmetric zero"):
        validate_gcm([[2, -1], [0, 2]])


def test_validate_rejects_non_square():
    with pytest.raises(CartanMatrixError, match="not square"):
        validate_gcm([[2, -1], [-1]])


def test_validate_rejects_empty():
    with pytest.raises(CartanMatrixError, match="empty"):
        validate_gcm([])


def test_validate_rejects_bad_diagonal():
    with pytest.raises(CartanMatrixError, match="must be 2"):
        validate_gcm([[1]])


def test_validate_rejects_positive_off_diagonal():
    with pytest.raises(CartanMatrixError, match="positive"):
        validate_gcm([[2, 1], [1, 2]])


def test_validate_rejects_non_integer():
    with pytest.raises(CartanMatrixError, match="not an integer"):
        validate_gcm([[2, -0.5], [-2, 2]])
    # bool is an int subclass, but a JSON false is not a matrix entry.
    with pytest.raises(CartanMatrixError, match="not an integer: False"):
        validate_gcm([[2, False], [False, 2]])


def test_index_of_an_unknown_label_is_a_key_error():
    with pytest.raises(KeyError, match="no node labeled 'nope'"):
        build_catalog("A3").gcm.index_of("nope")


def test_validate_label_mismatch():
    with pytest.raises(CartanMatrixError, match="labels"):
        validate_gcm([[2]], labels=("a", "b"))
    with pytest.raises(CartanMatrixError, match="distinct"):
        validate_gcm([[2, -1], [-1, 2]], labels=("a", "a"))


@st.composite
def gcm_entry_matrices(draw):
    n = draw(st.integers(1, 4))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                m[i][j] = draw(st.integers(-3, -1))
                m[j][i] = draw(st.integers(-3, -1))
    return m


@given(gcm_entry_matrices())
def test_validate_accepts_axiom_satisfying_matrices(entries):
    gcm = validate_gcm(entries)
    assert gcm.rank == len(entries)


@given(gcm_entry_matrices(), st.integers(0, 3))
def test_validate_rejects_broken_diagonal(entries, seed):
    i = seed % len(entries)
    entries[i][i] = 3
    with pytest.raises(CartanMatrixError):
        validate_gcm(entries)


# ------------------------------------------------------------------- catalog

def test_catalog_a1():
    assert build_catalog("A1").gcm.entries == ((2,),)


def test_catalog_parses_families():
    for name, rank in [("A3", 3), ("B4", 4), ("C2", 2), ("D5", 5), ("E7", 7),
                       ("F4", 4), ("G2", 2), ("AffA2", 3), ("HA3", 5)]:
        desc = build_catalog(name)
        assert desc.name == name
        assert desc.gcm.rank == rank


def test_catalog_unknown_family():
    for bad in ("X3", "HA", "A", "AffB2", "ha2", ""):
        with pytest.raises(UnknownFamilyError):
            build_catalog(bad)


def test_catalog_rank_out_of_range():
    for bad in ("A0", "B1", "D2", "E9", "E5", "F5", "G3", "HA1", "AffA0"):
        with pytest.raises(RankOutOfRangeError):
            build_catalog(bad)


def test_catalog_products_pass_validation():
    for name in ("A7", "B6", "C5", "D7", "E6", "E8", "F4", "G2", "AffA1", "AffA5", "HA2", "HA5"):
        gcm = build_catalog(name).gcm
        assert validate_gcm(gcm.entries, gcm.labels) == gcm


def _degree_multiset(gcm):
    degs = sorted(sum(1 for x in row if x != 0) - 1 for row in gcm.entries)
    return tuple(degs)


# Simply-laced trees on <= 4 nodes are told apart by their degree multisets:
# A3 (1,1,2), A4 (1,1,2,2), D4 (1,1,1,3).
def test_ha2_subdiagrams():
    gcm = build_catalog("HA2").gcm
    affine = gcm.delete_node("-1")
    assert affine.entries == build_catalog("AffA2").gcm.entries
    assert _degree_multiset(gcm.delete_node("2")) == (1, 1, 2)          # A3 chain


def test_ha3_subdiagrams():
    gcm = build_catalog("HA3").gcm
    affine = gcm.delete_node("-1")
    assert affine.entries == build_catalog("AffA3").gcm.entries
    assert _degree_multiset(gcm.delete_node("1")) == (1, 1, 2, 2)       # A4 chain
    assert _degree_multiset(gcm.delete_node("3")) == (1, 1, 2, 2)
    assert _degree_multiset(gcm.delete_node("2")) == (1, 1, 1, 3)       # D4 star


def test_ha_general_shape():
    for r in (2, 3, 4, 6):
        gcm = build_catalog(f"HA{r}").gcm
        assert gcm.rank == r + 2
        assert gcm.delete_node("-1").entries == build_catalog(f"AffA{r}").gcm.entries
        # dropping the right cycle node leaves a finite type-A chain
        chain_node = "2" if r == 2 else "1"
        chain = gcm.delete_node(chain_node)
        assert _degree_multiset(chain) == (1, 1) + (2,) * (r - 1)


# ------------------------------------------------------------------- degrees

def test_invariant_degrees_tables():
    assert invariant_degrees(build_catalog("A1")) == (2,)
    assert invariant_degrees(build_catalog("A3")) == (2, 3, 4)
    assert invariant_degrees(build_catalog("D4")) == (2, 4, 6, 4)
    assert invariant_degrees(build_catalog("D5")) == (2, 4, 6, 8, 5)
    assert invariant_degrees(build_catalog("B4")) == (2, 4, 6, 8)
    assert invariant_degrees(build_catalog("E6")) == (2, 5, 6, 8, 9, 12)
    assert weyl_group_order(build_catalog("E8")) == 696729600


def test_invariant_degrees_rejects_non_finite():
    with pytest.raises(NotFiniteError):
        invariant_degrees(build_catalog("AffA2"))
    with pytest.raises(NotFiniteError):
        invariant_degrees(build_catalog("HA2"))


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5",
     "B2", "B3", "B4", "B5",
     "C2", "C3", "C4", "C5",
     "D3", "D4", "D5",
     "F4", "G2", "E6"],
)
def test_degree_product_matches_enumeration(name):
    desc = build_catalog(name)
    series = enumerate_levels(desc.gcm, 40)
    assert series.complete
    assert series.total == weyl_group_order(desc)


# ------------------------------------------------------------- finite type

def test_finite_type_holds_for_every_catalogue_finite_type():
    names = [f"{family}{n}" for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for n in range(lo, 9)]
    for name in names + ["E6", "E7", "E8", "F4", "G2"]:
        assert is_finite_type(build_catalog(name).gcm), name


def test_finite_type_fails_for_affine_and_hyperbolic_types():
    for name in [f"AffA{n}" for n in range(1, 8)] + [f"HA{n}" for n in range(2, 7)]:
        assert not is_finite_type(build_catalog(name).gcm), name


def test_finite_type_fails_for_a_matrix_that_is_not_symmetrisable():
    # a01 * a12 * a20 = -1 but a10 * a21 * a02 = -2: no d_i make d_i a_ij
    # symmetric around the cycle.
    gcm = validate_gcm([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])
    assert cartan_type(gcm) == "indefinite"
    assert not is_finite_type(gcm)
    assert not weyl_orbit_oracle(gcm, 12).complete


def test_cartan_type_of_every_catalogue_type():
    finite = [f"{family}{n}" for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
              for n in range(lo, 9)] + ["E6", "E7", "E8", "F4", "G2"]
    for names, kind in ((finite, "finite"), ([f"AffA{n}" for n in range(1, 8)], "affine"),
                        ([f"HA{n}" for n in range(2, 8)], "indefinite")):
        for name in names:
            assert cartan_type(build_catalog(name).gcm) == kind, name


def test_cartan_type_of_every_rank_two_matrix_with_a_bond_product_up_to_six():
    # a_01 a_10 = 1, 2, 3 is A2, B2 = C2, G2; 4 is affine A1 or A2^(2);
    # 5 and 6 are hyperbolic.
    for a, b in itertools.product(range(1, 7), repeat=2):
        if a * b <= 6:
            gcm = validate_gcm([[2, -a], [-b, 2]])
            kind = "finite" if a * b < 4 else "affine" if a * b == 4 else "indefinite"
            assert cartan_type(gcm) == kind, (a, b)
            assert is_finite_type(gcm) == (kind == "finite")


def test_cartan_type_calls_every_matrix_with_no_symmetriser_indefinite(connected_gcms):
    # cartan_type reads the leading minors alone.  A finite or affine
    # matrix has a symmetriser, d_i a_ij = d_j a_ji with every d_i > 0, so
    # one with none must come out indefinite: every connected GCM of rank 3
    # with bonds down to -4, in every node order and orientation.  The
    # reference spreads d from d_0 = 1 along the bonds, in Fractions, and
    # checks it on every bond.
    seen = none = 0
    for gcm in connected_gcms(3, (1, 2, 3, 4)):
        a, d, todo = gcm.entries, [Fraction(1), None, None], [0]
        while todo:
            i = todo.pop()
            for j in range(3):
                if a[i][j] and d[j] is None:
                    d[j] = d[i] * a[i][j] / a[j][i]
                    todo.append(j)
        seen += 1
        if any(d[i] * a[i][j] != d[j] * a[j][i] for i in range(3) for j in range(i) if a[i][j]):
            none += 1
            assert cartan_type(gcm) == "indefinite", a
    assert (seen, none) == (4_864, 3_756)


@st.composite
def drawn_gcm(draw, max_rank):
    n = draw(st.integers(1, max_rank))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    bonds = st.sampled_from((-1, -2, -3, -4))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                m[i][j], m[j][i] = draw(bonds), draw(bonds)
    return validate_gcm(m)


@settings(max_examples=150, deadline=None)
@given(drawn_gcm(3))
def test_finite_type_agrees_with_a_whole_group_count(gcm):
    # A finite Weyl group of rank at most 3 has a longest element of
    # length at most 9 (B3, C3), so the orbit of rho, which is the whole
    # group, ends by order 10 exactly when the group is finite.  The orbit
    # oracle calls nothing that calls is_finite_type.
    assert is_finite_type(gcm) == weyl_orbit_oracle(gcm, 10).complete


@settings(max_examples=300, deadline=None)
@given(drawn_gcm(5))
def test_finite_type_agrees_with_the_root_closure(gcm):
    # A finite Weyl group of rank r has at most r max(r, 15) positive roots
    # and an infinite one has infinitely many, so the closure of the simple
    # roots under the simple reflections ends within that bound exactly
    # when the group is finite.  The closure calls nothing that calls
    # is_finite_type.
    try:
        coxeter._root_degrees(gcm)
    except RuntimeError:
        closed = False
    else:
        closed = True
    assert is_finite_type(gcm) == closed


# ---------------------------------------------------------------- file I/O

def test_gcm_json_round_trip():
    gcm = build_catalog("HA2").gcm
    again = gcm_from_json(json.dumps(gcm.to_json_dict()))
    assert again == gcm


def test_gcm_json_requires_matrix_key():
    with pytest.raises(ValueError, match="matrix"):
        gcm_from_json('{"labels": ["0"]}')


def test_gcm_json_requires_a_labels_array():
    # A string would otherwise be split into one label per character.
    with pytest.raises(ValueError, match="labels"):
        gcm_from_json('{"labels": "ab", "matrix": [[2, 0], [0, 2]]}')
    assert gcm_from_json('{"labels": null, "matrix": [[2]]}').labels == ("0",)


def test_load_gcm_file(tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "matrix": [[2, -2], [-2, 2]]}))
    gcm = load_gcm_file(path)
    assert gcm.entries == ((2, -2), (-2, 2))
    assert gcm.labels == ("0", "1")
