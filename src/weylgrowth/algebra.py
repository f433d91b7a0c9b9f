"""Generalized Cartan matrices and the algebra catalog.

Everything here is exact: matrices are integer tuples, and the type test
:func:`cartan_type`, on which :func:`is_finite_type` rests, reads the type
off the leading principal minors alone, found by elimination in integers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CartanMatrixError",
    "UnknownFamilyError",
    "RankOutOfRangeError",
    "NotFiniteError",
    "GeneralizedCartanMatrix",
    "AlgebraDescriptor",
    "validate_gcm",
    "build_catalog",
    "cartan_type",
    "is_finite_type",
    "invariant_degrees",
    "weyl_group_order",
    "gcm_from_json",
    "load_gcm_file",
    "FINITE_FAMILIES",
]

FINITE_FAMILIES = frozenset("ABCDEFG")

# Valid rank_param per family; None means unbounded above.
_RANK_RANGES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
    "AffA": (1, None),
    "HA": (2, None),
}

_NAME_RE = re.compile(r"(HA|AffA|[A-G])(\d+)")


class CartanMatrixError(ValueError):
    """An integer matrix violates the generalized Cartan matrix axioms."""


class UnknownFamilyError(ValueError):
    """An algebra name does not parse as family + rank."""


class RankOutOfRangeError(ValueError):
    """The family exists but not at the requested rank."""


class NotFiniteError(ValueError):
    """The operation is only defined for finite-type algebras."""


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """A generalized Cartan matrix together with display labels per node.

    Rows and columns are indexed 0..rank-1 internally; ``labels`` carries
    the external naming (for the over-extended catalog entries these are
    "-1", "0", ..., "r").  Construct through :func:`validate_gcm` so the
    axioms are checked.
    """

    entries: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(tuple(int(x) for x in row) for row in self.entries)
        )
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"no node labeled {label!r}") from None

    def delete_node(self, label: str) -> "GeneralizedCartanMatrix":
        """Subdiagram with one node removed (row and column dropped)."""
        k = self.index_of(label)
        return self.subdiagram([i for i in range(self.rank) if i != k])

    def subdiagram(self, nodes) -> "GeneralizedCartanMatrix":
        """The rows, columns and labels of the nodes at the indices ``nodes``,
        in that order."""
        return GeneralizedCartanMatrix(tuple(tuple(self.entries[i][j] for j in nodes) for i in nodes),
                                       tuple(self.labels[i] for i in nodes))

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "matrix": [list(r) for r in self.entries]}


@dataclass(frozen=True)
class AlgebraDescriptor:
    """A catalog entry: family tag, rank parameter, and its Cartan matrix.

    ``rank_param`` is the subscript in the name (3 in "HA3"); the matrix
    rank differs for affine (+1) and over-extended (+2) families.
    """

    family: str
    rank_param: int
    gcm: GeneralizedCartanMatrix

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank_param}"

    @property
    def is_finite(self) -> bool:
        return self.family in FINITE_FAMILIES


def validate_gcm(entries, labels=None) -> GeneralizedCartanMatrix:
    """Check the generalized Cartan matrix axioms and wrap the matrix.

    Axioms: the matrix is square with integer entries (booleans are not
    integers here), every diagonal entry is 2, off-diagonal entries are <= 0, and A[i][j] = 0 exactly
    when A[j][i] = 0.  Default labels are "0".."rank-1".

    Raises CartanMatrixError describing the first violated axiom.
    """
    try:
        rows = [list(r) for r in entries]
    except TypeError:
        raise CartanMatrixError(f"matrix is not a list of rows: {entries!r}") from None
    n = len(rows)
    if n == 0:
        raise CartanMatrixError("matrix is empty")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise CartanMatrixError(f"matrix is not square: row {i} has length {len(row)}, expected {n}")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not hasattr(x, "__index__"):
                raise CartanMatrixError(f"entry ({i},{j}) is not an integer: {x!r}")
    mat = [[int(x) for x in row] for row in rows]
    for i in range(n):
        if mat[i][i] != 2:
            raise CartanMatrixError(f"diagonal entry ({i},{i}) is {mat[i][i]}, must be 2")
    for i in range(n):
        for j in range(n):
            if i != j and mat[i][j] > 0:
                raise CartanMatrixError(f"off-diagonal entry ({i},{j}) is positive: {mat[i][j]}")
    for i in range(n):
        for j in range(i + 1, n):
            if (mat[i][j] == 0) != (mat[j][i] == 0):
                raise CartanMatrixError(f"asymmetric zero pattern at ({i},{j}): {mat[i][j]} vs {mat[j][i]}")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    labels = tuple(str(s) for s in labels)
    if len(labels) != n:
        raise CartanMatrixError(f"need exactly {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise CartanMatrixError("node labels must be distinct")
    return GeneralizedCartanMatrix(tuple(tuple(r) for r in mat), labels)


def _blank(n: int) -> list[list[int]]:
    return [[2 if i == j else 0 for j in range(n)] for i in range(n)]


def _bond(m: list[list[int]], i: int, j: int, a_ij: int = -1, a_ji: int = -1) -> None:
    m[i][j], m[j][i] = a_ij, a_ji


def _chain(m: list[list[int]], nodes: list[int]) -> None:
    for a, b in zip(nodes, nodes[1:]):
        _bond(m, a, b)


def _finite_entries(family: str, n: int) -> list[list[int]]:
    m = _blank(n)
    if family == "A":
        _chain(m, list(range(n)))
    elif family == "B":
        _chain(m, list(range(n - 1)))
        _bond(m, n - 2, n - 1, -1, -2)  # short root last
    elif family == "C":
        _chain(m, list(range(n - 1)))
        _bond(m, n - 2, n - 1, -2, -1)
    elif family == "D":
        _chain(m, list(range(n - 1)))
        _bond(m, n - 3, n - 1)
    elif family == "E":
        _chain(m, [0] + list(range(2, n)))
        _bond(m, 1, 3)
    elif family == "F":
        _chain(m, [0, 1])
        _bond(m, 1, 2, -2, -1)
        _chain(m, [2, 3])
    elif family == "G":
        _bond(m, 0, 1, -1, -3)
    return m


def _affine_a_entries(r: int) -> list[list[int]]:
    if r == 1:
        return [[2, -2], [-2, 2]]
    m = _blank(r + 1)
    _chain(m, list(range(r + 1)))
    _bond(m, 0, r)
    return m


def _ha_entries(r: int) -> list[list[int]]:
    # Index 0 is the over-extending node (label "-1"); indices 1..r+1 are
    # the affine cycle 0-1-...-r-0.
    m = _blank(r + 2)
    affine = _affine_a_entries(r)
    for i in range(r + 1):
        for j in range(r + 1):
            m[1 + i][1 + j] = affine[i][j]
    _bond(m, 0, 1)
    return m


def build_catalog(descriptor_name: str) -> AlgebraDescriptor:
    """Resolve a catalog name like "A3", "D5", "AffA2", or "HA3".

    Finite families carry labels "1".."n", affine families "0".."r", and
    the over-extension HA_r carries "-1","0",..,"r" with node "-1"
    attached to the affine node "0" of the A_r cycle.
    """
    match = _NAME_RE.fullmatch(descriptor_name.strip())
    if not match:
        raise UnknownFamilyError(f"cannot parse algebra name {descriptor_name!r}")
    family, rank = match.group(1), int(match.group(2))
    lo, hi = _RANK_RANGES[family]
    if rank < lo or (hi is not None and rank > hi):
        bound = f"{lo}..{hi}" if hi is not None else f">= {lo}"
        raise RankOutOfRangeError(f"{family} requires rank {bound}, got {rank}")
    if family in FINITE_FAMILIES:
        entries = _finite_entries(family, rank)
        labels = tuple(str(i) for i in range(1, rank + 1))
    elif family == "AffA":
        entries = _affine_a_entries(rank)
        labels = tuple(str(i) for i in range(rank + 1))
    else:  # HA
        entries = _ha_entries(rank)
        labels = tuple(str(i) for i in range(-1, rank + 1))
    return AlgebraDescriptor(family, rank, validate_gcm(entries, labels))


def cartan_type(gcm: GeneralizedCartanMatrix) -> str:
    """"finite", "affine" or "indefinite": the type of a connected ``gcm``,
    decided exactly from its leading principal minors Delta_1 .. Delta_n,
    with no symmetriser.

    All of them positive is finite, Delta_1 .. Delta_(n-1) positive with
    Delta_n = 0 is affine, and anything else is indefinite.  By induction
    on n, let the leading block B of size n - 1 be finite, and write A =
    [[B, u], [v^T, 2]], with u, v <= 0.  Each component of a finite B has
    an inverse with positive entries, so B^-1 >= 0, B^-1 w > 0 for every
    w > 0, and Delta_n / Delta_(n-1) = 2 - v^T B^-1 u.  If Delta_n > 0, y =
    (B^-1 (w - u), 1) > 0 and A y = (w, Delta_n / Delta_(n-1) + v^T B^-1 w),
    which is positive for every small enough w > 0, so each component of A
    is finite (Kac, *Infinite dimensional Lie algebras*, Thm. 4.3, which
    assumes no symmetriser).  If Delta_n = 0 and A is connected, u meets
    every component of B, so y_0 = (-B^-1 u, 1) > 0 and A y_0 = 0: A is
    affine (Thm. 4.3).  If Delta_n <= 0, every y = (z, s) > 0 with B z + s
    u >= 0 has z >= -s B^-1 u, so (A y)_n = v^T z + 2 s <= s Delta_n /
    Delta_(n-1) <= 0: A is not finite, nor affine when Delta_n < 0.  So a
    leading block whose last minor is not positive is not finite, and a
    matrix with one as a proper block is neither finite nor affine, since
    every proper principal submatrix of either is finite (Kac, Lemma 4.5).
    A matrix with no symmetriser, d_i a_ij = d_j a_ji for some positive d,
    is neither finite nor affine, so it always fails the test.
    Fraction-free (Bareiss) elimination of A without row exchanges gives
    each minor as a pivot, in integers, with every division exact.

    A matrix of several components is "finite" exactly when each of them
    is; "affine" and "indefinite" speak of a connected one.
    """
    m, previous = [list(row) for row in gcm.entries], 1
    n = gcm.rank
    for k in range(n):
        pivot = m[k][k]  # the leading principal minor of A of size k + 1
        if pivot <= 0:
            return "affine" if pivot == 0 and k == n - 1 else "indefinite"
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(pivot * x - f * y) // previous for x, y in zip(m[i], m[k])]
        previous = pivot
    return "finite"


def is_finite_type(gcm: GeneralizedCartanMatrix) -> bool:
    """Whether the Weyl group of ``gcm`` is finite, decided exactly.

    The Weyl group is the product of those of the connected components,
    and it is finite exactly when every component is of finite type, that
    is when :func:`cartan_type` says "finite".
    """
    return cartan_type(gcm) == "finite"


def invariant_degrees(descriptor: AlgebraDescriptor) -> tuple[int, ...]:
    """Degrees of the basic polynomial invariants of a finite Weyl group.

    The product of the degrees is the group order; each table value is
    guarded by exhaustive-enumeration tests for rank <= 5.
    """
    if not descriptor.is_finite:
        raise NotFiniteError(f"{descriptor.name} is not a finite-type algebra")
    fam, n = descriptor.family, descriptor.rank_param
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
    if fam == "E":
        return {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18), 8: (2, 8, 12, 14, 18, 20, 24, 30)}[n]
    if fam == "F":
        return (2, 6, 8, 12)
    return (2, 6)  # G2


def weyl_group_order(descriptor: AlgebraDescriptor) -> int:
    """Order of the finite Weyl group, as the product of invariant degrees."""
    return math.prod(invariant_degrees(descriptor))


def finite_families_help() -> list[dict]:
    """Catalog overview rows: one entry per buildable family."""
    kinds = {"AffA": "affine", "HA": "hyperbolic (over-extended)"}
    rows = []
    for family, (lo, hi) in _RANK_RANGES.items():
        ranks = f"n = {lo}" if hi == lo else (f"{lo} <= n <= {hi}" if hi else f"n >= {lo}")
        rows.append({
            "name": f"{family}<n>",
            "ranks": ranks,
            "kind": kinds.get(family, "finite"),
        })
    return rows


def gcm_from_json(text: str) -> GeneralizedCartanMatrix:
    """Parse the GCM file format: {"labels": [...], "matrix": [[...]]}."""
    data = json.loads(text)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError('GCM JSON must be an object with a "matrix" key')
    matrix = data["matrix"]
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError('GCM JSON "labels" must be an array')
    return validate_gcm(matrix, labels)


def load_gcm_file(path) -> GeneralizedCartanMatrix:
    return gcm_from_json(Path(path).read_text())
