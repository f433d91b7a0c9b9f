"""Enumeration of Weyl group elements by word length.

Each group element w is named by the coordinate vector gamma = rho - w(rho)
over the simple roots.  These vectors are pairwise distinct across the
whole group and have nonnegative entries.  With pair = A gamma, reflecting
node nu changes only coordinate nu, by c = 1 - pair[nu], which is never 0:
the word length goes up by one when c > 0 and down by one when c < 0, so
the left descents of w are the nodes mu with pair[mu] >= 2.

A count factors out a parabolic subgroup W_J whose components are finite
or affine.  Every w is u v for one u in W^J, the shortest element of its
coset wW_J, and one v in W_J, and the lengths add, so W(t) = W^J(t)
W_J(t).  W^J is the orbit of the dominant weight lambda = sum of omega_i
over the nodes i off J, named by gamma = lambda - w(lambda).  Everything
above holds with lambda_mu = <lambda, alpha_mu^vee>, 1 off J and 0 on J,
in place of the 1 of rho: c = lambda_nu - pair[nu], mu is a left descent
when pair[mu] > lambda_mu, and c = 0 is a move inside the coset, which is
neither up nor down.  The matrix alone fixes J: :func:`_parabolic` types
each component of each candidate J, by :func:`cartan_type` when W is
infinite, in one loop for any W, and states the rule.  W_J(t) has a
closed form, with no walk: one Bott series over the degrees of the finite
parts W_0 of all its affine components together (:func:`_base_degrees`),
times the polynomial of the degrees of its finite components, read off
the heights of their positive roots (:func:`_root_degrees`).  So every
count makes one walk, of the quotient: :func:`_quotient`, with or without
a checkpoint, or :func:`_whole_levels` under the full-history
cross-check; :func:`level_sets` walks the whole group with the same
:func:`_count`.

An up-move is kept only when its node is the smallest left descent of the
child (the canonical parent, as in du Cloux's Coxeter programs and
Casselman's "Computation in Coxeter groups").  W^J is closed under removing
a left descent, so every element of it then arises exactly once, below its
canonical parent: W^J is a rooted tree and nothing is deduplicated.  Level
sizes are the growth coefficients.
One function walks the tree: :func:`_count`, depth-first from the identity
with a stack of chunks of bounded size, checkpointed or not, so a count
never holds a level whole.  It yields each chunk once it is counted; a
count keeps only the tally, and :func:`_whole_levels` copies the chunks
into whole levels for level sets and the cross-check.  Each chunk is
checked against the coordinate budget, paired and tallied by
:func:`_tally`, and its children built by :func:`_children` and checked to
be nonnegative.  Coordinates are stored as checked 64-bit integers.

The depth-first count never builds its last level: it counts that level's
elements and their left descents from the masks that select them in their
parents' chunks.  Those elements are nonnegative without a check, since
each is a checked parent plus c >= 1 at one coordinate.
The coordinate budget still covers every parent chunk, and the edge-count
invariant and the growth bound still cover every level, the last one
included.

One reference, :func:`_orbit_levels`, computes the same levels by a
breadth-first search over the orbit of lambda in weight coordinates, with
Python integers and no canonical parent, and charges the states it holds
to the memory budget itself.  :func:`weyl_orbit_oracle` counts the levels
of the orbit of rho.  The full-history cross-check is read in
one place, :func:`enumerate_levels`: it checks W_J(t) against a product of
orbit counts over a chain of J (:func:`_check_factor`), then runs the walk
a count takes, of W^J, and compares every whole level, as a set, with the
orbit of lambda.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import GeneralizedCartanMatrix, cartan_type, is_finite_type
from .series import IntPolynomial, TruncatedSeries, affine_poincare, finite_poincare, series_mul

__all__ = [
    "CheckpointMismatchError",
    "GrowthSeries",
    "LevelCheckpoint",
    "LevelTooLargeError",
    "gamma_reflect",
    "enumerate_levels",
    "level_sets",
    "weyl_orbit_oracle",
    "gcm_digest",
]

# The waiting rows of a checkpoint are lambda - w(lambda) for the lambda
# that _parabolic picks, so a change to that choice changes the format.
CHECKPOINT_VERSION = 9

# Formats 8 and older were npz archives, which are zip files.
_ZIP_MAGIC = b"PK\x03\x04"

# The arrays of a checkpoint, in the order its file stores them.
_CHECKPOINT_ARRAYS = ("tally", "chunks", "waiting")
_CHECKPOINT_KEYS = ("version", "algebra_digest", "order", *_CHECKPOINT_ARRAYS, "content_digest")

# Reflection images must stay below 2**_SAFE_BITS so the pairing dot
# products cannot wrap around; crossing the budget is a hard error.
_SAFE_BITS = 62

# Rows per chunk of the depth-first walk.  The walk holds at most one
# chunk's children per level, so this and the order bound its memory.
_CHUNK_ROWS = 1 << 14

# A checkpointed walk saves its state at most once per this many seconds,
# and once more when it ends.
_SAVE_EVERY_S = 60.0

# Bytes the orbit oracle holds per state it has found, for the memory
# budget of each walk the full-history cross-check holds whole: the
# state's tuple of Python ints in ``seen`` and its share of the frontier.
# tracemalloc read peaks of 285, 275 and 252 bytes per state on the orbits
# of rho of HA2 to order 8 and HA3 to orders 12 and 18 (557, 11,720 and
# 158,931 states; Python 3.11.7).
_ORACLE_STATE_BYTES = 288


class CheckpointMismatchError(RuntimeError):
    """A checkpoint file does not belong to this run or is inconsistent."""


class LevelTooLargeError(MemoryError):
    """Whole level sets, the orbit oracle's states, or both together would
    not fit the memory budget.

    ``level`` is the word length of the chunk whose copy crossed the budget,
    or of the oracle level whose states did, and ``bytes_needed`` the bytes
    of the rows and oracle states held with it.
    """

    def __init__(self, level: int, bytes_needed: int, budget: int):
        super().__init__(f"level {level} needs about {bytes_needed} bytes to build, "
                         f"more than the budget of {budget} bytes")
        self.level = level
        self.bytes_needed = bytes_needed


@dataclass(frozen=True)
class GrowthSeries(TruncatedSeries):
    """Element counts per word length, 0..order.

    ``complete`` is True only when an empty level was reached within the
    requested window, i.e. the whole finite group has been enumerated.
    """

    complete: bool

    @property
    def total(self) -> int:
        return sum(self.coeffs)


def gcm_digest(gcm: GeneralizedCartanMatrix) -> str:
    """Stable content hash of a Cartan matrix, used to key checkpoints."""
    payload = json.dumps(gcm.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def gamma_reflect(gcm: GeneralizedCartanMatrix, gamma, mu: int) -> tuple[int, ...]:
    """Apply the simple reflection mu to the vector naming a group element.

    Only coordinate mu changes: it becomes gamma[mu] + 1 - <row mu of A,
    gamma>.  Pure integer arithmetic; applying the same reflection twice
    returns the input.
    """
    if not 0 <= mu < gcm.rank:
        raise IndexError(f"node index {mu} out of range for rank {gcm.rank}")
    coords = tuple(int(g) for g in gamma)
    if len(coords) != gcm.rank:
        raise ValueError(f"vector has length {len(coords)}, expected {gcm.rank}")
    pairing = sum(a * g for a, g in zip(gcm.entries[mu], coords))
    return coords[:mu] + (coords[mu] + 1 - pairing,) + coords[mu + 1:]


class _Cartan:
    """A Cartan matrix and a dominant weight, as int64 arrays and as Python
    ints, read once per call.

    Indexing an array and computing with numpy scalars costs far more than
    the same work on Python ints, and the depth-first count would pay it for
    every entry in every chunk.  Each public function builds this form once
    and passes it to every kernel below.

    ``lam`` holds lambda_mu = <lambda, alpha_mu^vee>, 1 off J and 0 on J, for
    the weight lambda whose orbit the walk enumerates; the default, all
    ones, is rho, whose orbit is the whole group (J empty).
    """

    def __init__(self, entries, lam=None):
        self.matrix = np.asarray(entries, dtype=np.int64)
        entries = self.matrix.tolist()
        rank = len(entries)
        self.rank = rank
        self.lam = [1] * rank if lam is None else [int(x) for x in lam]
        # lam as a column, to compare every pairing of node mu with lam[mu].
        self.lam_column = np.asarray(self.lam, dtype=np.int64).reshape(rank, 1)
        self.diagonal = [entries[mu][mu] for mu in range(rank)]
        # (nu, A[mu, nu]) for the nonzero off-diagonal entries of row mu.
        self.bonds = [[(nu, a) for nu, a in enumerate(row) if a and nu != mu]
                      for mu, row in enumerate(entries)]
        # (mu, A[mu, nu], lam[mu] - A[mu, nu] lam[nu]) for the entries of
        # column nu above the diagonal, and for those below it: the bound
        # of the descent tests in _kept and _leaf_counts.
        lam = self.lam

        def column(nu, mus):
            return [(mu, entries[mu][nu], lam[mu] - entries[mu][nu] * lam[nu]) for mu in mus]

        self.above = [column(nu, range(nu)) for nu in range(rank)]
        self.below = [column(nu, range(nu + 1, rank)) for nu in range(rank)]
        # With c = max|A| * rank and M >= 1 the largest coordinate of a level,
        # a child's coordinates are at most (c + 2) M, since it adds
        # lam[nu] - pair[nu] <= 1 + c M at one coordinate, and every value
        # formed while building it or its pairings stays within c * (c + 3) M:
        # a pairing is a sum of at most rank terms A[mu, nu] * gamma[nu], so
        # each partial sum that _pairings accumulates column by column is
        # bounded by c times the largest coordinate, that of a child by
        # c * (c + 2) M; the descent test in _kept and _leaf_counts subtracts
        # A[mu, nu] * pair[nu] from pair[mu], at most (c + 1) * c M in all,
        # and compares it with lam[mu] - A[mu, nu] lam[nu], at most 1 + c.
        # Only lam <= 1 enters, so the bound is the same for every lambda.
        # The level of M = 0 is the identity alone, whose children have
        # coordinates at most 1.
        c = max(abs(a) for row in entries for a in row) * rank
        self.limit = (1 << _SAFE_BITS) // (c * (c + 3))


def _check_coordinate_budget(C: _Cartan, level: np.ndarray) -> None:
    """Raise OverflowError when a coordinate of ``level`` is past the limit
    of :class:`_Cartan`, so that its children and pairings cannot wrap."""
    if level.size and int(level.max()) > C.limit:
        raise OverflowError("coordinates exceed the checked 64-bit budget")


def _pairings(C: _Cartan, rows: np.ndarray, out=None) -> np.ndarray:
    """``A @ rows.T``, written into ``out`` when given.

    numpy multiplies int64 matrices without BLAS, element by element; one
    whole-column multiply or subtract per nonzero entry of A is faster, and
    a Cartan matrix has few of them.  The columns are read from one
    coordinate-major copy of ``rows``: a column of ``rows`` itself has a
    stride of rank * 8 bytes, and reading it once per entry cost more than
    the copy (on 16,384-row HA3 chunks about 280 against 230 us per call).
    Entries other than -1 are multiplied into one scratch row, allocated
    once per call.  Exact by the bound in :class:`_Cartan`.
    """
    if out is None:
        out = np.empty((C.rank, len(rows)), dtype=np.int64)
    cols = np.ascontiguousarray(rows.T)
    scratch = None
    for mu, bonds in enumerate(C.bonds):
        acc = out[mu]
        np.multiply(cols[mu], C.diagonal[mu], out=acc)
        for nu, a in bonds:
            if a == -1:
                acc -= cols[nu]
            else:
                if scratch is None:
                    scratch = np.empty(len(rows), dtype=np.int64)
                np.multiply(cols[nu], a, out=scratch)
                acc += scratch
    return out


def _moved(pair: np.ndarray, mu: int, nu: int, a: int) -> np.ndarray:
    """pair[mu] - a pair[nu]: a child's pairing at mu less a lam[nu], for a
    move at nu and a = A[mu, nu] (see :func:`_kept`); -1 entries need no
    multiply."""
    return pair[mu] + pair[nu] if a == -1 else pair[mu] - a * pair[nu]


def _kept(C: _Cartan, pair: np.ndarray, masks: tuple, nu: int) -> np.ndarray:
    """Which parents keep their up-move at node nu.

    An up-move at nu, where c = lam[nu] - pair[nu] is positive, gives the
    child gamma + c e_nu with pairing pair + c A[:, nu]; it is kept when no
    mu < nu is a left descent of it, that is when every mu < nu has
    pair[mu] + c A[mu, nu] <= lam[mu], or in the same integers
    pair[mu] - A[mu, nu] pair[nu] <= lam[mu] - A[mu, nu] lam[nu], the bound
    held in ``C.above``.  Where A[mu, nu] is 0 that is pair[mu] <= lam[mu],
    one mask shared by every nu.
    """
    up, not_descent = masks
    if not C.above[nu]:
        return up[nu]  # callers only read it
    keep = up[nu].copy()
    for mu, a, bound in C.above[nu]:
        keep &= not_descent[mu] if a == 0 else _moved(pair, mu, nu, a) <= bound
    return keep


def _children(C: _Cartan, parents: np.ndarray, pair: np.ndarray, out=None, *,
              masks: tuple) -> np.ndarray:
    """The children whose canonical parent is one of ``parents``.

    ``pair`` is ``A @ parents.T``, so pair[mu] holds the pairings of every
    parent with row mu of A, and ``masks`` are its masks from :func:`_tally`.
    Each parent's kept up-moves are those of :func:`_kept`.
    Children come grouped by nu, the last node's group first, each group in
    parent order.
    A count that cuts its chunks off the end thus visits the children of
    node 0 first; they have the fewest descendants, so fewer rows wait on
    its stack (on E8 to order 40 at most 54 thousand, against 575 thousand
    in ascending order).  The children fill the leading rows of ``out``
    when it has that many rows and a new array otherwise.

    The gathers use ``mode="clip"``, which numpy does not buffer as it does
    the default ``mode="raise"``; the indices come from ``nonzero`` over
    masks as long as ``parents``, so clipping never moves one.  The ndarray
    methods are called rather than ``np.take`` and ``np.flatnonzero``, whose
    Python-level wrappers cost more than the gather of a small chunk.
    """
    picks = [_kept(C, pair, masks, nu).nonzero()[0] for nu in range(C.rank)]
    size = sum(map(len, picks))
    if out is None or len(out) < size:
        out = np.empty((size, C.rank), dtype=parents.dtype)
    children = out[:size]
    start = 0
    for nu in reversed(range(C.rank)):
        idx = picks[nu]
        block = children[start:start + len(idx)]
        parents.take(idx, 0, block, "clip")
        block[:, nu] += C.lam[nu] - pair[nu].take(idx, None, None, "clip")
        start += len(idx)
    return children


def _leaf_counts(C: _Cartan, pair: np.ndarray, *, masks: tuple) -> tuple[int, int]:
    """How many children :func:`_children` would give, and their left
    descents summed, without building them.

    A child kept at node nu has no left descent below nu (:func:`_kept`),
    has nu itself (its pairing there is pair[nu] + 2c = 2 lam[nu] - pair[nu]
    > lam[nu]), and has mu > nu when pair[mu] + c A[mu, nu] > lam[mu], that
    is pair[mu] - A[mu, nu] pair[nu] > lam[mu] - A[mu, nu] lam[nu], or
    pair[mu] > lam[mu] where A[mu, nu] is 0.  These are the children's exact
    integer pairings.
    """
    not_descent = masks[1]
    count = descents = 0
    for nu in range(C.rank):
        keep = _kept(C, pair, masks, nu)
        kept = int(np.count_nonzero(keep))
        if not kept:
            continue
        count += kept
        descents += kept
        for mu, a, bound in C.below[nu]:
            if a == 0:
                descents += kept - int(np.count_nonzero(keep & not_descent[mu]))
            else:
                descents += int(np.count_nonzero(keep & (_moved(pair, mu, nu, a) > bound)))
    return count, descents


def _tally(C: _Cartan, rows: np.ndarray, i: int, tally: list, out=None) -> tuple:
    """The pairings of ``rows``, rows of level i, and their masks.

    The masks are ``pair < lam``, the up-moves, and ``pair <= lam``, the
    nodes that are not left descents; where pair[mu] = lam[mu], a node of
    J, reflecting mu moves within a coset of W_J and is neither.  The row
    count, the up-edges leaving the rows and their left descents are added
    to ``tally[i]``.  ``out`` is as for :func:`_pairings`.
    """
    pair = _pairings(C, rows, out)
    masks = pair < C.lam_column, pair <= C.lam_column
    while len(tally) <= i:
        tally.append([0, 0, 0])
    tally[i][0] += len(rows)
    tally[i][1] += int(np.count_nonzero(masks[0]))
    tally[i][2] += pair.size - int(np.count_nonzero(masks[1]))
    return pair, masks


def _count(C: _Cartan, stack: list, max_order: int, tally: list):
    """Count the canonical-parent tree below the (level index, rows) chunks
    on ``stack`` depth-first, into ``tally`` (:func:`_tally`), and yield
    (level index, rows) for every chunk once it is counted.

    Each popped chunk is cut to at most _CHUNK_ROWS rows, the rest pushed
    back, and checked against the coordinate budget before it is paired.
    Below level max_order - 1 its children, checked to be nonnegative, are
    pushed as one chunk of the next level.  Newest first, the walk holds at
    most one chunk's children per level.  A chunk of level max_order, which
    only a resumed walk has (:func:`_start`), is tallied and has no children
    built.

    Level max_order is not built: a chunk of level max_order - 1 adds its
    children's count and left descents to ``tally[max_order]`` from the masks
    that select them (:func:`_leaf_counts`), and their up-edges, which
    nothing checks, are not counted.  The children need no check of their
    own: each is a checked parent plus c = lam[nu] - pair[nu] >= 1 at one
    coordinate, so it is nonnegative, and the coordinate budget covers the
    parent chunk whose pairings the counts come from.  The tally of level
    max_order holds its count and descents, so :func:`_check_levels` checks
    it like any other.

    The walk reuses its arrays from chunk to chunk.  Its chunks nest:
    children are pushed after, and popped before, every chunk already on
    the stack.  So they are written into one array used as a stack
    (``spill``), right above the rows still waiting there, and into a new
    array only when it is full.  A popped chunk is copied into ``parents``
    and its pairings go into ``pairings``.  Fresh megabyte arrays per chunk
    would have the allocator hand memory back to the system and fault it in
    again chunk after chunk, a cost that swings with host load.  So the
    yielded rows are a view of ``parents``, valid until the walk resumes.

    At every yield each row is either counted in ``tally`` or waiting on
    ``stack``, so the two are a state the walk can resume from.
    """
    parents = np.empty((_CHUNK_ROWS, C.rank), dtype=np.int64)
    pairings = np.empty((C.rank, _CHUNK_ROWS), dtype=np.int64)
    # Pages are touched only as rows are used; E8 to order 40 keeps at
    # most a fifth of these rows waiting.
    spill = np.empty((2 * C.rank * _CHUNK_ROWS, C.rank), dtype=np.int64)
    used = 0  # leading rows of spill held by chunks on the stack
    while stack:
        i, rows = stack.pop()
        if len(rows) > _CHUNK_ROWS:
            stack.append((i, rows[:-_CHUNK_ROWS]))
            rows = rows[-_CHUNK_ROWS:]
        if rows.base is spill:
            used -= len(rows)
        np.copyto(parents[:len(rows)], rows)
        rows = parents[:len(rows)]
        _check_coordinate_budget(C, rows)
        pair, masks = _tally(C, rows, i, tally, pairings[:, :len(rows)])
        if i + 1 == max_order:
            count, descents = _leaf_counts(C, pair, masks=masks)
            if count:
                if len(tally) == max_order:
                    tally.append([0, 0, 0])
                tally[max_order][0] += count
                tally[max_order][2] += descents
        elif i < max_order:
            children = _children(C, rows, pair, out=spill[used:], masks=masks)
            if children.size and int(children.min()) < 0:
                raise RuntimeError("negative coordinate generated: enumeration invariant violated")
            if children.base is spill:
                used += len(children)
            if len(children):
                stack.append((i + 1, children))
        yield i, rows


def _check_levels(tally: list, lo: int, hi: int, rank: int) -> None:
    """Check levels lo..hi of ``tally``; a level past its end is empty.

    The left descents summed over level i must equal the up-edges leaving
    level i-1, and |L_i| <= rank * |L_{i-1}|.
    """
    for i in range(lo, hi + 1):
        count, _, descents = tally[i] if i < len(tally) else (0, 0, 0)
        before, up_edges, _ = tally[i - 1]
        if descents != up_edges:
            raise RuntimeError(f"level {i}: {up_edges} up-edges lead in, {descents} left descents")
        if count > rank * before:
            raise RuntimeError(f"level {i} has more than rank times the elements of level {i - 1}")


def _memory_budget() -> int:
    """Bytes that the whole levels of :func:`_whole_levels` and the states of
    :func:`_orbit_levels` may take together: half the physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _orbit_levels(gcm: GeneralizedCartanMatrix, max_order: int, lam=None, held: int = 0):
    """Yield the vectors lambda - w(lambda) of levels 1..max_order of the
    orbit of lambda, one list per level, up to and including the first
    empty level.

    ``lam`` gives lambda in weight coordinates, 1 off J and 0 on J; the
    default, all ones, is rho, whose orbit is the whole group.  Level k of
    the orbit of lambda is W^J, the shortest elements of the cosets wW_J,
    of length k.  A breadth-first search: reflection mu subtracts c times
    column mu of the Cartan matrix from a state, where c is the state's
    coordinate mu, and adds c at coordinate mu to its vector.  A reflection
    with c = 0 fixes the state (a move within its coset) and is skipped.
    ``seen`` maps every state found to its level.  Any other reflection
    moves the word length by exactly one, so an image already seen must lie
    in the level being built or two levels back; anything else raises
    RuntimeError.  This shares neither representation nor pairings nor the
    canonical-parent rule with the enumerator.  Python integers keep it
    exact at any size; it is meant for small ranks and orders.

    Every caller pays the same memory charge: the states found so far, at
    _ORACLE_STATE_BYTES each, on top of ``held`` bytes the caller already
    holds.  Once that passes :func:`_memory_budget`,
    :class:`LevelTooLargeError` names the level just built, before it is
    yielded.
    """
    rank, budget = gcm.rank, _memory_budget()
    columns = [tuple(gcm.entries[nu][mu] for nu in range(rank)) for mu in range(rank)]
    start = (1,) * rank if lam is None else tuple(lam)
    seen = {start: 0}
    frontier = [(start, (0,) * rank)]
    for k in range(1, max_order + 1):
        nxt = []
        for state, gamma in frontier:
            for mu, c in enumerate(state):
                if not c:
                    continue
                image = tuple(s - c * a for s, a in zip(state, columns[mu]))
                j = seen.get(image)
                if j is None:
                    seen[image] = k
                    nxt.append((image, gamma[:mu] + (gamma[mu] + c,) + gamma[mu + 1:]))
                elif j != k and j != k - 2:
                    raise RuntimeError(f"reflection for level {k} already in level {j}")
        held += len(nxt) * _ORACLE_STATE_BYTES
        if held > budget:
            raise LevelTooLargeError(k, held, budget)
        yield [gamma for _, gamma in nxt]
        if not nxt:
            return
        frontier = nxt


def _whole_levels(gcm: GeneralizedCartanMatrix, max_order: int, oracle: bool = False, lam=None) -> list:
    """Levels 0..max_order of W^J, the orbit of ``lam`` (1 off J and 0 on
    J; the default, rho, is the whole group), one array of rows in walk
    order per level, up to the last nonempty one.

    :func:`_count` walks to max_order + 1, so that level max_order is built
    and only the level after it is counted, and every chunk it yields is
    copied.  Once the rows held pass :func:`_memory_budget`,
    :class:`LevelTooLargeError` names the level of the chunk copied last.
    With ``oracle`` every level, the empty one that ends a finite W^J
    included, must equal that of :func:`_orbit_levels` for the same lambda
    as a set of rows.  The oracle charges its states to the same budget on
    top of the rows held here, and names the level that passes it.
    The tally is checked as a count's is, once the walk ends.
    """
    C = _Cartan(gcm.entries, lam)
    tally, chunks, held, budget = [], [], 0, _memory_budget()
    for i, rows in _count(C, [(0, np.zeros((1, C.rank), dtype=np.int64))], max_order + 1, tally):
        if i == len(chunks):
            chunks.append([])
        chunks[i].append(rows.copy())
        held += rows.nbytes
        if held > budget:
            raise LevelTooLargeError(i, held, budget)
    levels = [np.concatenate(level) for level in chunks]
    if oracle:
        for k, expected in enumerate(_orbit_levels(gcm, max_order, lam, held), 1):
            level = levels[k].tolist() if k < len(levels) else []
            if len(level) != len(expected) or set(map(tuple, level)) != set(expected):
                raise RuntimeError(f"level {k} differs from the orbit oracle")
    _check_levels(tally, 1, min(max_order + 1, len(tally)), C.rank)
    return levels


@dataclass(frozen=True)
class LevelCheckpoint:
    """Resumable state of a checkpointed count: its depth-first walk of W^J,
    which starts at the identity like any other count.

    Its rows are lambda - w(lambda) for the lambda of :func:`_parabolic`,
    which the matrix alone fixes.  ``order`` is the order the walk counts
    to, and ``tally`` holds the count, up-edges and left descents of each
    level so far (:func:`_tally`), one row per level.  ``chunks`` gives
    the level and the row count of each chunk still waiting on the walk's
    stack, bottom first, and ``waiting`` their rows in that order; a walk
    resumed below its stored order (:func:`_start`) may leave a chunk
    waiting at its own order.  Every level below :attr:`done` is fully
    counted.  :meth:`load` rejects a file whose parts do not fit together,
    or do not match the :attr:`content_digest` stored with them; the count
    that loads it, which knows lambda, then checks that each waiting row is
    an element of W^J of its level (:func:`_check_waiting_rows`).
    :meth:`_waiting_chunks` is the one reader of that layout.

    The file (format :data:`CHECKPOINT_VERSION`) is one UTF-8 JSON header
    line, an object with the keys of ``_CHECKPOINT_KEYS``, each array
    given by its ``[rows, cols]`` shape, then ``tally``, ``chunks`` and
    ``waiting`` as raw little-endian int64, row by row, with nothing
    between or after them.  The npz archives of formats 8 and older are
    refused, not read.
    """

    algebra_digest: str
    order: int
    tally: np.ndarray
    chunks: np.ndarray
    waiting: np.ndarray

    @property
    def complete(self) -> bool:
        """Whether the walk has ended: nothing waits."""
        return not len(self.chunks)

    @property
    def done(self) -> int:
        """The lowest level at which a chunk waits, or order + 1 when none
        does.  The walk pushes a chunk's children only once it has counted
        the chunk, so every level below this one is fully counted."""
        return int(self.chunks[:, 0].min()) if len(self.chunks) else self.order + 1

    def _waiting_chunks(self) -> list[tuple[int, np.ndarray]]:
        """(level, rows) for each chunk still waiting, bottom first; the rows
        are views of :attr:`waiting`."""
        rows = np.split(self.waiting, np.cumsum(self.chunks[:-1, 1]))
        return list(zip(self.chunks[:, 0].tolist(), rows))

    @property
    def content_digest(self) -> str:
        """sha256 over the algebra digest, order, tally, waiting chunks and
        waiting rows."""
        arrays = (self.tally, self.chunks, self.waiting)
        header = [self.order, *(n for a in arrays for n in a.shape)]
        digest = hashlib.sha256(self.algebra_digest.encode())
        for a in (np.asarray(header), *arrays):
            digest.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
        return digest.hexdigest()

    def save(self, path) -> None:
        """Write the state to a temporary file, sync it to disk and rename
        it over ``path``.  A save that fails leaves ``path`` as it was and
        removes the temporary file."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        arrays = [np.ascontiguousarray(getattr(self, name), dtype="<i8") for name in _CHECKPOINT_ARRAYS]
        header = {"version": CHECKPOINT_VERSION, "algebra_digest": self.algebra_digest,
                  "order": int(self.order),
                  **{name: list(a.shape) for name, a in zip(_CHECKPOINT_ARRAYS, arrays)},
                  "content_digest": self.content_digest}
        try:
            with open(tmp, "wb") as fh:
                fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
                for a in arrays:
                    fh.write(a.tobytes())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @staticmethod
    def load(path, gcm: GeneralizedCartanMatrix) -> "LevelCheckpoint":
        """Read a checkpoint, which must have been written for ``gcm``."""
        try:
            data = Path(path).read_bytes()
            if data.startswith(_ZIP_MAGIC):
                raise CheckpointMismatchError(f"checkpoint format version 8 or older (an npz archive), "
                                              f"expected {CHECKPOINT_VERSION}")
            line, newline, payload = data.partition(b"\n")
            if not newline:
                raise ValueError("no header line")
            header = json.loads(line.decode())
            if not isinstance(header, dict):
                raise ValueError("the header is not a JSON object")
            if "version" in header and header["version"] != CHECKPOINT_VERSION:
                raise CheckpointMismatchError(f"checkpoint format version {header['version']}, "
                                              f"expected {CHECKPOINT_VERSION}")
            missing = [key for key in _CHECKPOINT_KEYS if key not in header]
            if missing:
                raise ValueError(f"the header lacks {', '.join(missing)}")
            shapes = [header[name] for name in _CHECKPOINT_ARRAYS]
            if not all(isinstance(shape, list) and len(shape) == 2
                       and all(type(n) is int and n >= 0 for n in shape) for shape in shapes):
                raise ValueError(f"array shapes {shapes} are not pairs of nonnegative integers")
            if not (type(header["order"]) is int and isinstance(header["algebra_digest"], str)
                    and isinstance(header["content_digest"], str)):
                raise ValueError("the order is not an integer or a digest not a string")
            sizes = [rows * cols for rows, cols in shapes]
            if 8 * sum(sizes) != len(payload):  # checked before any array is made
                raise ValueError(f"array shapes {shapes} need {8 * sum(sizes)} bytes "
                                 f"after the header, not {len(payload)}")
            values = np.split(np.frombuffer(payload, dtype="<i8").astype(np.int64),
                              np.cumsum(sizes[:-1]))
            state = LevelCheckpoint(header["algebra_digest"], header["order"],
                                    *(v.reshape(shape) for v, shape in zip(values, shapes)))
            digest = header["content_digest"]
        except (ValueError, RecursionError, OSError) as exc:
            raise CheckpointMismatchError(f"unreadable checkpoint {path}: {exc}") from exc
        if state.algebra_digest != gcm_digest(gcm):
            raise CheckpointMismatchError("checkpoint belongs to a different algebra")
        problem = state._inconsistency(gcm, digest)
        if problem:
            raise CheckpointMismatchError(f"inconsistent checkpoint {path}: {problem}")
        return state

    def _inconsistency(self, gcm: GeneralizedCartanMatrix, digest: str) -> str:
        rank, order = gcm.rank, self.order
        tally, chunks, waiting = self.tally, self.chunks, self.waiting
        if tally.ndim != 2 or tally.shape[1] != 3 or not 0 < len(tally) <= order + 1:
            return f"tally of shape {tally.shape} for order {order}"
        if (tally < 0).any():
            return "negative count"
        if waiting.ndim != 2 or waiting.shape[1] != rank:
            return f"waiting rows have shape {waiting.shape}, expected width {rank}"
        if waiting.size and int(waiting.min()) < 0:
            return "negative coordinate among the waiting rows"
        ordered = waiting[np.lexsort(waiting.T)]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            return "repeated waiting row"
        if (chunks.ndim != 2 or chunks.shape[1] != 2 or (chunks[:, 1] < 1).any()
                or int(chunks[:, 1].sum()) != len(waiting)):
            return f"waiting chunks of shape {chunks.shape} do not cover {len(waiting)} waiting rows"
        # The identity is popped before the first save.  A walk pushes no
        # chunk at level order, but one resumed at a lower order keeps the
        # stored chunks at its own order (_start).
        if ((chunks[:, 0] < 1) | (chunks[:, 0] > order)).any():
            return f"a chunk waits at a level outside 1..{order}"
        done = self.done
        if not self.complete and len(tally) < done:
            return f"tally of {len(tally)} levels, but no chunk waits below level {done}"
        try:  # every level below done, and the empty one that ends a finished walk early
            _check_levels(tally.tolist(), 1, min(done - 1, len(tally)), rank)
        except RuntimeError as exc:
            return str(exc)
        if digest != self.content_digest:
            return "contents do not match their digest"
        return ""


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


def _positive_roots(gcm: GeneralizedCartanMatrix, proper: bool = False) -> set[tuple[int, ...]]:
    """The positive roots of a finite Weyl group over its simple roots or,
    with ``proper``, those of an affine one whose support misses a node.

    A root beta, over the simple roots, is moved by s_i at coordinate i
    alone, by -sum_j a_ij beta_j; where that is positive s_i beta is a root
    that much higher.  Every positive root above height 1 lies one such
    step above a lower one, of a support no larger, so closing the simple
    roots under these steps gives every positive root, and closing them
    under the steps that do not reach every node gives every root whose
    support misses a node.  Those are the positive roots of the parabolic
    subgroups of corank 1 together.

    A finite Weyl group of rank r has at most :func:`_root_bound` positive
    roots; with ``proper`` the r subgroups of corank 1 have fewer than r
    times that.  An infinite W has infinitely many positive real roots, so
    a closure that passes that bound raises RuntimeError.
    """
    rank = gcm.rank
    bound = _root_bound(rank) * (rank if proper else 1)
    columns = list(zip(*gcm.entries))
    # (beta, A beta): s_i moves beta up by -(A beta)_i where that is positive.
    roots = [(tuple(int(i == j) for j in range(rank)), columns[i]) for i in range(rank)]
    seen = {beta for beta, _ in roots}
    for beta, pair in roots:  # roots grows as the loop goes: a breadth-first closure
        for i, c in enumerate(pair):
            if c < 0:
                up = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if up not in seen and not (proper and all(up)):
                    if len(roots) == bound:
                        raise RuntimeError(f"W_J on the nodes {' '.join(gcm.labels)} is not "
                                           f"{'affine' if proper else 'finite'}: "
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
    """The degrees of W_0, the largest parabolic subgroup of corank 1 of an
    affine Weyl group.

    Every vertex stabiliser of an affine Weyl group embeds in its finite
    Weyl group, and a special vertex has all of it, so the largest is that
    group (Humphreys, *Reflection Groups and Coxeter Groups*, 4.3 and 8.9).
    One closure gives the roots whose support misses a node
    (:func:`_positive_roots`); those that miss node nu are the positive
    roots of the subgroup less nu, whose degrees :func:`_degrees` reads off
    their heights.  The first of the largest is taken.
    """
    roots = _positive_roots(gcm, proper=True)
    return max((_degrees([beta for beta in roots if not beta[nu]], gcm.rank - 1) for nu in range(gcm.rank)),
               key=math.prod)


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


def _check_factor(gcm: GeneralizedCartanMatrix, lam, factor: IntPolynomial, max_order: int) -> None:
    """Raise RuntimeError unless ``factor`` is W_J(t), for the J that ``lam``
    is 0 on, as counted by the orbit oracle.

    For the nodes of J taken component by component as :func:`_components`
    gives them, and T_n the first n, W_{T_n}(t) is W_{T_{n-1}}(t) times the
    level counts of the orbit of omega at the n-th node on the submatrix of
    T_n (:func:`_orbit_levels`).  A connected chain keeps those orbits
    small: the largest for the E8 of HA7 has 240 states, against 241,920
    for the same nodes in their own order.  How far to check comes from
    J's own type, not from the factor.  The last node of an affine
    component has an infinite orbit, of W_0 in the affine group, which the
    oracle counts through max_order.  When J is finite
    (:func:`is_finite_type`), every orbit ends by N, the root bound of J's
    rank (:func:`_root_bound`), so the check runs one level past N and
    compares the whole polynomial.  Each orbit search charges its states to
    the memory budget (:func:`_orbit_levels`).
    """
    J = gcm.subdiagram([mu for mu, x in enumerate(lam) if not x])
    order = _root_bound(J.rank) + 1 if is_finite_type(J) else max_order
    chain, product = [mu for part in _components(J, range(J.rank)) for mu in part], IntPolynomial((1,))
    for n in range(1, J.rank + 1):
        sub = J.subdiagram(chain[:n])
        counts = [1, *map(len, _orbit_levels(sub, order, (0,) * (n - 1) + (1,)))]
        product = IntPolynomial((product * IntPolynomial(tuple(counts))).coeffs[:order + 1])
    if product != factor:
        raise RuntimeError(f"W_J(t) on the nodes {' '.join(J.labels)} differs from the orbit oracle's")


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
    component called finite or affine whose roots pass the bound of its
    type raises RuntimeError.  When no J qualifies, J is empty: lambda is
    rho and W_J(t) is 1.  :func:`is_finite_type` runs once on W, and, when
    W is infinite, :func:`cartan_type` once on each component of each
    candidate, with one root closure when the candidate qualifies.  On a
    connected W no two candidates share a component: a component of S
    less k is one of S less k', for k' != k, only when it is a whole
    component of S.
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


def _start(stored, max_order: int, rank: int) -> tuple[list, list]:
    """The tally and stack with which a count to max_order starts, given
    the checkpoint ``stored`` (None when there is none).

    A stored walk is resumed when max_order is at most its order, or when
    it has ended early (a finite W^J): its tally is cut to levels
    0..max_order, and the chunks waiting at those levels go back on the
    stack, bottom first.  The deeper ones are dropped: their rows descend
    from rows of level max_order that are already counted.  When no chunk
    is left, the tally answers and nothing is walked, as for any max_order
    below ``stored.done``, the levels of which are fully counted.
    A larger order starts at the identity: a walk to order n counts level n
    without building it, so nothing stored lets a walk go on past it.
    """
    if stored is None or max_order > stored.order and not (
            stored.complete and len(stored.tally) <= stored.order):
        return [], [(0, np.zeros((1, rank), dtype=np.int64))]
    stack = [(i, rows) for i, rows in stored._waiting_chunks() if i <= max_order]
    return stored.tally[:max_order + 1].tolist(), stack


def _check_waiting_rows(C: _Cartan, stored: LevelCheckpoint, path) -> None:
    """Raise CheckpointMismatchError unless every waiting row of ``stored``
    at level i is lambda - w(lambda) for a w in W^J of length i.

    The rows of each chunk, of level i, are reflected down i times
    together, on a copy, with one :func:`_pairings` call a step, each row
    at its first left descent mu (pair[mu] > lam[mu]), where c = lam[mu] -
    pair[mu] < 0.  Every row must have a left descent at every step, keep
    its coordinates nonnegative and be 0 at the end.  Such a row is the
    identity reflected back up along i descents, so an element of W^J of
    length i.  A row past the coordinate
    budget raises OverflowError before it is paired, as the walk would on
    popping it.  A valid row that the tally already counts passes: only the
    edge-count invariant catches it, once the walk ends.
    """
    for i, rows in stored._waiting_chunks():
        rows = rows.copy()
        _check_coordinate_budget(C, rows)
        columns, descended = np.arange(len(rows)), True
        for _ in range(i):
            pair = _pairings(C, rows)
            mu = (pair > C.lam_column).argmax(axis=0)  # node 0 where there is no descent
            c = C.lam_column[mu, 0] - pair[mu, columns]
            rows[columns, mu] += c
            descended = bool((c < 0).all()) and int(rows.min()) >= 0
            if not descended:
                break
        if not descended or rows.any():
            raise CheckpointMismatchError(f"inconsistent checkpoint {path}: a waiting row of level {i} "
                                          f"does not reflect down to the identity in {i} steps")


def _quotient(gcm: GeneralizedCartanMatrix, lam, max_order: int, checkpoint=None) -> IntPolynomial:
    """W^J(t) through max_order, for the J that ``lam`` is 0 on: the level
    counts of the depth-first walk of :func:`_count` over the orbit of
    lambda, checked by the edge-count invariant and the growth bound.

    A count takes lambda from :func:`_parabolic`, which walks nothing, and
    multiplies the result by W_J(t) (:func:`enumerate_levels`), so this is
    the one walk a count makes; under the full-history cross-check
    :func:`enumerate_levels` walks with :func:`_whole_levels` instead, so
    this function never knows the check is on.  With a ``checkpoint`` path
    the walk is picked up from it (:func:`_start`) and, when there is
    anything to walk, saved there at most once per _SAVE_EVERY_S seconds
    and once when it ends; an answer from the stored tally leaves the file
    as it is.  lambda depends on the matrix alone, so a stored walk is one
    of the same W^J, and its waiting rows are checked to be elements of it
    before anything is walked (:func:`_check_waiting_rows`).
    """
    stored = (LevelCheckpoint.load(checkpoint, gcm)
              if checkpoint is not None and Path(checkpoint).exists() else None)
    C = _Cartan(gcm.entries, lam)
    if stored is not None:
        _check_waiting_rows(C, stored, checkpoint)
    tally, stack = _start(stored, max_order, gcm.rank)
    saving = checkpoint is not None and bool(stack)

    def save() -> float:
        LevelCheckpoint(
            gcm_digest(gcm), max_order,
            tally=np.asarray(tally, dtype=np.int64).reshape(-1, 3),
            chunks=np.asarray([(i, len(rows)) for i, rows in stack], dtype=np.int64).reshape(-1, 2),
            waiting=np.concatenate([rows for _, rows in stack] or [np.empty((0, gcm.rank), np.int64)]),
        ).save(checkpoint)
        return time.monotonic()

    saved = time.monotonic()
    for _ in _count(C, stack, max_order, tally):
        if saving and time.monotonic() - saved >= _SAVE_EVERY_S:
            saved = save()
    _check_levels(tally, 1, min(max_order, len(tally)), gcm.rank)
    if saving:
        save()  # the walk has ended
    return IntPolynomial(tuple(count for count, _, _ in tally))


def enumerate_levels(
    gcm: GeneralizedCartanMatrix,
    max_order: int,
    checkpoint_path=None,
    *,
    workers: int = 1,
    full_history_dedup: bool = False,
) -> GrowthSeries:
    """Count the elements of each word length up to max_order.

    The result is a pure function of (gcm, max_order): checkpointing and the
    full-history cross-check never change the coefficients.  ``workers`` is
    validated (>= 1) but has no effect.  If some level comes out empty the
    group is finite and fully enumerated; the series stops at the last
    nonempty level and is marked complete.

    Every w is u v for one u in W^J, the shortest element of the coset
    wW_J, and one v in W_J, and the lengths add (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1.10 and 5.12), so W(t) = W^J(t) W_J(t).
    :func:`_parabolic` fixes J by the matrix alone and gives W_J(t), and
    :func:`_quotient` counts W^J, the orbit of lambda = sum of omega_i over
    the nodes i off J; HA3 to order 27 then walks 107,542 cosets of affine
    A3 instead of 6,676,006 elements.  Both factors hold levels
    0..max_order at least, or fewer where the group ends first, and their
    product is cut there, so it is exact through max_order.  :func:`_count` walks the canonical-parent
    tree of W^J depth-first in chunks of at most _CHUNK_ROWS rows, so no
    level is ever held whole, and level ``max_order`` is counted from its
    parents' masks, not built.  The edge-count invariant and the growth
    bound are checked for every level, the counted one included, once the
    walk ends.

    A checkpoint file, when given, holds the state of that walk
    (:class:`LevelCheckpoint`), which starts at the identity as a plain
    count does: the tally of every level so far and the chunks still
    waiting on its stack, but not lambda, which the matrix fixes.  It is
    rewritten at most once per _SAVE_EVERY_S seconds and when the walk
    ends, and picked up transparently on the next call (:func:`_start`): an
    order up to the stored one, or any order once a finished walk ended
    early, resumes the stored walk cut to that order, and is answered from
    the tally, leaving the file as it is, when no chunk waits at or below
    it.  A larger order restarts the walk from the
    identity.  A file written for a different matrix, one whose contents
    do not fit together, or one with a waiting row that is no element of
    W^J of its level (:func:`_check_waiting_rows`) raises
    CheckpointMismatchError before anything is walked.

    ``full_history_dedup`` checks both factors without changing the
    product; no other function reads it.  W_J(t), from root heights and
    Bott's formula, must first equal the product of the orbit oracle's
    level counts over a connected chain of J (:func:`_check_factor`):
    through max_order, or, when J is finite, whole.  Then the walk of W^J
    holds its levels whole (:func:`_whole_levels`) and checks each one, as a
    set, against the level of the orbit oracle of lambda
    (:func:`_orbit_levels`), which deduplicates against every earlier level.
    A mismatch raises RuntimeError.  The levels and oracle states held past
    the memory budget raise :class:`LevelTooLargeError`.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if full_history_dedup and checkpoint_path is not None:
        raise ValueError("full-history dedup requires a fresh run, not a checkpointed one")
    lam, factor = _parabolic(gcm, max_order)
    if full_history_dedup:
        _check_factor(gcm, lam, factor, max_order)
        quotient = IntPolynomial(tuple(map(len, _whole_levels(gcm, max_order, True, lam))))
    else:
        quotient = _quotient(gcm, lam, max_order, checkpoint_path)
    coeffs = (quotient * factor).coeffs
    return GrowthSeries(coeffs[:max_order + 1], len(coeffs) <= max_order)


def level_sets(gcm: GeneralizedCartanMatrix, max_order: int) -> list[np.ndarray]:
    """The actual level sets of the whole group, for inspection and property
    tests.

    Returns one (n, rank) array of lexicographically sorted rows per level,
    starting with the zero vector at level 0, from the depth-first walk of
    :func:`_count`, copied into whole levels by :func:`_whole_levels`, which
    checks every level.  Stops early at the first empty level.  The same
    function, given a count's lambda, holds the walks that
    ``enumerate_levels(..., full_history_dedup=True)`` checks against the
    orbit oracle.

    Every level is held whole, and the rows held must fit the memory budget
    (half the physical memory); otherwise :class:`LevelTooLargeError`, a
    ``MemoryError``, names the level being copied and the bytes held.
    :func:`enumerate_levels` counts past that point.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    return [level[np.lexsort(level.T[::-1])] for level in _whole_levels(gcm, max_order)]


def weyl_orbit_oracle(gcm: GeneralizedCartanMatrix, max_order: int) -> GrowthSeries:
    """Independent growth computation: the level sizes of :func:`_orbit_levels`.

    A breadth-first search over the orbit of rho in weight coordinates,
    deduplicated against every state visited, so it shares neither
    representation nor dedup logic with :func:`enumerate_levels`.  It raises
    RuntimeError when a reflection lands anywhere but the next level or two
    levels back.  Python integers keep it exact at any size; intended for
    small ranks and orders.  It keeps every state it finds, and once those
    pass the memory budget (half the physical memory) it raises
    :class:`LevelTooLargeError`, a ``MemoryError``, naming the level, as
    every orbit search does (:func:`_orbit_levels`).
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    coeffs = [1, *map(len, _orbit_levels(gcm, max_order))]
    complete = not coeffs[-1]  # an empty level ended the search
    return GrowthSeries(tuple(coeffs[:-1] if complete else coeffs), complete)
