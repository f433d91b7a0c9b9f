"""Enumeration of Weyl group elements by word length.

Each group element w is named by the coordinate vector gamma = rho - w(rho)
over the simple roots.  These vectors are pairwise distinct across the
whole group and have nonnegative entries.  With pair = A gamma, reflecting
node nu changes only coordinate nu, by c = 1 - pair[nu], which is never 0:
the word length goes up by one when c > 0 and down by one when c < 0, so
the left descents of w are the nodes mu with pair[mu] >= 2.

A count factors out a finite parabolic subgroup W_J.  Every w is u v for
one u in W^J, the shortest element of its coset wW_J, and one v in W_J,
and the lengths add, so W(t) = W^J(t) W_J(t).  W^J is the orbit of the
dominant weight lambda = sum of omega_i over the nodes i off J, named by
gamma = lambda - w(lambda).  Everything above holds with lambda_mu =
<lambda, alpha_mu^vee>, 1 off J and 0 on J, in place of the 1 of rho: c =
lambda_nu - pair[nu], mu is a left descent when pair[mu] > lambda_mu, and
c = 0 is a move inside the coset, which is neither up nor down.  J = S less
one node, with W_J finite and as large as it can be; W_J(t) is counted the
same way on the submatrix of J, recursively, and when no such W_J is
finite, J is empty and lambda is rho.  Every count walks a quotient, with
or without a checkpoint; :func:`level_sets` and the full-history
cross-check walk the whole group, through the same kernels.

An up-move is kept only when its node is the smallest left descent of the
child (the canonical parent, as in du Cloux's Coxeter programs and
Casselman's "Computation in Coxeter groups").  W^J is closed under removing
a left descent, so every element of it then arises exactly once, below its
canonical parent: W^J is a rooted tree and nothing is deduplicated.  Level
sizes are the growth coefficients.
The tree has two traversals, one function each: :func:`_count` walks it
depth-first with a stack of chunks of bounded size when only the counts
are wanted, so no level is ever held whole, and :func:`_levels` builds it
breadth-first, one whole level at a time, for level sets and the
cross-check.  Both start at the identity, checkpointed or not.
Both pair and tally each chunk or level with :func:`_tally` and build
children through the checks of :func:`_checked_children`.  Coordinates are
stored as checked 64-bit integers.

The depth-first count never builds its last level: it counts that level's
elements and their left descents from the masks that select them in their
parents' chunks.  Those elements are nonnegative without a check, since
each is a checked parent plus c >= 1 at one coordinate.
The coordinate budget still covers every parent chunk, and the edge-count
invariant and the growth bound still cover every level, the last one
included.

One reference, :func:`_orbit_levels`, computes the same levels by a
breadth-first search over the orbit of lambda in weight coordinates, with
Python integers and no canonical parent.  :func:`weyl_orbit_oracle` counts
the levels of the orbit of rho, and the full-history cross-check of
:func:`enumerate_levels` and :func:`level_sets` compares every level built
with it as a set.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import GeneralizedCartanMatrix, is_finite_type
from .series import IntPolynomial

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

CHECKPOINT_VERSION = 5

# Reflection images must stay below 2**_SAFE_BITS so the pairing dot
# products cannot wrap around; crossing the budget is a hard error.
_SAFE_BITS = 62

# Rows per chunk of the depth-first walk.  The walk holds at most one
# chunk's children per level, so this and the order bound its memory.
_CHUNK_ROWS = 1 << 14

# A checkpointed walk saves its state at most once per this many seconds,
# and once more when it ends.
_SAVE_EVERY_S = 60.0

# Arrays the size of the next level that a breadth-first step holds at once:
# the children, and less than as much again for the parents, their
# pairings, the level before them and the index arrays of the step.
_WORKING_COPIES = 2


class CheckpointMismatchError(RuntimeError):
    """A checkpoint file does not belong to this run or is inconsistent."""


class LevelTooLargeError(MemoryError):
    """A whole level set would not fit the memory budget of a breadth-first step.

    ``level`` is the word length of the level that was about to be built
    and ``bytes_needed`` the bytes that step would hold.
    """

    def __init__(self, level: int, bytes_needed: int, budget: int):
        super().__init__(f"level {level} needs about {bytes_needed} bytes to build, "
                         f"more than the budget of {budget} bytes")
        self.level = level
        self.bytes_needed = bytes_needed


@dataclass(frozen=True)
class GrowthSeries:
    """Element counts per word length, 0..order.

    ``complete`` is True only when an empty level was reached within the
    requested window, i.e. the whole finite group has been enumerated.
    """

    coeffs: tuple[int, ...]
    complete: bool
    algebra: str = ""

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a growth series has at least the length-0 count")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

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
    the default ``mode="raise"``; the indices come from ``np.flatnonzero``
    over masks as long as ``parents``, so clipping never moves one.
    """
    picks = [np.flatnonzero(_kept(C, pair, masks, nu)) for nu in range(C.rank)]
    size = sum(map(len, picks))
    if out is None or len(out) < size:
        out = np.empty((size, C.rank), dtype=parents.dtype)
    children = out[:size]
    start = 0
    for nu in reversed(range(C.rank)):
        idx = picks[nu]
        block = children[start:start + len(idx)]
        np.take(parents, idx, axis=0, out=block, mode="clip")
        block[:, nu] += C.lam[nu] - np.take(pair[nu], idx, mode="clip")
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


def _checked_children(C: _Cartan, parents: np.ndarray, pair: np.ndarray, masks: tuple,
                      out=None) -> np.ndarray:
    """:func:`_children` of ``parents`` within the coordinate budget, checked
    to be nonnegative."""
    _check_coordinate_budget(C, parents)
    children = _children(C, parents, pair, out=out, masks=masks)
    if children.size and int(children.min()) < 0:
        raise RuntimeError("negative coordinate generated: enumeration invariant violated")
    return children


def _count(C: _Cartan, stack: list, max_order: int, tally: list, hook=None) -> None:
    """Count the canonical-parent tree below the (level index, rows) chunks
    on ``stack`` depth-first, into ``tally`` (:func:`_tally`).

    Each popped chunk is cut to at most _CHUNK_ROWS rows, the rest pushed
    back.  Below level max_order - 1 its children are pushed as one chunk of
    the next level.  Newest first, the walk holds at most one chunk's
    children per level.

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
    again chunk after chunk, a cost that swings with host load.

    ``hook``, when given, is called as hook(stack, tally) after every chunk.
    Every row is then either counted in ``tally`` or waiting on ``stack``,
    so the two are a state the walk can resume from.
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
        pair, masks = _tally(C, rows, i, tally, pairings[:, :len(rows)])
        if i + 1 == max_order:
            _check_coordinate_budget(C, rows)
            count, descents = _leaf_counts(C, pair, masks=masks)
            if count:
                if len(tally) == max_order:
                    tally.append([0, 0, 0])
                tally[max_order][0] += count
                tally[max_order][2] += descents
        elif i < max_order:
            children = _checked_children(C, rows, pair, masks, spill[used:])
            if children.base is spill:
                used += len(children)
            if len(children):
                stack.append((i + 1, children))
        if hook is not None:
            hook(stack, tally)


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


def _orbit_levels(gcm: GeneralizedCartanMatrix, max_order: int, lam=None):
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
    """
    rank = gcm.rank
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
        yield [gamma for _, gamma in nxt]
        if not nxt:
            return
        frontier = nxt


def _levels(C: _Cartan, max_order: int, tally: list, reference=None):
    """Build levels breadth-first from the identity, and yield (i, level i,
    level i + 1) for each i >= 1 once level i is checked.

    Level i + 1 is built whole before level i is checked, and added to
    ``tally`` in the next step.  It is empty when the group ends at level i,
    and is then checked before level i is yielded, since no step follows to
    check it; it is None for i = max_order, the last level yielded.
    ``reference``, when given, iterates over the levels of
    :func:`_orbit_levels`; every level built, the empty one that ends a
    finite group included, must equal the oracle's as a set of rows.
    """
    level = np.zeros((1, C.rank), dtype=np.int64)
    for i in range(max_order + 1):
        pair, masks = _tally(C, level, i, tally)
        nxt = _checked_children(C, level, pair, masks) if i < max_order else None
        if reference is not None and nxt is not None:
            rows = set(map(tuple, nxt.tolist()))
            if len(rows) != len(nxt) or rows != set(next(reference)):
                raise RuntimeError(f"level {i + 1} differs from the orbit oracle")
        ended = nxt is not None and not len(nxt)
        _check_levels(tally, max(i, 1), i + ended, C.rank)
        if i:
            yield i, level, nxt
        if nxt is None or ended:
            return
        level = nxt


def _memory_budget() -> int:
    """Bytes a breadth-first step may take: half the physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


@dataclass(frozen=True)
class LevelCheckpoint:
    """Resumable state of a checkpointed count: its depth-first walk of W^J,
    which starts at the identity like any other count.

    ``lam`` is the lambda of the walk (:func:`_parabolic`) and ``order`` the
    order it counts to.  ``tally`` holds the count, up-edges and left
    descents of each level so far (:func:`_tally`), one row per level.
    ``chunks`` gives the level and the row count of each chunk still waiting
    on the walk's stack, bottom first, and ``waiting`` their rows in that
    order.  ``complete`` is True once the walk has ended, when nothing
    waits.  Every level below :attr:`done` is fully counted.  :meth:`load`
    rejects a file whose parts do not fit together, or do not match the
    :attr:`content_digest` stored with them.
    """

    algebra_digest: str
    lam: tuple[int, ...]
    order: int
    tally: np.ndarray
    chunks: np.ndarray
    waiting: np.ndarray
    complete: bool
    version: int = CHECKPOINT_VERSION

    @property
    def done(self) -> int:
        """The lowest level at which a chunk waits, or order + 1 when none
        does.  The walk pushes a chunk's children only once it has counted
        the chunk, so every level below this one is fully counted."""
        return int(self.chunks[:, 0].min()) if len(self.chunks) else self.order + 1

    @property
    def content_digest(self) -> str:
        """sha256 over the algebra digest, lambda, order, complete flag,
        tally, waiting chunks and waiting rows."""
        arrays = (self.tally, self.chunks, self.waiting)
        header = [self.order, self.complete, *self.lam,
                  *(n for a in arrays for n in a.shape)]
        digest = hashlib.sha256(self.algebra_digest.encode())
        for a in (np.asarray(header), *arrays):
            digest.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
        return digest.hexdigest()

    def save(self, path) -> None:
        """Write the state to a temporary file, sync it to disk and rename
        it over ``path``."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                version=np.int64(self.version),
                algebra_digest=np.str_(self.algebra_digest),
                lam=np.asarray(self.lam, dtype=np.int64),
                order=np.int64(self.order),
                tally=self.tally,
                chunks=self.chunks,
                waiting=self.waiting,
                complete=np.bool_(self.complete),
                content_digest=np.str_(self.content_digest),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @staticmethod
    def load(path, gcm: GeneralizedCartanMatrix) -> "LevelCheckpoint":
        """Read a checkpoint, which must have been written for ``gcm``."""
        try:
            with np.load(Path(path), allow_pickle=False) as data:
                version = int(data["version"])
                if version != CHECKPOINT_VERSION:
                    raise CheckpointMismatchError(f"checkpoint format version {version}, "
                                                  f"expected {CHECKPOINT_VERSION}")
                state = LevelCheckpoint(
                    algebra_digest=str(data["algebra_digest"]),
                    lam=tuple(int(x) for x in data["lam"]),
                    order=int(data["order"]),
                    tally=data["tally"].astype(np.int64),
                    chunks=data["chunks"].astype(np.int64),
                    waiting=data["waiting"].astype(np.int64),
                    complete=bool(data["complete"]),
                    version=version,
                )
                digest = str(data["content_digest"])
        except CheckpointMismatchError:
            raise
        except (KeyError, TypeError, ValueError, OSError, zipfile.BadZipFile) as exc:
            raise CheckpointMismatchError(f"unreadable checkpoint {path}: {exc}") from exc
        if state.algebra_digest != gcm_digest(gcm):
            raise CheckpointMismatchError("checkpoint belongs to a different algebra")
        problem = state._inconsistency(gcm, digest)
        if problem:
            raise CheckpointMismatchError(f"inconsistent checkpoint {path}: {problem}")
        return state

    def _inconsistency(self, gcm: GeneralizedCartanMatrix, digest: str) -> str:
        rank, lam, order = gcm.rank, self.lam, self.order
        tally, chunks, waiting = self.tally, self.chunks, self.waiting
        if len(lam) != rank or not set(lam) <= {0, 1} or sum(lam) not in (1, rank):
            return f"lambda {lam} is neither rho nor a fundamental weight of rank {rank}"
        if sum(lam) < rank and not is_finite_type(gcm.delete_node(gcm.labels[lam.index(1)])):
            return f"lambda {lam} leaves out a W_J that is not finite"
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
        # The identity is popped before the first save, and the walk pushes
        # no chunk at level order, which it counts without building.
        if ((chunks[:, 0] < 1) | (chunks[:, 0] >= order)).any():
            return f"a chunk waits at a level outside 1..{order - 1}"
        if self.complete == bool(len(chunks)):
            return "the complete flag does not match the waiting chunks"
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


class _Saver:
    """The hook through which :func:`_count` saves a checkpointed walk to
    ``path``: at most once per _SAVE_EVERY_S seconds, and by :meth:`save`
    when the walk ends.  ``fixed`` holds the fields of
    :class:`LevelCheckpoint` up to the order."""

    def __init__(self, path, fixed: tuple):
        self.path, self.fixed = path, fixed
        self.last = time.monotonic()

    def __call__(self, stack: list, tally: list) -> None:
        if time.monotonic() - self.last >= _SAVE_EVERY_S:
            self.save(stack, tally)

    def save(self, stack: list, tally: list) -> None:
        rank = len(self.fixed[1])
        LevelCheckpoint(
            *self.fixed,
            tally=np.asarray(tally, dtype=np.int64).reshape(-1, 3),
            chunks=np.asarray([(i, len(rows)) for i, rows in stack], dtype=np.int64).reshape(-1, 2),
            waiting=np.concatenate([rows for _, rows in stack] or [np.empty((0, rank), np.int64)]),
            complete=not stack,
        ).save(self.path)
        self.last = time.monotonic()


def _parabolic(gcm: GeneralizedCartanMatrix, max_order: int) -> tuple[tuple[int, ...], IntPolynomial]:
    """lambda, in weight coordinates, and W_J(t) through max_order for the
    parabolic subgroup W_J that :func:`_growth` factors out of W.

    J is S less one node k, so lambda is the fundamental weight omega_k.
    W(t) = W^J(t) W_J(t) holds for every J; J is chosen with W_J finite
    (:func:`is_finite_type`) so that W_J(t), which :func:`_growth` counts on
    the submatrix of J with a J of its own, recurses through one subgroup
    per rank.  When W is finite every such W_J is, and the last node is
    left out (the catalogue's E8 goes to E7, E6, D5 and the A series).
    Otherwise the finite W_J with the most elements through max_order is
    taken, the first on a tie, which leaves W^J the fewest elements per
    level.  When none is finite, or the rank is 1, J is empty: lambda is
    rho and W_J(t) is 1.
    """
    rank = gcm.rank
    subs = [gcm.delete_node(label) for label in gcm.labels] if rank > 1 else []
    if subs and is_finite_type(gcm):
        candidates = [rank - 1]
    else:
        candidates = [k for k, sub in enumerate(subs) if is_finite_type(sub)]
    if not candidates:
        return (1,) * rank, IntPolynomial((1,))
    factors = {k: IntPolynomial(_growth(subs[k], max_order)) for k in candidates}
    k = max(candidates, key=lambda k: factors[k](1))  # W_J(1) = |W_J| through max_order
    return tuple(int(mu == k) for mu in range(rank)), factors[k]


def _factor(gcm: GeneralizedCartanMatrix, lam, max_order: int) -> IntPolynomial:
    """W_J(t) through max_order, for J the nodes where ``lam`` is 0."""
    if all(lam):
        return IntPolynomial((1,))
    return IntPolynomial(_growth(gcm.delete_node(gcm.labels[lam.index(1)]), max_order))


def _start(stored, max_order: int, rank: int) -> tuple[list, list]:
    """The tally and stack with which a count to max_order starts, given
    the checkpoint ``stored`` (None when there is none).

    Every level below ``stored.done`` is fully counted, so when max_order is
    below it, or a finished walk ended early, the stored tally answers and
    nothing is walked.  An unfinished walk to max_order resumes its stack.
    Any other count starts at the identity.
    """
    if stored is not None:
        if max_order < stored.done or (stored.complete and len(stored.tally) <= stored.order):
            return stored.tally[:max_order + 1].tolist(), []
        if max_order == stored.order:
            rows = np.split(stored.waiting, np.cumsum(stored.chunks[:-1, 1]))
            return stored.tally.tolist(), [(int(i), chunk) for i, chunk in zip(stored.chunks[:, 0], rows)]
    return [], [(0, np.zeros((1, rank), dtype=np.int64))]


def _growth(gcm: GeneralizedCartanMatrix, max_order: int, checkpoint=None) -> tuple[int, ...]:
    """The growth coefficients of W through max_order, without the zeros
    past a finite group's last level.

    Every w is u v for one u in W^J, the shortest element of the coset
    wW_J, and one v in W_J, and the lengths add (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1.10 and 5.12), so W(t) = W^J(t) W_J(t).
    :func:`_count` walks W^J, the orbit of the lambda of :func:`_parabolic`,
    depth-first, and the tally's levels are checked as for the whole group.
    Both factors hold levels 0..max_order, or fewer where the group ends
    first, so their product is exact through max_order.

    With a ``checkpoint`` path the walk is saved there and picked up from
    it (:func:`_start`); an answer from the stored tally leaves the file as
    it is.  A stored walk keeps its lambda, and W_J(t) is counted anew
    through max_order: the identity holds for every J, so the lambda that
    :func:`_parabolic` would pick now does not matter.
    """
    stored = None
    if checkpoint is not None and Path(checkpoint).exists():
        stored = LevelCheckpoint.load(checkpoint, gcm)
    if stored is None:
        lam, factor = _parabolic(gcm, max_order)
    else:
        lam, factor = stored.lam, _factor(gcm, stored.lam, max_order)
    C = _Cartan(gcm.entries, lam)
    tally, stack = _start(stored, max_order, gcm.rank)
    saver = None
    if checkpoint is not None and stack:
        saver = _Saver(checkpoint, (gcm_digest(gcm), tuple(lam), max_order))
    _count(C, stack, max_order, tally, saver)
    _check_levels(tally, 1, min(max_order, len(tally)), gcm.rank)
    if saver is not None:
        saver.save(stack, tally)  # the walk has ended
    quotient = IntPolynomial(tuple(count for count, _, _ in tally))
    return (quotient * factor).coeffs[:max_order + 1]


def enumerate_levels(
    gcm: GeneralizedCartanMatrix,
    max_order: int,
    checkpoint_path=None,
    *,
    workers: int = 1,
    full_history_dedup: bool = False,
    algebra_name: str = "",
) -> GrowthSeries:
    """Count the elements of each word length up to max_order.

    The result is a pure function of (gcm, max_order): checkpointing and the
    full-history cross-check never change the coefficients.  ``workers`` is
    validated (>= 1) but has no effect.  If some level comes out empty the
    group is finite and fully enumerated; the series stops at the last
    nonempty level and is marked complete.

    :func:`_growth` counts the parabolic quotient W^J, the orbit of lambda
    = sum of omega_i over the nodes i off J, and multiplies its series by
    W_J(t), which comes from :func:`_growth` on the submatrix of J.  J is
    all nodes but one, with W_J finite and as large as it can be
    (:func:`_parabolic`); HA3 to order 27 then walks 259,193 cosets of D4
    instead of 6,676,006 elements.  :func:`_count` walks the canonical-parent
    tree of W^J depth-first in chunks of at most _CHUNK_ROWS rows, so no
    level is ever held whole, and level ``max_order`` is counted from its
    parents' masks, not built.  The edge-count invariant and the growth
    bound are checked for every level, the counted one included, once the
    walk ends.

    A checkpoint file, when given, holds the state of that walk
    (:class:`LevelCheckpoint`), which starts at the identity as a plain
    count does: the tally of every level so far and the chunks still
    waiting on its stack.  It is rewritten at most once per _SAVE_EVERY_S
    seconds and when the walk ends, and picked up transparently on the next
    call: an order below the lowest level at which a chunk waits is
    answered from the tally, as is any order once a finished walk ended
    early, an unfinished walk to the same order resumes its stack, and any
    other order restarts the walk from the identity.  A file written for a
    different matrix, or one whose contents do not fit together, raises
    CheckpointMismatchError.

    ``full_history_dedup`` walks the whole group instead, J empty and
    lambda = rho, through the same kernels: it builds every level
    breadth-first (:func:`_levels`) and checks each one, as a set, against
    the level of the orbit oracle (:func:`_orbit_levels`), which
    deduplicates against every earlier level; a mismatch raises
    RuntimeError.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if full_history_dedup and checkpoint_path is not None:
        raise ValueError("full-history dedup requires a fresh run, not a checkpointed one")
    if full_history_dedup:
        tally: list = []
        for _ in _levels(_Cartan(gcm.entries), max_order, tally, _orbit_levels(gcm, max_order)):
            pass
        coeffs = tuple(count for count, _, _ in tally)
    else:
        coeffs = _growth(gcm, max_order, checkpoint_path)
    return GrowthSeries(coeffs, len(coeffs) <= max_order, algebra_name)


def level_sets(
    gcm: GeneralizedCartanMatrix,
    max_order: int,
    *,
    full_history_dedup: bool = False,
) -> list[np.ndarray]:
    """The actual level sets of the whole group, for inspection and property
    tests.

    Returns one (n, rank) array of lexicographically sorted rows per level,
    starting with the zero vector at level 0, from the breadth-first
    traversal of :func:`_levels`, which checks every level.  Stops early at
    the first empty level.  ``full_history_dedup`` checks every level, as a
    set, against the orbit oracle, as in :func:`enumerate_levels`.

    Every level is held whole.  Before a level is built from the one before
    it, the step must fit the memory budget (half the physical memory);
    otherwise :class:`LevelTooLargeError`, a ``MemoryError``, names the level
    and the bytes the step would need.  :func:`enumerate_levels` counts
    past that point.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    levels = [np.zeros((1, gcm.rank), dtype=np.int64)]
    reference = _orbit_levels(gcm, max_order) if full_history_dedup else None
    for i, level, nxt in _levels(_Cartan(gcm.entries), max_order, [], reference):
        levels.append(level[np.lexsort(level.T[::-1])])
        if i + 1 < max_order:
            # Level i + 1 is built; the next step builds level i + 2 from it,
            # at most rank * |level i + 1| rows of rank int64 coordinates,
            # and holds about _WORKING_COPIES arrays of that size.
            needed = gcm.rank * len(nxt) * gcm.rank * 8 * _WORKING_COPIES
            if needed > _memory_budget():
                raise LevelTooLargeError(i + 2, needed, _memory_budget())
    return levels


def weyl_orbit_oracle(gcm: GeneralizedCartanMatrix, max_order: int, algebra_name: str = "") -> GrowthSeries:
    """Independent growth computation: the level sizes of :func:`_orbit_levels`.

    A breadth-first search over the orbit of rho in weight coordinates,
    deduplicated against every state visited, so it shares neither
    representation nor dedup logic with :func:`enumerate_levels`.  It raises
    RuntimeError when a reflection lands anywhere but the next level or two
    levels back.  Python integers keep it exact at any size; intended for
    small ranks and orders.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    coeffs = [1, *map(len, _orbit_levels(gcm, max_order))]
    complete = not coeffs[-1]  # an empty level ended the search
    return GrowthSeries(tuple(coeffs[:-1] if complete else coeffs), complete, algebra_name)
