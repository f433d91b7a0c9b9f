"""Enumeration of Weyl group elements by word length.

Each group element w is named by the coordinate vector gamma = rho - w(rho)
over the simple roots.  These vectors are pairwise distinct across the
whole group and have nonnegative entries.  With pair = A gamma, reflecting
node nu changes only coordinate nu, by p = 1 - pair[nu], which is never 0:
the word length goes up by one when p > 0 and down by one when p < 0, so
the left descents of w are the nodes mu with pair[mu] >= 2.

An up-move is kept only when its node is the smallest left descent of the
child (the canonical parent, as in du Cloux's Coxeter programs and
Casselman's "Computation in Coxeter groups").  Every element then arises
exactly once, below its canonical parent, so the group is a rooted tree
and nothing is deduplicated.  Level sizes are the growth coefficients.
The tree has two traversals, one function each: :func:`_count` walks it
depth-first with a stack of chunks of bounded size when only the counts
are wanted, so no level is ever held whole, and :func:`_levels` builds it
breadth-first, one whole level at a time, for level sets and checkpoints.
Both pair and tally each chunk or level with :func:`_tally` and build
children through the checks of :func:`_checked_children`.  Coordinates are
stored as checked 64-bit integers.

The depth-first count never builds its last level: it counts that level's
elements and their left descents from the masks that select them in their
parents' chunks.  Those elements are nonnegative without a check, since
each is a checked parent plus p = 1 - pair[nu] >= 1 at one coordinate.
The coordinate budget still covers every parent chunk, and the edge-count
invariant and the growth bound still cover every level, the last one
included.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import GeneralizedCartanMatrix

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

CHECKPOINT_VERSION = 3

# Reflection images must stay below 2**_SAFE_BITS so the pairing dot
# products cannot wrap around; crossing the budget is a hard error.
_SAFE_BITS = 62

# Rows per chunk of the depth-first walk.  The walk holds at most one
# chunk's children per level, so this and the order bound its memory.
_CHUNK_ROWS = 1 << 14

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
    """A Cartan matrix as an int64 array and as Python ints, read once per call.

    Indexing an array and computing with numpy scalars costs far more than
    the same work on Python ints, and the depth-first count would pay it for
    every entry in every chunk.  Each public function builds this form once
    and passes it to every kernel below.
    """

    def __init__(self, entries):
        self.matrix = np.asarray(entries, dtype=np.int64)
        entries = self.matrix.tolist()
        rank = len(entries)
        self.rank = rank
        self.diagonal = [entries[mu][mu] for mu in range(rank)]
        # (nu, A[mu, nu]) for the nonzero off-diagonal entries of row mu.
        self.bonds = [[(nu, a) for nu, a in enumerate(row) if a and nu != mu]
                      for mu, row in enumerate(entries)]
        # (mu, A[mu, nu]) for the entries of column nu above the diagonal,
        # and for those below it.
        self.above = [[(mu, entries[mu][nu]) for mu in range(nu)] for nu in range(rank)]
        self.below = [[(mu, entries[mu][nu]) for mu in range(nu + 1, rank)] for nu in range(rank)]
        # With c = max|A| * rank and M the largest coordinate of a level, a
        # child's coordinates are at most (c + 2) M, and every value formed
        # while building it or its pairings stays within c * (c + 3) M: a
        # pairing is a sum of at most rank terms A[mu, nu] * gamma[nu], so
        # each partial sum that _pairings accumulates column by column is
        # bounded by c times the largest coordinate, that of a child by
        # c * (c + 2) M; the descent test in _kept and _leaf_counts subtracts
        # A[mu, nu] * pair[nu] from pair[mu], at most (c + 1) * c M in all.
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
    a Cartan matrix has few of them.  Entries other than -1 are multiplied
    into one scratch row, allocated once per call.  Exact by the bound in
    :class:`_Cartan`.
    """
    if out is None:
        out = np.empty((C.rank, len(rows)), dtype=np.int64)
    scratch = None
    for mu, bonds in enumerate(C.bonds):
        acc = out[mu]
        np.multiply(rows[:, mu], C.diagonal[mu], out=acc)
        for nu, a in bonds:
            if a == -1:
                acc -= rows[:, nu]
            else:
                if scratch is None:
                    scratch = np.empty(len(rows), dtype=np.int64)
                np.multiply(rows[:, nu], a, out=scratch)
                acc += scratch
    return out


def _moved(pair: np.ndarray, mu: int, nu: int, a: int) -> np.ndarray:
    """pair[mu] - a pair[nu]: a child's pairing at mu less a, for a move at
    nu and a = A[mu, nu] (see :func:`_kept`); -1 entries need no multiply."""
    return pair[mu] + pair[nu] if a == -1 else pair[mu] - a * pair[nu]


def _kept(C: _Cartan, pair: np.ndarray, masks: tuple, nu: int) -> np.ndarray:
    """Which parents keep their up-move at node nu.

    An up-move at nu, where p = 1 - pair[nu] is positive, gives the child
    gamma + p e_nu with pairing pair + p A[:, nu]; it is kept when no
    mu < nu is a left descent of it, that is when every mu < nu has
    pair[mu] + p A[mu, nu] < 2, or in the same integers
    pair[mu] - A[mu, nu] pair[nu] < 2 - A[mu, nu].  Where A[mu, nu] is 0
    that is pair[mu] < 2, one mask shared by every nu.
    """
    up, below_two = masks
    keep = up[nu].copy()
    for mu, a in C.above[nu]:
        keep &= below_two[mu] if a == 0 else _moved(pair, mu, nu, a) < 2 - a
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
        block[:, nu] += 1 - np.take(pair[nu], idx, mode="clip")
        start += len(idx)
    return children


def _leaf_counts(C: _Cartan, pair: np.ndarray, *, masks: tuple) -> tuple[int, int]:
    """How many children :func:`_children` would give, and their left
    descents summed, without building them.

    A child kept at node nu has no left descent below nu (:func:`_kept`),
    has nu itself (its pairing there is pair[nu] + 2p = 2 - pair[nu] >= 2),
    and has mu > nu when pair[mu] + p A[mu, nu] >= 2, that is
    pair[mu] - A[mu, nu] pair[nu] >= 2 - A[mu, nu], or pair[mu] >= 2 where
    A[mu, nu] is 0.  These are the children's exact integer pairings.
    """
    below_two = masks[1]
    count = descents = 0
    for nu in range(C.rank):
        keep = _kept(C, pair, masks, nu)
        kept = int(np.count_nonzero(keep))
        if not kept:
            continue
        count += kept
        descents += kept
        for mu, a in C.below[nu]:
            if a == 0:
                descents += kept - int(np.count_nonzero(keep & below_two[mu]))
            else:
                descents += int(np.count_nonzero(keep & (_moved(pair, mu, nu, a) >= 2 - a)))
    return count, descents


def _tally(C: _Cartan, rows: np.ndarray, i: int, tally: list, out=None) -> tuple:
    """The pairings of ``rows``, rows of level i, and their masks.

    The masks are ``pair <= 0``, the up-moves, and ``pair < 2``, the nodes
    that are not left descents.  The row count, the up-edges leaving the
    rows and their left descents are added to ``tally[i]``.  ``out`` is as
    for :func:`_pairings`.
    """
    pair = _pairings(C, rows, out)
    masks = pair <= 0, pair < 2
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


def _count(C: _Cartan, stack: list, max_order: int, tally: list) -> None:
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
    own: each is a checked parent plus p = 1 - pair[nu] >= 1 at one
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


def _reflect_all(C: _Cartan, level: np.ndarray) -> np.ndarray:
    """All rank reflections of every row, stacked."""
    pair = level @ C.matrix.T  # pair[:, mu] = <row mu of A, gamma>
    blocks = []
    for mu in range(C.rank):
        block = level.copy()
        block[:, mu] += 1 - pair[:, mu]
        blocks.append(block)
    return np.concatenate(blocks)


def _reference_level(C: _Cartan, prev: np.ndarray, index: int, history: dict) -> set:
    """Level ``index`` as all reflections of level index-1 minus every earlier
    level (``history`` maps rows to levels); a hit outside level index-2 is
    an error.  Shares nothing with the canonical-parent rule but the input.
    """
    found = set()
    for row in map(tuple, np.unique(_reflect_all(C, prev), axis=0).tolist()):
        seen = history.get(row)
        if seen is None:
            found.add(row)
        elif seen != index - 2:
            raise RuntimeError(f"reflection for level {index} already in level {seen}")
    return found


def _levels(C: _Cartan, level: np.ndarray, first: int, max_order: int, tally: list,
            full_history: bool = False):
    """Build levels breadth-first from ``level``, the level first - 1, and
    yield (i, level i, level i + 1) for each i >= first once level i is checked.

    Level i + 1 is built whole before level i is checked, and added to
    ``tally`` in the next step.  It is empty when the group ends at level i,
    and None for i = max_order, the last level yielded.  With
    ``full_history`` each level must also equal, as a set, its
    :func:`_reference_level`.
    """
    history = {tuple(level[0].tolist()): first - 1} if full_history else None
    for i in range(first - 1, max_order + 1):
        pair, masks = _tally(C, level, i, tally)
        nxt = _checked_children(C, level, pair, masks) if i < max_order else None
        if history is not None and nxt is not None:
            expected = _reference_level(C, level, i + 1, history)
            if len(expected) != len(nxt) or expected != set(map(tuple, nxt.tolist())):
                raise RuntimeError(f"level {i + 1} differs from its full-history reference")
            history.update(dict.fromkeys(expected, i + 1))
        if i >= first:
            _check_levels(tally, i, i, C.rank)
            yield i, level, nxt
        if nxt is None or not len(nxt):
            return
        level = nxt


def _memory_budget() -> int:
    """Bytes a breadth-first step may take: half the physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _step_bytes(C: _Cartan, level: np.ndarray) -> int:
    """Bytes held while building the level after ``level`` whole.

    It has at most rank * |level| rows of rank int64 coordinates, and a
    step holds about _WORKING_COPIES arrays of that size.
    """
    return C.rank * len(level) * C.rank * 8 * _WORKING_COPIES


def _fits(C: _Cartan, level: np.ndarray) -> bool:
    """Whether building the level after ``level`` whole fits the budget."""
    return _step_bytes(C, level) <= _memory_budget()


@dataclass(frozen=True)
class LevelCheckpoint:
    """Resumable state after finishing a level: its rows and the counts so far.

    That is all the enumerator needs to continue.  A level is the atomic
    unit; there is no mid-level resume.  :meth:`load` rejects a file whose
    counts, rows and algebra do not fit together, or whose counts do not
    match the :attr:`content_digest` stored with them.
    """

    algebra_digest: str
    level_index: int
    level: np.ndarray
    coeffs: tuple[int, ...]
    complete: bool
    version: int = CHECKPOINT_VERSION

    @property
    def content_digest(self) -> str:
        """sha256 over the algebra digest, level index, complete flag and counts.

        The rows are not hashed: the zip CRC-32 catches their corruption, and
        :meth:`load` checks them against the counts.
        """
        fields = np.asarray([self.level_index, self.complete, *self.coeffs], dtype="<i8")
        return hashlib.sha256(self.algebra_digest.encode() + fields.tobytes()).hexdigest()

    def save(self, path) -> None:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                version=np.int64(self.version),
                algebra_digest=np.str_(self.algebra_digest),
                level_index=np.int64(self.level_index),
                level=self.level,
                coeffs=np.asarray(self.coeffs, dtype=np.int64),
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
                    level_index=int(data["level_index"]),
                    level=data["level"].astype(np.int64),
                    coeffs=tuple(int(c) for c in data["coeffs"]),
                    complete=bool(data["complete"]),
                    version=version,
                )
                digest = str(data["content_digest"])
        except CheckpointMismatchError:
            raise
        except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
            raise CheckpointMismatchError(f"unreadable checkpoint {path}: {exc}") from exc
        if state.algebra_digest != gcm_digest(gcm):
            raise CheckpointMismatchError("checkpoint belongs to a different algebra")
        problem = state._inconsistency(gcm.rank, digest)
        if problem:
            raise CheckpointMismatchError(f"inconsistent checkpoint {path}: {problem}")
        return state

    def _inconsistency(self, rank: int, digest: str) -> str:
        level, coeffs = self.level, self.coeffs
        if self.level_index < 0 or len(coeffs) != self.level_index + 1:
            return f"{len(coeffs)} coefficients for level {self.level_index}"
        if level.ndim != 2 or level.shape[1] != rank:
            return f"level rows have shape {level.shape}, expected width {rank}"
        if len(level) != coeffs[-1]:
            return f"level {self.level_index} has {len(level)} rows but count {coeffs[-1]}"
        if level.size and int(level.min()) < 0:
            return "negative coordinate"
        ordered = level[np.lexsort(level.T)]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            return "repeated row"
        if digest != self.content_digest:
            return "counts do not match their digest"
        return ""


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

    Without a checkpoint :func:`_count` walks the canonical-parent tree
    depth-first in chunks of at most _CHUNK_ROWS rows, so no level is ever
    held whole, and level ``max_order`` is counted from its parents' masks,
    not built.  The edge-count invariant and the growth bound are checked for
    every level, the counted one included, once the walk ends.
    ``full_history_dedup`` builds every level breadth-first instead
    (:func:`_levels`) and rebuilds each one by deduplicating all reflections.

    A checkpoint file, when given, is rewritten after every finished level
    and picked up transparently on the next call; a file written for a
    different matrix, or one whose contents do not fit together, raises
    CheckpointMismatchError.  :func:`_levels` builds, checks and saves whole
    levels while the next one fits the memory budget; from the next level
    on, :func:`_count` counts the rest depth-first, and the checkpoint stays
    at the last saved level.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if full_history_dedup and checkpoint_path is not None:
        raise ValueError("full-history dedup requires a fresh run, not a checkpointed one")

    C = _Cartan(gcm.entries)
    digest = gcm_digest(gcm)
    coeffs = [1]
    level = np.zeros((1, gcm.rank), dtype=np.int64)
    first = 1

    ckpt = Path(checkpoint_path) if checkpoint_path is not None else None
    if ckpt is not None and ckpt.exists():
        state = LevelCheckpoint.load(ckpt, gcm)
        if state.complete and max_order >= len(state.coeffs):
            return GrowthSeries(state.coeffs, True, algebra_name)
        if max_order <= state.level_index:
            return GrowthSeries(state.coeffs[: max_order + 1], False, algebra_name)
        coeffs = list(state.coeffs)
        level = state.level
        first = state.level_index + 1

    tally: list = []
    rest = [(first - 1, level)]  # what is left to count depth-first
    if full_history_dedup or (ckpt is not None and _fits(C, level)):
        rest = []
        for i, level, nxt in _levels(C, level, first, max_order, tally, full_history_dedup):
            coeffs.append(len(level))
            if ckpt is not None:
                LevelCheckpoint(digest, i, level, tuple(coeffs), False).save(ckpt)
                if nxt is not None and not _fits(C, nxt):
                    rest = [(i + 1, nxt)]
                    break
    saved = len(coeffs) - 1
    _count(C, rest, max_order, tally)
    _check_levels(tally, first, min(max_order, len(tally)), gcm.rank)
    coeffs += [count for count, _, _ in tally[len(coeffs):]]
    complete = len(coeffs) <= max_order  # an empty level ended the run early
    if complete and ckpt is not None and saved == len(coeffs) - 1:
        LevelCheckpoint(digest, saved, level, tuple(coeffs), True).save(ckpt)
    return GrowthSeries(tuple(coeffs), complete, algebra_name)


def level_sets(
    gcm: GeneralizedCartanMatrix,
    max_order: int,
    *,
    full_history_dedup: bool = False,
) -> list[np.ndarray]:
    """The actual level sets, for inspection and property tests.

    Returns one (n, rank) array of lexicographically sorted rows per level,
    starting with the zero vector at level 0, from the breadth-first
    traversal that :func:`enumerate_levels` checkpoints.  Stops early at the
    first empty level.

    Every level is held whole.  Before a level is built from the one before
    it, the step must fit the memory budget (half the physical memory);
    otherwise :class:`LevelTooLargeError`, a ``MemoryError``, names the level
    and the bytes the step would need.  :func:`enumerate_levels` counts
    past that point.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    C = _Cartan(gcm.entries)
    zero = np.zeros((1, gcm.rank), dtype=np.int64)
    tally: list = []
    levels = [zero]
    for i, level, nxt in _levels(C, zero, 1, max_order, tally, full_history_dedup):
        levels.append(level[np.lexsort(level.T[::-1])])
        # Level i + 1 is built; the next step builds level i + 2 from it.
        if i + 1 < max_order and not _fits(C, nxt):
            raise LevelTooLargeError(i + 2, _step_bytes(C, nxt), _memory_budget())
    _check_levels(tally, 1, min(max_order, len(tally)), gcm.rank)
    return levels


def weyl_orbit_oracle(gcm: GeneralizedCartanMatrix, max_order: int, algebra_name: str = "") -> GrowthSeries:
    """Independent growth computation: BFS over the orbit of rho.

    States are weight-basis coordinate tuples starting from all ones;
    reflection mu subtracts coordinate mu times column mu of the Cartan
    matrix.  Deduplication is against the full set of visited states, so
    this shares neither representation nor dedup logic with
    :func:`enumerate_levels`.  Python integers keep it exact at any size;
    intended for small ranks and orders.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    rank = gcm.rank
    columns = [tuple(gcm.entries[nu][mu] for nu in range(rank)) for mu in range(rank)]
    start = (1,) * rank
    seen = {start}
    frontier = [start]
    coeffs = [1]
    complete = False
    for _ in range(max_order):
        nxt = []
        for state in frontier:
            for mu in range(rank):
                c = state[mu]
                if c == 0:  # reflection fixes this state
                    continue
                image = tuple(s - c * a for s, a in zip(state, columns[mu]))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        if not nxt:
            complete = True
            break
        coeffs.append(len(nxt))
        frontier = nxt
    return GrowthSeries(tuple(coeffs), complete, algebra_name)
