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
and nothing is deduplicated.  The tree is walked with a stack of chunks of
rows: depth-first in chunks of bounded size when only the counts are
wanted, so no level is ever held whole, and breadth-first, one whole level
per chunk, for level sets and checkpoints.  Level sizes are the growth
coefficients.  Coordinates are stored as checked 64-bit integers.

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
    """A Cartan matrix's entries as Python ints, read once per walk.

    Indexing an array and computing with numpy scalars costs far more than
    the same work on Python ints, and the depth-first walk would pay it for
    every entry in every chunk.  The functions below take ``A`` as the
    int64 array or in this form (:func:`_cartan`); the walk passes this form.
    """

    def __init__(self, A: np.ndarray):
        entries = A.tolist()
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


def _cartan(A) -> _Cartan:
    """``A`` as a :class:`_Cartan`, built unless it already is one."""
    return A if isinstance(A, _Cartan) else _Cartan(A)


def _check_coordinate_budget(A, level: np.ndarray) -> None:
    """Raise OverflowError when a coordinate of ``level`` is past the limit
    of :class:`_Cartan`, so that its children and pairings cannot wrap."""
    if level.size and int(level.max()) > _cartan(A).limit:
        raise OverflowError("coordinates exceed the checked 64-bit budget")


def _pairings(A, rows: np.ndarray, out=None) -> np.ndarray:
    """``A @ rows.T``, written into ``out`` when given.

    numpy multiplies int64 matrices without BLAS, element by element; one
    whole-column multiply or subtract per nonzero entry of A is faster, and
    a Cartan matrix has few of them.  Entries other than -1 are multiplied
    into one scratch row, allocated once per call.  Exact by the bound in
    :class:`_Cartan`.
    """
    C = _cartan(A)
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


def _masks(pair: np.ndarray) -> tuple:
    """The up-move mask ``pair <= 0`` and the mask ``pair < 2`` of non-descents."""
    return pair <= 0, pair < 2


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


def _children(A, parents: np.ndarray, pair: np.ndarray, out=None, *, masks=None) -> np.ndarray:
    """The children whose canonical parent is one of ``parents``.

    ``pair`` is ``A @ parents.T``, so pair[mu] holds the pairings of every
    parent with row mu of A, and ``masks`` is ``_masks(pair)`` when the
    caller has it.  Each parent's kept up-moves are those of :func:`_kept`.
    Children come grouped by nu, the last node's group first, each group in
    parent order.
    A walk that cuts its chunks off the end thus visits the children of
    node 0 first; they have the fewest descendants, so fewer rows wait on
    its stack (on E8 to order 40 at most 54 thousand, against 575 thousand
    in ascending order).  The children fill the leading rows of ``out``
    when it has that many rows and a new array otherwise.

    The gathers use ``mode="clip"``, which numpy does not buffer as it does
    the default ``mode="raise"``; the indices come from ``np.flatnonzero``
    over masks as long as ``parents``, so clipping never moves one.
    """
    C = _cartan(A)
    masks = _masks(pair) if masks is None else masks
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


def _leaf_counts(A, pair: np.ndarray, *, masks=None) -> tuple[int, int]:
    """How many children :func:`_children` would give, and their left
    descents summed, without building them.

    A child kept at node nu has no left descent below nu (:func:`_kept`),
    has nu itself (its pairing there is pair[nu] + 2p = 2 - pair[nu] >= 2),
    and has mu > nu when pair[mu] + p A[mu, nu] >= 2, that is
    pair[mu] - A[mu, nu] pair[nu] >= 2 - A[mu, nu], or pair[mu] >= 2 where
    A[mu, nu] is 0.  These are the children's exact integer pairings.
    """
    C = _cartan(A)
    masks = _masks(pair) if masks is None else masks
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


def _walk(A: np.ndarray, stack: list, max_order: int, tally: list, chunk_rows: int | None = None):
    """Walk the canonical-parent tree below the (level index, rows) chunks on ``stack``.

    Each popped chunk, cut to at most ``chunk_rows`` rows (None: no limit),
    adds its row count, the up-edges leaving it and its left descents to
    ``tally[i]``; below ``max_order`` its children are pushed as one chunk
    of level i+1.  The chunk is yielded once its children are on the stack.
    Newest first, the walk is depth-first and holds at most one chunk's
    children per level; with no limit every chunk is a whole level and the
    walk is breadth-first.

    Cut to ``chunk_rows``, the walk does not build level ``max_order``: a
    chunk of level max_order - 1 adds its children's count and left
    descents to ``tally[max_order]`` from the masks that select them
    (:func:`_leaf_counts`), and their up-edges, which nothing checks, are
    not counted.  The children need no check of their own: each is a
    checked parent plus p = 1 - pair[nu] >= 1 at one coordinate, so it is
    nonnegative, and the coordinate budget covers the parent chunk whose
    pairings the counts come from.  The tally of level max_order holds its
    count and descents, so :func:`_check_levels` checks it like any other.

    Cut to ``chunk_rows``, the walk also reuses its arrays from chunk to
    chunk.  Its chunks nest: children are pushed after, and popped before,
    every chunk already on the stack.  So they are written into one array
    used as a stack (``spill``), right above the rows still waiting there,
    and into a new array only when it is full.  A popped chunk is copied
    into ``parents`` and its pairings go into ``pairings``; the rows it
    yields are those of ``parents``, valid until the walk resumes.  Fresh
    megabyte arrays per chunk would have the allocator hand memory back to
    the system and fault it in again chunk after chunk, a cost that swings
    with host load.
    """
    C = _cartan(A)
    if chunk_rows is not None:
        parents = np.empty((chunk_rows, C.rank), dtype=np.int64)
        pairings = np.empty((C.rank, chunk_rows), dtype=np.int64)
        # Pages are touched only as rows are used; E8 to order 40 keeps at
        # most a fifth of these rows waiting.
        spill = np.empty((2 * C.rank * chunk_rows, C.rank), dtype=np.int64)
        used = 0  # leading rows of spill held by chunks on the stack
    while stack:
        i, rows = stack.pop()
        if chunk_rows is None:
            pair = _pairings(C, rows)
        else:
            if len(rows) > chunk_rows:
                stack.append((i, rows[:-chunk_rows]))
                rows = rows[-chunk_rows:]
            if rows.base is spill:
                used -= len(rows)
            np.copyto(parents[:len(rows)], rows)
            rows = parents[:len(rows)]
            pair = _pairings(C, rows, pairings[:, :len(rows)])
        masks = _masks(pair)
        while len(tally) <= i:
            tally.append([0, 0, 0])
        tally[i][0] += len(rows)
        tally[i][1] += int(np.count_nonzero(masks[0]))
        tally[i][2] += pair.size - int(np.count_nonzero(masks[1]))
        if i < max_order:
            _check_coordinate_budget(C, rows)
            if chunk_rows is not None and i + 1 == max_order:
                count, descents = _leaf_counts(C, pair, masks=masks)
                if count:
                    if len(tally) == max_order:
                        tally.append([0, 0, 0])
                    tally[max_order][0] += count
                    tally[max_order][2] += descents
            else:
                if chunk_rows is None:
                    children = _children(C, rows, pair, masks=masks)
                else:
                    children = _children(C, rows, pair, spill[used:], masks=masks)
                    if children.base is spill:
                        used += len(children)
                if children.size and int(children.min()) < 0:
                    raise RuntimeError("negative coordinate generated: enumeration invariant violated")
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


def _reflect_all(A: np.ndarray, level: np.ndarray) -> np.ndarray:
    """All rank reflections of every row, stacked."""
    pair = level @ A.T  # pair[:, mu] = <row mu of A, gamma>
    blocks = []
    for mu in range(A.shape[0]):
        block = level.copy()
        block[:, mu] += 1 - pair[:, mu]
        blocks.append(block)
    return np.concatenate(blocks)


def _reference_level(A: np.ndarray, prev: np.ndarray, index: int, history: dict) -> set:
    """Level ``index`` as all reflections of level index-1 minus every earlier
    level (``history`` maps rows to levels); a hit outside level index-2 is
    an error.  Shares nothing with the canonical-parent rule but the input.
    """
    found = set()
    for row in map(tuple, np.unique(_reflect_all(A, prev), axis=0).tolist()):
        seen = history.get(row)
        if seen is None:
            found.add(row)
        elif seen != index - 2:
            raise RuntimeError(f"reflection for level {index} already in level {seen}")
    return found


def _levels(A: np.ndarray, stack: list, first: int, max_order: int, tally: list,
            full_history: bool = False):
    """Walk breadth-first from the level on ``stack`` and yield each level
    i >= first, whole, once it is checked.

    With ``full_history`` each next level must also equal, as a set, its
    :func:`_reference_level`.
    """
    history = {tuple(stack[0][1][0].tolist()): first - 1} if full_history else None
    for i, level in _walk(A, stack, max_order, tally):
        if history is not None and i < max_order:
            children = stack[-1][1] if stack else level[:0]
            expected = _reference_level(A, level, i + 1, history)
            if len(expected) != len(children) or expected != set(map(tuple, children.tolist())):
                raise RuntimeError(f"level {i + 1} differs from its full-history reference")
            history.update(dict.fromkeys(expected, i + 1))
        if i >= first:
            _check_levels(tally, i, i, A.shape[0])
            yield i, level


def _memory_budget() -> int:
    """Bytes a breadth-first step may take: half the physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _step_bytes(A: np.ndarray, level: np.ndarray) -> int:
    """Bytes held while building the level after ``level`` whole.

    It has at most rank * |level| rows of rank int64 coordinates, and a
    step holds about _WORKING_COPIES arrays of that size.
    """
    rank = A.shape[0]
    return rank * len(level) * rank * 8 * _WORKING_COPIES


def _fits(A: np.ndarray, level: np.ndarray) -> bool:
    """Whether building the level after ``level`` whole fits the budget."""
    return _step_bytes(A, level) <= _memory_budget()


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
    def load(path, gcm: GeneralizedCartanMatrix | None = None) -> "LevelCheckpoint":
        """Read a checkpoint; with ``gcm``, it must also have been written for it."""
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
        if gcm is not None and state.algebra_digest != gcm_digest(gcm):
            raise CheckpointMismatchError("checkpoint belongs to a different algebra")
        problem = state._inconsistency(gcm.rank if gcm is not None else None, digest)
        if problem:
            raise CheckpointMismatchError(f"inconsistent checkpoint {path}: {problem}")
        return state

    def _inconsistency(self, rank: int | None, digest: str) -> str:
        level, coeffs = self.level, self.coeffs
        if self.level_index < 0 or len(coeffs) != self.level_index + 1:
            return f"{len(coeffs)} coefficients for level {self.level_index}"
        if level.ndim != 2 or (rank is not None and level.shape[1] != rank):
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

    Without a checkpoint the canonical-parent tree is walked depth-first in
    chunks of at most _CHUNK_ROWS rows, so no level is ever held whole, and
    level ``max_order`` is counted from its parents' masks, not built.  The
    edge-count invariant and the growth bound are checked for every level,
    the counted one included, once the walk ends.  ``full_history_dedup``
    walks breadth-first instead and rebuilds each level by deduplicating all
    reflections.

    A checkpoint file, when given, is rewritten after every finished level
    and picked up transparently on the next call; a file written for a
    different matrix, or one whose contents do not fit together, raises
    CheckpointMismatchError.  Levels are built whole, checked and saved
    while the next one fits the memory budget; below the last saved level
    the rest is counted depth-first, and the checkpoint stays at that level.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if full_history_dedup and checkpoint_path is not None:
        raise ValueError("full-history dedup requires a fresh run, not a checkpointed one")

    A = np.asarray(gcm.entries, dtype=np.int64)
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
    stack = [(first - 1, level)]
    if full_history_dedup or (ckpt is not None and _fits(A, level)):
        for i, level in _levels(A, stack, first, max_order, tally, full_history_dedup):
            coeffs.append(len(level))
            if ckpt is not None:
                LevelCheckpoint(digest, i, level, tuple(coeffs), False).save(ckpt)
                if stack and not _fits(A, stack[-1][1]):
                    break
    saved = len(coeffs) - 1
    for _ in _walk(A, stack, max_order, tally, _CHUNK_ROWS):
        pass
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
    starting with the zero vector at level 0, from the breadth-first form
    of the walk behind :func:`enumerate_levels`.  Stops early at the first
    empty level.

    Every level is held whole.  Before a level is built from the one before
    it, the step must fit the memory budget (half the physical memory);
    otherwise :class:`LevelTooLargeError`, a ``MemoryError``, names the level
    and the bytes the step would need.  :func:`enumerate_levels` counts
    past that point.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    A = np.asarray(gcm.entries, dtype=np.int64)
    zero = np.zeros((1, gcm.rank), dtype=np.int64)
    tally: list = []
    stack = [(0, zero)]
    levels = [zero]
    for i, level in _levels(A, stack, 1, max_order, tally, full_history_dedup):
        levels.append(level[np.lexsort(level.T[::-1])])
        # Level i + 1 waits on the stack; the next step builds level i + 2.
        if stack and i + 1 < max_order and not _fits(A, stack[-1][1]):
            raise LevelTooLargeError(i + 2, _step_bytes(A, stack[-1][1]), _memory_budget())
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
