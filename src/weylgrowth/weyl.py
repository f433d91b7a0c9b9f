"""Breadth-first enumeration of Weyl group elements by word length.

Each group element w is named by the coordinate vector gamma = rho - w(rho)
over the simple roots.  These vectors are pairwise distinct across the
whole group and have nonnegative entries.  With pair = A gamma, reflecting
node nu changes only coordinate nu, by p = 1 - pair[nu], which is never 0:
the word length goes up by one when p > 0 and down by one when p < 0, so
the left descents of w are the nodes mu with pair[mu] >= 2.

Level i is built from level i-1 alone by keeping an up-move only when its
node is the smallest left descent of the child (the canonical parent, as in
du Cloux's Coxeter programs and Casselman's "Computation in Coxeter groups").  Every element of level i then arises exactly
once, so nothing is deduplicated and one level is held between steps;
level sizes are the growth coefficients.  Coordinates are stored as checked
64-bit integers.  Levels are processed in fixed-size chunks of parents,
which bounds the temporaries of a step.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .algebra import GeneralizedCartanMatrix

__all__ = [
    "CheckpointMismatchError",
    "GrowthSeries",
    "LevelCheckpoint",
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

# Parents per unit of work in a level step, and the unit that worker
# threads share out.
_CHUNK_ROWS = 1 << 14


class CheckpointMismatchError(RuntimeError):
    """A checkpoint file does not belong to this run or is inconsistent."""


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


def _check_coordinate_budget(A: np.ndarray, level: np.ndarray) -> None:
    # With c = max|A| * rank, a child's coordinates are at most (c + 2) times
    # the current maximum, and the pairings formed while building it at most
    # c * (c + 3) times.
    if level.size == 0:
        return
    c = int(np.abs(A).max()) * A.shape[0]
    if int(level.max()) > (1 << _SAFE_BITS) // (c * (c + 3)):
        raise OverflowError("coordinates exceed the checked 64-bit budget")


def _children(A: np.ndarray, parents: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """The children whose canonical parent is one of ``parents``.

    ``pair`` is ``parents @ A.T``.  An up-move at node nu, where
    p = 1 - pair[nu] is positive, gives the child gamma + p e_nu with pairing
    pair + p A[:, nu]; it is kept when no mu < nu is a left descent of it.
    """
    blocks = []
    for nu in range(A.shape[0]):
        idx = np.flatnonzero(pair[:, nu] <= 0)
        p = 1 - pair[idx, nu]
        if nu:
            keep = (pair[idx, :nu] + p[:, None] * A[:nu, nu] < 2).all(axis=1)
            idx, p = idx[keep], p[keep]
        rows = parents[idx]
        rows[:, nu] += p
        blocks.append(rows)
    return np.concatenate(blocks)


def _chunk_step(A: np.ndarray, build: bool, parents: np.ndarray):
    pair = parents @ A.T
    children = _children(A, parents, pair) if build else parents[:0]
    return children, int(np.count_nonzero(pair <= 0)), int(np.count_nonzero(pair >= 2))


def _next_level(A: np.ndarray, level: np.ndarray, build: bool = True, mapper=map):
    """(children, up-edges leaving level, left descents in level).

    Chunks of _CHUNK_ROWS parents are mapped with ``mapper`` and joined in
    chunk order, so the mapper cannot change the result.  With ``build``
    false only the two totals are computed.
    """
    if build:
        _check_coordinate_budget(A, level)
    chunks = [level[s:s + _CHUNK_ROWS] for s in range(0, len(level), _CHUNK_ROWS)]
    parts = list(mapper(partial(_chunk_step, A, build), chunks))
    children = np.concatenate([c for c, _, _ in parts]) if parts else level[:0]
    if children.size and int(children.min()) < 0:
        raise RuntimeError("negative coordinate generated: enumeration invariant violated")
    return children, sum(u for _, u, _ in parts), sum(d for _, _, d in parts)


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


def _levels(A: np.ndarray, level: np.ndarray, first: int, max_order: int,
            workers: int = 1, full_history: bool = False):
    """Yield the nonempty levels first..max_order that follow level first-1.

    A level is yielded once the next step has checked that its left
    descents, summed, equal the up-edges that led into it (the last level
    gets a counting-only pass).  With ``full_history`` each level must also
    equal, as a set, its :func:`_reference_level`.
    """
    rank = A.shape[0]
    history = {tuple(int(x) for x in level[0]): first - 1} if full_history else None
    up_edges = None  # up-edges into ``level``; unknown for a resumed level
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool is not None else map
        for i in range(first, max_order + 2):
            children, up, descents = _next_level(A, level, i <= max_order, mapper)
            if up_edges is not None and descents != up_edges:
                raise RuntimeError(f"level {i - 1}: {up_edges} up-edges lead in, {descents} left descents")
            if i > first and len(level):
                yield level
            if i > max_order or len(level) == 0:
                return
            if len(children) > rank * len(level):
                raise RuntimeError(f"level {i} has more than rank times the elements of level {i - 1}")
            if history is not None:
                expected = _reference_level(A, level, i, history)
                if len(expected) != len(children) or expected != set(map(tuple, children.tolist())):
                    raise RuntimeError(f"level {i} differs from its full-history reference")
                history.update(dict.fromkeys(expected, i))
            level, up_edges = children, up


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
    """Grow level sets up to max_order and count them.

    The result is a pure function of (gcm, max_order): worker count,
    checkpointing, and the full-history cross-check never change the
    coefficients.  If some level comes out empty the group is finite and
    fully enumerated; the series stops at the last nonempty level and is
    marked complete.

    A checkpoint file, when given, is rewritten after every finished level
    and picked up transparently on the next call; a file written for a
    different matrix, or one whose contents do not fit together, raises
    CheckpointMismatchError.
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

    for i, level in enumerate(_levels(A, level, first, max_order, workers, full_history_dedup), first):
        coeffs.append(len(level))
        if ckpt is not None:
            LevelCheckpoint(digest, i, level, tuple(coeffs), False).save(ckpt)
    complete = len(coeffs) <= max_order  # an empty level ended the run early
    if complete and ckpt is not None:
        LevelCheckpoint(digest, len(coeffs) - 1, level, tuple(coeffs), True).save(ckpt)
    return GrowthSeries(tuple(coeffs), complete, algebra_name)


def level_sets(
    gcm: GeneralizedCartanMatrix,
    max_order: int,
    *,
    full_history_dedup: bool = False,
) -> list[np.ndarray]:
    """The actual level sets, for inspection and property tests.

    Returns one (n, rank) array of lexicographically sorted rows per level,
    starting with the zero vector at level 0, using the same core as
    :func:`enumerate_levels`.  Stops early at the first empty level.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    A = np.asarray(gcm.entries, dtype=np.int64)
    zero = np.zeros((1, gcm.rank), dtype=np.int64)
    levels = _levels(A, zero, 1, max_order, full_history=full_history_dedup)
    return [zero] + [level[np.lexsort(level.T[::-1])] for level in levels]


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
