import itertools
import json
import os

import pytest
import numpy as np
from hypothesis import settings

from weylgrowth import build_catalog, enumerate_levels, validate_gcm
from weylgrowth import weyl

# On CI a failing property test also prints a blob that replays its example
# (@reproduce_failure), so the failure can be rerun from the log alone.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def ha2_growth_24():
    return enumerate_levels(build_catalog("HA2").gcm, 24)


@pytest.fixture(scope="session")
def ha3_growth_27():
    return enumerate_levels(build_catalog("HA3").gcm, 27)


@pytest.fixture(scope="session")
def connected_gcms():
    """connected_gcms(rank, bonds) yields every connected GCM of the rank
    whose off-diagonal entries are 0 or minus one of ``bonds``; every node
    order of a matrix is among them."""
    def generate(rank, bonds):
        pairs = [(0, 0)] + [(-a, -b) for a in bonds for b in bonds]
        edges = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
        for choice in itertools.product(pairs, repeat=len(edges)):
            m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
            for (i, j), (a, b) in zip(edges, choice):
                m[i][j], m[j][i] = a, b
            gcm = validate_gcm(m)
            if len(weyl._components(gcm, range(rank))) == 1:
                yield gcm
    return generate


_CHECKPOINT_ARRAYS = ("tally", "chunks", "waiting")


def _read_checkpoint(path):
    """The header fields and arrays of a checkpoint file of format 9, in one
    dict, with each array in place of its shape."""
    line, _, payload = path.read_bytes().partition(b"\n")
    data = json.loads(line)
    sizes = [rows * cols for rows, cols in (data[name] for name in _CHECKPOINT_ARRAYS)]
    values = np.split(np.frombuffer(payload, dtype="<i8").astype(np.int64), np.cumsum(sizes[:-1]))
    data.update({name: v.reshape(data[name]) for name, v in zip(_CHECKPOINT_ARRAYS, values)})
    return data


def _rewrite_checkpoint(path, **changes):
    """Write the checkpoint at ``path`` again, laid out as format 9, with the
    header fields and arrays in ``changes`` replaced.  The content digest is
    kept as stored unless ``changes`` replaces it."""
    data = {**_read_checkpoint(path), **changes}
    arrays = [np.asarray(data[name], dtype="<i8") for name in _CHECKPOINT_ARRAYS]
    data.update({name: list(a.shape) for name, a in zip(_CHECKPOINT_ARRAYS, arrays)})
    path.write_bytes(json.dumps(data).encode() + b"\n" + b"".join(a.tobytes() for a in arrays))
