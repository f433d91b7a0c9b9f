import itertools
import os

import pytest
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
