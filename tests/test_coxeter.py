import math
from collections import Counter

from weylgrowth import build_catalog, cartan_type
from weylgrowth import coxeter


def _proper_closure_degrees(gcm):
    """W_0's degrees by a second rule, the reference for _base_degrees: one
    closure of the simple roots under the steps s_i that keep a node out of
    the support gives the positive roots of every parabolic subgroup of
    corank 1 together; those that miss node nu are the positive roots of the
    subgroup less nu, and the largest of those subgroups, the first on a
    tie, is W_0."""
    rank = gcm.rank
    bound = coxeter._root_bound(rank) * rank
    columns = list(zip(*gcm.entries))
    roots = [(tuple(int(i == j) for j in range(rank)), columns[i]) for i in range(rank)]
    seen = {beta for beta, _ in roots}
    for beta, pair in roots:
        for i, c in enumerate(pair):
            if c < 0:
                up = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if up not in seen and not all(up):
                    assert len(roots) < bound, "not affine"
                    seen.add(up)
                    roots.append((up, tuple(p - c * x for p, x in zip(pair, columns[i]))))
    return max((coxeter._degrees([beta for beta in seen if not beta[nu]], rank - 1) for nu in range(rank)),
               key=math.prod)


def test_base_degrees_match_the_closure_of_every_corank_1_subgroup(connected_gcms):
    # W_0 is the largest finite group among the connected node sets of
    # corank 1, each closed as a finite group.  It must have the degrees
    # that one closure of all corank-1 subgroups together gives: on affine
    # A1-A7, the affine A_n in HA2-HA7, and every connected affine GCM of
    # rank 2 and 3 with bonds down to -4 (28 matrices, the twisted types
    # among them) and of rank 4 with bonds -1 and -2 (75: affine A3 and 72
    # whose W_0 is B3).
    matrices = [build_catalog(f"AffA{n}").gcm for n in range(1, 8)]
    matrices += [build_catalog(f"HA{n}").gcm.delete_node("-1") for n in range(2, 8)]
    found = Counter()
    for rank, bonds in ((2, (1, 2, 3, 4)), (3, (1, 2, 3, 4)), (4, (1, 2))):
        for gcm in connected_gcms(rank, bonds):
            if cartan_type(gcm) == "affine":
                found[rank] += 1
                matrices.append(gcm)
    assert found == {2: 3, 3: 25, 4: 75}
    for gcm in matrices:
        assert cartan_type(gcm) == "affine"
        assert coxeter._base_degrees(gcm) == _proper_closure_degrees(gcm), gcm.entries
