#!/usr/bin/env python3
"""Per-level timing and size table for the walk that a count takes.

A count walks the parabolic quotient W^J, the orbit of the lambda that
``coxeter._parabolic`` picks, and multiplies its series by W_J(t), which has
a closed form with no walk: the degrees of each finite component of W_J,
from the heights of its positive roots, and Bott's series for each affine
one (HA_n factors out affine A_n, so HA3 to order 27 walks 107,542
cosets).  This script makes that one walk of W^J to the order, as a count
does, and names J in its header; the choice of J and W_J(t) are not
timed.  The seconds of level i sum the chunks of level i: pairing and
checking each chunk and building its children at level i + 1.  The
chunks of the level before the order count that level's cosets from their
masks instead, so it is never built and has no largest coordinate.

Example:
    python scripts/profile_enumeration.py --algebra HA3 --order 27
"""

import argparse
import time

import numpy as np

from weylgrowth import build_catalog
# Private names: this script profiles the internals on purpose.
from weylgrowth.coxeter import _parabolic
from weylgrowth.weyl import _Cartan, _count


def profile(name: str, order: int) -> None:
    gcm = build_catalog(name).gcm
    lam, _ = _parabolic(gcm, order)
    J = " ".join(label for label, x in zip(gcm.labels, lam) if not x)
    print(f"{name}: walks W^J for J = {{{J}}}, lambda = {lam}")
    coords, seconds, tally = [0] * (order + 1), [0.0] * (order + 1), []
    identity = np.zeros((1, gcm.rank), dtype=np.int64)
    start = t0 = time.perf_counter()
    for i, rows in _count(_Cartan(gcm.entries, lam), [(0, identity)], order, tally):
        seconds[i] += time.perf_counter() - t0
        coords[i] = max(coords[i], int(rows.max()))
        t0 = time.perf_counter()
    total = 1
    print(f"{'level':>5} {'cosets':>12} {'total':>12} {'max coord':>10} {'seconds':>8}")
    for i in range(1, order + 1):
        if i == len(tally):
            print(f"W^J exhausted after level {i - 1}")
            break
        total += tally[i][0]
        coord = coords[i] if i < order else "-"
        print(f"{i:>5} {tally[i][0]:>12} {total:>12} {coord:>10} {seconds[i]:>8.3f}")
    print(f"total cosets {total}, wall time {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="HA3")
    parser.add_argument("--order", type=int, default=27)
    args = parser.parse_args()
    profile(args.algebra, args.order)
