#!/usr/bin/env python3
"""Per-level timing and size table for the level enumerator.

The depth-first walk of the whole group visits each level in chunks.  The
seconds of level i sum the chunks of level i: pairing and checking each
chunk and building its children at level i + 1 (the chunks of the last
level only count theirs).

Example:
    python scripts/profile_enumeration.py --algebra HA3 --order 27
"""

import argparse
import time

import numpy as np

from weylgrowth import build_catalog
from weylgrowth.weyl import _Cartan, _count  # profiling the internals on purpose


def profile(name: str, order: int) -> None:
    gcm = build_catalog(name).gcm
    counts, coords, seconds = [0] * (order + 1), [0] * (order + 1), [0.0] * (order + 1)
    identity = np.zeros((1, gcm.rank), dtype=np.int64)
    start = t0 = time.perf_counter()
    for i, rows in _count(_Cartan(gcm.entries), [(0, identity)], order + 1, []):
        seconds[i] += time.perf_counter() - t0
        counts[i] += len(rows)
        coords[i] = max(coords[i], int(rows.max()))
        t0 = time.perf_counter()
    total = 1
    print(f"{'level':>5} {'count':>12} {'total':>12} {'max coord':>10} {'seconds':>8}")
    for i in range(1, order + 1):
        if not counts[i]:
            print(f"group exhausted after level {i - 1}")
            break
        total += counts[i]
        print(f"{i:>5} {counts[i]:>12} {total:>12} {coords[i]:>10} {seconds[i]:>8.3f}")
    print(f"total elements {total}, wall time {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="HA3")
    parser.add_argument("--order", type=int, default=27)
    args = parser.parse_args()
    profile(args.algebra, args.order)
