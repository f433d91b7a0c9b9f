#!/usr/bin/env python3
"""Per-level timing and size table for the level enumerator.

The breadth-first traversal builds each level whole.  The seconds of level
i time one step of it: pairing and checking level i and building level
i + 1 from it (nothing is built after the last level).

Example:
    python scripts/profile_enumeration.py --algebra HA3 --order 27
"""

import argparse
import time

from weylgrowth import build_catalog
from weylgrowth.weyl import _Cartan, _levels  # profiling the internals on purpose


def profile(name: str, order: int) -> None:
    gcm = build_catalog(name).gcm
    total = 1
    print(f"{'level':>5} {'count':>12} {'total':>12} {'max coord':>10} {'seconds':>8}")
    start = t0 = time.perf_counter()
    for i, level, nxt in _levels(_Cartan(gcm.entries), order, []):
        dt = time.perf_counter() - t0
        total += len(level)
        print(f"{i:>5} {len(level):>12} {total:>12} {int(level.max()):>10} {dt:>8.3f}")
        if nxt is not None and not len(nxt):
            print(f"group exhausted after level {i}")
        t0 = time.perf_counter()
    print(f"total elements {total}, wall time {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="HA3")
    parser.add_argument("--order", type=int, default=27)
    args = parser.parse_args()
    profile(args.algebra, args.order)
