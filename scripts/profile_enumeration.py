#!/usr/bin/env python3
"""Per-level timing and size table for the level enumerator.

Example:
    python scripts/profile_enumeration.py --algebra HA3 --order 27
"""

import argparse
import time

import numpy as np

from weylgrowth import build_catalog
from weylgrowth.weyl import _walk  # profiling the internals on purpose


def profile(name: str, order: int) -> None:
    gcm = build_catalog(name).gcm
    A = np.asarray(gcm.entries, dtype=np.int64)
    # The breadth-first walk holds the next level whole on the stack once
    # the current one is done, so each step's time is the cost of building it.
    stack = [(0, np.zeros((1, gcm.rank), dtype=np.int64))]
    total = 1
    print(f"{'level':>5} {'count':>12} {'total':>12} {'max coord':>10} {'seconds':>8}")
    start = t0 = time.perf_counter()
    for i, _ in _walk(A, stack, order, []):
        dt = time.perf_counter() - t0
        if i == order:
            break
        if not stack:
            print(f"group exhausted after level {i}")
            break
        level = stack[-1][1]
        total += len(level)
        print(f"{i + 1:>5} {len(level):>12} {total:>12} {int(level.max()):>10} {dt:>8.3f}")
        t0 = time.perf_counter()
    print(f"total elements {total}, wall time {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="HA3")
    parser.add_argument("--order", type=int, default=27)
    args = parser.parse_args()
    profile(args.algebra, args.order)
