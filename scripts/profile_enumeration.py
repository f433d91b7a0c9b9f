#!/usr/bin/env python3
"""Per-level timing and size table for the level enumerator.

Example:
    python scripts/profile_enumeration.py --algebra HA3 --order 27
"""

import argparse
import time

import numpy as np

from weylgrowth import build_catalog
from weylgrowth.weyl import _next_level  # profiling the internals on purpose


def profile(name: str, order: int) -> None:
    gcm = build_catalog(name).gcm
    A = np.asarray(gcm.entries, dtype=np.int64)
    level = np.zeros((1, gcm.rank), dtype=np.int64)
    total = 1
    print(f"{'level':>5} {'count':>12} {'total':>12} {'max coord':>10} {'seconds':>8}")
    start = time.perf_counter()
    for i in range(1, order + 1):
        t0 = time.perf_counter()
        level, _, _ = _next_level(A, level)
        dt = time.perf_counter() - t0
        if len(level) == 0:
            print(f"group exhausted after level {i - 1}")
            break
        total += len(level)
        print(f"{i:>5} {len(level):>12} {total:>12} {int(level.max()):>10} {dt:>8.3f}")
    print(f"total elements {total}, wall time {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="HA3")
    parser.add_argument("--order", type=int, default=27)
    args = parser.parse_args()
    profile(args.algebra, args.order)
