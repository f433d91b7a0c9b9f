#!/usr/bin/env python3
"""The weylgrowth benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload ha3-fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck --seed 1

Each pass runs in a fresh child process (``child.py``) that imports the
package from ``src/``, builds its seeded inputs, runs the pass and checks
every answer against values the benchmark holds itself.  Passes repeat
while the next one should still end within ``--seconds``; set-up-only
children before and after them give the set-up samples.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics, taken from traced passes that alternate with
untraced ones.  Lines before it give the sample counts and a stamp with
the core count, Python and numpy versions, seed and commit.
``--selfcheck`` runs every workload against a deliberately wrong
expected value and exits 1 unless each checker flags it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
# A run must end within 180 s; no child starts that could overrun this.
RUN_LIMIT_S = 165.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WEYLGROWTH_CHECKPOINT_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(TMP_DIR)
    return env


def spawn(workload: str, seed: int, mode: str, timeout: float, pass_id: str = "") -> dict:
    """Run one child to completion and return its JSON record."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned-at", repr(spawned_at),
           "--pass-id", pass_id]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "attempted": 1, "failed": 1,
                "errors": [f"{mode} child timed out"], "wall_s": timeout}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode, "attempted": 1, "failed": 1,
                "errors": [f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}"],
                "wall_s": time.monotonic() - spawned_at}
    record = json.loads(lines[-1])
    record["mode"] = mode
    record["wall_s"] = time.monotonic() - spawned_at
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes for about ``seconds``, with set-up-only children before and
    after them so that the set-up samples span the whole run."""
    start = time.monotonic()
    records: list[dict] = []
    if not trace:
        for _ in range(SETUP_SAMPLES // 2):
            records.append(spawn(workload, seed, "setup", RUN_LIMIT_S))
    # Another round starts only if it should end within ``seconds``, so a
    # run lasts about ``seconds`` however long one pass is; one round always runs.
    modes = ("pass", "traced") if trace else ("pass",)
    window = time.monotonic()
    while True:
        for mode in modes:
            left = RUN_LIMIT_S - (time.monotonic() - start)
            records.append(spawn(workload, seed, mode, left, f"{workload}/{seed}/{len(records)}"))
        elapsed = time.monotonic() - window
        last_round = sum(r["wall_s"] for r in records[-len(modes):])
        if elapsed + last_round > min(seconds, RUN_LIMIT_S - (window - start)):
            break
    if not trace:
        while sum("setup_s" in r for r in records) < SETUP_SAMPLES:
            elapsed = time.monotonic() - start
            if elapsed > RUN_LIMIT_S - 10.0:
                break
            records.append(spawn(workload, seed, "setup", RUN_LIMIT_S - elapsed))
    return records


def median_of(records: list[dict], key: str, mode: str | None = None) -> tuple[float, int]:
    values = [r[key] for r in records if key in r and (mode is None or r["mode"] == mode)]
    return (statistics.median(values) if values else 0.0), len(values)


def end_to_end(records: list[dict], attempted: int, failed: int) -> dict[str, tuple[float, int]]:
    # solve_s and the rates count only passes whose every answer was right.
    good = [r for r in records if r["mode"] == "pass" and "solve_s" in r and r["failed"] == 0]
    passes = good or [r for r in records if r["mode"] == "pass" and "solve_s" in r]
    rates = [r["work"] / r["solve_s"] for r in passes]
    return {
        "setup_s": median_of(records, "setup_s"),
        "solve_s": median_of(passes, "solve_s"),
        "elements_per_s": (statistics.median(rates) if rates else 0.0, len(rates)),
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
        "ok_frac": (1.0 - failed / attempted, attempted),
    }


def per_layer(records: list[dict]) -> dict[str, tuple[float, int]]:
    traced = [r["layers"] for r in records if r["mode"] == "traced" and "layers" in r]
    out = {}
    for name in (traced[0] if traced else {}):
        out[name] = (statistics.median(layers[name] for layers in traced), len(traced))
    traced_solve, n_traced = median_of(records, "solve_s", "traced")
    plain_solve, n_plain = median_of(records, "solve_s", "pass")
    out["trace.overhead_s"] = (traced_solve - plain_solve, min(n_traced, n_plain))
    return out


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def stamp(seed: int, records: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": ", ".join(sorted({r["numpy"] for r in records if "numpy" in r})),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def selfcheck(workloads: list[str], seed: int) -> int:
    """Each workload's checker must flag a deliberately wrong expected value."""
    flagged = True
    for workload in workloads:
        record = spawn(workload, seed, "selfcheck", RUN_LIMIT_S)
        frac = record["failed"] / record["attempted"]
        # A flag is a failed check in a pass that ran to the end, not a crash.
        caught = record["failed"] > 0 and "solve_s" in record
        flagged &= caught
        print(f"{workload}: failed_frac {frac:.3f} with a wrong expected value "
              f"({'flagged' if caught else 'NOT flagged'}): {record['errors']}")
    return 0 if flagged else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "weylgrowth" / "__init__.py").is_file():
        print(f"error: no weylgrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not args.selfcheck and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    TMP_DIR.mkdir(exist_ok=True)
    try:
        if args.selfcheck:
            return selfcheck(names, args.seed)
        records = measure(args.workload, args.seed, seconds, bool(args.trace))
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for record in records:
        for error in record.get("errors", []):
            print(f"{record['mode']}: {error}", file=sys.stderr)

    info = stamp(args.seed, records)
    if args.trace:
        metrics, listed = per_layer(records), spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        # A span's parent is an index into the span list of its own child.
        children = [{"pass": r["pass_id"], "spans": r["spans"]} for r in records if "spans" in r]
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"stamp": info, "children": children}))
    else:
        metrics, listed = end_to_end(records, attempted, failed), spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing and failed == 0:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    for name in missing:  # only when some child failed, so correct is false
        metrics[name] = (0.0, 0)

    print(json.dumps({"stamp": info, "workload": args.workload}))
    for m in listed:
        value, samples = metrics[m["name"]]
        print(f"{m['name']:<46} {value:>16.6g} {m['unit']:<6} n={samples}")
    passes = [r for r in records if "solve_s" in r]
    result = {
        "correct": failed == 0 and bool(passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
