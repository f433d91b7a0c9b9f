"""One benchmark child: set up a workload and run at most one pass of it.

Run by ``run.py``, one fresh process per pass, so that set-up time and
peak RSS belong to a single pass.  Prints one JSON line on stdout.

Modes: ``setup`` stops when the inputs are ready; ``pass`` also runs
and checks one pass; ``traced`` does the same under the timing wrappers
of ``tracing.py``; ``selfcheck`` runs a pass against a deliberately
wrong expected value, which the workload's checker must flag.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced", "selfcheck"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this child")
    parser.add_argument("--pass-id", default="")
    args = parser.parse_args()

    result = {"attempted": 1, "failed": 0, "errors": []}
    # TMPDIR is set by the parent to a directory inside the checkout.
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=os.environ["TMPDIR"]))
    try:
        import workloads  # imports numpy and weylgrowth: part of set-up

        result["numpy"] = sys.modules["numpy"].__version__

        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        setup, run_pass = workloads.WORKLOADS[args.workload]
        inputs = setup(args.seed, tmp, wrong=args.mode == "selfcheck")
        result["setup_s"] = time.monotonic() - args.spawned_at
        if inputs["errors"]:
            result["failed"] = 1
            result["errors"] += inputs["errors"]
        if args.mode != "setup":
            if tracer is not None:
                tracer.pass_id = args.pass_id
            start = time.perf_counter()
            outcome = run_pass(inputs)
            result["solve_s"] = time.perf_counter() - start
            result["attempted"] += outcome.attempted
            result["failed"] += outcome.failed
            result["errors"] += outcome.errors
            result["work"] = outcome.work
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                result["layers"] = tracer.layer_metrics(outcome)
                result["spans"] = tracer.span_records()
                result["pass_id"] = args.pass_id
    except Exception:
        result["attempted"] += 1
        result["failed"] += 1
        result["errors"].append(traceback.format_exc(limit=-3))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
