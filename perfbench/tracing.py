"""Timing wrappers around the public names of weylgrowth, and their summary.

The wrappers are installed from the benchmark's side, in the traced
child only; the package itself carries no tracing.  A name is wrapped
where callers bind it (``weylgrowth.cli.ratio_fit``) and at module level
(``weylgrowth.series.series_div``), so internal calls such as
``affine_poincare`` calling ``series_div`` are caught as child spans.
Spans stay in memory and are handed to the parent when the child ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from weylgrowth import algebra, cli, series, weyl

SERIES_NAMES = ("series_div", "ratio_fit", "affine_poincare", "series_mul",
                "finite_poincare", "cyclotomic_trial_division")
ALGEBRA_NAMES = ("build_catalog", "invariant_degrees", "load_gcm_file")

# Span fields, in order; a span is a list so the wrapper can fill it in.
NAME, START, END, PARENT, PASS, AMOUNT = range(6)


def _series_div_terms(args, kwargs, _result) -> int:
    order = kwargs["order"] if "order" in kwargs else args[2]
    return order + 1


def _saved_bytes(args, kwargs, _result) -> int:
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


class Tracer:
    """Collects one span per call of a wrapped name: name, start, end,
    parent span index, pass id and an optional amount (terms, bytes)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, amount=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.pass_id, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        def patch(owner, attr, name, amount=None):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), amount))

        functions = [("series", series, attr) for attr in SERIES_NAMES]
        functions += [("algebra", algebra, attr) for attr in ALGEBRA_NAMES]
        functions.append(("weyl", weyl, "enumerate_levels"))
        for layer, module, attr in functions:
            name = f"{layer}.{attr}"
            amount = _series_div_terms if attr == "series_div" else None
            patch(module, attr, name, amount)
            if hasattr(cli, attr):  # the names cli binds at import
                patch(cli, attr, name, amount)
        patch(series.IntPolynomial, "exact_quotient", "series.IntPolynomial.exact_quotient")
        patch(weyl.LevelCheckpoint, "save", "weyl.LevelCheckpoint.save", _saved_bytes)
        weyl.LevelCheckpoint.load = staticmethod(
            self.wrap("weyl.LevelCheckpoint.load", weyl.LevelCheckpoint.load))
        patch(cli, "main", "cli.main")

    def layer_metrics(self, outcome) -> dict[str, float]:
        """Per-layer figures of this child's setup and pass."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        amount = defaultdict(int)
        for i, span in enumerate(spans):
            name = span[NAME]
            total[name] += span[END] - span[START]
            self_s[name] += span[END] - span[START] - covered[i]
            calls[name] += 1
            amount[name] += span[AMOUNT]

        saves = [i for i, s in enumerate(spans) if s[NAME] == "weyl.LevelCheckpoint.save"]
        level_last = 0.0
        checkpoint_bytes = 0
        if saves:
            last = spans[saves[-1]]
            checkpoint_bytes = last[AMOUNT]
            # Cost of the level written last: from the previous checkpoint
            # event (save or load) of the same enumeration call, or from the
            # call's start, to the start of that save.
            marks = [s[END] for s in spans
                     if s[PARENT] == last[PARENT] and s[END] <= last[START]
                     and s[NAME] in ("weyl.LevelCheckpoint.save", "weyl.LevelCheckpoint.load")]
            since = max(marks) if marks else spans[last[PARENT]][START]
            level_last = last[START] - since
        loaded_in = {s[PARENT] for s in spans if s[NAME] == "weyl.LevelCheckpoint.load"}
        resume_s = sum((spans[i][END] - spans[i][START] for i in loaded_in if i is not None), 0.0)

        out = {
            "weyl.enumerate_levels.self_s": self_s["weyl.enumerate_levels"],
            "weyl.enumerate_levels.calls": calls["weyl.enumerate_levels"],
            "weyl.elements": outcome.elements,
            "weyl.candidates": outcome.candidates,
            "weyl.useful_frac": outcome.elements / outcome.candidates if outcome.candidates else 0.0,
            "weyl.LevelCheckpoint.save.s": total["weyl.LevelCheckpoint.save"],
            "weyl.LevelCheckpoint.save.calls": calls["weyl.LevelCheckpoint.save"],
            "weyl.LevelCheckpoint.save.bytes": amount["weyl.LevelCheckpoint.save"],
            "weyl.LevelCheckpoint.load.s": total["weyl.LevelCheckpoint.load"],
            "weyl.checkpoint_bytes": checkpoint_bytes,
            "weyl.level_s.last": level_last,
            "weyl.resume_s": resume_s,
            "series.series_div.calls": calls["series.series_div"],
            "series.series_div.terms": amount["series.series_div"],
            "series.IntPolynomial.exact_quotient.self_s": self_s["series.IntPolynomial.exact_quotient"],
            "series.IntPolynomial.exact_quotient.calls": calls["series.IntPolynomial.exact_quotient"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.stdout_bytes": outcome.stdout_bytes,
        }
        for attr in SERIES_NAMES:
            out[f"series.{attr}.self_s"] = self_s[f"series.{attr}"]
        for attr in ALGEBRA_NAMES:
            out[f"algebra.{attr}.s"] = total[f"algebra.{attr}"]
        return out

    def span_records(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "pass": s[PASS], "amount": s[AMOUNT]} for s in self.spans]
