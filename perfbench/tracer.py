"""Spans and counters around calls into lplc's layers, for the traced run.

Nothing under src/ is edited. The recorder replaces the module attributes
that lplc's callers look up at call time (classify's own references to
integrate_grid and log_trapezoid, odeint's reference to evaluate, the
extensions functions the CLI calls through its module alias) with timing
wrappers, and puts the originals back on uninstall.

A span is [name, start, end, parent, op, leaf_s, leaf_n]: parent is the
index of the enclosing span (None for an operation's root), op the index
of the operation in its round, and leaf_s / leaf_n the time and number of
potential evaluations made while the span was open. Evaluations are too
many to keep one span each (tens of thousands per operation), so they are
summed into the spans that enclose them. A span's self time is its
duration minus its children's durations minus the evaluations made
directly inside it; those evaluations are the potentials layer's time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Dict, List, Tuple

perf_counter = time.perf_counter

NAME, START, END, PARENT, OP, LEAF_S, LEAF_N = range(7)
EXTENSIONS_CALLED_BY_CLI = (
    "boundary_condition",
    "adjoint_ratio",
    "sequence_f_boundary",
    "sequence_f_l2_distance",
    "sequence_g_boundary",
    "sequence_g_l2_distance",
)


class Recorder:
    """Spans kept in memory for one process; written out when the run ends."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = None
        self.leaf_s = 0.0
        self.leaf_n = 0
        self.counts: Counter = Counter()
        self._patches: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, 0.0, None, parent, self.op, self.leaf_s, self.leaf_n])
        self.stack.append(idx)
        self.spans[idx][START] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[LEAF_S] = self.leaf_s - span[LEAF_S]
        span[LEAF_N] = self.leaf_n - span[LEAF_N]
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent=None, leaf_s=0.0, leaf_n=0) -> int:
        """Record a span whose times were taken elsewhere (another process)."""
        self.spans.append([name, start, end, parent, self.op, leaf_s, leaf_n])
        return len(self.spans) - 1

    def merge(self, spans: List[list], parent: int) -> None:
        """Adopt a child process's spans under the ended span `parent`.

        The monotonic clock is shared between processes on one machine, so
        the child's times need no offset. Evaluations the child made count
        as made inside `parent`.
        """
        base = len(self.spans)
        for name, start, end, par, _, leaf_s, leaf_n in spans:
            self.add(name, start, end, parent if par is None else base + par, leaf_s, leaf_n)
            if par is None:
                self.spans[parent][LEAF_S] += leaf_s
                self.spans[parent][LEAF_N] += leaf_n

    # -- patching ------------------------------------------------------------

    def patch(self, module, attr: str, name: str, after=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self.counts, args, out)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def patch_leaf(self, module, attr: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(q, x):
            t0 = perf_counter()
            try:
                return fn(q, x)
            finally:
                self.leaf_s += perf_counter() - t0
                self.leaf_n += 1

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def _count_report(counts, args, report) -> None:
    for ep in (report.left, report.right):
        if ep.engine.value != "numeric":
            counts["classify.endpoints_asymptotic"] += 1
            continue
        counts["classify.endpoints_numeric"] += 1
        counts["classify.shells"] += sum(len(t.shell_integrals) for t in ep.tails)
        if ep.verdict.value != "inconclusive":
            counts["classify.decisive_endpoints"] += 1


def _count_grid(counts, args, trace) -> None:
    counts["odeint.calls"] += 1
    counts["odeint.grid_points"] += len(trace.x)


def _count(key):
    def after(counts, args, out):
        counts[key] += 1

    return after


def install(rec: Recorder) -> None:
    """Wrap the layer entry points that lplc's callers reach."""
    from lplc import classify, extensions, odeint

    rec.patch(classify, "classify_interval", "classify.classify_interval", _count_report)
    rec.patch(classify, "integrate_grid", "odeint.integrate_grid", _count_grid)
    rec.patch(classify, "concatenate_traces", "odeint.concatenate_traces")
    rec.patch(classify, "log_trapezoid", "quadrature.log_trapezoid", _count("quadrature.calls"))
    rec.patch_leaf(odeint, "evaluate")
    for attr in EXTENSIONS_CALLED_BY_CLI:
        rec.patch(extensions, attr, f"extensions.{attr}", _count("extensions.calls"))


def self_times(spans: List[list]) -> Tuple[Dict[str, float], int]:
    """Self time per span name, and the number of potential evaluations.

    Evaluations made directly inside a span are filed under
    "potentials.evaluate"; root spans ("op") give the time no layer span
    covers. The times sum to the total duration of the root spans.
    """
    child_s = [0.0] * len(spans)
    child_leaf = [(0.0, 0)] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            s, n = child_leaf[span[PARENT]]
            child_s[span[PARENT]] += span[END] - span[START]
            child_leaf[span[PARENT]] = (s + span[LEAF_S], n + span[LEAF_N])
    out: Dict[str, float] = Counter()
    evals = 0
    for i, span in enumerate(spans):
        direct_leaf = span[LEAF_S] - child_leaf[i][0]
        evals += span[LEAF_N] - child_leaf[i][1]
        out[span[NAME]] += span[END] - span[START] - child_s[i] - direct_leaf
        out["potentials.evaluate"] += direct_leaf
    return out, evals


def span_total(spans: List[list], name: str) -> float:
    """Summed duration of the spans called `name`."""
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)
