"""One round of each workload: run every operation once, time it and check it.

Library rounds call classify_interval in this process; CLI rounds run
one `python -m lplc.cli` subprocess at a time. Both are closed loops with
a single caller. Timing covers the call (or the subprocess from spawn to
exit) and nothing else; the oracle checks run after the clock stops.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import corpus
import oracles
import tracer

perf_counter = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_CHILD = HERE / "cli_child.py"
SUBPROCESS_TIMEOUT_S = 120.0


def child_env() -> dict:
    """Environment of every subprocess: lplc from this tree's src/, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Round:
    """Outcome of one pass over a corpus."""

    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0  # failed operations whose output was checked and found wrong
    errors: List[str] = field(default_factory=list)
    report_bytes: int = 0

    def record(self, latency_s: float, errors: List[str], *, raised: bool = False) -> None:
        self.latencies_s.append(latency_s)
        if errors:
            self.failed += 1
            self.wrong += not raised
            self.errors.extend(errors)


# -- library workloads -------------------------------------------------------


def build_subjects(problems: List[corpus.Problem]) -> list:
    """Decode each problem into the object classify_interval takes."""
    from lplc import potentials

    subjects = []
    for p in problems:
        q = potentials.from_dict(p.potential)
        subjects.append(q if p.n is None else potentials.effective_potential(q, p.n, p.l))
    return subjects


def result_from_report(report) -> oracles.Result:
    def endpoint(cls):
        ratio = cls.tail.fitted_ratio if cls.tail is not None else None
        return oracles.EndpointResult(cls.engine.value, cls.verdict.value, ratio)

    if report.indices is None:
        return oracles.Result(endpoint(report.left), endpoint(report.right), None, oracles.INCONCLUSIVE, None)
    sa = report.self_adjointness
    indices = (report.indices.n_plus, report.indices.n_minus)
    return oracles.Result(endpoint(report.left), endpoint(report.right), indices, sa.label(), sa.extension_dimension)


def library_round(problems, subjects, rec: Optional[tracer.Recorder] = None) -> Round:
    """classify_interval on every problem; spans recorded when `rec` is given."""
    from lplc import classify

    out = Round()
    for i, (problem, subject) in enumerate(zip(problems, subjects)):
        root = None
        if rec is not None:
            rec.op = i
            root = rec.begin("op")
        report = error = None
        t0 = perf_counter()
        try:
            report = classify.classify_interval(subject, problem.a, problem.b, engine=problem.engine)
        except Exception:  # a raising operation is counted as failed, the round goes on
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        if root is not None:
            rec.end(root)
        if error is not None:
            out.record(t1 - t0, [f"{problem.kind}: {error}"], raised=True)
        else:
            out.record(t1 - t0, oracles.check_result(problem, result_from_report(report)))
    return out


# -- CLI workload --------------------------------------------------------------


def check_invocation(inv: corpus.Invocation, code: int, stdout: str) -> List[str]:
    kind = inv.kind
    if kind.startswith("classify."):
        return oracles.check_classify_cli(inv.problem, code, stdout)
    if kind == "extensions.c":
        return oracles.check_extensions_json(inv.params["c"], code, stdout)
    if kind == "extensions.sweep":
        return oracles.check_extensions_sweep(inv.argv, code, stdout)
    if kind == "effective_potential":
        return oracles.check_effective_potential(inv.params, inv.argv, code, stdout)
    if kind.startswith("regularity_demo."):
        return oracles.check_regularity_demo(kind.rsplit(".", 1)[1], inv.params, code, stdout)
    raise ValueError(f"no check for {kind}")


def cli_round(invocations, env: dict, rec: Optional[tracer.Recorder] = None) -> Round:
    """One subprocess per invocation, one at a time.

    Untraced rounds run `python -m lplc.cli`; traced rounds run the same
    main() through cli_child.py, which reports its spans on stderr.
    """
    out = Round()
    for i, inv in enumerate(invocations):
        stdin = json.dumps(inv.problem.to_json()) if inv.problem is not None else ""
        if rec is None:
            cmd = [sys.executable, "-m", "lplc.cli", *inv.argv]
        else:
            cmd = [sys.executable, str(CLI_CHILD), *inv.argv]
            rec.op = i
            root = rec.begin("op")
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                cmd, input=stdin, capture_output=True, text=True, env=env, cwd=ROOT, timeout=SUBPROCESS_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            if rec is not None:
                rec.end(root)
            out.record(perf_counter() - t0, [f"{inv.kind}: timed out after {SUBPROCESS_TIMEOUT_S} s"], raised=True)
            continue
        t1 = perf_counter()
        if rec is not None:
            rec.end(root)
            _adopt_child_trace(rec, root, proc.stderr)
        out.report_bytes += len(proc.stdout.encode())
        try:
            errors = check_invocation(inv, proc.returncode, proc.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparsable output
            errors = [f"{exc!r}; stderr: {proc.stderr[-300:]}"]
        out.record(t1 - t0, [f"{inv.kind} {' '.join(inv.argv)}: {e}" for e in errors])
    return out


def _adopt_child_trace(rec: tracer.Recorder, root: int, stderr: str) -> None:
    """Place the child's spans under the operation's root span.

    interp runs from spawn to the child's first statement; exit from the
    end of main() to the parent seeing the child gone.
    """
    child = json.loads(stderr.rstrip().rsplit("\n", 1)[-1])
    start, end = rec.spans[root][tracer.START], rec.spans[root][tracer.END]
    rec.add("cli.interp", start, child["t_start"], parent=root)
    main_end = max(s[tracer.END] for s in child["spans"] if s[tracer.NAME] == "cli.main")
    rec.merge(child["spans"], root)
    rec.add("cli.exit", main_end, end, parent=root)
    rec.counts.update(child["counts"])


# -- set-up probes ------------------------------------------------------------


def setup_probe_cmd(workload: str, seed: int) -> List[str]:
    """A fresh process that gets ready for the workload and prints the clock.

    Library workloads: start, import lplc, generate and decode the corpus.
    cli: a cold `import lplc.cli`, which every invocation pays.
    """
    if workload == "cli":
        return [sys.executable, "-c", "import time, lplc.cli; print(repr(time.perf_counter()))"]
    return [sys.executable, str(HERE / "probe.py"), workload, str(seed)]


def setup_sample(cmd: List[str], env: dict) -> float:
    """Seconds from spawn to the probe's ready point."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=SUBPROCESS_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - t0
