"""Benchmark of lplc, end to end and layer by layer.

    python3 perfbench/run.py --workload {infinity,origin,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source tree: lplc is imported from ./src (and the
CLI run with PYTHONPATH=src), so the code measured is the code in the
tree. The seed draws the workload's problems; a run repeats whole rounds
of them until S seconds of operations have passed and, untraced, at least
MIN_OPS operations are done. Every output is checked against the oracles
in oracles.py. The last line of standard output is one JSON object:
correct, attempted, failed and the metrics, end-to-end ones with
--trace 0 and per-layer ones (per round) with --trace 1. Raw results and
spans go to perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import corpus
import tracer
import workloads

SRC = workloads.SRC
OUT = workloads.HERE / "out"
MIN_OPS = 100  # so that the 90th percentile has at least ten samples beyond it
SETUP_SAMPLES = 7
WORKLOADS = ("infinity", "origin", "cli")
EVAL_TYPES = {
    "zero": {"type": "zero"},
    "inverse_square": {"type": "inverse_square", "c": 0.75},
    "coulomb": {"type": "coulomb", "z": -1.0},
    "power_law": {"type": "power_law", "c": 0.5, "p": -1.5},
    "harmonic": {"type": "harmonic", "k": 1.0},
    "sum": {"type": "sum", "terms": [{"type": "coulomb", "z": -1.0}, {"type": "inverse_square", "c": 2.0}]},
    "tabulated": {"type": "tabulated", "x": [0.04 * i for i in range(301)], "q": [((-1) ** i) * 0.01 * i for i in range(301)]},
}

perf_counter = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def blas_config() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"numpy": np.__version__, "blas": info.get("name"), "version": info.get("version"), "thread_env": threads}


class Workload:
    """A workload's corpus and how to run one round of it."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.items = corpus.CORPORA[name](seed)
        self.env = workloads.child_env()
        self.probe = workloads.setup_probe_cmd(name, seed)
        if name != "cli":
            self.subjects = workloads.build_subjects(self.items)

    def round(self, rec=None):
        if self.name == "cli":
            return workloads.cli_round(self.items, self.env, rec)
        if rec is None:
            return workloads.library_round(self.items, self.subjects)
        tracer.install(rec)
        try:
            return workloads.library_round(self.items, self.subjects, rec)
        finally:
            rec.uninstall()

    def setup_sample(self) -> float:
        return workloads.setup_sample(self.probe, self.env)


def summary(rounds) -> dict:
    return {
        "attempted": sum(len(r.latencies_s) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "wrong": sum(r.wrong for r in rounds),
        "errors": [e for r in rounds for e in r.errors],
    }


def run_untraced(w: Workload, seconds: float):
    w.setup_sample()  # fills byte-code caches; users do not pay that on every start
    setup, rounds, busy = [], [], 0.0
    while True:
        if len(setup) < SETUP_SAMPLES:
            setup.append(w.setup_sample())
        t0 = perf_counter()
        rounds.append(w.round())
        busy += perf_counter() - t0
        if busy >= seconds and sum(len(r.latencies_s) for r in rounds) >= MIN_OPS:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(w.setup_sample())
    lat = [t for r in rounds for t in r.latencies_s]
    usage = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"rounds": len(rounds), "setup_samples_s": setup, "latencies_s": lat, "kinds": [i.kind for i in w.items]}
    return metrics, summary(rounds), raw


def eval_ns(repeats: int = 7) -> dict:
    """Untraced ns per evaluate() call for each potential type, on fixed abscissas."""
    from lplc import potentials

    xs = [0.05 + 0.01 * i for i in range(1000)]
    cases = {name: potentials.from_dict(spec) for name, spec in EVAL_TYPES.items()}
    cases["mirrored"] = potentials.Mirrored(potentials.Harmonic(1.0))
    out = {}
    for name, q in cases.items():
        samples = []
        for _ in range(repeats):
            t0 = perf_counter()
            for x in xs:
                potentials.evaluate(q, x)
            samples.append((perf_counter() - t0) / len(xs) * 1e9)
        out[f"potentials.eval_ns.{name}"] = metric(statistics.median(samples), "ns")
    return out


def run_traced(w: Workload, seconds: float):
    """Alternate untraced and traced rounds; per-layer figures are per traced round."""
    rec = tracer.Recorder()
    plain, traced, busy = [], [], 0.0
    while busy < seconds:
        t0 = perf_counter()
        plain.append(w.round())
        traced.append(w.round(rec))
        busy += perf_counter() - t0
    k = len(traced)
    by_name, evals = tracer.self_times(rec.spans)
    layer = {}
    for name, seconds_ in by_name.items():
        key = "unattributed" if name == "op" else name.split(".")[0]
        layer[key] = layer.get(key, 0.0) + seconds_
    counts = rec.counts
    per = lambda v: v / k
    total = sum(by_name.values())
    round_time = lambda rounds: sum(sum(r.latencies_s) for r in rounds) / len(rounds)
    cli_span = lambda name: per(tracer.span_total(rec.spans, name))
    metrics = {
        "potentials.evals": metric(per(evals), "count"),
        "potentials.self_s": metric(per(layer.get("potentials", 0.0)), "s"),
        **eval_ns(),
        "odeint.calls": metric(per(counts["odeint.calls"]), "count"),
        "odeint.grid_points": metric(per(counts["odeint.grid_points"]), "count"),
        "odeint.self_s": metric(per(layer.get("odeint", 0.0)), "s"),
        "odeint.us_per_eval": metric(layer.get("odeint", 0.0) / evals * 1e6 if evals else 0.0, "us"),
        "classify.endpoints_numeric": metric(per(counts["classify.endpoints_numeric"]), "count"),
        "classify.endpoints_asymptotic": metric(per(counts["classify.endpoints_asymptotic"]), "count"),
        "classify.shells": metric(per(counts["classify.shells"]), "count"),
        "classify.shell_yield": metric(
            counts["classify.shells"] / counts["odeint.calls"] if counts["odeint.calls"] else 0.0, "ratio"
        ),
        "classify.decisive_endpoints": metric(per(counts["classify.decisive_endpoints"]), "count"),
        "classify.self_s": metric(per(layer.get("classify", 0.0)), "s"),
        "quadrature.calls": metric(per(counts["quadrature.calls"]), "count"),
        "quadrature.self_s": metric(per(layer.get("quadrature", 0.0)), "s"),
        "cli.interp_s": metric(cli_span("cli.interp"), "s"),
        "cli.import_s": metric(cli_span("cli.import"), "s"),
        "cli.main_s": metric(cli_span("cli.main"), "s"),
        "cli.encode_s": metric(per(by_name.get("cli.main", 0.0)), "s"),
        "cli.exit_s": metric(cli_span("cli.exit"), "s"),
        "cli.self_s": metric(per(layer.get("cli", 0.0)), "s"),
        "cli.report_bytes": metric(per(sum(r.report_bytes for r in traced)), "bytes"),
        "extensions.calls": metric(per(counts["extensions.calls"]), "count"),
        "extensions.self_s": metric(per(layer.get("extensions", 0.0)), "s"),
        "tracing.total_s": metric(per(total), "s"),
        "tracing.unattributed_s": metric(per(layer.get("unattributed", 0.0)), "s"),
        "tracing.overhead_s": metric(round_time(traced) - round_time(plain), "s"),
    }
    fields = ["name", "start", "end", "parent", "op", "leaf_s", "leaf_n"]
    raw = {"rounds_traced": k, "rounds_untraced": len(plain), "layer_self_s": layer, "self_s_by_span": by_name}
    spans = {"fields": fields, "spans": rec.spans}
    return metrics, summary(plain + traced), raw, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lplc" / "__init__.py").is_file():
        print(f"perfbench: no lplc source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lplc

    if Path(lplc.__file__).resolve().parent != SRC / "lplc":
        print(f"perfbench: imported lplc from {lplc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w = Workload(args.workload, args.seed)
    spans = None
    if args.trace:
        metrics, outcome, raw, spans = run_traced(w, args.seconds)
    else:
        metrics, outcome, raw = run_untraced(w, args.seconds)
    errors = outcome.pop("errors")
    wrong = outcome.pop("wrong")
    for line in errors[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw.update(args=vars(args), blas=blas_config(), errors=errors, wrong=wrong, metrics=metrics, **outcome)
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps({"correct": wrong == 0, **outcome, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
