"""Same answers as a gate: a digest of every benchmark problem's verdicts.

tests/data/answers/<workload>-<seed>.json holds, for each problem of the
`infinity` and `origin` corpora of perfbench/corpus.py at the default and
the hold-out seed, each endpoint's verdict, engine and shell logs, the
logs as float.hex, and the attempted steps of each marched end: one count
per stepper that classify builds, in the order the ends are marched. The
test recomputes the digest in process and compares it entry for entry,
so a change that moves one shell log by one ulp, or one end's step
sequence by one attempt, fails here. Regenerate the files only on purpose, with

    PYTHONPATH=src python tests/test_answers.py --regenerate

in a commit of its own, and add a CHANGES.md entry naming every verdict
that moved and the largest change in a shell log. --dump and --compare
check further seeds against another tree in the same way (see USAGE).
"""

import importlib.util
import json
import math
import sys
from pathlib import Path
from unittest import mock

import pytest

import lplc.classify
from lplc.classify import classify_interval
from lplc.potentials import effective_potential, from_dict

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data" / "answers"
WORKLOADS = ("infinity", "origin")


def _corpus_module():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


CORPUS = _corpus_module()
CASES = [(w, s) for w in WORKLOADS for s in (CORPUS.DEFAULT_SEED, CORPUS.HOLDOUT_SEED)]


def digest(workload: str, seed: int) -> list:
    """One entry per problem: its kind, per endpoint verdict, engine and shell logs, and per marched end its steps."""
    built = []

    class Counted(lplc.classify._Stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    out = []
    with mock.patch.object(lplc.classify, "_Stepper", Counted):
        for problem in CORPUS.CORPORA[workload](seed):
            q = from_dict(problem.potential)
            subject = q if problem.n is None else effective_potential(q, problem.n, problem.l)
            built.clear()
            report = classify_interval(subject, problem.a, problem.b, engine=problem.engine)
            ends = []
            for ep in (report.left, report.right):
                logs = [] if ep.tail is None else [float.hex(v) for v in ep.tail.log_shell_integrals]
                ends.append({"verdict": ep.verdict.value, "engine": ep.engine.value, "logs": logs})
            out.append({"kind": problem.kind, "ends": ends, "steps": [s.steps for s in built]})
    return out


def path_of(workload: str, seed: int) -> Path:
    return DATA / f"{workload}-{seed}.json"


@pytest.mark.parametrize("workload, seed", CASES)
def test_answers_match_the_digest(workload, seed):
    expected = json.loads(path_of(workload, seed).read_text(encoding="utf-8"))
    actual = digest(workload, seed)
    assert len(actual) == len(expected)
    for i, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"{workload} seed {seed}, problem {i} ({want['kind']})"


def compare(old: list, new: list) -> tuple:
    """What moved between two digests: (verdicts, counts, largest shell-log change, where it lies).

    The first two are lists of lines: one per end whose verdict moved, and
    one per end whose shell count changed or problem whose attempted steps
    changed; the largest change is the absolute difference of two logs at
    one shell, infinite when only one of them is finite, and `where` names
    its problem, kind, side and shell, or is None when no log moved.
    """
    moved, recounted, largest, where = [], [], 0.0, None
    for i, (a, b) in enumerate(zip(old, new)):
        if a.get("steps") != b.get("steps"):
            recounted.append(f"{i} {a['kind']}: steps {a.get('steps')} -> {b.get('steps')}")
        for side, ea, eb in zip(("left", "right"), a["ends"], b["ends"]):
            end = f"{i} {a['kind']} {side}"
            if (ea["verdict"], ea["engine"]) != (eb["verdict"], eb["engine"]):
                moved.append(f"{end}: {ea['verdict']} -> {eb['verdict']}")
            if len(ea["logs"]) != len(eb["logs"]):
                recounted.append(f"{end}: {len(ea['logs'])} -> {len(eb['logs'])} shells")
            for k, (u, v) in enumerate(zip(ea["logs"], eb["logs"])):
                u, v = float.fromhex(u), float.fromhex(v)
                change = abs(u - v) if math.isfinite(u) and math.isfinite(v) else (math.inf if u != v else 0.0)
                if change > largest:
                    largest, where = change, f"problem {end}, shell {k}"
    return moved, recounted, largest, where


def _made_up(*ends) -> list:
    """A one-problem digest of kind `k`, one end per (verdict, logs) pair."""
    return [{"kind": "k", "ends": [{"verdict": v, "engine": "numeric", "logs": [float.hex(x) for x in logs]} for v, logs in ends]}]


def test_compare_reports_a_changed_shell_count():
    old = _made_up(("LP", [1.0, 2.0, 3.0, 4.0]), ("LC", [1.0, 0.5, 0.25, 0.125, 0.0625]))
    new = _made_up(("LP", [1.0, 2.0, 3.0, 4.0, 5.0]), ("LC", [1.0, 0.5, 0.25, 0.125, 0.0625]))
    assert compare(old, new) == ([], ["0 k left: 4 -> 5 shells"], 0.0, None)


def test_compare_reports_changed_steps():
    old = [{**_made_up(("LP", [1.0, 2.0, 3.0, 4.0]), ("LC", [1.0, 0.5, 0.25, 0.125]))[0], "steps": [40, 90]}]
    new = [{**old[0], "steps": [40, 91]}]
    assert compare(old, new) == ([], ["0 k: steps [40, 90] -> [40, 91]"], 0.0, None)


def test_compare_names_where_the_largest_change_lies():
    old = _made_up(("LP", [1.0, 2.0, 3.0, 4.0]), ("LC", [1.0, 0.5, 0.25, 0.125]))
    new = _made_up(("LP", [1.0, 2.0 + 1e-9, 3.0, 4.0]), ("inconclusive", [1.0, 0.5, 0.25 + 1e-6, 0.125]))
    moved, recounted, largest, where = compare(old, new)
    assert (moved, recounted, where) == (["0 k right: LC -> inconclusive"], [], "problem 0 k right, shell 2")
    assert largest == abs((0.25 + 1e-6) - 0.25)


def test_compare_counts_a_log_that_leaves_float_range_as_the_largest_change():
    old = _made_up(("LC", [1.0, 0.5, 0.25, 0.125]), ("LC", [1.0, 0.5, 0.25, -math.inf]))
    new = _made_up(("LC", [1.0, 0.5, 0.25, -math.inf]), ("LC", [1.0, 0.5, 0.25, -math.inf]))
    assert compare(old, new) == ([], [], math.inf, "problem 0 k left, shell 3")


def _regenerate() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for workload, seed in CASES:
        path = path_of(workload, seed)
        new = digest(workload, seed)
        if path.exists():
            _report(path.name, json.loads(path.read_text(encoding="utf-8")), new)
        path.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")


def _report(name: str, old: list, new: list) -> None:
    moved, recounted, largest, where = compare(old, new)
    at = f" ({where})" if where else ""
    print(f"{name}: {len(moved)} moved verdicts, {len(recounted)} changed shell or step counts, largest shell-log change {largest:.3g}{at}")
    for line in moved + recounted:
        print(f"  {line}")


USAGE = """usage: PYTHONPATH=src python tests/test_answers.py --regenerate
       PYTHONPATH=<src of any tree> python tests/test_answers.py --dump FILE SEED [SEED ...]
       PYTHONPATH=src python tests/test_answers.py --compare OLD_FILE NEW_FILE

--dump writes the digest of both corpora at other seeds, for the lplc on
PYTHONPATH; --compare reports what moved between two dumps: verdicts,
shell and step counts and the largest shell-log change, with where it
lies."""


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--regenerate"]:
        _regenerate()
    elif len(args) >= 3 and args[0] == "--dump":
        dump = {f"{w}-{seed}": digest(w, int(seed)) for w in WORKLOADS for seed in args[2:]}
        Path(args[1]).write_text(json.dumps(dump), encoding="utf-8")
    elif len(args) == 3 and args[0] == "--compare":
        old, new = (json.loads(Path(f).read_text(encoding="utf-8")) for f in args[1:])
        for key in sorted(old):
            _report(key, old[key], new[key])
    else:
        raise SystemExit(USAGE)
