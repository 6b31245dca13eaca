"""Tests of the benchmark itself: its oracles, its corpora and its tracer.

    python -m pytest perfbench

The oracles are tested on textbook cases only, never against lplc's output.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracles import LC, LP, EndpointResult  # noqa: E402


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("l", range(0, 5))
def test_free_particle_table(n, l):
    """-Laplacian in n dimensions, angular momentum l: LP at 0 iff l + n/2 >= 2."""
    assert oracles.origin_class(oracles.rho(n, l)) == (LP if 2 * l + n >= 4 else LC)


def test_three_quarters_is_limit_point():
    problem = corpus.Problem("t", {"type": "inverse_square", "c": 0.75}, 0.0, 1.0, engine="numeric")
    exp = oracles.expected(problem, "left")
    assert exp.klass == LP and exp.ratio == 1.0
    assert oracles.origin_class(Fraction(3, 4) - Fraction(1, 10**12)) == LC
    # at the threshold the numeric engine may abstain, never say LC
    assert oracles.check_endpoint(problem, "left", EndpointResult("numeric", "inconclusive", 1.0)) == []
    assert oracles.check_endpoint(problem, "left", EndpointResult("numeric", LC, 0.99))


def test_centrifugal_coefficient_adds_to_the_potentials_own():
    spec = {"type": "sum", "terms": [{"type": "coulomb", "z": -1.0}, {"type": "inverse_square", "c": 0.5}]}
    problem = corpus.Problem("t", spec, 0.0, 1.0, 3, 1)
    assert oracles.origin_coefficient(problem) == Fraction(5, 2)
    assert oracles.inverse_square_coefficient({"type": "power_law", "c": 1.0, "p": -2.5}) is None


def test_sears_and_regular_endpoints():
    harmonic_line = corpus.Problem("t", {"type": "harmonic", "k": -3.0}, -math.inf, math.inf)
    assert oracles.expected(harmonic_line, "left").klass == LP
    with pytest.raises(ValueError):
        oracles.expected(corpus.Problem("t", {"type": "power_law", "c": -1.0, "p": 4.0}, 0.0, math.inf), "right")
    free = corpus.Problem("t", {"type": "coulomb", "z": 1.0}, 0.0, 2.0, engine="numeric")
    assert oracles.expected(free, "right") == oracles.Expectation(LC, 0.5, False)


def test_numeric_verdict_must_be_decisive_far_from_the_threshold():
    problem = corpus.Problem("t", {"type": "inverse_square", "c": 2.0}, 0.0, 1.0, engine="numeric")
    assert oracles.check_endpoint(problem, "left", EndpointResult("numeric", "inconclusive", 2.0))
    assert oracles.check_endpoint(problem, "left", EndpointResult("numeric", LP, 2.0)) == []
    # inverse square with c >= 0.3: the fitted ratio is 2^(2 nu - 2) = 2 here
    assert oracles.check_endpoint(problem, "left", EndpointResult("numeric", LP, 2.01))


def test_composition():
    problem = corpus.Problem("t", {"type": "zero"}, 0.0, math.inf, 3, 0)
    left, right = EndpointResult("asymptotic", LC, None), EndpointResult("numeric", LP, 5.0)
    good = oracles.Result(left, right, (1, 1), "needs_boundary_conditions", 1)
    assert oracles.check_result(problem, good) == []
    assert oracles.check_result(problem, oracles.Result(left, right, (0, 0), "essentially_self_adjoint", 0))


def test_dirichlet_and_neumann_pairs():
    root2 = math.sqrt(2.0)
    # c = pi: xi(0) = 0, xi'(0) = i sqrt 2, so only beta = 0 annihilates xi
    assert oracles.check_extension_row(math.pi, 1.0, 0.0, [0.0, None], "dirichlet", True) == []
    assert oracles.check_extension_row(math.pi, 0.0, 1.0, [0.0, None], "neumann", True)
    # c = pi/2: xi(0) = 1 + i, xi'(0) = 0
    assert oracles.check_extension_row(math.pi / 2, 0.0, 1.0, [None, 0.0], "neumann", True) == []
    assert oracles.check_extension_row(math.pi / 2, 1 / root2, 1 / root2, [None, 0.0], "generic", True)


def test_regularity_demo_oracle():
    # a = 1. n = 1: |0 + 2x|^2 over [0, 1) is 4/3; n = 2: |1/4 + x|^2 gives (125/64 - 1/64)/3 = 31/48
    good = (
        "n,value_at_0,derivative_at_0,l2_distance_to_limit\n"
        f"1,0.0,2.0,{math.sqrt(4 / 3)!r}\n"
        f"2,0.25,1.0,{math.sqrt(31 / 48)!r}\n"
    )
    assert oracles.check_regularity_demo("g", {"a": 1.0, "n_max": 2}, 0, good) == []
    assert oracles.check_regularity_demo("g", {"a": 1.0, "n_max": 2}, 0, good.replace("0.25", "0.26"))


@pytest.mark.parametrize("name", sorted(corpus.CORPORA))
def test_one_seed_always_gives_the_same_problems(name):
    make = corpus.CORPORA[name]
    assert make(corpus.DEFAULT_SEED) == make(corpus.DEFAULT_SEED)
    assert make(corpus.DEFAULT_SEED) != make(corpus.HOLDOUT_SEED)
    assert [p.kind for p in make(corpus.DEFAULT_SEED)] == [p.kind for p in make(corpus.HOLDOUT_SEED)]


@pytest.mark.parametrize("name", ["infinity", "origin"])
def test_holdout_seed_round_has_no_failures(name):
    problems = corpus.CORPORA[name](corpus.HOLDOUT_SEED)
    result = workloads.library_round(problems, workloads.build_subjects(problems))
    assert result.failed == 0, result.errors
    assert len(result.latencies_s) == len(problems)


def test_holdout_seed_cli_round_has_no_failures():
    invocations = corpus.CORPORA["cli"](corpus.HOLDOUT_SEED)
    result = workloads.cli_round(invocations, workloads.child_env())
    assert result.failed == 0, result.errors


def test_layer_self_times_account_for_the_total():
    problems = corpus.CORPORA["origin"](corpus.DEFAULT_SEED)[:3]
    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        workloads.library_round(problems, workloads.build_subjects(problems), rec)
    finally:
        rec.uninstall()
    by_name, evals = tracer.self_times(rec.spans)
    total = tracer.span_total(rec.spans, "op")
    assert sum(by_name.values()) == pytest.approx(total, rel=1e-9)
    assert evals > 0 and rec.counts["odeint.calls"] > 0
    from lplc import classify

    assert not hasattr(classify.integrate_grid, "__wrapped__")  # uninstall restored the originals
