"""The claim and no-regression rules of tools/paired_bench.py, on made-up paired runs."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("paired_bench", Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

PARENT = [70.0, 72.0, 74.0, 76.0, 78.0, 80.0, 82.0, 84.0, 86.0, 88.0]


def test_a_clear_gain_holds_the_claim():
    s = paired_bench.summarize(PARENT, [p + 30.0 for p in PARENT], "higher")
    assert (s["wins"], s["losses"], s["claim"]) == (10, 0, True)
    assert s["parent"] == (79.0, 74.5, 83.5)


def test_a_gain_inside_the_parents_spread_does_not():
    # wins every pair, but the medians differ by 5 against an interquartile range of 9
    s = paired_bench.summarize(PARENT, [p + 5.0 for p in PARENT], "higher")
    assert (s["wins"], s["claim"]) == (10, False)


def test_ties_count_for_neither_side_and_eight_wins_are_too_few():
    change = [p + 30.0 for p in PARENT[:8]] + PARENT[8:]
    s = paired_bench.summarize(PARENT, change, "higher")
    assert (s["wins"], s["losses"], s["claim"]) == (8, 0, False)


def test_lower_is_better_counts_a_fall_as_a_win():
    s = paired_bench.summarize(PARENT, [p - 30.0 for p in PARENT], "lower")
    assert (s["wins"], s["claim"]) == (10, True)
    s = paired_bench.summarize(PARENT, [p + 30.0 for p in PARENT], "lower")
    assert (s["wins"], s["losses"], s["claim"]) == (0, 10, False)


# PARENT's median is 79 and its interquartile range 9, about 11 % of it


def test_a_loss_inside_the_bound_is_ok():
    # 5 below the parent in every pair, 6 % of its median, against a bound of 25 %
    assert paired_bench.regression(PARENT, [p - 5.0 for p in PARENT], "higher", 0.25) == "ok"


def test_a_loss_beyond_the_bound_is_worse():
    assert paired_bench.regression(PARENT, [p - 30.0 for p in PARENT], "higher", 0.25) == "worse"
    assert paired_bench.regression(PARENT, [p + 30.0 for p in PARENT], "lower", 0.25) == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the parent's own runs spread by 11 % of its median, against a bound of 5 %
    assert paired_bench.regression(PARENT, [p - 1.0 for p in PARENT], "higher", 0.05) == "unresolved"
    assert paired_bench.regression(PARENT, [p - 30.0 for p in PARENT], "higher", 0.05) == "unresolved"


def test_every_change_run_better_than_every_parent_run_is_ok_despite_the_spread():
    assert paired_bench.regression(PARENT, [p + 30.0 for p in PARENT], "higher", 0.05) == "ok"
    assert paired_bench.regression(PARENT, [p - 30.0 for p in PARENT], "lower", 0.05) == "ok"
    # one change run that does not beat the parent's best leaves it unresolved
    change = [p + 30.0 for p in PARENT[:9]] + [85.0]
    assert paired_bench.regression(PARENT, change, "higher", 0.05) == "unresolved"
