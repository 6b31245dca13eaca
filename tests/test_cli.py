import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import lplc
from lplc.cli import _parse_sweep, main

FREE_HALF_LINE = {
    "interval": {"a": 0, "b": "inf"},
    "potential": {"type": "zero"},
    "n": 3,
    "l": 0,
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A problem change with a malformed value, and the key its error must name.
MALFORMED_VALUES = [
    ({"config": 5}, "config"),
    ({"config": {"margin": None}}, "margin"),
    ({"config": {"rel_tol": None}}, "rel_tol"),
    ({"config": {"max_shells": None}}, "max_shells"),
    ({"config": {"anchor_left": None}}, "anchor_left"),
    ({"n": None}, "n"),
    ({"config": {"rel_tol": True}}, "rel_tol"),
    ({"config": {"margin": True}}, "margin"),
    ({"n": True}, "n"),
    ({"config": {"margin": "0.2"}}, "margin"),
    ({"config": {"max_steps": "2000"}}, "max_steps"),
    ({"config": {"anchor_left": "0.3"}}, "anchor_left"),
    ({"config": {"max_shells": 12.7}}, "max_shells"),
    ({"n": 3.9, "l": 0.5}, "n"),
    ({"l": 0.5}, "l"),
    ({"config": {"max_steps": math.inf}}, "max_steps"),
    ({"config": {"x_max": math.inf}}, "x_max"),
    ({"config": {"rel_tol": math.nan}}, "rel_tol"),
    ({"potential": {"type": "inverse_square", "c": "0.75"}}, "c"),
    ({"potential": {"type": "inverse_square", "c": True}}, "c"),
    ({"potential": {"type": "tabulated", "x": ["0", "1", "2", "3"], "q": [0, 0, 0, 0]}}, "x"),
    ({"config": {"probe_eigenvalue": [1.0, 0.0]}}, "probe_eigenvalue"),
    ({"config": {"probe_eigenvalue": [False, True]}}, "probe_eigenvalue"),
    ({"n": 1e200}, "n"),
]
MALFORMED_VALUE_IDS = ["config-not-an-object", "null-margin", "null-rel-tol", "null-max-shells",
                       "null-anchor", "null-n", "boolean-rel-tol", "boolean-margin", "boolean-n",
                       "string-margin", "string-max-steps", "string-anchor", "fractional-max-shells",
                       "fractional-n", "fractional-l", "infinite-max-steps", "infinite-x-max",
                       "nan-rel-tol", "string-c", "boolean-c", "string-table", "other-probe-eigenvalue",
                       "boolean-probe-eigenvalue", "huge-n"]


def write_spec(tmp_path, spec, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


class TestClassifyCommand:
    def test_free_s_wave_half_line(self, capsys, tmp_path):
        path = write_spec(tmp_path, FREE_HALF_LINE)
        code, out, _ = run(capsys, ["classify", "--input", path])
        assert code == 0
        report = json.loads(out)
        by_label = {e["endpoint"]: e for e in report["endpoints"]}
        assert by_label["0.0"]["verdict"] == "LC"
        assert by_label["0.0"]["engine"] == "asymptotic"
        assert by_label["inf"]["verdict"] == "LP"
        assert by_label["inf"]["engine"] == "numeric"
        assert report["indices"] == [1, 1]
        assert report["verdict_global"] == "needs_boundary_conditions"
        assert report["extension_dim"] == 1

    def test_free_p_wave_self_adjoint(self, capsys, tmp_path):
        spec = dict(FREE_HALF_LINE, l=1)
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["classify", "--input", path])
        assert code == 0
        report = json.loads(out)
        assert report["indices"] == [0, 0]
        assert report["verdict_global"] == "essentially_self_adjoint"
        assert report["extension_dim"] == 0

    def test_free_unit_interval(self, capsys, tmp_path):
        spec = {"interval": {"a": 0, "b": 1}, "potential": {"type": "zero"}}
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["classify", "--input", path])
        assert code == 0
        report = json.loads(out)
        assert report["indices"] == [2, 2]
        assert report["extension_dim"] == 4

    def test_inconclusive_exit_code(self, capsys, tmp_path):
        spec = {
            "interval": {"a": 0, "b": 1},
            "potential": {"type": "inverse_square", "c": 0.75},
            "engine": "numeric",
        }
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["classify", "--input", path])
        assert code == 2
        report = json.loads(out)
        assert report["verdict_global"] == "inconclusive"
        assert report["indices"] is None

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FREE_HALF_LINE)))
        code, out, _ = run(capsys, ["classify", "--input", "-"])
        assert code == 0
        assert json.loads(out)["indices"] == [1, 1]

    def test_malformed_json_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run(capsys, ["classify", "--input", str(path)])
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_missing_interval_exit_one(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"potential": {"type": "zero"}})
        code, _, err = run(capsys, ["classify", "--input", str(path)])
        assert code == 1
        assert "interval" in err

    @pytest.mark.parametrize(
        "change",
        [
            {"potential": {"type": "inverse_square"}},
            {"potential": {"type": "sum", "terms": 5}},
            {"potential": {"type": "sum", "terms": [5]}},
            {"potential": {"type": "tabulated", "x": [{}, 1, 2, 3], "q": [0, 0, 0, 0]}},
            {"potential": {"type": ["zero"]}},
            {"interval": {"a": None, "b": "inf"}},
            {"interval": {"a": 0, "b": [1]}},
            {"interval": {"a": 0, "b": True}},
            {"config": {"margin": -0.5}},
            {"config": {"margin": 1.0}},
            {"config": {"max_shells": -5}},
            {"config": {"max_shells": 3}},
            *(change for change, _ in MALFORMED_VALUES),
        ],
        ids=["missing-field", "terms-not-a-list", "term-not-an-object", "table-not-numbers",
             "type-not-a-string", "null-bound", "list-bound", "boolean-bound", "negative-margin",
             "unit-margin", "negative-max-shells", "three-max-shells", *MALFORMED_VALUE_IDS],
    )
    def test_malformed_problem_exit_one(self, capsys, tmp_path, change):
        path = write_spec(tmp_path, dict(FREE_HALF_LINE, **change))
        code, out, err = run(capsys, ["classify", "--input", path])
        assert code == 1
        assert out == ""
        assert err.startswith("lplc: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("change, key", MALFORMED_VALUES, ids=MALFORMED_VALUE_IDS)
    def test_malformed_value_error_names_its_key(self, capsys, tmp_path, change, key):
        path = write_spec(tmp_path, dict(FREE_HALF_LINE, **change))
        code, _, err = run(capsys, ["classify", "--input", path])
        assert code == 1
        assert err.startswith("lplc: error:") and repr(key) in err

    @pytest.mark.parametrize("key, anchor", [("anchor_left", -1.0), ("anchor_right", 1.0), ("anchor_right", 2.0)])
    def test_anchor_outside_interval_exit_one(self, capsys, tmp_path, key, anchor):
        spec = {
            "interval": {"a": 0, "b": 1},
            "potential": {"type": "power_law", "c": 1.0, "p": -3.0},
            "engine": "numeric",
            "config": {key: anchor},
        }
        code, out, err = run(capsys, ["classify", "--input", write_spec(tmp_path, spec)])
        assert code == 1
        assert out == ""
        assert err.startswith("lplc: error:") and "strictly inside" in err

    def test_geometric_ratio_is_not_a_config_key(self, capsys, tmp_path):
        path = write_spec(tmp_path, dict(FREE_HALF_LINE, config={"geometric_ratio": 0.5}))
        code, out, err = run(capsys, ["classify", "--input", path])
        assert code == 1
        assert out == ""
        assert "unknown config keys" in err

    def test_deterministic_output(self, capsys, tmp_path):
        path = write_spec(tmp_path, FREE_HALF_LINE)
        _, out1, _ = run(capsys, ["classify", "--input", path])
        _, out2, _ = run(capsys, ["classify", "--input", path])
        assert out1 == out2

    def test_config_defaults_merged(self, capsys, tmp_path):
        spec_path = write_spec(tmp_path, {"interval": {"a": 0, "b": 1}, "potential": {"type": "zero"}})
        config_path = write_spec(
            tmp_path, {"engine": "numeric", "config": {"rel_tol": 1e-8}}, name="config.json"
        )
        code, out, _ = run(
            capsys, ["classify", "--input", spec_path, "--config", config_path]
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["rel_tol"] == 1e-8
        assert all(e["engine"] == "numeric" for e in report["endpoints"])

    @pytest.mark.parametrize("defaults", [[1, 2], 5], ids=["list", "number"])
    def test_config_file_not_an_object_rejected(self, capsys, tmp_path, defaults):
        spec_path = write_spec(tmp_path, {"interval": {"a": 0, "b": 1}, "potential": {"type": "zero"}})
        config_path = write_spec(tmp_path, defaults, name="config.json")
        code, out, err = run(capsys, ["classify", "--input", spec_path, "--config", config_path])
        assert code == 1
        assert out == ""
        assert err.startswith("lplc: error: --config must hold a JSON object")

    def test_whole_numbers_echo_as_the_ints_used(self, capsys, tmp_path):
        spec = dict(FREE_HALF_LINE, n=3.0, l=1.0, config={"max_shells": 8.0, "x_max": 1000})
        code, out, _ = run(capsys, ["classify", "--input", write_spec(tmp_path, spec)])
        assert code == 0
        report = json.loads(out)
        assert (report["problem"]["n"], report["problem"]["l"]) == (3, 1)
        assert '"n": 3,' in out and '"max_shells": 8,' in out and '"x_max": 1000,' in out

    def test_given_anchors_are_echoed_and_reproduce_the_report(self, capsys, tmp_path):
        spec = {
            "interval": {"a": 0, "b": 1},
            "potential": {"type": "inverse_square", "c": 0.5},
            "engine": "numeric",
            "config": {"anchor_left": 0.3},
        }
        code, out, _ = run(capsys, ["classify", "--input", write_spec(tmp_path, spec)])
        assert code == 0
        config = json.loads(out)["config"]
        assert config["anchor_left"] == 0.3 and "anchor_right" not in config
        again = dict(spec, config=config)
        code, out_again, _ = run(capsys, ["classify", "--input", write_spec(tmp_path, again)])
        assert code == 0 and out_again == out
        _, default_out, _ = run(capsys, ["classify", "--input", write_spec(tmp_path, dict(spec, config={}))])
        assert "anchor_left" not in json.loads(default_out)["config"]

    @pytest.mark.parametrize(
        "spec",
        [
            dict(FREE_HALF_LINE, config={"rel_tol": 1e-8, "anchor_right": 2.0}),
            {"interval": {"a": "-inf", "b": -1}, "potential": {"type": "power_law", "c": 1.0, "p": 1.0}},
        ],
        ids=["half-line", "left-infinite"],
    )
    def test_report_problem_and_config_reproduce_the_report(self, capsys, tmp_path, spec):
        code, out, _ = run(capsys, ["classify", "--input", write_spec(tmp_path, spec)])
        report = json.loads(out)
        again = dict(report["problem"], config=report["config"])
        code_again, out_again, _ = run(capsys, ["classify", "--input", write_spec(tmp_path, again)])
        assert (code_again, out_again) == (code, out)

    def test_non_finite_numbers_are_written_as_strings(self, capsys, tmp_path):
        # the shells of harmonic k=400 toward +inf overflow exp to inf
        spec = {"interval": {"a": 0, "b": "inf"}, "potential": {"type": "harmonic", "k": 400}}
        code, out, _ = run(capsys, ["classify", "--input", write_spec(tmp_path, spec)])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        right = json.loads(out, parse_constant=reject)["endpoints"][1]
        assert right["fitted_ratio"] == "inf"
        assert "inf" in right["shells"]

    def test_left_infinite_bound(self, capsys, tmp_path):
        spec = {"interval": {"a": "-inf", "b": "inf"}, "potential": {"type": "harmonic", "k": 1.0}}
        code, out, _ = run(capsys, ["classify", "--input", write_spec(tmp_path, spec)])
        assert code == 0
        report = json.loads(out)
        assert report["indices"] == [0, 0]
        assert report["problem"]["interval"] == {"a": "-inf", "b": "inf"}
        assert [e["endpoint"] for e in report["endpoints"]] == ["-inf", "inf"]

    def test_config_echoes_every_default(self, capsys, tmp_path):
        path = write_spec(tmp_path, FREE_HALF_LINE)
        _, out, _ = run(capsys, ["classify", "--input", path])
        cfg = json.loads(out)["config"]
        for key in (
            "rel_tol",
            "abs_tol",
            "max_steps",
            "rescale_band",
            "x_min",
            "x_max",
            "margin",
            "max_shells",
            "probe_eigenvalue",
        ):
            assert key in cfg


class TestExtensionsCommand:
    def test_dirichlet_tag(self, capsys):
        code, out, _ = run(capsys, ["extensions", "--c", "3.14159265358979"])
        assert code == 0
        row = json.loads(out)
        assert row["tag"] == "dirichlet"

    def test_neumann_tag(self, capsys):
        code, out, _ = run(capsys, ["extensions", "--c", "1.5707963267948966"])
        assert code == 0
        row = json.loads(out)
        assert row["tag"] == "neumann"
        assert row["ratio_1_singular"] is True
        assert row["ratio_1"] is None

    def test_ratio_value_at_zero(self, capsys):
        code, out, _ = run(capsys, ["extensions", "--c", "0"])
        row = json.loads(out)
        assert row["ratio_1"][0] == pytest.approx(-math.sqrt(2.0), abs=1e-12)
        assert row["ratio_1"][1] == pytest.approx(0.0, abs=1e-12)

    def test_sweep_has_no_singular_crash(self, capsys):
        code, out, _ = run(capsys, ["extensions", "--sweep", "0:6.28:64"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 65  # header + 64 rows
        header = lines[0].split(",")
        assert "ratio_1_singular" in header and "tag" in header

    def test_sweep_flags_exact_singular_rows(self, capsys):
        code, out, _ = run(
            capsys,
            ["extensions", "--sweep", f"0:{2 * math.pi * 0.75}:4"],
        )  # grid hits pi/2 and pi exactly
        assert code == 0
        lines = out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        header = lines[0].split(",")
        i1 = header.index("ratio_1_singular")
        i2 = header.index("ratio_2_singular")
        tag = header.index("tag")
        assert rows[1][i1] == "True" and rows[1][tag] == "neumann"
        assert rows[2][i2] == "True" and rows[2][tag] == "dirichlet"

    def test_out_of_range_c(self, capsys):
        code, _, err = run(capsys, ["extensions", "--c", "6.5"])
        assert code == 1
        assert "2*pi" in err or "range" in err

    def test_requires_exactly_one_mode(self, capsys):
        code, _, _ = run(capsys, ["extensions"])
        assert code == 1


class TestRegularityDemoCommand:
    def test_g_row_values(self, capsys):
        code, out, _ = run(capsys, ["regularity-demo", "--which", "g", "--n-max", "10", "--a", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value_at_0,derivative_at_0,l2_distance_to_limit"
        row2 = lines[2].split(",")
        assert float(row2[1]) == 0.25
        assert float(row2[2]) == 1.0

    def test_f_distance_decreasing_and_zero_boundary(self, capsys):
        code, out, _ = run(capsys, ["regularity-demo", "--which", "f", "--n-max", "10", "--a", "2"])
        assert code == 0
        lines = out.strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in lines]
        dists = [float(r.split(",")[3]) for r in lines]
        assert all(v == 0.0 for v in values)
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_n_max_validation(self, capsys):
        code, _, _ = run(capsys, ["regularity-demo", "--which", "f", "--n-max", "1"])
        assert code == 1

    @pytest.mark.parametrize("which", ["f", "g"])
    def test_non_finite_a_rejected(self, capsys, which):
        code, out, err = run(capsys, ["regularity-demo", "--which", which, "--a", "inf"])
        assert (code, out) == (1, "")
        assert "--a must be finite" in err


class TestEffectivePotentialCommand:
    def test_flat_s_wave(self, capsys):
        code, out, _ = run(
            capsys, ["effective-potential", "--n", "3", "--l", "0", "--grid", "0.5:2:4"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert "rho=0.0" in lines[0]
        data = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert all(float(row[2]) == 0.0 for row in data)

    def test_p_wave_value(self, capsys):
        code, out, _ = run(
            capsys, ["effective-potential", "--n", "3", "--l", "1", "--grid", "1:2:2"]
        )
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[2]) == 2.0

    def test_coulomb_header_notes_failed_origin_condition(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "effective-potential",
                "--n",
                "3",
                "--l",
                "0",
                "--potential",
                '{"type": "coulomb", "z": -1}',
                "--grid",
                "0.5:2:4",
            ],
        )
        assert code == 0
        header = [l for l in out.splitlines() if l.startswith("#")]
        assert any("origin_lp_condition=fails" in l for l in header)
        assert any("lambda=0.5" in l and "L=3.0" in l for l in header)

    def test_evaluation_error_exit_one(self, capsys):
        code, _, err = run(
            capsys,
            [
                "effective-potential",
                "--n",
                "3",
                "--l",
                "0",
                "--potential",
                '{"type": "tabulated", "x": [1, 2, 3, 4], "q": [0, 0, 0, 0]}',
                "--grid",
                "0.5:2:4",
            ],
        )
        assert code == 1
        assert "range" in err.lower()


    @pytest.mark.parametrize(
        "key, argv",
        [("n", ["--n", str(10**200), "--l", "0"]), ("l", ["--n", "3", "--l", str(10**160)])],
        ids=["n", "l"],
    )
    def test_huge_n_or_l_exit_one(self, capsys, key, argv):
        # the centrifugal coefficient would lie beyond float range
        code, out, err = run(capsys, ["effective-potential", *argv])
        assert (code, out) == (1, "")
        assert err.startswith("lplc: error:") and repr(key) in err and "float range" in err

    @pytest.mark.parametrize("grid", ["0.1:inf:3", "0.1:nan:3", "-1:2:4"])
    def test_grid_rejected_before_any_output(self, capsys, grid):
        code, out, err = run(capsys, ["effective-potential", "--n", "3", "--l", "1", f"--grid={grid}"])
        assert (code, out) == (1, "")
        assert "positive and finite" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestSweepGrid:
    @pytest.mark.parametrize(
        "start, stop, count",
        [
            (0.0, 1.0, 2),
            (0.0, 1.0, 3),
            (0.1, 10.0, 100),
            (0.0, 2 * math.pi * 0.75, 4),
            (0.05, 6.28, 100_003),
            (6.2, 0.3, 64),
            (3.0, -2.5, 1001),
            (1.0, 1.0, 5),
            (0.0, 5e-324, 3),
            (-0.0, 0.0, 3),
        ],
    )
    def test_points_equal_linspace(self, start, stop, count):
        points = _parse_sweep(f"{start!r}:{stop!r}:{count}")
        expected = np.linspace(start, stop, count)
        assert len(points) == count
        assert all(type(p) is float for p in points)
        assert all(p == e for p, e in zip(points, expected.tolist()))
        assert points[0] == start and points[-1] == stop

    def test_random_ranges_equal_linspace(self):
        rng = random.Random(20261018)
        for _ in range(300):
            start, stop = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            count = rng.randint(2, 500)
            points = _parse_sweep(f"{start!r}:{stop!r}:{count}")
            assert points == np.linspace(start, stop, count).tolist()


def test_cli_subcommands_import_no_numpy():
    # numpy costs most of a cold start; only the array APIs may load it
    script = """
import io
import sys
import lplc
assert "numpy" not in sys.modules, "import lplc"
import lplc.cli
assert "numpy" not in sys.modules, "import lplc.cli"
for argv in (
    ["extensions", "--c", "1.0"],
    ["extensions", "--sweep", "0:6.28:16"],
    ["regularity-demo", "--which", "f", "--n-max", "5"],
    ["regularity-demo", "--which", "g", "--n-max", "5"],
    ["effective-potential", "--n", "3", "--l", "1", "--potential", '{"type": "coulomb", "z": -1}'],
    ["effective-potential", "--n", "3", "--l", "0", "--grid", "1:3:5",
     "--potential", '{"type": "tabulated", "x": [0.5, 1, 2, 4], "q": [1, 0, -1, 2]}'],
):
    assert lplc.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
for problem in (
    '{"interval": {"a": 0, "b": 1}, "potential": {"type": "zero"}, "engine": "numeric"}',
    '{"interval": {"a": 0, "b": "inf"}, "potential": {"type": "coulomb", "z": -1}, "n": 3, "l": 0}',
    '{"interval": {"a": "-inf", "b": "inf"}, "potential": {"type": "harmonic", "k": 1}}',
    '{"interval": {"a": 0.5, "b": 4}, "potential": {"type": "tabulated", "x": [0.5, 1, 2, 4], "q": [1, 0, -1, 2]}}',
    '{"interval": {"a": 0, "b": 1}, "potential": {"type": "zero"}, "n": 3, "l": 1}',
):
    sys.stdin = io.StringIO(problem)
    assert lplc.cli.main(["classify", "--input", "-"]) == 0, problem
    assert "numpy" not in sys.modules, problem
"""
    src = os.path.dirname(os.path.dirname(lplc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
