"""Golden bytes for `lplc classify` reports.

tests/data/cli_golden/cases.json names each problem and the exit code
the CLI must give for it; <name>.stdout holds the exact report. A change
that moves any byte of these reports fails here. Regenerate the files
only on purpose, with

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate

and add a CHANGES.md entry naming the digits that moved and why.
"""

import json
import sys
from pathlib import Path

import pytest

from lplc.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden"
CASES = json.loads((DATA / "cases.json").read_text(encoding="utf-8"))


def classify(capsys, tmp_path, problem):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    code = main(["classify", "--input", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_classify_report_bytes_match_golden(capsys, tmp_path, name):
    case = CASES[name]
    code, out = classify(capsys, tmp_path, case["problem"])
    assert code == case["exit"]
    assert out == (DATA / f"{name}.stdout").read_text(encoding="utf-8")


def _regenerate() -> None:
    import subprocess
    import tempfile

    for name, case in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "problem.json"
            path.write_text(json.dumps(case["problem"]), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "-m", "lplc.cli", "classify", "--input", str(path)],
                capture_output=True, text=True,
            )
        if proc.returncode != case["exit"]:
            raise SystemExit(f"{name}: exit {proc.returncode}, cases.json says {case['exit']}")
        (DATA / f"{name}.stdout").write_text(proc.stdout, encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    _regenerate()
