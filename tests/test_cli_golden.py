"""Golden bytes for lplc's reports.

tests/data/cli_golden/cases.json names each case and the exit code the
CLI must give for it: a `classify` case holds the problem description,
any other subcommand its argv. <name>.stdout holds the exact output. A
change that moves any byte of it fails here. Regenerate the files only
on purpose, with

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
PROBLEMS = sorted(name for name, case in CASES.items() if "problem" in case)
COMMANDS = sorted(name for name, case in CASES.items() if "argv" in case)


def argv_of(case, tmp_dir: Path):
    """The CLI arguments of a case; a problem is written to tmp_dir first."""
    if "argv" in case:
        return case["argv"]
    path = tmp_dir / "problem.json"
    path.write_text(json.dumps(case["problem"]), encoding="utf-8")
    return ["classify", "--input", str(path)]


def check(capsys, tmp_path, name):
    case = CASES[name]
    code = main(argv_of(case, tmp_path))
    assert code == case["exit"]
    # bytes, not text: the CSV subcommands end their rows with \r\n
    assert capsys.readouterr().out.encode("utf-8") == (DATA / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("name", PROBLEMS)
def test_classify_report_bytes_match_golden(capsys, tmp_path, name):
    check(capsys, tmp_path, name)


@pytest.mark.parametrize("name", COMMANDS)
def test_subcommand_output_matches_golden(capsys, tmp_path, name):
    check(capsys, tmp_path, name)


CSV_COMMANDS = sorted(
    name for name in COMMANDS
    if CASES[name]["argv"][0] in ("effective-potential", "regularity-demo") or "--sweep" in CASES[name]["argv"]
)


@pytest.mark.parametrize("name", CSV_COMMANDS)
def test_csv_output_ends_every_line_in_crlf(name):
    # a table's header lines end like its csv rows, never in a bare \n
    data = (DATA / f"{name}.stdout").read_bytes()
    assert data.count(b"\n") == data.count(b"\r\n") > 0


def _regenerate() -> None:
    import subprocess
    import tempfile

    for name, case in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, "-m", "lplc.cli", *argv_of(case, Path(tmp))],
                capture_output=True,
            )
        if proc.returncode != case["exit"]:
            raise SystemExit(f"{name}: exit {proc.returncode}, cases.json says {case['exit']}")
        (DATA / f"{name}.stdout").write_bytes(proc.stdout)


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    _regenerate()
