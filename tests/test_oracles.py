"""The numeric engine's shell logs against high-precision closed-form oracles.

tests/data/oracles/*.json are written by tests/oracle_gen.py with mpmath
at 30 digits, from closed-form fundamental pairs that share no code with
the integrator (see that script's docstring). This test reads only the
JSON. Each oracle is the solution with data (1, 0) at the anchor, the one
the engine marches, and the engine's shell-log increments must agree
with the oracle's within 1e-8 at the default tolerance.
"""

import json
import math
from pathlib import Path

import pytest

from lplc.classify import Endpoint, classify_numeric
from lplc.potentials import from_dict

DATA = Path(__file__).parent / "data" / "oracles"
ORACLES = sorted(DATA.glob("*.json"))
BOUND = 1e-8


def test_every_oracle_file_is_found():
    assert [p.stem for p in ORACLES] == [
        "airy_plus_inf",
        "harmonic_plus_inf",
        "harmonic_regular_end",
        "inverse_square_0.7_origin",
        "inverse_square_2.0_origin",
        "table_45_knots_right_end",
        "whittaker_coulomb_inverse_square_origin",
    ]


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.stem)
def test_engine_shell_log_increments_match_the_oracle(path):
    oracle = json.loads(path.read_text(encoding="utf-8"))
    end = math.inf if oracle["endpoint"] == "inf" else float(oracle["endpoint"])
    anchor = oracle["anchor"]
    side = "right" if end > anchor else "left"
    tail = classify_numeric(from_dict(oracle["potential"]), Endpoint(end, side), anchor).tail
    logs = tail.log_shell_integrals
    expected = [float(v) for v in oracle["increments"]]
    assert len(logs) == len(expected) + 1
    increments = [b - a for a, b in zip(logs, logs[1:])]
    errors = [abs(got - want) for got, want in zip(increments, expected)]
    assert max(errors) < BOUND, errors
