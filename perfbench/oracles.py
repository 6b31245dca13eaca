"""Checks of the program's outputs against computations that share no code with it.

Nothing here imports lplc. The expectations come from exact rules and
closed forms evaluated on the problem specs the corpus generated:

* exact origin rule: x^2 q(x) -> c at 0 gives LP iff c >= 3/4, with c the
  potential's own 1/x^2 coefficient plus the centrifugal
  rho = (n-1)(n-3)/4 + l(l+n-2), in exact rationals;
* Sears: every potential bounded below by -C x^2 is LP at +-infinity;
* a finite endpoint where q is bounded is regular, hence LC;
* numeric verdicts: the rule's class or "inconclusive", and decisive when
  the closed-form shell ratio 2^(2 nu - 2), nu = sqrt(c + 1/4), lies
  outside [0.8, 1.2] (the ratio is 1/2 at a regular endpoint and grows
  without bound at infinity for these potentials);
* pure inverse square, c >= 0.3: the decisive fitted ratio is 2^(2 nu - 2);
* CLI tables: the extension boundary pairs, the centrifugal header and the
  demonstration sequences, from their closed forms.

Every check returns a list of messages; an empty list means the output
is correct.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

LP, LC, INCONCLUSIVE = "LP", "LC", "inconclusive"
ORIGIN_THRESHOLD = Fraction(3, 4)
DECISIVE_OUTSIDE = (0.8, 1.2)
RATIO_CHECK_MIN_C = 0.3
RATIO_REL_TOL = 2e-3  # observed deviation <= 7.3e-4 for b <= 4; the verdict band is 0.15


@dataclass(frozen=True)
class EndpointResult:
    """What the program said about one endpoint."""

    engine: str
    verdict: str
    fitted_ratio: Optional[float]


@dataclass(frozen=True)
class Result:
    """What the program said about one interval."""

    left: EndpointResult
    right: EndpointResult
    indices: Optional[tuple]
    verdict_global: str
    extension_dim: Optional[int]


def rho(n: int, l: int) -> Fraction:
    """Centrifugal coefficient of the n-dimensional reduction, exactly."""
    return Fraction((n - 1) * (n - 3), 4) + l * (l + n - 2)


def inverse_square_coefficient(spec: dict) -> Optional[Fraction]:
    """Exact limit of x^2 q(x) at 0+ for a potential spec; None if it has none."""
    kind = spec["type"]
    if kind in ("zero", "coulomb", "harmonic"):
        return Fraction(0)
    if kind == "inverse_square":
        return Fraction(spec["c"])
    if kind == "power_law":
        if spec["c"] == 0 or spec["p"] > -2:
            return Fraction(0)
        return Fraction(spec["c"]) if spec["p"] == -2 else None
    if kind == "sum":
        parts = [inverse_square_coefficient(t) for t in spec["terms"]]
        return None if any(p is None for p in parts) else sum(parts, Fraction(0))
    return None


def origin_coefficient(problem) -> Optional[Fraction]:
    coeff = inverse_square_coefficient(problem.potential)
    if coeff is not None and problem.n is not None:
        coeff += rho(problem.n, problem.l)
    return coeff


def origin_class(coeff: Fraction) -> str:
    return LP if coeff >= ORIGIN_THRESHOLD else LC


def closed_form_ratio(coeff) -> float:
    """Per-shell ratio of the dominant |y|^2 near 0 for q ~ coeff / x^2."""
    nu = math.sqrt(float(coeff) + 0.25)
    return 2.0 ** (2.0 * nu - 2.0)


def bounded_near(spec: dict, e: float, n: Optional[int] = None, l: Optional[int] = None) -> bool:
    """Whether q stays bounded near the finite point e."""
    if e != 0.0:
        return spec["type"] != "tabulated" or spec["x"][0] <= e <= spec["x"][-1]
    if n is not None and rho(n, l) != 0:
        return False
    kind = spec["type"]
    if kind in ("zero", "harmonic"):
        return True
    if kind == "coulomb":
        return spec["z"] == 0
    if kind == "inverse_square":
        return spec["c"] == 0
    if kind == "power_law":
        return spec["c"] == 0 or spec["p"] >= 0
    if kind == "sum":
        return all(bounded_near(t, e) for t in spec["terms"])
    return spec["x"][0] <= e <= spec["x"][-1]


def bounded_below_by_quadratic(spec: dict) -> bool:
    """Sears's hypothesis at infinity: q >= -C x^2 for large |x|."""
    kind = spec["type"]
    if kind in ("zero", "coulomb", "inverse_square", "harmonic"):
        return True
    if kind == "power_law":
        return spec["c"] >= 0 or spec["p"] <= 2
    if kind == "sum":
        return all(bounded_below_by_quadratic(t) for t in spec["terms"])
    return False


@dataclass(frozen=True)
class Expectation:
    klass: str
    ratio: float  # closed-form shell ratio; inf where growth is super-geometric
    exact_rule: bool  # the exact origin rule applies (engine "both" must use it)


def expected(problem, side: str) -> Expectation:
    e = problem.a if side == "left" else problem.b
    if math.isinf(e):
        if not bounded_below_by_quadratic(problem.potential):
            raise ValueError(f"no oracle at infinity for {problem.potential}")
        return Expectation(LP, math.inf, False)
    coeff = origin_coefficient(problem) if e == 0.0 else None
    exact_rule = side == "left" and coeff is not None
    if bounded_near(problem.potential, e, problem.n, problem.l):
        return Expectation(LC, 0.5, exact_rule)
    if coeff is None:
        raise ValueError(f"no oracle at {e} for {problem.potential}")
    return Expectation(origin_class(coeff), closed_form_ratio(coeff), exact_rule)


def check_endpoint(problem, side: str, got: EndpointResult) -> List[str]:
    exp = expected(problem, side)
    where = f"{side} endpoint of {problem.kind}"
    if problem.engine == "both" and exp.exact_rule:
        if got.engine != "asymptotic":
            return [f"{where}: engine {got.engine}, expected the exact rule"]
        if got.verdict != exp.klass:
            return [f"{where}: exact rule gave {got.verdict}, expected {exp.klass}"]
        return []
    if got.engine != "numeric":
        return [f"{where}: engine {got.engine}, expected numeric"]
    errors = []
    if got.verdict not in (exp.klass, INCONCLUSIVE):
        errors.append(f"{where}: numeric verdict {got.verdict}, rule says {exp.klass}")
    lo, hi = DECISIVE_OUTSIDE
    if got.verdict == INCONCLUSIVE and not lo <= exp.ratio <= hi:
        errors.append(f"{where}: inconclusive although the closed-form ratio is {exp.ratio:.4g}")
    pure = problem.potential["type"] == "inverse_square" and problem.n is None
    if (
        pure
        and side == "left"
        and problem.a == 0.0
        and problem.potential["c"] >= RATIO_CHECK_MIN_C
        and got.verdict != INCONCLUSIVE
        and abs(got.fitted_ratio / exp.ratio - 1.0) > RATIO_REL_TOL
    ):
        errors.append(f"{where}: fitted ratio {got.fitted_ratio!r} vs closed form {exp.ratio!r}")
    return errors


def check_result(problem, got: Result) -> List[str]:
    """Both endpoints against the oracles, and their composition."""
    errors = check_endpoint(problem, "left", got.left) + check_endpoint(problem, "right", got.right)
    verdicts = (got.left.verdict, got.right.verdict)
    if INCONCLUSIVE in verdicts:
        want = (None, INCONCLUSIVE, None)
    else:
        n = verdicts.count(LC)
        want = ((n, n), "essentially_self_adjoint" if n == 0 else "needs_boundary_conditions", n * n)
    if (got.indices, got.verdict_global, got.extension_dim) != want:
        errors.append(f"{problem.kind}: composition {got.indices}, {got.verdict_global}, {got.extension_dim}; expected {want}")
    return errors


def result_from_report_json(report: dict) -> Result:
    def endpoint(d):
        return EndpointResult(d["engine"], d["verdict"], d.get("fitted_ratio"))

    left, right = report["endpoints"]
    indices = tuple(report["indices"]) if report["indices"] is not None else None
    return Result(endpoint(left), endpoint(right), indices, report["verdict_global"], report["extension_dim"])


def check_classify_cli(problem, code: int, stdout: str) -> List[str]:
    got = result_from_report_json(json.loads(stdout))
    errors = check_result(problem, got)
    want_code = 2 if got.verdict_global == INCONCLUSIVE else 0
    if code != want_code:
        errors.append(f"exit code {code} for verdict {got.verdict_global}")
    return errors


# -- extension family ------------------------------------------------------


def xi_at_zero(c: float):
    """(xi(0), xi'(0)) of phi_plus + e^{ic} phi_minus, phi_pm = exp((+-i - 1) x / sqrt 2)."""
    phase = cmath.exp(1j * c)
    return 1.0 + phase, ((1j - 1.0) - phase * (1j + 1.0)) / math.sqrt(2.0)


def check_extension_row(c: float, alpha: complex, beta: complex, ratios, tag: str, exact: bool) -> List[str]:
    """One boundary pair; `exact` marks c given verbatim (pi and pi/2 are special)."""
    errors = []
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-12:
        errors.append(f"c={c!r}: |alpha|^2 + |beta|^2 != 1")
    v, dv = xi_at_zero(c)
    if abs(alpha * v + beta * dv) > 1e-12 * (abs(v) + abs(dv)):
        errors.append(f"c={c!r}: (alpha, beta) does not annihilate xi")
    if exact and c == math.pi and (abs(beta) > 1e-12 or tag != "dirichlet"):
        errors.append(f"c=pi: beta={beta!r}, tag={tag}; expected the Dirichlet condition")
    if exact and c == math.pi / 2 and (abs(alpha) > 1e-12 or tag != "neumann"):
        errors.append(f"c=pi/2: alpha={alpha!r}, tag={tag}; expected the Neumann condition")
    for kind, (num, den) in ((1, (v, dv)), (2, (dv, v))):
        ratio = ratios[kind - 1]
        if ratio is None:
            if abs(den) > 1e-9:
                errors.append(f"c={c!r}: ratio_{kind} reported singular")
            continue
        if abs(den) < 1e-9:
            errors.append(f"c={c!r}: ratio_{kind}={ratio!r} where it is singular")
            continue
        # rounding of num and den, each ~eps * (|num| + |den|), carried through the quotient
        tol = 1e-12 * (abs(num) + abs(den)) * (1.0 + abs(num / den)) / abs(den)
        if abs(ratio - num / den) > tol:
            errors.append(f"c={c!r}: ratio_{kind}={ratio!r}, expected {num / den!r}")
    return errors


def check_extensions_json(c: float, code: int, stdout: str) -> List[str]:
    row = json.loads(stdout)
    ratios = [complex(*row[f"ratio_{k}"]) if row[f"ratio_{k}"] is not None else None for k in (1, 2)]
    errors = [] if code == 0 else [f"exit code {code}"]
    if row["c"] != c:
        errors.append(f"row c={row['c']!r}, asked for {c!r}")
    return errors + check_extension_row(c, complex(*row["alpha"]), complex(*row["beta"]), ratios, row["tag"], True)


def check_extensions_sweep(argv, code: int, stdout: str) -> List[str]:
    start, stop, count = argv[-1].split(":")
    start, stop, count = float(start), float(stop), int(count)
    rows = list(csv.DictReader(io.StringIO(stdout)))
    errors = [] if code == 0 else [f"exit code {code}"]
    if len(rows) != count:
        return errors + [f"sweep gave {len(rows)} rows, expected {count}"]
    for i, row in enumerate(rows):
        c = float(row["c"])
        if abs(c - (start + i * (stop - start) / (count - 1))) > 1e-12:
            errors.append(f"sweep row {i}: c={c!r}")
        ratios = [
            None if row[f"ratio_{k}_singular"] == "True" else complex(float(row[f"re_ratio_{k}"]), float(row[f"im_ratio_{k}"]))
            for k in (1, 2)
        ]
        alpha = complex(float(row["re_alpha"]), float(row["im_alpha"]))
        beta = complex(float(row["re_beta"]), float(row["im_beta"]))
        errors += check_extension_row(c, alpha, beta, ratios, row["tag"], False)
    return errors


# -- tables ----------------------------------------------------------------


def _header_fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.lstrip("# ").split() if "=" in part)


def check_effective_potential(params: dict, argv, code: int, stdout: str) -> List[str]:
    """Header rho, lambda, L and the origin condition exactly; rows v and v_eff."""
    n, l, z = params["n"], params["l"], params["z"]
    errors = [] if code == 0 else [f"exit code {code}"]
    lines = stdout.splitlines()
    head = _header_fields(lines[0])
    r = rho(n, l)
    lam = Fraction(2 * l + n - 2, 2)
    if (Fraction(head["rho"]), Fraction(head["lambda"]), Fraction(head["L"])) != (r, lam, 2 * lam + 2):
        errors.append(f"header {lines[0]!r}; expected rho={r}, lambda={lam}")
    condition = _header_fields(lines[1])["origin_lp_condition"]
    if condition != ("holds" if r >= ORIGIN_THRESHOLD else "fails"):
        errors.append(f"origin condition {condition} for rho={r}")
    start, stop, count = argv[argv.index("--grid") + 1].split(":")
    rows = list(csv.reader(lines[3:]))
    if len(rows) != int(count):
        return errors + [f"{len(rows)} rows, expected {count}"]
    for x_s, v_s, veff_s in rows:
        x, v, v_eff = float(x_s), float(v_s), float(veff_s)
        want_v, want_c = z / x, float(r) / (x * x)
        if abs(v - want_v) > 1e-14 * abs(want_v) or abs(v_eff - want_v - want_c) > 1e-12 * (abs(want_v) + abs(want_c)):
            errors.append(f"row x={x!r}: v={v!r}, v_eff={v_eff!r}")
    return errors


def _demo_rows(stdout: str):
    rows = list(csv.reader(io.StringIO(stdout)))
    return rows[0], rows[1:]


def check_regularity_demo(which: str, params: dict, code: int, stdout: str) -> List[str]:
    """Sequence g: (1/n - 1/n^2, 2/n) at 0; f: (0, 0). Distances from the integrals."""
    a, n_max = params["a"], params["n_max"]
    errors = [] if code == 0 else [f"exit code {code}"]
    _, rows = _demo_rows(stdout)
    if len(rows) != n_max:
        return errors + [f"{len(rows)} rows, expected {n_max}"]
    for n_s, v_s, d_s, dist_s in rows:
        n = int(n_s)
        if which == "g":
            c0, c1 = Fraction(1, n) - Fraction(1, n * n), Fraction(2, n)
            # |g_n - g|^2 = (c0 + c1 x)^2 on [0, a), with g the limit -x^2
            dist = math.sqrt(((float(c0) + float(c1) * a) ** 3 - float(c0) ** 3) / (3.0 * float(c1)))
            value, slope = float(c0), float(c1)
        else:
            eps = 1.0 / n
            # (x^{3/2} - x^{-1/3})^2 integrated over (0, 1/n)
            dist = math.sqrt(eps**4 / 4.0 - 2.0 * eps ** (13.0 / 6.0) / (13.0 / 6.0) + eps ** (1.0 / 3.0) / (1.0 / 3.0))
            value, slope = 0.0, 0.0
        if not (
            math.isclose(float(v_s), value, rel_tol=1e-14, abs_tol=1e-300)
            and math.isclose(float(d_s), slope, rel_tol=1e-14, abs_tol=1e-300)
            and math.isclose(float(dist_s), dist, rel_tol=1e-12)
        ):
            errors.append(f"{which} row n={n}: {v_s}, {d_s}, {dist_s}; expected {value!r}, {slope!r}, {dist!r}")
    return errors
