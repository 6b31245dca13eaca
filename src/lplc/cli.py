"""Command-line front end.

Four subcommands: `classify` runs the endpoint classification pipeline
on a problem description and emits a JSON report, `extensions` emits
the boundary-condition data of the half-line extension family (JSON for
one parameter, CSV for a sweep), `regularity-demo` prints the
convergence tables of the two demonstration sequences, and
`effective-potential` tabulates the centrifugal reduction.

Exit codes: 0 for a conclusive run, 2 when a classification came back
inconclusive (so pipelines can ask for finer analysis), 1 for errors.
Reports are deterministic: no timestamps, keys sorted, and every
numeric setting echoed (the anchors only when given) so a report can be
reproduced from itself.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .errors import AsymptoticsUnavailableError, LplcError

if TYPE_CHECKING:
    from .classify import ClassificationReport, EndpointClass
    from .odeint import IntegratorConfig
    from .potentials import Potential

# The subcommands import the modules they use themselves, so a run loads
# only those (and numpy only when a numeric march or an array needs it).

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

_PROBE_EIGENVALUE = [0.0, 1.0]  # the probe i as [re, im], echoed under a report's config


def _parse_bound(value, name: str) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"interval bound {name} must be a number, 'inf' or '-inf'")
    return float(value)


def _config_from(overrides: dict) -> IntegratorConfig:
    from .odeint import IntegratorConfig
    from .potentials import json_number

    known = {f.name for f in dataclasses.fields(IntegratorConfig)}
    unknown = set(overrides) - known - {"margin", "max_shells", "anchor_left", "anchor_right", "probe_eigenvalue"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    probe = overrides.get("probe_eigenvalue", _PROBE_EIGENVALUE)
    if probe != _PROBE_EIGENVALUE or any(isinstance(v, bool) for v in probe):
        raise ValueError(f"'probe_eigenvalue' must be {_PROBE_EIGENVALUE}, the probe every run uses, got {probe!r}")
    kwargs = {
        key: json_number(value, key, integral=key == "max_steps")
        for key, value in overrides.items()
        if key in known
    }
    return IntegratorConfig(**kwargs)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _load_problem(args) -> dict:
    if args.input in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    problem = json.loads(text)
    if not isinstance(problem, dict):
        raise ValueError("problem description must be a JSON object")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            defaults = json.load(fh)
        if not isinstance(defaults, dict):
            raise ValueError(f"--config must hold a JSON object, got {defaults!r}")
        problem = _merge(defaults, problem)
    return problem


def _json_text(payload) -> str:
    """Strict JSON of payload, each non-finite float written as the string 'inf', '-inf' or 'nan'."""

    def finite(value):
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return repr(value) if isinstance(value, float) and not math.isfinite(value) else value

    return json.dumps(finite(payload), indent=2, sort_keys=True, allow_nan=False)


def _endpoint_dict(label: str, cls: EndpointClass) -> dict:
    out = {
        "endpoint": label,
        "engine": cls.engine.value,
        "verdict": cls.verdict.value,
    }
    if cls.origin_coefficient is not None:
        out["origin_coefficient"] = cls.origin_coefficient
    if cls.tail is not None:
        out["shells"] = list(cls.tail.shell_integrals)
        out["log_shells"] = list(cls.tail.log_shell_integrals)
        out["fitted_exponent"] = cls.tail.fitted_exponent
        out["fitted_ratio"] = cls.tail.fitted_ratio
    return out


def _classify_report_dict(potential: Potential, nl: Optional[Tuple[int, int]], report: ClassificationReport,
                          cfg: IntegratorConfig, engine: str, settings: dict) -> dict:
    from . import classify as _classify

    out = {
        "problem": {
            "interval": {"a": report.a, "b": report.b},
            "potential": potential.to_dict(),
            "engine": engine,
        },
        "config": dict(dataclasses.asdict(cfg), probe_eigenvalue=_PROBE_EIGENVALUE, **settings),
        "endpoints": [
            _endpoint_dict(_classify.Endpoint(report.a, "left").label(), report.left),
            _endpoint_dict(_classify.Endpoint(report.b, "right").label(), report.right),
        ],
    }
    if nl is not None:
        out["problem"]["n"], out["problem"]["l"] = nl
    if report.indices is None:
        out["indices"] = None
        out["verdict_global"] = "inconclusive"
        out["extension_dim"] = None
    else:
        out["indices"] = [report.indices.n_plus, report.indices.n_minus]
        out["verdict_global"] = report.self_adjointness.label()
        out["extension_dim"] = report.self_adjointness.extension_dimension
    return out


def cmd_classify(args) -> int:
    from . import classify as _classify
    from . import potentials as _pot

    problem = _load_problem(args)
    interval = problem.get("interval")
    if not isinstance(interval, dict) or "a" not in interval or "b" not in interval:
        raise ValueError("problem needs an interval object with bounds a and b")
    a = _parse_bound(interval["a"], "a")
    b = _parse_bound(interval["b"], "b")
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    if "potential" not in problem:
        raise ValueError("problem needs a potential")
    potential = _pot.from_dict(problem["potential"])
    engine = args.engine or problem.get("engine", "both")
    overrides = problem.get("config", {})
    if not isinstance(overrides, dict):
        raise ValueError(f"'config' must be a JSON object, got {overrides!r}")
    cfg = _config_from(overrides)
    margin = float(_pot.json_number(overrides.get("margin", _classify.DEFAULT_MARGIN), "margin"))
    max_shells = _pot.json_number(overrides.get("max_shells", _classify.DEFAULT_MAX_SHELLS), "max_shells", integral=True)
    given = {
        key: float(_pot.json_number(overrides[key], key)) for key in ("anchor_left", "anchor_right") if key in overrides
    }
    anchors = None
    if given:
        defaults = (None, None) if len(given) == 2 else _classify.default_anchor(a, b)
        anchors = (given.get("anchor_left", defaults[0]), given.get("anchor_right", defaults[1]))
    subject = potential
    nl = None
    if "n" in problem or "l" in problem:
        if not ("n" in problem and "l" in problem):
            raise ValueError("n and l must be given together")
        nl = tuple(_pot.json_number(problem[key], key, integral=True) for key in ("n", "l"))
        subject = _pot.effective_potential(potential, *nl)
    report = _classify.classify_interval(
        subject,
        a,
        b,
        engine=engine,
        cfg=cfg,
        anchors=anchors,
        margin=margin,
        max_shells=max_shells,
    )
    # the settings the report echoes next to cfg's fields: anchors only when given
    settings = dict(margin=margin, max_shells=max_shells, **given)
    payload = _classify_report_dict(potential, nl, report, cfg, engine, settings)
    print(_json_text(payload))
    return EXIT_INCONCLUSIVE if report.inconclusive else EXIT_OK


def _parse_sweep(text: str) -> List[float]:
    """The points of np.linspace(start, stop, count), bit for bit, without numpy."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("sweep must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2:
        raise ValueError("sweep count must be at least 2")
    # linspace's own arithmetic: i * step + start, or i / div * delta + start
    # when the step underflows to zero, and the last point exactly stop
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(count)]
    else:
        points = [i * step + start for i in range(count)]
    points[-1] = stop
    return points


def _extension_row(c: float) -> dict:
    from . import extensions as _ext

    bc = _ext.boundary_condition(c)
    row = {
        "c": c,
        "alpha": [bc.alpha.real, bc.alpha.imag],
        "beta": [bc.beta.real, bc.beta.imag],
        "tag": bc.kind(),
    }
    for kind in (1, 2):
        key = f"ratio_{kind}"
        try:
            ratio = _ext.adjoint_ratio(c, kind)
            row[key] = [ratio.real, ratio.imag]
            row[f"{key}_singular"] = False
        except LplcError:
            row[key] = None
            row[f"{key}_singular"] = True
    return row


_EXTENSION_COLUMNS = [
    "c",
    "re_alpha",
    "im_alpha",
    "re_beta",
    "im_beta",
    "re_ratio_1",
    "im_ratio_1",
    "ratio_1_singular",
    "re_ratio_2",
    "im_ratio_2",
    "ratio_2_singular",
    "tag",
]


def _extension_csv(rows) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(_EXTENSION_COLUMNS)
    for row in rows:
        flat = [row["c"]]
        flat += row["alpha"] + row["beta"]
        for kind in (1, 2):
            ratio = row[f"ratio_{kind}"]
            if ratio is None:
                flat += ["", "", True]
            else:
                flat += [ratio[0], ratio[1], False]
        flat.append(row["tag"])
        writer.writerow(flat)


def cmd_extensions(args) -> int:
    if (args.c is None) == (args.sweep is None):
        raise ValueError("give exactly one of --c or --sweep")
    if args.c is not None:
        # boundary_condition rejects a c outside [0, 2*pi)
        print(_json_text(_extension_row(args.c)))
    else:
        grid = _parse_sweep(args.sweep)
        if any(c < 0.0 or c >= 2.0 * math.pi for c in grid):
            raise ValueError("sweep values must lie in [0, 2*pi)")
        _extension_csv([_extension_row(c) for c in grid])
    return EXIT_OK


def cmd_regularity_demo(args) -> int:
    from . import extensions as _ext

    which = args.which
    n_max = args.n_max
    a = args.a
    if n_max < 2:
        raise ValueError("n-max must be at least 2")
    if not math.isfinite(a):
        raise ValueError(f"--a must be finite, got {a!r}")
    if which == "f" and not a > 1.0:
        raise ValueError("the f sequence needs a > 1")
    if which == "g" and not a > 0.0:
        raise ValueError("the g sequence needs a > 0")
    # every row is computed before anything is written, so a row that fails leaves stdout empty
    rows = []
    for n in range(1, n_max + 1):
        if which == "f":
            v0, d0 = _ext.sequence_f_boundary(n)
            dist = _ext.sequence_f_l2_distance(n)
        else:
            v0, d0 = _ext.sequence_g_boundary(n)
            try:
                dist = _ext.sequence_g_l2_distance(n, a)
            except OverflowError:
                raise ValueError(f"the l2 distance of member {n} overflows a float at --a {a!r}") from None
        rows.append([n, repr(v0), repr(d0), repr(dist)])
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "value_at_0", "derivative_at_0", "l2_distance_to_limit"])
    writer.writerows(rows)
    return EXIT_OK


def cmd_effective_potential(args) -> int:
    from . import classify as _classify
    from . import potentials as _pot

    if args.potential is None:
        potential = _pot.Zero()
    elif args.potential.startswith("@"):
        with open(args.potential[1:], "r", encoding="utf-8") as fh:
            potential = _pot.from_dict(json.load(fh))
    else:
        potential = _pot.from_dict(json.loads(args.potential))
    problem = _pot.effective_potential(potential, args.n, args.l)
    lam, big_l = _pot.lambda_nl(args.n, args.l)
    grid = _parse_sweep(args.grid)
    if not all(0.0 < x < math.inf for x in grid):
        raise ValueError("grid abscissas must be positive and finite")
    try:
        origin = _classify.classify_asymptotic(problem)
    except AsymptoticsUnavailableError:
        condition = "unknown (no exact origin coefficient)"
    else:
        status = "holds" if origin.verdict is _classify.EndpointVerdict.LIMIT_POINT else "fails"
        condition = f"{status} (coefficient {origin.origin_coefficient!r} vs threshold {_classify.ORIGIN_LP_THRESHOLD!r})"
    # every row is evaluated before anything is written, so a row that fails leaves stdout empty
    rows = [[repr(x), repr(_pot.evaluate(potential, x)), repr(_pot.evaluate(problem.q_eff, x))] for x in grid]
    out = sys.stdout
    # the header lines end in \r\n, like the csv rows below
    out.write(f"# n={args.n} l={args.l} rho={problem.rho!r} lambda={lam!r} L={big_l!r}\r\n")
    out.write(f"# origin_lp_condition={condition}\r\n")
    writer = csv.writer(out)
    writer.writerow(["x", "v", "v_eff"])
    writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lplc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="endpoint classification report")
    p_classify.add_argument("--input", help="problem JSON file, or '-' for stdin")
    p_classify.add_argument("--config", help="JSON file of defaults merged under the input")
    p_classify.add_argument(
        "--engine", choices=["both", "asymptotic", "numeric"], help="override the engine named in the problem file"
    )
    p_classify.set_defaults(func=cmd_classify)

    p_ext = sub.add_parser("extensions", help="boundary conditions of the extension family")
    p_ext.add_argument("--c", type=float, help="extension parameter in [0, 2*pi)")
    p_ext.add_argument("--sweep", help="c grid as start:stop:count, emitted as CSV")
    p_ext.set_defaults(func=cmd_extensions)

    p_demo = sub.add_parser("regularity-demo", help="convergence tables of the demo sequences")
    p_demo.add_argument("--which", choices=["f", "g"], required=True)
    p_demo.add_argument("--n-max", type=int, default=10)
    p_demo.add_argument("--a", type=float, default=2.0)
    p_demo.set_defaults(func=cmd_regularity_demo)

    p_eff = sub.add_parser("effective-potential", help="tabulate the centrifugal reduction")
    p_eff.add_argument("--n", type=int, required=True)
    p_eff.add_argument("--l", type=int, required=True)
    p_eff.add_argument("--potential", help="potential JSON literal or @file (default zero)")
    p_eff.add_argument("--grid", default="0.1:10:100", help="x grid as start:stop:count")
    p_eff.set_defaults(func=cmd_effective_potential)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for inconclusive runs
        return 0 if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except (LplcError, ValueError, OSError) as exc:
        print(f"lplc: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
