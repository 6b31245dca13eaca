"""Write the high-precision shell-integral oracles under tests/data/oracles/.

Each oracle is the solution the numeric engine marches: the solution of
y'' = (q(x) - i) y with data y = 1, y' = 0 at the anchor, built from a
closed-form fundamental pair, and its integrals of |y|^2 over the engine's
dyadic shells. Stored per oracle: the potential, endpoint and anchor, the
shell edges, the log shell integrals and their increments (log I_{k+1} -
log I_k), as decimal strings of 25 significant digits.

* q = x toward +inf from 1: Ai(x - i) and Bi(x - i).
* q = c / x^2 toward 0 from 0.5, for c = 0.7 and c = 2: sqrt(x) J_nu(k x)
  and sqrt(x) Y_nu(k x) with k = sqrt(i) and nu = sqrt(c + 1/4), since
  u = sqrt(x) Z_nu(k x) solves u'' = ((nu^2 - 1/4) / x^2 - k^2) u.

The script imports nothing from lplc and needs only mpmath (1.3.0 was
used), which computes at 30 digits; it makes no network access. Rerun it
from the root of the repository with

    python tests/oracle_gen.py

Each shell integral is taken twice, over 8 and over 16 equal pieces with
tanh-sinh quadrature, and the script stops unless the two agree to 1e-20
relative, so a stored digit is never a quadrature artefact.
"""

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30
OUT = Path(__file__).parent / "data" / "oracles"
I = mp.mpc(0, 1)


def airy_pair():
    def column(f):
        return (lambda x: f(x - I)), (lambda x: f(x - I, derivative=1))

    return column(mp.airyai), column(mp.airybi)


def bessel_pair(c):
    nu = mp.sqrt(mp.mpf(c) + mp.mpf(1) / 4)
    k = mp.sqrt(I)

    def column(f):
        value = lambda x: mp.sqrt(x) * f(nu, k * x)
        deriv = lambda x: f(nu, k * x) / (2 * mp.sqrt(x)) + mp.sqrt(x) * k * f(nu, k * x, derivative=1)
        return value, deriv

    return column(mp.besselj), column(mp.bessely)


def anchored(pair, x0):
    """The combination of the pair with value 1 and derivative 0 at x0."""
    (u1, du1), (u2, du2) = pair
    x0 = mp.mpf(x0)
    w = u1(x0) * du2(x0) - du1(x0) * u2(x0)
    a, b = du2(x0) / w, -du1(x0) / w
    return lambda x: a * u1(x) + b * u2(x)


def shell_integral(y, lo, hi, pieces):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    points = [lo + (hi - lo) * j / pieces for j in range(pieces + 1)]
    return mp.quad(lambda x: abs(y(x)) ** 2, points)


def log_shells(y, edges):
    logs = []
    for x0, x1 in zip(edges, edges[1:]):
        lo, hi = min(x0, x1), max(x0, x1)
        coarse, fine = shell_integral(y, lo, hi, 8), shell_integral(y, lo, hi, 16)
        if abs(coarse - fine) > mp.mpf("1e-20") * fine:
            raise SystemExit(f"quadrature did not settle on [{lo}, {hi}]: {coarse} vs {fine}")
        logs.append(mp.log(fine))
    return logs


def write(name, potential, endpoint, anchor, edges, pair):
    logs = log_shells(anchored(pair, anchor), edges)
    text = lambda v: mp.nstr(v, 25, min_fixed=-mp.inf, max_fixed=mp.inf)
    record = {
        "potential": potential,
        "endpoint": endpoint,
        "anchor": anchor,
        "eigenvalue": [0.0, 1.0],
        "edges": edges,
        "log_shell_integrals": [text(v) for v in logs],
        "increments": [text(b - a) for a, b in zip(logs, logs[1:])],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{name}: {len(logs)} shells")


def main():
    # the engine's shells toward +inf from 1 double outward; toward 0 from
    # 0.5 the distance to 0 halves, 12 shells at the default max_shells
    write("airy_plus_inf", {"type": "power_law", "c": 1.0, "p": 1.0}, "inf", 1.0,
          [2.0**k for k in range(5)], airy_pair())
    for c in (0.7, 2.0):
        write(f"inverse_square_{c}_origin", {"type": "inverse_square", "c": c}, 0.0, 0.5,
              [0.5 * 2.0**-k for k in range(13)], bessel_pair(c))


if __name__ == "__main__":
    main()
