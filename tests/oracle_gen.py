"""Write the high-precision shell-integral oracles under tests/data/oracles/.

Each oracle is the solution the numeric engine marches: the solution of
y'' = (q(x) - i) y with data y = 1, y' = 0 at the anchor, built from a
closed-form fundamental pair, and its integrals of |y|^2 over the engine's
dyadic shells. Stored per oracle: the potential, endpoint and anchor, the
shell edges, the log shell integrals and their increments (log I_{k+1} -
log I_k), as decimal strings of 25 significant digits.

* q = x toward +inf from 1: Ai(x - i) and Bi(x - i).
* q = x^2 toward +inf from 1: D_nu(sqrt(2) x) and D_nu(-sqrt(2) x),
  parabolic cylinder functions with nu = i/2 - 1/2, since D_nu(z) solves
  D'' = (z^2 / 4 - nu - 1/2) D, which in z = sqrt(2) x is
  y'' = (x^2 - i) y. Its shells grow as e^(x^2), so Im(conj(y) y') is a
  small part of |y| |y'| there, which the engine's boundary terms toward
  +inf must resolve.
* q = x^2 from 1 toward the regular end 2, with the same pair: a smooth
  q whose second difference across a step is not 0, so the x frame's
  in-step sum of |y|^2 meets every term of its defect, which the table's
  piecewise linear q does not.
* q = c / x^2 toward 0 from 0.5, for c = 0.7 and c = 2: sqrt(x) J_nu(k x)
  and sqrt(x) Y_nu(k x) with k = sqrt(i) and nu = sqrt(c + 1/4), since
  u = sqrt(x) Z_nu(k x) solves u'' = ((nu^2 - 1/4) / x^2 - k^2) u.
* q = z / x + c / x^2 toward 0 from 0.5, for z = -1 and c = 2, where
  d^2 q = c + z d varies across the shells: A M_{kappa,mu}(2 beta x) +
  B W_{kappa,mu}(2 beta x), Whittaker's functions, with beta = e^(-i pi/4),
  kappa = -z / (2 beta) and mu = sqrt(c + 1/4), since Whittaker's
  equation in 2 beta x is y'' = (z / x + c / x^2 - i) y.
* a table of 45 knots, q linear between them, toward its right end 5.5
  from the knot 0.5: on each piece q = q0 + s (x - x0), Ai(z) and Bi(z)
  with z = c (x - x0) + (q0 - i) / c^2 and c^3 = s, joined at every knot
  with y and y' continuous. A shell that crosses knots is integrated
  piece by piece.

The script imports nothing from lplc and needs only mpmath (1.3.0 was
used), which computes at 30 digits, and the table at 60; it makes no
network access. Rerun it from the root of the repository with

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


def parabolic_cylinder_pair():
    nu = (I - 1) / 2
    root2 = mp.sqrt(2)

    def column(sign):
        # D_nu'(z) = z D_nu(z) / 2 - D_(nu+1)(z)
        z = lambda x: sign * root2 * x
        value = lambda x: mp.pcfd(nu, z(x))
        deriv = lambda x: sign * root2 * (z(x) / 2 * mp.pcfd(nu, z(x)) - mp.pcfd(nu + 1, z(x)))
        return value, deriv

    return column(1), column(-1)


def bessel_pair(c):
    nu = mp.sqrt(mp.mpf(c) + mp.mpf(1) / 4)
    k = mp.sqrt(I)

    def column(f):
        value = lambda x: mp.sqrt(x) * f(nu, k * x)
        deriv = lambda x: f(nu, k * x) / (2 * mp.sqrt(x)) + mp.sqrt(x) * k * f(nu, k * x, derivative=1)
        return value, deriv

    return column(mp.besselj), column(mp.bessely)


def whittaker_pair(z, c):
    beta = mp.expjpi(mp.mpf(-1) / 4)
    kappa, mu = -mp.mpf(z) / (2 * beta), mp.sqrt(mp.mpf(c) + mp.mpf(1) / 4)

    def column(f):
        value = lambda x: f(kappa, mu, 2 * beta * x)
        return value, lambda x: mp.diff(value, x)

    return column(mp.whitm), column(mp.whitw)


def table_pieces(xs, qs, anchor):
    """(lo, hi, y) per linear piece from the knot `anchor` to the last knot, for data (1, 0) at the anchor.

    On a nearly flat piece Ai and Bi are each far larger than y and cancel,
    so the pieces are joined twice, at the working precision and at 20
    digits more, and the script stops unless y at the last knot agrees to
    1e-25 relative.
    """

    def join():
        y0, dy0 = mp.mpf(1), mp.mpf(0)
        pieces = []
        for j in range(xs.index(anchor), len(xs) - 1):
            lo, hi = mp.mpf(xs[j]), mp.mpf(xs[j + 1])
            slope = (mp.mpf(qs[j + 1]) - qs[j]) / (hi - lo)
            if slope == 0:
                raise SystemExit(f"piece [{lo}, {hi}] is flat, which the Airy pair does not cover")
            c = mp.sign(slope) * mp.cbrt(abs(slope))
            z0 = (qs[j] - I) / c**2
            # Ai Bi' - Ai' Bi = 1 / pi fixes the combination with data (y0, dy0) at lo
            a = mp.pi * (y0 * mp.airybi(z0, derivative=1) - dy0 / c * mp.airybi(z0))
            b = mp.pi * (dy0 / c * mp.airyai(z0) - y0 * mp.airyai(z0, derivative=1))
            z = lambda x, lo=lo, c=c, z0=z0: c * (x - lo) + z0
            y = lambda x, a=a, b=b, z=z: a * mp.airyai(z(x)) + b * mp.airybi(z(x))
            dy = lambda x, a=a, b=b, z=z, c=c: c * (a * mp.airyai(z(x), derivative=1) + b * mp.airybi(z(x), derivative=1))
            pieces.append((lo, hi, y))
            y0, dy0 = y(hi), dy(hi)
        return pieces, y0

    pieces, end = join()
    with mp.workdps(mp.mp.dps + 20):
        _, finer = join()
    if abs(end - finer) > mp.mpf("1e-25") * abs(finer):
        raise SystemExit(f"the joined pieces lost precision: y at the last knot is {end}, or {finer} at 20 digits more")
    return pieces


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


def log_shells(pieces, edges, splits):
    """Log shell integrals of a solution given as (lo, hi, y) pieces, summed over the pieces each shell meets.

    Each part is integrated over splits[0] and over splits[1] equal pieces.
    """
    logs = []
    for x0, x1 in zip(edges, edges[1:]):
        lo, hi = min(x0, x1), max(x0, x1)
        parts = [(max(lo, a), min(hi, b), y) for a, b, y in pieces if a < hi and b > lo]
        coarse, fine = (sum(shell_integral(y, a, b, n) for a, b, y in parts) for n in splits)
        if abs(coarse - fine) > mp.mpf("1e-20") * fine:
            raise SystemExit(f"quadrature did not settle on [{lo}, {hi}]: {coarse} vs {fine}")
        logs.append(mp.log(fine))
    return logs


def write(name, potential, endpoint, anchor, edges, pieces, splits=(8, 16)):
    logs = log_shells(pieces, edges, splits)
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
    whole = lambda pair, anchor: [(-mp.inf, mp.inf, anchored(pair, anchor))]
    write("airy_plus_inf", {"type": "power_law", "c": 1.0, "p": 1.0}, "inf", 1.0,
          [2.0**k for k in range(5)], whole(airy_pair(), 1.0))
    write("harmonic_plus_inf", {"type": "harmonic", "k": 1.0}, "inf", 1.0,
          [2.0**k for k in range(5)], whole(parabolic_cylinder_pair(), 1.0))
    # toward a regular end the distance halves per shell, 12 shells at the default max_shells
    write("harmonic_regular_end", {"type": "harmonic", "k": 1.0}, 2.0, 1.0,
          [2.0 - 2.0**-k for k in range(13)], whole(parabolic_cylinder_pair(), 1.0))
    for c in (0.7, 2.0):
        write(f"inverse_square_{c}_origin", {"type": "inverse_square", "c": c}, 0.0, 0.5,
              [0.5 * 2.0**-k for k in range(13)], whole(bessel_pair(c), 0.5))
    write("whittaker_coulomb_inverse_square_origin",
          {"type": "sum", "terms": [{"type": "coulomb", "z": -1.0}, {"type": "inverse_square", "c": 2.0}]},
          0.0, 0.5, [0.5 * 2.0**-k for k in range(13)], whole(whittaker_pair(-1.0, 2.0), 0.5))
    # knots k / 8 on [0, 5.5]; the shells from 0.5 toward 5.5 are 5.5 - 5 * 2^-k,
    # exact floats; 36 knots lie inside a shell, and each part of a shell
    # within one piece is at most 1/8 long
    xs = [k / 8 for k in range(45)]
    qs = [float(mp.sin(3 * x) + mp.cos(7 * x) / 2) for x in xs]
    with mp.workdps(60):
        write("table_45_knots_right_end", {"type": "tabulated", "x": xs, "q": qs}, 5.5, 0.5,
              [5.5 - 5.0 * 2.0**-k for k in range(13)], table_pieces(xs, qs, 0.5), splits=(2, 4))


if __name__ == "__main__":
    main()
