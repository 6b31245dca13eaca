import json
import math
from fractions import Fraction

import numpy as np
import pytest

from lplc.errors import NonFiniteError, OutOfRangeError
from lplc.potentials import (
    Coulomb,
    Harmonic,
    InverseSquare,
    Mirrored,
    PowerLaw,
    Sum,
    Tabulated,
    Zero,
    effective_potential,
    evaluate,
    from_dict,
    lambda_nl,
    rho_nl_exact,
)


class TestRhoNl:
    @pytest.mark.parametrize(
        "n,l,expected",
        [(3, 0, 0.0), (3, 1, 2.0), (2, 0, -0.25)],
    )
    def test_values(self, n, l, expected):
        assert float(rho_nl_exact(n, l)) == expected

    def test_closed_forms_agree_exactly(self):
        # product form vs completed square, in exact rationals, then as floats
        for n in range(1, 51):
            for l in range(0, 51):
                product = Fraction((n - 1) * (n - 3), 4) + l * (l + n - 2)
                square = Fraction(2 * l + n - 2, 2) ** 2 - Fraction(1, 4)
                assert product == square
                assert float(rho_nl_exact(n, l)) == float(square)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            float(rho_nl_exact(0, 0))
        with pytest.raises(ValueError):
            float(rho_nl_exact(3, -1))
        with pytest.raises(TypeError):
            float(rho_nl_exact(3.0, 0))

    @pytest.mark.parametrize("n, l", [(10**200, 0), (3, 10**160), (10**160, 10**160)])
    def test_coefficient_beyond_float_range_rejected_by_both(self, n, l):
        for fn in (rho_nl_exact, lambda_nl):
            with pytest.raises(ValueError, match="beyond float range"):
                fn(n, l)


class TestLambdaNl:
    @pytest.mark.parametrize(
        "n,l,lam,big_l",
        [(3, 0, 0.5, 3.0), (4, 0, 1.0, 4.0), (2, 1, 1.0, 4.0)],
    )
    def test_values(self, n, l, lam, big_l):
        assert lambda_nl(n, l) == (lam, big_l)

    def test_l_parameter_relation(self):
        # lam = L/2 - 1 for every (n, l) pair
        for n in range(1, 10):
            for l in range(0, 10):
                lam, big_l = lambda_nl(n, l)
                assert lam == big_l / 2.0 - 1.0


class TestEvaluate:
    def test_inverse_square(self):
        assert evaluate(InverseSquare(2.0), 1.0) == 2.0

    def test_power_law_constant(self):
        assert evaluate(PowerLaw(3.0, 0.0), 7.0) == 3.0

    def test_sum(self):
        q = Sum([Coulomb(1.0), InverseSquare(1.0)])
        assert evaluate(q, 0.5) == pytest.approx(2.0 + 4.0, abs=0)

    def test_harmonic(self):
        assert evaluate(Harmonic(2.0), 3.0) == 18.0

    def test_sum_additivity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = PowerLaw(float(rng.uniform(-2, 2)), float(rng.integers(0, 4)))
            b = Coulomb(float(rng.uniform(-2, 2)))
            x = float(rng.uniform(0.1, 10.0))
            assert evaluate(Sum([a, b]), x) == pytest.approx(
                evaluate(a, x) + evaluate(b, x), rel=1e-15
            )

    def test_tabulated_interpolates(self):
        q = Tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0])
        assert evaluate(q, 1.5) == pytest.approx(3.0)

    def test_tabulated_refuses_extrapolation(self):
        q = Tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0])
        with pytest.raises(OutOfRangeError):
            evaluate(q, 3.5)

    def test_tabulated_matches_np_interp_exactly(self):
        rng = np.random.default_rng(7)
        xs = np.cumsum(rng.uniform(0.01, 1.0, 50)) - 3.0
        qs = rng.normal(0.0, 10.0, 50)
        q = Tabulated(xs, qs)
        points = np.concatenate((rng.uniform(xs[0], xs[-1], 2000), xs, [xs[0], xs[-1]]))
        for x in points.tolist():
            assert evaluate(q, x) == float(np.interp(x, xs, qs)), x
        for x in (np.nextafter(xs[0], -np.inf), np.nextafter(xs[-1], np.inf), -1e300, 1e300):
            with pytest.raises(OutOfRangeError):
                evaluate(q, float(x))

    def test_tabulated_arrays_hold_the_samples(self):
        q = Tabulated([0, 1, 2.5, 3], (4.0, 5, 6, 7.5))
        samples = q.to_dict()
        assert samples["x"] == [0.0, 1.0, 2.5, 3.0] and samples["q"] == [4.0, 5.0, 6.0, 7.5]
        assert all(type(v) is float for v in samples["x"] + samples["q"])
        from_arrays = Tabulated(np.array(samples["x"]), np.array(samples["q"]))
        assert q == from_arrays and hash(q) == hash(from_arrays)

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            evaluate(Coulomb(1.0), 0.0)
        with pytest.raises(NonFiniteError):
            evaluate(PowerLaw(1.0, 0.5), -1.0)


class TestInvariants:
    def test_tabulated_needs_four_points(self):
        with pytest.raises(ValueError):
            Tabulated([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])

    def test_tabulated_needs_increasing_grid(self):
        with pytest.raises(ValueError):
            Tabulated([0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0])

    def test_sum_needs_terms(self):
        with pytest.raises(ValueError):
            Sum([])


class TestOriginCoefficient:
    def test_inverse_square_exact(self):
        assert InverseSquare(0.75).origin_coefficient() == 0.75

    def test_coulomb_vanishes(self):
        assert Coulomb(-5.0).origin_coefficient() == 0.0

    def test_strong_singularity_absent(self):
        assert PowerLaw(1.0, -3.0).origin_coefficient() is None

    def test_borderline_power(self):
        assert PowerLaw(2.5, -2.0).origin_coefficient() == 2.5

    def test_sum_propagates_absent(self):
        assert Sum([Zero(), PowerLaw(1.0, -3.0)]).origin_coefficient() is None
        assert Sum([InverseSquare(1.0), Coulomb(2.0)]).origin_coefficient() == 1.0

    def test_tabulated_absent(self):
        q = Tabulated([0.1, 0.2, 0.3, 0.4], [1.0, 1.0, 1.0, 1.0])
        assert q.origin_coefficient() is None


class TestEffectivePotential:
    def test_zero_l0_is_flat(self):
        ep = effective_potential(Zero(), 3, 0)
        assert ep.rho == 0.0
        for x in (0.1, 1.0, 5.0):
            assert evaluate(ep.q_eff, x) == 0.0

    def test_zero_l1(self):
        ep = effective_potential(Zero(), 3, 1)
        assert evaluate(ep.q_eff, 1.0) == 2.0

    def test_coulomb_combination(self):
        ep = effective_potential(Coulomb(-1.0), 3, 1)
        assert evaluate(ep.q_eff, 2.0) == pytest.approx(-0.5 + 2.0 / 4.0, abs=1e-15)

    def test_origin_coefficient_is_rho(self):
        for n in range(1, 8):
            for l in range(0, 6):
                ep = effective_potential(Zero(), n, l)
                assert ep.q_eff.origin_coefficient() == ep.rho == float(rho_nl_exact(n, l))


class TestJsonCodec:
    @pytest.mark.parametrize(
        "q",
        [
            Zero(),
            InverseSquare(0.75),
            Coulomb(-1.0),
            PowerLaw(3.0, -0.25),
            Harmonic(2.0),
            Sum([Coulomb(1.0), InverseSquare(1.0)]),
            Tabulated([0.0, 0.5, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
            Mirrored(Sum([Coulomb(1.0), InverseSquare(1.0)])),
        ],
    )
    def test_round_trip(self, q):
        assert from_dict(q.to_dict()) == q
        assert from_dict(json.loads(q.dumps())) == q

    def test_canonical_field_names(self):
        assert InverseSquare(0.75).to_dict() == {"type": "inverse_square", "c": 0.75}
        assert Sum([Zero()]).to_dict() == {"type": "sum", "terms": [{"type": "zero"}]}
        tab = Tabulated([0.0, 1.0, 2.0, 3.0], [5.0, 6.0, 7.0, 8.0]).to_dict()
        assert tab == {
            "type": "tabulated",
            "x": [0.0, 1.0, 2.0, 3.0],
            "q": [5.0, 6.0, 7.0, 8.0],
        }

    def test_decode_example(self):
        q = from_dict(json.loads('{"type": "inverse_square", "c": 0.75}'))
        assert q == InverseSquare(0.75)

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "inverse_square", "c": "0.75"},
            {"type": "inverse_square", "c": True},
            {"type": "inverse_square", "c": None},
            {"type": "inverse_square", "c": math.inf},
            {"type": "inverse_square", "c": 10**400},
            {"type": "power_law", "c": 1.0, "p": math.nan},
            {"type": "tabulated", "x": ["0", "1", "2", "3"], "q": [0, 0, 0, 0]},
            {"type": "tabulated", "x": [0, 1, 2, 3], "q": [0, False, 0, 0]},
            {"type": "tabulated", "x": "0123", "q": [0, 0, 0, 0]},
        ],
    )
    def test_fields_must_be_finite_json_numbers(self, data):
        with pytest.raises(ValueError, match="must be a"):
            from_dict(data)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            from_dict({"type": "morse"})
        with pytest.raises(ValueError):
            from_dict({"c": 1.0})
