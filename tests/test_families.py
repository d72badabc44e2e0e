import json
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from biflab import misiurewicz
from biflab.errors import CriticalOnOrbit, DegenerateMap
from biflab.families import (
    MapFamily,
    critical_points,
    eval_map,
    family_from_json,
    family_to_json,
    find_periodic,
    multiplier,
    orbit,
)


def lattes_family():
    # f(z) = (z^2+1)^2 / (4z(z^2-1)): degree 4, both critical orbits land
    # on the repelling fixed points of a torus endomorphism
    return MapFamily("rational", 4,
                     num=[[1], [0], [2], [0], [1]],
                     den=[[0], [-4], [0], [4], [0]])


class TestEval:
    def test_quadratic_at_zero(self):
        fam = MapFamily("unicritical", 2)
        assert eval_map(fam, [-2.0 + 0j], 0j) == -2.0 + 0j

    def test_cubic_pure_power(self):
        fam = MapFamily("branner_hubbard", 3)
        assert abs(eval_map(fam, [0j, 0j], 3.0 + 0j) - 9.0) < 1e-12

    def test_cubic_with_second_critical_point(self):
        fam = MapFamily("branner_hubbard", 3)
        # p(z) = z^3/3 - z^2/2 with c1 = 1, a = 0
        assert abs(eval_map(fam, [1.0 + 0j, 0j], 2.0 + 0j) - 2.0 / 3.0) < 1e-12

    def test_rational_matches_direct_formula(self):
        fam = lattes_family()
        for z in (0.3 + 0.7j, 1.7 - 0.4j, 0.9 + 0.1j):
            direct = (z ** 2 + 1) ** 2 / (4 * z * (z ** 2 - 1))
            assert abs(eval_map(fam, [0j], z) - direct) < 1e-12 * max(1, abs(direct))

    def test_rational_chart_consistency(self):
        # the reciprocal chart takes over at |z| > 1; values must agree
        # with the direct formula across the overlap annulus
        fam = lattes_family()
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
            direct = (z ** 2 + 1) ** 2 / (4 * z * (z ** 2 - 1))
            got = complex(eval_map(fam, [0j], z))
            assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_degenerate_rational_rejected(self):
        # num and den share the root z = 1 when lam = 1: resultant 0
        fam = MapFamily("rational", 2,
                        num=[[0, -1], [1]],   # z - lam
                        den=[[-1], [0], [1]])  # z^2 - 1
        with pytest.raises(DegenerateMap):
            eval_map(fam, [1.0 + 0j], 0.5 + 0j)


class TestOrbit:
    def test_chebyshev_critical_orbit(self):
        fam = MapFamily("unicritical", 2)
        ob = orbit(fam, [-2.0 + 0j], 0j, 3)
        assert np.allclose(ob.points, [0, -2, 2, 2])

    def test_period_two_tail_at_i(self):
        fam = MapFamily("unicritical", 2)
        ob = orbit(fam, [1j], 0j, 4)
        assert np.allclose(ob.points, [0, 1j, -1 + 1j, -1j, -1 + 1j])

    def test_fixed_point_cocycle(self):
        fam = MapFamily("unicritical", 2)
        ob = orbit(fam, [0j], 1.0 + 0j, 5)
        assert np.allclose(ob.points, 1.0)
        assert np.allclose(ob.log_deriv, np.arange(6) * math.log(2))

    def test_escape_is_flagged_not_raised(self):
        fam = MapFamily("unicritical", 2)
        ob = orbit(fam, [0j], 50.0 + 0j, 10)
        assert ob.escaped and ob.escape_index == 0

    def test_cocycle_additivity(self):
        fam = MapFamily("unicritical", 2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = complex(rng.uniform(-1, 0.2), rng.uniform(-0.5, 0.5))
            z0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            m, n = rng.integers(1, 20), rng.integers(1, 20)
            full = orbit(fam, [c], z0, int(m + n))
            if full.escaped or np.any(~np.isfinite(full.log_deriv)):
                continue
            head = orbit(fam, [c], z0, int(m))
            tail = orbit(fam, [c], complex(full.points[m]), int(n))
            assert abs(full.log_deriv[m + n]
                       - head.log_deriv[m] - tail.log_deriv[n]) < 1e-10


class TestCriticalPoints:
    def test_cubic_marked(self):
        fam = MapFamily("branner_hubbard", 3)
        pts = critical_points(fam, [2.0 + 0j, 1.0 + 0j])
        assert sorted(((p.real, p.imag), m) for p, m in pts) == [((0, 0), 1), ((2, 0), 1)]

    def test_unicritical_multiplicity(self):
        fam = MapFamily("unicritical", 4)
        assert critical_points(fam, [0.3 + 0j]) == [(0j, 3)]

    def test_quartic_merged_critical_points(self):
        fam = MapFamily("branner_hubbard", 4)
        pts = critical_points(fam, [1.0 + 0j, 1.0 + 0j, 0j])
        assert sorted(((p.real, p.imag), m) for p, m in pts) == [((0, 0), 1), ((1, 0), 2)]

    def test_cubic_derivative_factorization(self):
        # p'(z) = z (z - c1) must hold identically
        fam = MapFamily("branner_hubbard", 3)
        rng = np.random.default_rng(7)
        for _ in range(100):
            lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = complex(*rng.standard_normal(2))
            lhs = complex(fam.deriv(lam, z))
            rhs = z * (z - lam[0])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_lattes_critical_count(self):
        pts = critical_points(lattes_family(), [0j])
        assert sum(m for _, m in pts) == 6  # 2d - 2 for d = 4


class TestPeriodic:
    def test_chebyshev_beta(self):
        fam = MapFamily("unicritical", 2)
        pp = find_periodic(fam, [-2.0 + 0j], 1, 1.9 + 0j)
        assert abs(pp.location - 2) < 1e-12
        assert abs(pp.multiplier - 4) < 1e-10
        assert pp.period == 1

    def test_squaring_map(self):
        fam = MapFamily("unicritical", 2)
        pp = find_periodic(fam, [0j], 1, 0.9 + 0j)
        assert abs(pp.location - 1) < 1e-12 and abs(pp.multiplier - 2) < 1e-10

    def test_period_two_at_i(self):
        fam = MapFamily("unicritical", 2)
        pp = find_periodic(fam, [1j], 2, -1.1 + 0.9j)
        assert abs(pp.location - (-1 + 1j)) < 1e-10
        assert pp.period == 2
        assert abs(pp.multiplier - 4 * (1 + 1j)) < 1e-9
        assert abs(abs(pp.multiplier) - 4 * math.sqrt(2)) < 1e-9

    def test_minimal_period_reduction(self):
        # a fixed point found through the period-4 equation reports period 1
        fam = MapFamily("unicritical", 2)
        pp = find_periodic(fam, [-2.0 + 0j], 4, 2.05 + 0j)
        assert pp.period == 1 and abs(pp.location - 2) < 1e-10

    def test_closure_residual(self):
        fam = MapFamily("unicritical", 2)
        pp = find_periodic(fam, [0.21 + 0.3j], 3, 0.5 + 0.4j)
        z = pp.location
        for _ in range(pp.period):
            z = complex(fam.eval([0.21 + 0.3j], z))
        assert abs(z - pp.location) < 1e-12


class TestMultiplier:
    def test_fixed_point_log_modulus(self):
        fam = MapFamily("unicritical", 2)
        lm, _ = multiplier(fam, [-2.0 + 0j], [2.0 + 0j] * 3)
        assert abs(lm - 3 * math.log(4)) < 1e-12

    def test_unit_fixed_point(self):
        fam = MapFamily("unicritical", 2)
        lm, _ = multiplier(fam, [0j], [1.0 + 0j] * 10)
        assert abs(lm - 10 * math.log(2)) < 1e-12

    def test_negative_fixed_point(self):
        fam = MapFamily("unicritical", 2)
        lm, arg = multiplier(fam, [-2.0 + 0j], [-1.0 + 0j] * 4)
        assert abs(lm - 4 * math.log(2)) < 1e-12
        assert abs(abs(arg) - 4 * math.pi) < 1e-12

    def test_critical_on_segment(self):
        fam = MapFamily("unicritical", 2)
        with pytest.raises(CriticalOnOrbit):
            multiplier(fam, [0.25 + 0j], [0j])


def test_family_json_roundtrip():
    fam = lattes_family()
    doc = family_to_json(fam, params=[0.5 + 0.25j])
    fam2, params = family_from_json(json.loads(json.dumps(doc)))
    assert fam2.kind == "rational" and fam2.degree == 4
    assert np.allclose(params, [0.5 + 0.25j])
    z = 0.4 + 0.2j
    assert abs(complex(fam.eval([0j], z)) - complex(fam2.eval([0j], z))) < 1e-14

    fam3, params3 = family_from_json({"kind": "branner_hubbard", "degree": 3})
    assert fam3.param_dim == 2 and params3 is None


@pytest.mark.parametrize("drop", ["kind", "degree", "num", "den"])
def test_family_json_missing_key(drop):
    # used to end in a KeyError, which the command line reports as a crash
    doc = family_to_json(lattes_family())
    del doc[drop]
    with pytest.raises(ValueError, match=f"family JSON is missing {drop}"):
        family_from_json(doc)


# ----------------------------------------------------------------------
# coefficient memo: scalar calls reuse one parameter's coefficients and
# must keep the bits of a fresh npoly.polyval per call

POLY_FAMILIES = [MapFamily("unicritical", 2), MapFamily("unicritical", 3),
                 MapFamily("branner_hubbard", 3), MapFamily("branner_hubbard", 4)]


def _random_complex(rng, shape, scale=3.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _same_bits(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.ravel().view(np.uint64),
                                                 b.ravel().view(np.uint64))


def _old_eval(self, lam, z):
    z = np.asarray(z, dtype=complex)
    if self.kind == "rational":
        return self._rat_eval(lam, z)
    return npoly.polyval(z, self.poly_coeffs(lam))


def _old_deriv(self, lam, z):
    z = np.asarray(z, dtype=complex)
    if self.kind == "rational":
        return self._rat_deriv(lam, z)
    return npoly.polyval(z, npoly.polyder(self.poly_coeffs(lam)))


NAN, INF = float("nan"), float("inf")
SPECIAL_COORDS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                  complex(NAN, 0.0), complex(0.0, NAN), complex(INF, 0.0),
                  complex(-INF, 0.0), complex(0.0, INF), complex(0.0, -INF)]


def _bits_any_nan(a):
    """uint64 words of a complex array with every NaN part made the same
    NaN: numpy's complex add and multiply give a NaN result another sign
    on arrays of fewer than four elements than on longer ones."""
    parts = np.ascontiguousarray(a, dtype=complex).view(float).copy()
    parts[np.isnan(parts)] = NAN
    return parts.view(np.uint64)


class TestCoefficientRows:
    @pytest.mark.parametrize("fam", [MapFamily("unicritical", 2), MapFamily("unicritical", 3)]
                             + [MapFamily("branner_hubbard", d) for d in (2, 3, 4, 5)],
                             ids=lambda f: f"{f.kind}{f.degree}")
    def test_scalar_stack_and_grid_share_bits(self, fam):
        # one parameter, a column of a stack and a grid cell get the same
        # coefficients, on random rows and on rows of signed zeros, nan
        # and inf coordinates
        rng = np.random.default_rng(29 + fam.degree)
        m, d = fam.param_dim, fam.degree
        stack = np.concatenate([
            _random_complex(rng, (200, m), scale=1.5),
            np.array(SPECIAL_COORDS)[rng.integers(0, len(SPECIAL_COORDS), (100, m))]])
        with np.errstate(invalid="ignore", over="ignore"):
            coef = fam.poly_coeffs(stack)
            single = np.stack([fam.poly_coeffs(row) for row in stack], axis=1)
            # a grid scan passes one array of the grid's shape per coordinate
            rows = fam.coeff_rows([col.reshape(30, 10) for col in stack.T.copy()])
        assert coef.shape == (d + 1, len(stack)) and single.shape == coef.shape
        assert np.array_equal(_bits_any_nan(coef), _bits_any_nan(single))
        assert len(rows) == d + 1
        for j, row in enumerate(rows):
            assert np.array_equal(_bits_any_nan(np.broadcast_to(row, (30, 10)).ravel()),
                                  _bits_any_nan(coef[j]))
        # a coefficient that does not depend on lambda is a plain float
        constant = [type(row) is float for row in rows]
        assert sum(constant) == (d if fam.kind == "unicritical" else 2)
        assert all(c or row.shape == (30, 10) for c, row in zip(constant, rows))


class TestCoefficientMemo:
    @pytest.mark.parametrize("fam", POLY_FAMILIES, ids=lambda f: f"{f.kind}{f.degree}")
    def test_bits_match_polyval_for_every_shape(self, fam):
        rng = np.random.default_rng(17 + fam.degree)
        shapes = [()] + [(n,) for n in range(1, 10)] + [(3, 4), (1, 7)]
        for trial in range(40):
            lam = _random_complex(rng, fam.param_dim, scale=1.5)
            coef = fam.poly_coeffs(lam)
            for shape in shapes:
                # eval took np.asarray(z) before polyval, so a scalar z was
                # a 0-d array there (ufunc arithmetic, not numpy-scalar)
                z = np.asarray(_random_complex(rng, shape, scale=2.0 ** (trial % 6)))
                arg = complex(z) if z.ndim == 0 else z
                assert _same_bits(fam.eval(lam, arg), npoly.polyval(z, coef))
                assert _same_bits(fam.deriv(lam, arg), npoly.polyval(z, npoly.polyder(coef)))

    @pytest.mark.parametrize("fam", POLY_FAMILIES, ids=lambda f: f"{f.kind}{f.degree}")
    def test_scalar_results_keep_their_type(self, fam):
        lam = np.full(fam.param_dim, 0.3 - 0.2j)
        z = 0.7 + 0.1j
        assert type(fam.eval(lam, z)) is type(_old_eval(fam, lam, z))
        assert type(fam.deriv(lam, z)) is type(_old_deriv(fam, lam, z))

    def test_alternating_parameters_are_never_stale(self):
        fam = MapFamily("branner_hubbard", 3)
        lams = [np.array([0.5 + 0.1j, 1.2 - 0.3j]), np.array([-0.7j, 0.9 + 0j])]
        z = np.array([0.3 + 0.4j, -1.1 + 0.2j])
        for k in range(6):
            lam = lams[k % 2]
            coef = fam.poly_coeffs(lam)
            # deriv first on odd rounds, so both fill orders are exercised
            if k % 2:
                assert _same_bits(fam.deriv(lam, z), npoly.polyval(z, npoly.polyder(coef)))
            assert _same_bits(fam.eval(lam, z), npoly.polyval(z, coef))
            assert _same_bits(fam.deriv(lam, z), npoly.polyval(z, npoly.polyder(coef)))

    def test_parameter_mutated_in_place_is_never_stale(self):
        fam = MapFamily("branner_hubbard", 3)
        lam = np.array([0.5 + 0.1j, 1.2 - 0.3j])
        z = 0.8 - 0.6j
        before = fam.eval(lam, z), fam.deriv(lam, z)
        lam[1] = -0.4 + 0.9j
        after = fam.eval(lam, z), fam.deriv(lam, z)
        fresh = MapFamily("branner_hubbard", 3)
        assert _same_bits(after[0], fresh.eval(lam.copy(), z))
        assert _same_bits(after[1], fresh.deriv(lam.copy(), z))
        assert not _same_bits(before[0], after[0])

    def test_poly_coeffs_returns_a_fresh_writable_array(self):
        fam = MapFamily("branner_hubbard", 3)
        lam = [0.5 + 0.1j, 1.2 - 0.3j]
        z = 0.8 - 0.6j
        expected = fam.eval(lam, z)
        a = fam.poly_coeffs(lam)
        b = fam.poly_coeffs(lam)
        assert a is not b and a.flags.writeable
        a[:] = 99.0
        assert _same_bits(fam.eval(lam, z), expected)
        assert _same_bits(b, fam.poly_coeffs(lam))

    @pytest.mark.parametrize("pats, seed", [
        ((misiurewicz.Preperiodic(1, 1), misiurewicz.Preperiodic(2, 2)),
         [-0.375 + 0.8j, 1.3 + 0.5j]),
        ((misiurewicz.Preperiodic(2, 2), misiurewicz.Preperiodic(1, 1)),
         [0.4j, 1.3 + 0.5j]),
        ((misiurewicz.Preperiodic(2, 2), misiurewicz.Preperiodic(1, 1)),
         [1.125 + 0j, 1.3 + 0.5j]),
    ])
    def test_hunt_certificates_match_per_call_coefficients(self, monkeypatch, pats, seed):
        # seeds from the c12 grid of the cubic transversality hunt
        fam = MapFamily("branner_hubbard", 3)
        spec = misiurewicz.ActivitySpec((0, 1), 2, pats)

        def certificate():
            cert = misiurewicz.solve_misiurewicz(fam, seed, spec)
            return json.dumps(misiurewicz.certificate_to_json(cert, fam))

        memoized = certificate()
        monkeypatch.setattr(MapFamily, "eval", _old_eval)
        monkeypatch.setattr(MapFamily, "deriv", _old_deriv)
        assert memoized == certificate()
