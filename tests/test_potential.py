import math

import numpy as np
import pytest

from biflab.errors import CriticalOnOrbit
from biflab.families import MapFamily
from biflab.potential import (
    GREEN_TOL,
    PLANE_MAXITER,
    LiftVector,
    _backward_orbits,
    apply_lift,
    critical_green_sum,
    escape_rate,
    green_at,
    lyapunov_mc,
)

QUAD = MapFamily("unicritical", 2)
CUBIC = MapFamily("branner_hubbard", 3)


class TestGreen:
    def test_squaring_lift_closed_form(self):
        # G = log max(|u|, |v|) for F(u,v) = (u^2, v^2)
        v = LiftVector.of(2.0 + 0j, 1.0 + 0j)
        g = green_at(QUAD, [0j], v)
        assert g.converged
        assert abs(g.value - math.log(2)) < 1e-12

    def test_homogeneity_and_functional_equation(self):
        rng = np.random.default_rng(17)
        tol = 1e-12
        for _ in range(200):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            u = complex(*rng.standard_normal(2))
            w = complex(*rng.standard_normal(2))
            if max(abs(u), abs(w)) < 1e-3:
                continue
            v = LiftVector.of(u, w)
            g = green_at(QUAD, [c], v)
            t = 3.0
            gt = green_at(QUAD, [c], LiftVector.of(t * u, t * w))
            assert abs(gt.value - g.value - math.log(t)) < 10 * tol
            gf = green_at(QUAD, [c], apply_lift(QUAD, [c], v))
            assert abs(gf.value - 2 * g.value) < 10 * tol

    @pytest.mark.parametrize("fam, lam", [(QUAD, [0.3 + 0j]), (CUBIC, [-1.2 + 0j, 0.7 + 0j])],
                             ids=["unicritical2", "bh3"])
    def test_slow_escape_against_the_kernel(self, fam, lam):
        # each critical value starts inside the unit disk, where the sum
        # gains exactly 0 per step until the orbit leaves; stopping on two
        # small terms returned G = 0 for an escaping orbit
        lams = list(np.asarray(lam, dtype=complex).reshape(-1, 1))
        rows = fam.coeff_rows(lams)
        for j, (c, _) in enumerate(fam.critical_rows(lams)):
            cv = fam.power_step(rows, c)
            ref = escape_rate(fam, lams, j, PLANE_MAXITER)[0]
            g = green_at(fam, lam, LiftVector.of(complex(cv[0]), 1.0 + 0j))
            assert g.converged and ref > 0.0 and abs(g.value - ref) < GREEN_TOL

    def test_nonnegative_iff_bounded(self):
        from biflab.families import orbit
        rng = np.random.default_rng(23)
        for _ in range(40):
            c = complex(rng.uniform(-2.5, 1.5), rng.uniform(-2, 2))
            g = escape_rate(QUAD, [np.array([c])], 0, PLANE_MAXITER)
            ob = orbit(QUAD, [c], complex(c), 400)
            assert g[0] >= 0.0
            assert (g[0] > 0.0) == ob.escaped


class TestCriticalGreenSum:
    def test_main_cardioid_zero(self):
        assert critical_green_sum(QUAD, [0j]) == 0.0

    def test_escaping_grows_like_log(self):
        c = 1e4 + 0j
        val = critical_green_sum(QUAD, [c])
        assert abs(val - math.log(1e4)) < 0.01 * math.log(1e4)

    def test_cubic_connectedness_locus(self):
        # both critical orbits bounded at the pure power map
        assert critical_green_sum(CUBIC, [0j, 0j]) == 0.0


def sample(lam, n, depth, seed):
    """The endpoints of the backward orbits of samples 0..n-1."""
    return _backward_orbits(QUAD, lam, np.arange(n, dtype=np.uint64), depth, seed)


class TestSampling:
    def test_circle_support(self):
        z = sample([0j], 2000, 30, 1)
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-6

    def test_chebyshev_segment_support(self):
        z = sample([-2.0 + 0j], 2000, 30, 2)
        assert np.max(np.abs(z.imag)) < 1e-6
        assert np.min(z.real) > -2 - 1e-9 and np.max(z.real) < 2 + 1e-9

    def test_circle_log_mean(self):
        n = 40000
        z = sample([0j], n, 30, 3)
        assert abs(np.mean(np.log(np.abs(z)))) < 2 / math.sqrt(n)

    def test_depth_zero_is_start_point(self):
        assert np.array_equal(sample([0j], 3, 0, 0), np.full(3, 1.0 + 1.0j))

    def test_deterministic_in_seed(self):
        a = sample([0.1 + 0.2j], 500, 20, 9)
        b = sample([0.1 + 0.2j], 500, 20, 9)
        assert np.array_equal(a, b)
        c = sample([0.1 + 0.2j], 500, 20, 10)
        assert not np.array_equal(a, c)


class TestLyapunov:
    def test_squaring_map(self):
        res = lyapunov_mc(QUAD, [0j], 100000, 30, 0)
        assert abs(res.value - math.log(2)) < 1e-3

    def test_chebyshev(self):
        res = lyapunov_mc(QUAD, [-2.0 + 0j], 200000, 40, 0)
        assert abs(res.value - math.log(2)) < 2e-3

    def test_lattes_equals_half_log_degree(self):
        fam = MapFamily("rational", 4,
                        num=[[1], [0], [2], [0], [1]],
                        den=[[0], [-4], [0], [4], [0]])
        res = lyapunov_mc(fam, [0j], 40000, 25, 7)
        assert abs(res.value - 0.5 * math.log(4)) < 4 * res.stderr

    def test_margulis_ruelle_floor(self):
        rng = np.random.default_rng(31)
        for i in range(50):
            c = complex(rng.uniform(-2.5, 1.5), rng.uniform(-2, 2))
            res = lyapunov_mc(QUAD, [c], 512, 20, 100 + i)
            assert res.value >= math.log(2) / 2 - 3 * res.stderr

    def test_matches_green_decomposition(self):
        # L = log d + G(critical point); critical_green_sum evaluates at
        # the critical value, one map step further, so divide by d
        for c in (0.3 + 0.6j, -1.2 + 0.4j, 0.26 + 0j):
            mc = lyapunov_mc(QUAD, [c], 150000, 80, 5)
            closed = math.log(2) + critical_green_sum(QUAD, [c]) / 2.0
            assert abs(mc.value - closed) < max(4 * mc.stderr, 2e-3)

    def test_samples_stuck_on_critical_point_raise(self, monkeypatch):
        # every backward orbit lands on the critical point 0, so the five
        # redraw rounds cannot clear it
        fam = MapFamily("unicritical", 2)
        monkeypatch.setattr(fam, "preimages", lambda lam, z: np.zeros((2, len(z)), complex))
        with pytest.raises(CriticalOnOrbit):
            lyapunov_mc(fam, [0j], 64, 5, 0)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_fewer_than_two_samples_rejected(self, n):
        # one sample has no standard error and none has no mean; both used
        # to come back as NaN
        with pytest.raises(ValueError, match=f"n_points must be >= 2.*got {n}"):
            lyapunov_mc(QUAD, [-2.0 + 0j], n, 5, 0)

    @pytest.mark.parametrize("depth", [-1, 0])
    def test_depth_below_one_rejected(self, depth):
        # depth 0 used to report log|f'(1+i)| = 1.0397 for z^2, not log 2
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            lyapunov_mc(QUAD, [0j], 100, depth, 0)

    def test_depth_one_accepted(self):
        res = lyapunov_mc(QUAD, [0j], 100, 1, 0)
        assert math.isfinite(res.value) and res.depth == 1

    def test_two_samples_suffice(self):
        res = lyapunov_mc(QUAD, [-2.0 + 0j], 2, 5, 0)
        assert math.isfinite(res.value) and math.isfinite(res.stderr)

    def test_nonfinite_log_derivative_raises(self, monkeypatch):
        # a derivative vanishing away from the marked critical points
        # would average log 0 = -inf into the estimate
        fam = MapFamily("unicritical", 2)
        f, df = fam.map_and_deriv([0j])
        monkeypatch.setattr(fam, "map_and_deriv", lambda lam: (
            f, lambda z: np.where(np.arange(len(z)) == 3, 0, df(z))))
        with pytest.raises(CriticalOnOrbit):
            lyapunov_mc(fam, [0j], 64, 5, 0)


def test_demarco_residual_on_subgrid():
    # ddc of (L - critical Green sum) vanishes against the stencil noise
    # floor measured on the harmonic field Re(c^2)
    n = 64
    xs = np.linspace(-2.5, 1.5, n)
    ys = np.linspace(-2.0, 2.0, n)
    L = np.empty((n, n))
    G = np.empty((n, n))
    H = np.empty((n, n))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            c = complex(x, y)
            G[i, j] = critical_green_sum(QUAD, [c])
            L[i, j] = math.log(2) + G[i, j]
            H[i, j] = (c * c).real

    def lap(u):
        return (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
                - 4 * u[1:-1, 1:-1])

    floor = np.max(np.abs(lap(H)))
    assert np.max(np.abs(lap(L - G))) <= 10 * max(floor, 1e-12)
