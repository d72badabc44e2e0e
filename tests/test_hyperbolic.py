import math

import numpy as np
import pytest

from biflab.errors import LostHyperbolicity, NoConvergence
from biflab.families import MapFamily, orbit
from biflab.hyperbolic import (
    _branch_apply,
    branch_radius,
    build_cantor,
    coded_orbit,
    continue_cantor,
    continue_orbit,
    distortion_ratio,
    fit_distortion_constant,
    holder_exponents,
    inverse_branch,
    linearize_orbit,
)

QUAD = MapFamily("unicritical", 2)


def beta(c):
    # repelling fixed point of z^2 + c on the main branch
    return (1 + (1 - 4 * c) ** 0.5) / 2


class TestContinuation:
    def test_beta_fixed_point_track(self):
        track = continue_orbit(QUAD, [0j], [-0.5 + 0j], [1.0 + 0j])
        assert abs(track.moved_points[0] - beta(-0.5)) < 1e-12

    def test_beta_to_chebyshev(self):
        track = continue_orbit(QUAD, [0j], [-2.0 + 0j], [1.0 + 0j])
        assert abs(track.moved_points[0] - 2.0) < 1e-12
        assert abs(track.multiplier_log_moved[0] - math.log(4)) < 1e-12

    def test_trivial_path_is_identity(self):
        pts = [2.0 + 0j] * 4
        track = continue_orbit(QUAD, [-2.0 + 0j], [-2.0 + 0j], pts)
        assert np.array_equal(track.moved_points, track.base_points)
        assert track.multiplier_log_base == track.multiplier_log_moved

    def test_orbit_segment_stays_conjugate(self):
        # moved points still satisfy f(z_k) = z_{k+1} at the target
        c0, c1 = -1.8 + 0j, -1.8 + 0.05j
        ob = orbit(QUAD, [c0], beta(c0), 6)
        track = continue_orbit(QUAD, [c0], [c1], ob.points)
        mp = track.moved_points
        for k in range(len(mp) - 1):
            assert abs(complex(QUAD.eval([c1], mp[k])) - mp[k + 1]) < 1e-10

    def test_rejects_non_repelling_base(self):
        with pytest.raises(LostHyperbolicity):
            continue_orbit(QUAD, [0j], [0.1 + 0j], [0j])


class TestInverseBranch:
    def test_chebyshev_fixed_point(self):
        z, spec = inverse_branch(QUAD, [-2.0 + 0j], 2.0 + 0j, 2.0 + 0j)
        assert abs(z - 2.0) < 1e-12
        assert spec.K > 1.0 and spec.B >= spec.K and spec.eta > 0

    def test_squaring_branch_value(self):
        z, _ = inverse_branch(QUAD, [0j], 1.0 + 0j, 1.21 + 0j)
        assert abs(z - 1.1) < 1e-12

    def test_two_sided_contraction(self):
        # |branch(w1) - branch(w2)| in [|w1 - w2|/B, |w1 - w2|/K]
        lam = [-2.0 + 0j]
        anchor = 2.0 + 0j
        r, K, B = branch_radius(QUAD, lam, anchor)
        eta = K * r
        fa = complex(QUAD.eval(lam, anchor))
        rng = np.random.default_rng(11)
        for _ in range(100):
            w1, w2 = fa + 0.4 * eta * (rng.standard_normal(2)
                                       + 1j * rng.standard_normal(2)) / 2
            z1, _ = inverse_branch(QUAD, lam, anchor, complex(w1))
            z2, _ = inverse_branch(QUAD, lam, anchor, complex(w2))
            d, dz = abs(w1 - w2), abs(z1 - z2)
            assert dz <= d / K * (1 + 1e-10)
            assert dz >= d / B * (1 - 1e-10)

    def test_target_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            inverse_branch(QUAD, [0j], 1.0 + 0j, 50.0 + 0j)


class TestDistortion:
    def test_trivial_ratio(self):
        ratio, ok, C = distortion_ratio(QUAD, [-2.0 + 0j], [-2.0 + 0j], 2.0 + 0j, 10)
        assert ratio == 1.0 and ok and C == 0.0

    def test_single_constant_covers_grid(self):
        # one fitted C bounds |ratio - 1| <= exp(n C ||dlam||) - 1 across
        # depths and perturbation sizes
        lam0 = [-2.0 + 0j]
        C = fit_distortion_constant(
            QUAD, lam0, [[-2.0 + 1e-3j], [-2e0 + 1e-3 + 0j]], 2.0 + 0j)
        assert C > 0
        for eps in (1e-5, 1e-4, 1e-3):
            for n in (5, 10, 20, 40):
                lam = [-2.0 + eps * (0.6 + 0.8j)]
                _, ok, _ = distortion_ratio(QUAD, lam0, lam, 2.0 + 0j, n, C=C)
                assert ok

    def test_deviation_grows_with_perturbation(self):
        lam0 = [-2.0 + 0j]
        devs = []
        for eps in (1e-5, 1e-4, 1e-3):
            ratio, _, _ = distortion_ratio(QUAD, lam0, [-2.0 + eps + 0j],
                                           2.0 + 0j, 20)
            devs.append(abs(ratio - 1.0))
        assert devs[0] < devs[1] < devs[2]


class TestLinearization:
    def test_koenigs_coefficients_chebyshev(self):
        # order-by-order Koenigs recursion for z^2 - 2 at the fixed point 2:
        # phi(4z + z^2) = 4 phi(z) determines the coefficients uniquely
        N = 10
        a = np.zeros(N + 1)
        a[1] = 1.0
        for m in range(2, N + 1):
            s = sum(a[k] * math.comb(k, m - k) * 4.0 ** (2 * k - m)
                    for k in range((m + 1) // 2, m))
            a[m] = -s / (4.0 ** m - 4.0)
        lin = linearize_orbit(QUAD, [-2.0 + 0j], 2.0 + 0j, 6, N_trunc=N)
        assert np.allclose(lin.psi0, a, rtol=1e-9, atol=1e-12)

    def test_squaring_map_log_series(self):
        # z^2 at the fixed point 1 linearizes by log(1 + z); the inverse
        # pair is exp(z) - 1
        N = 10
        # multiplier 2 damps chain-truncation error like 2^-tail
        lin = linearize_orbit(QUAD, [0j], 1.0 + 0j, 8, N_trunc=N, tail=60)
        ks = np.arange(1, N + 1, dtype=float)
        log_series = (-1.0) ** (ks + 1) / ks
        exp_series = 1.0 / np.array([math.factorial(int(k)) for k in ks])
        assert np.allclose(lin.psi0[1:], log_series, rtol=1e-9, atol=1e-12)
        assert np.allclose(lin.psi1[1:], exp_series, rtol=1e-9, atol=1e-12)
        assert abs(lin.m_log[0] - 8 * math.log(2)) < 1e-12

    def test_residual_certificate_deep(self):
        lin = linearize_orbit(QUAD, [-2.0 + 0j], 2.0 + 0j, 30)
        assert lin.residual <= 1e-8 * lin.rho
        assert lin.C * lin.rho < 1.0

    def test_radius_ladder_tracks_multiplier(self):
        n = 12
        lin = linearize_orbit(QUAD, [-2.0 + 0j], 2.0 + 0j, n)
        expect = lin.rho / 2.0 * 4.0 ** -np.arange(n + 1, dtype=float)
        assert np.allclose(lin.rho_n, expect, rtol=1e-12)
        assert abs(lin.m_log[0] - n * math.log(4)) < 1e-12

    def test_functional_equation_pointwise(self):
        # f^n(w + z) - f^n(w) = psi1(m_n psi0(z)) on |z| <= rho_n
        lam, w, n = [-2.0 + 0j], 2.0 + 0j, 5
        lin = linearize_orbit(QUAD, lam, w, n)
        m_n = np.exp(lin.m_log[0] + 1j * lin.m_log[1])
        rng = np.random.default_rng(13)
        for _ in range(30):
            z = lin.rho_n[n] * 0.5 * complex(*rng.standard_normal(2)) / 2
            u = w + z
            for _ in range(n):
                u = complex(QUAD.eval(lam, u))
            pred = complex(lin.psi1_eval(m_n * lin.psi0_eval(z)))
            assert abs((u - w) - pred) <= 1e-8 * lin.rho

    def test_linear_map_gives_identity_pair(self):
        fam = MapFamily("rational", 1, num=[[0], [2]], den=[[1]])
        lin = linearize_orbit(fam, [0j], 0j, 4, N_trunc=8)
        ident = np.zeros(9)
        ident[1] = 1.0
        assert np.allclose(lin.psi0, ident, atol=1e-12)
        assert np.allclose(lin.psi1, ident, atol=1e-12)
        assert lin.C < 1e-10


class TestCantor:
    def test_depth_zero_is_anchors(self):
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 0)
        assert np.allclose(cs.cloud, [3.0, -2.0])
        assert cs.words.shape == (2, 0)

    def test_negative_depth_rejected(self):
        # used to return the anchors and record depth -1
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], -1)

    def test_vanishing_branch_derivative_is_no_convergence(self):
        # (f^2)'(0) = 0: the Newton step of the period-2 branch would divide by 0
        with pytest.raises(NoConvergence):
            _branch_apply(MapFamily("unicritical", 2), [-6 + 0j], 3 + 0j, 3 + 0j,
                          period=2, guard=0j)

    def test_depth_ten_cloud(self):
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 10)
        assert len(cs.cloud) == 1024
        assert cs.words.shape == (1024, 10)
        assert cs.K_cloud > 1.0 and cs.eta > 0
        # every cloud point sits inside the generator disk of its first symbol
        anchors = np.array(cs.anchors)
        d = np.abs(cs.cloud - anchors[cs.words[:, 0]])
        assert np.max(d) <= cs.eta + 1e-12

    def test_cloud_points_satisfy_coding(self):
        # f maps the point of word (w0 w1 ... ) next to the point of the
        # stripped word; coded_orbit rebuilds that orbit at Newton tolerance
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 10)
        for idx in (0, 341, 1023):
            pts = coded_orbit(cs, idx, 40)
            assert abs(pts[0] - cs.cloud[idx]) < 1e-12
            for k in range(40):
                assert abs(complex(QUAD.eval([-6.0 + 0j], pts[k])) - pts[k + 1]) < 1e-9

    def test_coded_orbit_stays_in_disks(self):
        # naive forward iteration of the same point leaves the disks
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 10)
        anchors = np.array(cs.anchors)
        pts = coded_orbit(cs, 597, 40)
        assert np.max(np.min(np.abs(pts[:, None] - anchors[None, :]), axis=1)) \
            <= cs.eta + 1e-12
        naive = orbit(QUAD, [-6.0 + 0j], complex(cs.cloud[597]), 40)
        assert naive.escaped or \
            np.max(np.min(np.abs(naive.points[:, None] - anchors[None, :]), axis=1)) > cs.eta

    def test_coded_orbit_of_depth_zero_cloud(self):
        # a depth-0 cloud has empty words, so no orbit can be rebuilt
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 0)
        with pytest.raises(ValueError, match="depth 0"):
            coded_orbit(cs, 0, 3)

    def test_continue_cantor_trivial(self):
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 6)
        cloud, anchors = continue_cantor(cs, [-6.0 + 0j])
        assert np.array_equal(cloud, cs.cloud)

    def test_continue_cantor_tracks_fixed_points(self):
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 6)
        c1 = -6.1 + 0.05j
        cloud, anchors = continue_cantor(cs, [c1])
        assert abs(anchors[0] - beta(c1)) < 1e-10
        assert abs(anchors[1] - (1 - (1 - 4 * c1) ** 0.5) / 2) < 1e-10
        assert len(cloud) == len(cs.cloud)


class TestHolder:
    def test_trivial_motion_is_isometry(self):
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 6)
        band = holder_exponents(cs, [-6.0 + 0j])
        assert abs(band.alpha_low - 1) < 1e-12
        assert abs(band.alpha_high - 1) < 1e-12
        assert abs(band.slope - 1) < 1e-12

    def test_small_motion_band(self):
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 6)
        band = holder_exponents(cs, [-6.01 + 0j])
        assert band.alpha_low <= 1.0 <= band.alpha_high
        assert band.alpha_high - band.alpha_low <= 0.1
        assert band.n_pairs > 100

    def test_band_widens_with_distance(self):
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 6)
        widths = []
        for dc in (0.01, 0.05, 0.1):
            band = holder_exponents(cs, [-6.0 + dc + 0j])
            widths.append(band.alpha_high - band.alpha_low)
        assert widths[0] <= widths[1] <= widths[2]
