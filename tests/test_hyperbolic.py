import math

import numpy as np
import pytest

from biflab import hyperbolic
from biflab.errors import CoverageError, LostHyperbolicity
from biflab.families import MapFamily, multiplier, orbit
from biflab.hyperbolic import (
    _branch_apply,
    branch_radius,
    build_cantor,
    coded_orbit,
    continue_orbit,
    distortion_profile,
    distortion_ratio,
    fit_distortion_constant,
    linearize_orbit,
)

QUAD = MapFamily("unicritical", 2)
# z^2 - 6, written as a rational map
RATIONAL_QUAD = MapFamily("rational", 2, num=[[-6], [0], [1]], den=[[1]])


def beta(c):
    # repelling fixed point of z^2 + c on the main branch
    return (1 + (1 - 4 * c) ** 0.5) / 2


class TestContinuation:
    def test_beta_fixed_point_track(self):
        moved = continue_orbit(QUAD, [0j], [-0.5 + 0j], 1.0 + 0j)
        assert abs(moved - beta(-0.5)) < 1e-12

    def test_beta_to_chebyshev(self):
        moved = continue_orbit(QUAD, [0j], [-2.0 + 0j], 1.0 + 0j)
        assert abs(moved - 2.0) < 1e-12
        assert abs(multiplier(QUAD, [-2.0 + 0j], [moved])[0] - math.log(4)) < 1e-12

    def test_trivial_path_is_identity(self):
        moved = continue_orbit(QUAD, [-2.0 + 0j], [-2.0 + 0j], 2.0 + 0j)
        assert moved == 2.0 and type(moved) is complex

    def test_moved_beta_is_fixed(self):
        # the moved point is a fixed point of f at the target parameter
        c0, c1 = -1.8 + 0j, -1.8 + 0.05j
        z = continue_orbit(QUAD, [c0], [c1], beta(c0))
        assert abs(complex(QUAD.eval([c1], z)) - z) < 1e-10

    def test_rejects_non_repelling_base(self):
        with pytest.raises(LostHyperbolicity):
            continue_orbit(QUAD, [0j], [0.1 + 0j], 0j)

    def test_rejects_non_finite_base(self):
        # |f'| at a NaN point compares false with every margin
        with pytest.raises(LostHyperbolicity, match="nan"):
            continue_orbit(QUAD, [0j], [0.1 + 0j], complex(math.nan, 0.0))


class TestInverseBranch:
    # the Cantor generators: the branch of f^-1 at an anchor, on the disk
    # that ``branch_radius`` certifies
    def test_chebyshev_fixed_point(self):
        z = _branch_apply(QUAD, [-2.0 + 0j], 2.0 + 0j, 2.0 + 0j)
        assert abs(z[0] - 2.0) < 1e-12
        r, K, B = branch_radius(QUAD, [-2.0 + 0j], 2.0 + 0j)
        assert K > 1.0 and B >= K and r > 0

    def test_squaring_branch_value(self):
        z = _branch_apply(QUAD, [0j], 1.0 + 0j, 1.21 + 0j)
        assert abs(z[0] - 1.1) < 1e-12

    def test_two_sided_contraction(self):
        # |branch(w1) - branch(w2)| in [|w1 - w2|/B, |w1 - w2|/K]
        lam = [-2.0 + 0j]
        anchor = 2.0 + 0j
        r, K, B = branch_radius(QUAD, lam, anchor)
        eta = K * r
        fa = complex(QUAD.eval(lam, anchor))
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = fa + 0.4 * eta * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2
            z1, z2 = _branch_apply(QUAD, lam, anchor, w)
            d, dz = abs(w[0] - w[1]), abs(z1 - z2)
            assert dz <= d / K * (1 + 1e-10)
            assert dz >= d / B * (1 - 1e-10)


class TestDistortion:
    def test_profile_is_a_power_of_the_moved_multiplier(self):
        # w0 = 2 moves to beta(c), where f'_c = 2 beta(c) against f'_-2 = 4,
        # so the profile is (beta(c) / 2)^n
        c = -2.0 + 1e-3 * (0.6 + 0.8j)
        prof = distortion_profile(QUAD, [-2.0 + 0j], [c], 2.0 + 0j, 40)
        expect = (beta(c) / 2.0) ** np.arange(1, 41)
        assert prof.shape == (40,)
        assert np.max(np.abs(prof - expect) / np.abs(expect)) < 1e-12

    def test_trivial_ratio(self):
        ratio, ok = distortion_ratio(QUAD, [-2.0 + 0j], [-2.0 + 0j], 2.0 + 0j, 10, C=0.0)
        assert ratio == 1.0 and ok

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
                _, ok = distortion_ratio(QUAD, lam0, lam, 2.0 + 0j, n, C=C)
                assert ok

    def test_deviation_grows_with_perturbation(self):
        lam0 = [-2.0 + 0j]
        devs = []
        for eps in (1e-5, 1e-4, 1e-3):
            ratio, _ = distortion_ratio(QUAD, lam0, [-2.0 + eps + 0j], 2.0 + 0j, 20, C=0.0)
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

    def test_rational_kind_extends_the_same_chain(self):
        # z^2 - 6 as a rational map at its fixed point 3.  Its chart rounds
        # f(3) to 3 + 4e-16, which the expansion by 6 grows to 6e-9 over
        # ten forward steps, so both runs take the polynomial's forward
        # orbit; the backward extension is each kind's own
        lam, w, n = [-6.0 + 0j], 3.0 + 0j, 10
        fwd = orbit(QUAD, lam, w, n).points
        rat = linearize_orbit(RATIONAL_QUAD, lam, w, n, forward_points=fwd)
        poly = linearize_orbit(QUAD, lam, w, n, forward_points=fwd)
        assert rat.rho == poly.rho
        assert np.max(np.abs(rat.psi0 - poly.psi0)) <= 1e-14
        assert np.max(np.abs(rat.psi1 - poly.psi1)) <= 1e-14

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
        assert cs.depth == 0
        assert np.array_equal(cs.cloud, [3.0, -2.0])

    def test_negative_depth_rejected(self):
        # used to return the anchors and record depth -1
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], -1)

    def test_equidistant_preimages_are_coverage_error(self):
        # z^2 - 6 as a rational map: seen from the critical point 0, the
        # preimages +-3 of 3 are equally near, so no branch is chosen
        with pytest.raises(CoverageError, match="ambiguous branch selection near 0j"):
            _branch_apply(RATIONAL_QUAD, [-6.0 + 0j], 0j, 3 + 0j)

    @pytest.mark.parametrize("anchors", [[3.0 + 0j, 3.0 + 0j], [3.0 + 0j, -2.0 + 0j, 3.0 + 0j]])
    def test_coinciding_anchors_rejected(self, anchors):
        # at radius 0 every coverage ring is the fixed anchor itself, so
        # the coverage check passed and a cloud of eta = 0 was written
        with pytest.raises(ValueError, match=r"anchors 0 and \d coincide at \(3\+0j\)"):
            build_cantor(QUAD, [-6.0 + 0j], anchors, 6)

    @pytest.mark.parametrize("anchors, depth, passes", [
        ([3.0 + 0j, -2.0 + 0j], 20, True), ([3.0 + 0j, -2.0 + 0j], 21, False),
        ([3.0 + 0j, -2.0 + 0j, 0.5 + 2j], 12, True), ([3.0 + 0j, -2.0 + 0j, 0.5 + 2j], 13, False),
        ([3.0 + 0j, -2.0 + 0j], 10 ** 18, False)])
    def test_cloud_bound(self, monkeypatch, anchors, depth, passes):
        # at most 2^20 points; a cloud that passes the bound is not built,
        # and the third anchor only counts, so its coverage is not checked
        def built(*args):
            raise RuntimeError("the bound let the cloud through")

        monkeypatch.setattr(hyperbolic, "_build_cloud", built)
        monkeypatch.setattr(hyperbolic, "_check_coverage", lambda *args: None)
        g = len(anchors)
        expect = (pytest.raises(RuntimeError, match="let the cloud through") if passes else
                  pytest.raises(ValueError, match=rf"depth {depth} has {g}\^{depth} points, "
                                                  r"more than 1048576"))
        with expect:
            build_cantor(QUAD, [-6.0 + 0j], anchors, depth)

    def test_rational_kind_takes_the_same_branches(self):
        # z^2 - 6 built as a rational map solves its preimages by companion
        # eigenvalues, not in closed form, and gives the same cloud
        rat = build_cantor(RATIONAL_QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 10)
        poly = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 10)
        assert rat.eta == poly.eta and len(rat.cloud) == len(poly.cloud)
        assert np.max(np.abs(rat.cloud - poly.cloud)) <= 1e-14

    def test_depth_ten_cloud(self):
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 10)
        assert len(cs.cloud) == 1024
        assert cs.K_cloud > 1.0 and cs.eta > 0
        # every cloud point sits inside the generator disk of its first
        # symbol, the last base-2 digit of its index
        anchors = np.array(cs.anchors)
        d = np.abs(cs.cloud - anchors[np.arange(1024) % 2])
        assert np.max(d) <= cs.eta + 1e-12

    def test_cloud_points_satisfy_coding(self):
        # f maps the point of word (w0 w1 ... ) next to the point of the
        # stripped word; coded_orbit rebuilds that orbit from the words
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

    @pytest.mark.parametrize("index", [-1, 1024])
    def test_coded_orbit_refuses_an_index_outside_the_cloud(self, index):
        # -1 used to read the word of the last point
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 10)
        with pytest.raises(ValueError, match=rf"index {index} is outside 0\.\.1023"):
            coded_orbit(cs, index, 3)

    def test_coded_orbit_of_depth_zero_cloud(self):
        # a depth-0 cloud has empty words, so no orbit can be rebuilt
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 0)
        with pytest.raises(ValueError, match="depth 0"):
            coded_orbit(cs, 0, 3)

    def test_continue_cantor_tracks_fixed_points(self):
        # a cloud moves with its anchors: each is a repelling fixed point,
        # and the cloud is rebuilt from them at the target
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 6)
        c1 = -6.1 + 0.05j
        anchors = [continue_orbit(QUAD, cs.lam, [c1], a) for a in cs.anchors]
        assert abs(anchors[0] - beta(c1)) < 1e-10
        assert abs(anchors[1] - (1 - (1 - 4 * c1) ** 0.5) / 2) < 1e-10
        assert len(build_cantor(QUAD, [c1], anchors, 6).cloud) == len(cs.cloud)

    def test_continue_cantor_loses_an_attracting_anchor(self):
        # on the way to c = -0.7 the anchor that starts at -2 becomes the
        # attracting fixed point near -0.47; the continuation stops there
        # instead of rebuilding a cloud around it
        cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 4)
        with pytest.raises(LostHyperbolicity, match="per-step .f'. dropped to 0.949359 at t=1"):
            continue_orbit(QUAD, cs.lam, [-0.7 + 0j], cs.anchors[1])
