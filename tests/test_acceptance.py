"""Acceptance gate: one test per headline criterion, each at its stated
tolerance.  Run with -v for one pass/fail line per criterion."""

import math
import warnings

import numpy as np
import pytest

from biflab.bifgrid import (
    Box,
    _local_mass,
    box_dimension,
    ddc,
    mass_scaling,
    pointwise_dimension,
    radial_masses,
    scan_field,
    wedge_pair,
)
from biflab.errors import NotPlurisubharmonic
from biflab.families import MapFamily
from biflab.hyperbolic import (
    build_cantor,
    coded_orbit,
    continue_orbit,
    fit_distortion_constant,
    distortion_ratio,
    linearize_orbit,
)
from biflab.misiurewicz import (
    ActivitySpec,
    Preperiodic,
    activity_chi,
    solve_misiurewicz,
    transversality,
    verify_certificate,
)
from biflab.potential import (
    LiftVector,
    apply_lift,
    critical_green_sum,
    green_at,
    lyapunov_mc,
)

QUAD = MapFamily("unicritical", 2)
CUBIC = MapFamily("branner_hubbard", 3)
FULL_BOX = Box((-0.5 + 0j,), (2.0,))
CHEB_SPEC = ActivitySpec((0,), 2, (Preperiodic(1, 1),))
I_SPEC = ActivitySpec((0,), 2, (Preperiodic(2, 2),))


@pytest.fixture(scope="module")
def zoom_measure():
    # shared 4096^2 zoom at the Chebyshev tip for criteria 6 and 7
    g = scan_field(QUAD, Box((-2.0 + 0j,), (0.08,)), 4096, "G0", maxiter=1024)
    return ddc(g)


def test_c01_lyapunov_closed_forms_and_floor():
    res = lyapunov_mc(QUAD, [0j], 100000, 30, 0)
    assert abs(res.value - math.log(2)) < 1e-3
    res = lyapunov_mc(QUAD, [-2.0 + 0j], 1000000, 30, 1)
    assert abs(res.value - math.log(2)) < 2e-3
    rng = np.random.default_rng(2024)
    for i in range(1000):
        c = complex(rng.uniform(-2.5, 1.5), rng.uniform(-2, 2))
        r = lyapunov_mc(QUAD, [c], 256, 20, 10000 + i)
        assert r.value >= math.log(2) / 2 - 3 * r.stderr


def test_c02_green_identities():
    rng = np.random.default_rng(7)
    tol = 1e-12
    count = 0
    while count < 200:
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        u, w = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        if max(abs(u), abs(w)) < 1e-3:
            continue
        count += 1
        v = LiftVector.of(u, w)
        g = green_at(QUAD, [c], v, tol=tol)
        gt = green_at(QUAD, [c], LiftVector.of(2.5 * u, 2.5 * w), tol=tol)
        assert abs(gt.value - g.value - math.log(2.5)) <= 10 * tol
        gf = green_at(QUAD, [c], apply_lift(QUAD, [c], v), tol=tol)
        assert abs(gf.value - 2 * g.value) <= 10 * tol


def test_c03_demarco_current_identity():
    res = 256
    L = scan_field(QUAD, FULL_BOX, res, "L")
    G = scan_field(QUAD, FULL_BOX, res, "G0")
    diff = L
    diff.values = L.values - G.values
    lam = FULL_BOX.param_grids(res)[0]
    harmonic = scan_field(QUAD, FULL_BOX, res, "G0")
    harmonic.values = (lam * lam).real
    floor = float(np.max(np.abs(ddc(harmonic).raw_mass)))
    assert float(np.max(np.abs(ddc(diff).raw_mass))) <= 10 * max(floor, 1e-15)
    mass_L = ddc(scan_field(QUAD, FULL_BOX, res, "L")).total_mass
    mass_G = ddc(G).total_mass
    assert abs(mass_L - mass_G) <= 0.01 * mass_G


def test_c04_total_bifurcation_mass():
    # flux oracle: the Green field grows like log|c| far outside
    for k in range(8):
        c = 1e5 * np.exp(2j * np.pi * k / 8)
        g = critical_green_sum(QUAD, [complex(c)])
        assert abs(g - math.log(abs(c))) <= 1e-3 * math.log(abs(c))
    mu = ddc(scan_field(QUAD, FULL_BOX, 2048, "G0"))
    assert abs(mu.total_mass - 1.0) <= 0.05


def test_c05_misiurewicz_certification():
    cert = solve_misiurewicz(QUAD, [-1.95 + 0j], CHEB_SPEC)
    assert abs(cert.lam[0] - (-2.0)) <= 1e-10
    assert abs(math.exp(cert.multipliers[0][0]) - 4.0) <= 1e-9
    assert abs(cert.sigma_min - 8.0) <= 1e-3
    cert_i = solve_misiurewicz(QUAD, [0.05 + 1.0j], I_SPEC)
    assert abs(cert_i.lam[0] - 1j) <= 1e-10
    assert abs(math.exp(cert_i.multipliers[0][0]) - 4.0 * math.sqrt(2)) <= 1e-8
    assert cert_i.sigma_min > 0
    h = 1e-7
    fd = (activity_chi(QUAD, [-2.0 + h], CHEB_SPEC)[0]
          - activity_chi(QUAD, [-2.0 - h], CHEB_SPEC)[0]) / (2 * h)
    assert abs(fd - (-8.0)) <= 1e-4 * 8.0
    assert abs(transversality(QUAD, [-2.0 + 0j], CHEB_SPEC) - 8.0) <= 1e-3


def test_c06_pointwise_dimension_at_tip(zoom_measure):
    radii = 2.0 ** -np.arange(4, 11, dtype=float)
    est = pointwise_dimension(radial_masses(zoom_measure, -2.0 + 0j, radii))
    assert abs(est.slope - 0.5) <= 0.1
    assert est.slope >= math.log(2) / math.log(4) - est.stderr


def test_c07_mass_scaling_at_tip(zoom_measure):
    m_plus = np.arange(1, 6) * math.log(4)
    res = mass_scaling(zoom_measure, -2.0 + 0j, m_plus, q=1, d=2, eps=0.25)
    assert res.n_used <= 5
    assert abs(res.slope - (-math.log(2))) <= 0.15 * math.log(2)


def test_c08_linearization_residuals():
    lin = linearize_orbit(QUAD, [-2.0 + 0j], 2.0 + 0j, 30)
    assert lin.residual <= 1e-8 * lin.rho
    assert lin.C * lin.rho < 1.0
    for frac in (0.5, 0.25, 0.125):
        z = lin.rho * frac * np.exp(2j * np.pi * np.arange(32) / 32)
        for ev in (lin.psi0_eval, lin.psi1_eval):
            dev = np.abs(ev(z) - z)
            assert np.max(dev) <= lin.C * (lin.rho * frac) ** 2 * (1 + 1e-9)
    cs = build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 10)
    pts = coded_orbit(cs, 597, 10)
    lin_c = linearize_orbit(QUAD, [-6.0 + 0j], complex(pts[0]), 10,
                            forward_points=pts)
    assert lin_c.residual <= 1e-8 * lin_c.rho
    assert lin_c.C * lin_c.rho < 1.0


def test_c09_distortion_constant_grid():
    lam0 = [-2.0 + 0j]
    # closed-form oracle for the continued fixed point
    for eps in (1e-5, 1e-4, 1e-3):
        lam = -2.0 + eps * (0.6 + 0.8j)
        track = continue_orbit(QUAD, lam0, [lam], [2.0 + 0j])
        beta = (1 + (1 - 4 * lam) ** 0.5) / 2
        assert abs(track.moved_points[0] - beta) < 1e-10
    C = fit_distortion_constant(
        QUAD, lam0, [[-2.0 + 1e-3j], [-2.0 + 1e-3 + 0j]], 2.0 + 0j)
    assert C > 0
    for eps in (1e-5, 1e-4, 1e-3):
        for n in (5, 10, 20, 40):
            lam = [-2.0 + eps * (0.6 + 0.8j)]
            _, ok, _ = distortion_ratio(QUAD, lam0, lam, 2.0 + 0j, n, C=C)
            assert ok


def test_c10_dimension_estimators():
    pts = np.array([0.0])
    for k in range(1, 13):
        pts = np.concatenate([pts, pts + 2.0 * 3.0 ** -k])
    est = box_dimension(pts.astype(complex), 3.0 ** -np.arange(2, 8, dtype=float))
    assert abs(est.slope - math.log(2) / math.log(3)) <= 0.05
    th = 2 * np.pi * np.arange(5000) / 5000
    est = box_dimension(np.exp(1j * th), 2.0 ** -np.arange(2, 9, dtype=float))
    assert abs(est.slope - 1.0) <= 0.05
    box = Box((0j,), (1.0,))
    res = 256
    h2 = box.cell_widths(res)[0] * box.cell_heights(res)[0]
    from biflab.bifgrid import MeasureField
    leb = MeasureField(box=box, resolution=res,
                       cell_mass=np.full((res, res), h2),
                       raw_mass=np.full((res, res), h2), clamp_total=0.0)
    radii = 0.6 * 2.0 ** -np.arange(5, dtype=float)
    est = pointwise_dimension(radial_masses(leb, 0j, radii))
    assert abs(est.slope - 2.0) <= 0.02


def test_c11_self_wedge_against_mixed_mass():
    # the cell budget matches a 512^2 slice (24^4 cells); the box meets
    # the locus where both critical points are active
    box = Box((1.7 + 0.4j, 1.6 + 0.5j), (0.4, 0.4))
    res = 24
    G0 = scan_field(CUBIC, box, res, "G0", maxiter=256)
    G1 = scan_field(CUBIC, box, res, "G1", maxiter=256)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotPlurisubharmonic)
        self0 = wedge_pair(G0, G0, mollify_radius=0.2)
        mixed = wedge_pair(G0, G1, mollify_radius=0.2)
    assert mixed.total_mass > 0
    assert self0.total_mass <= 0.05 * mixed.total_mass
    active0 = np.abs(_local_mass(G0.values)) > 1e-8
    active1 = np.abs(_local_mass(G1.values)) > 1e-8
    one_active = active0 ^ active1
    assert float(np.sum(mixed.cell_mass[one_active])) <= 0.05 * mixed.total_mass


def test_c12_cubic_transversality_hunt():
    combos = [(Preperiodic(1, 1), Preperiodic(2, 2)),
              (Preperiodic(2, 2), Preperiodic(1, 1))]
    found = {}
    for pats in combos:
        spec = ActivitySpec((0, 1), 2, pats)
        for re1 in np.linspace(-1.5, 1.5, 9):
            for im1 in (0.0, 0.4, 0.8):
                for rea in np.linspace(0.3, 1.3, 6):
                    for ima in (0.1, 0.5):
                        seed = [complex(re1, im1), complex(rea, ima)]
                        try:
                            cert = solve_misiurewicz(CUBIC, seed, spec)
                        except Exception:
                            continue
                        if abs(cert.lam[0]) < 1e-3 or cert.sigma_min < 1e-4:
                            continue
                        # quotient the cube-root symmetry of the family
                        key = (round(cert.lam[0].real, 6),
                               round(cert.lam[0].imag, 6),
                               round((cert.lam[1] ** 3).real, 6),
                               round((cert.lam[1] ** 3).imag, 6))
                        found.setdefault(key, cert)
    assert len(found) >= 5
    for cert in found.values():
        assert verify_certificate(cert, CUBIC)["passed"]
        assert cert.residual <= 1e-10
        assert all(lm > math.log1p(1e-3) for lm, _ in cert.multipliers)
        assert cert.sigma_min > 0
