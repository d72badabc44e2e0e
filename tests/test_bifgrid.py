import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biflab.bifgrid import (
    Box,
    GridField,
    MeasureField,
    box_dimension,
    ddc,
    mass_scaling,
    monge_ampere2,
    pointwise_dimension,
    radial_masses,
    scan_field,
    wedge_pair,
)
from biflab.errors import (
    InsufficientScales,
    NotPlurisubharmonic,
    ResolutionExceeded,
)
from biflab.families import MapFamily

QUAD = MapFamily("unicritical", 2)


def make_field(box, res, func):
    lam = box.param_grids(res)
    return GridField(box=box, resolution=res, values=func(*lam))


def lebesgue_measure(box, res):
    hx = box.cell_widths(res)[0]
    hy = box.cell_heights(res)[0]
    mass = np.full((res, res), hx * hy)
    return MeasureField(box=box, resolution=res, cell_mass=mass,
                        raw_mass=mass.copy(), clamp_total=0.0)


class TestBox:
    def test_square_default(self):
        b = Box((0j,), (2.0,))
        assert b.half_heights == (2.0,) and b.is_square

    def test_rectangular(self):
        b = Box((0j,), (2.0,), (1.0,))
        assert not b.is_square
        assert b.cell_widths(10) == (0.4,) and b.cell_heights(10) == (0.2,)

    def test_axes_cell_centers(self):
        b = Box((1.0 + 0j,), (1.0,))
        x, y = b.axes(4)[0]
        assert np.allclose(x, [0.25, 0.75, 1.25, 1.75])
        assert np.allclose(y, [-0.75, -0.25, 0.25, 0.75])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Box((0j,), (0.0,))

    @pytest.mark.parametrize("centers, widths, heights", [
        ((complex("nan"),), (1.0,), None),
        ((complex(0.0, float("inf")),), (1.0,), None),
        ((0j,), (float("nan"),), None),
        ((0j,), (float("inf"),), None),
        ((0j,), (1.0,), (float("nan"),)),
        ((0j, 0j), (1.0, 1.0), (1.0, float("inf"))),
    ])
    def test_rejects_nonfinite(self, centers, widths, heights):
        with pytest.raises(ValueError, match="finite"):
            Box(centers, widths, heights)


class TestDdc:
    def test_harmonic_field_has_zero_mass(self):
        # Re(c^2) is harmonic; the weighted stencil cancels exactly, also
        # on rectangular cells
        for hh in (2.0, 1.0):
            box = Box((0j,), (2.0,), (hh,))
            f = make_field(box, 64, lambda c: (c * c).real)
            mu = ddc(f)
            assert np.max(np.abs(mu.raw_mass)) < 1e-12

    def test_log_singularity_unit_mass(self):
        # log|c - c0| with c0 at a cell corner: the interior stencil sum
        # telescopes to the boundary flux, total signed mass 1
        box = Box((0j,), (1.0,))
        f = make_field(box, 256, lambda c: np.log(np.abs(c)))
        mu = ddc(f)
        assert abs(np.sum(mu.raw_mass) - 1.0) < 1e-5

    def test_quadratic_density(self):
        # ddc |c|^2 has Lebesgue density 2/pi: cell mass (2/pi) hx hy
        box = Box((0.5 + 0.25j,), (1.0,), (0.5,))
        res = 32
        f = make_field(box, res, lambda c: np.abs(c) ** 2)
        hx = box.cell_widths(res)[0]
        hy = box.cell_heights(res)[0]
        inner = f.values[1:-1, 1:-1] * 0 + (2.0 / math.pi) * hx * hy
        mu = ddc(f)
        assert np.allclose(mu.raw_mass[1:-1, 1:-1], inner, rtol=1e-12)
        assert np.all(mu.raw_mass[0, :] == 0) and np.all(mu.raw_mass[:, -1] == 0)

    def test_linearity_and_clamping(self):
        box = Box((0j,), (1.5,))
        f1 = make_field(box, 48, lambda c: np.abs(c) ** 2)
        f2 = make_field(box, 48, lambda c: (c * c * c).real - np.abs(c) ** 2)
        fsum = GridField(box=box, resolution=48, values=f1.values + f2.values)
        assert np.allclose(ddc(fsum).raw_mass,
                           ddc(f1).raw_mass + ddc(f2).raw_mass, atol=1e-14)
        mu = ddc(f2)
        assert np.all(mu.cell_mass >= 0)
        assert abs(mu.clamp_total
                   - float(np.sum(np.maximum(mu.raw_mass, 0) - mu.raw_mass))) < 1e-14

    # coefficients stay far from underflow, where roundoff is not relative
    COEF = st.floats(-100, 100).filter(lambda x: x == 0 or abs(x) >= 1e-3)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), res=st.integers(3, 40),
           log_half=st.floats(-3, 2), log_aspect=st.floats(-1.5, 1.5), a=COEF, b=COEF)
    def test_linearity_random_fields(self, seed, res, log_half, log_aspect, a, b):
        # raw(a u + b v) = a raw(u) + b raw(v) up to roundoff: each side's
        # stencil reads 5 values of size <= M = |a| max|u| + |b| max|v|,
        # so they differ by a few eps (w_x + w_y) M / 2pi; 32 such units
        # leave about 5x margin over the worst case seen
        rng = np.random.default_rng(seed)
        half = 10.0 ** log_half
        box = Box((complex(*rng.standard_normal(2)),), (half,), (half * 10.0 ** log_aspect,))
        u, v = (rng.standard_normal((res, res)) * 10.0 ** rng.uniform(-5, 5) for _ in "uv")

        def raw(values):
            return ddc(GridField(box=box, resolution=res, values=values)).raw_mass

        hx, hy = box.cell_widths(res)[0], box.cell_heights(res)[0]
        unit = (np.finfo(float).eps * (hy / hx + hx / hy)
                * (abs(a) * np.max(np.abs(u)) + abs(b) * np.max(np.abs(v))) / (2 * math.pi))
        assert np.max(np.abs(raw(a * u + b * v) - (a * raw(u) + b * raw(v)))) <= 32 * unit

    def test_requires_one_parameter(self):
        box = Box((0j, 0j), (1.0, 1.0))
        f = GridField(box=box, resolution=8, values=np.zeros((8, 8, 8, 8)))
        with pytest.raises(ValueError):
            ddc(f)


class TestScan:
    def test_green_vanishes_on_bounded_cells(self):
        box = Box((0j,), (0.1,))
        f = scan_field(QUAD, box, 8, "G0")
        assert np.max(f.values) == 0.0

    def test_green_far_field_log_growth(self):
        box = Box((1e4 + 0j,), (1.0,))
        f = scan_field(QUAD, box, 8, "G0")
        assert np.allclose(f.values, math.log(1e4), rtol=1e-3)

    def test_lyapunov_field_floor_and_decomposition(self):
        box = Box((-0.5 + 0j,), (2.0,))
        L = scan_field(QUAD, box, 64, "L")
        G = scan_field(QUAD, box, 64, "G0")
        assert float(np.min(L.values)) >= math.log(2) - 1e-12
        assert np.allclose(L.values, math.log(2) + G.values, rtol=1e-12)

    def test_activity_flags(self):
        box = Box((-0.5 + 0j,), (2.0,))
        a = scan_field(QUAD, box, 64, "activity0")
        assert set(np.unique(a.values)) == {0.0, 1.0}
        # the boundary of the connectedness locus is active, the far
        # escape region and the main cardioid are not
        assert 0 < float(np.sum(a.values)) < a.values.size

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            scan_field(QUAD, Box((0j,), (1.0,)), 8, "Q0")
        with pytest.raises(ValueError):
            scan_field(QUAD, Box((0j,), (1.0,)), 8, "G1")

    @pytest.mark.parametrize("maxiter", [0, -1])
    def test_maxiter_below_one_rejected(self, maxiter):
        with pytest.raises(ValueError, match="maxiter"):
            scan_field(QUAD, Box((0j,), (1.0,)), 8, "G0", maxiter=maxiter)


class TestWedge:
    BOX = Box((0j, 0j), (1.0, 1.0))

    def test_sum_of_squares_density(self):
        # (dd^c (|l1|^2 + |l2|^2))^2 has density 8/pi^2 per 4-volume
        res = 16
        f = make_field(self.BOX, res, lambda a, b: np.abs(a) ** 2 + np.abs(b) ** 2)
        mu = monge_ampere2(f)
        h1, h2 = self.BOX.cell_widths(res)
        s = mu.meta["boundary_shell"]
        inner = mu.raw_mass[tuple(slice(k + 1, -k - 1) for k in s)]
        assert np.allclose(inner, (8.0 / math.pi ** 2) * h1 ** 2 * h2 ** 2,
                           rtol=1e-10)

    def test_pluriharmonic_vanishes(self):
        f = make_field(self.BOX, 16, lambda a, b: (a * b).real)
        mu = monge_ampere2(f)
        assert np.max(np.abs(mu.raw_mass)) < 1e-12

    def test_rank_one_self_wedge_vanishes(self):
        f = make_field(self.BOX, 16, lambda a, b: np.abs(a) ** 2)
        mu = monge_ampere2(f)
        assert np.max(np.abs(mu.raw_mass)) < 1e-12

    def test_mixed_wedge_of_coordinate_squares(self):
        # dd^c|l1|^2 wedge dd^c|l2|^2 has density (2/pi)^2
        res = 16
        fa = make_field(self.BOX, res, lambda a, b: np.abs(a) ** 2)
        fb = make_field(self.BOX, res, lambda a, b: np.abs(b) ** 2)
        mu = wedge_pair(fa, fb)
        h1, h2 = self.BOX.cell_widths(res)
        s = mu.meta["boundary_shell"]
        inner = mu.raw_mass[tuple(slice(k + 1, -k - 1) for k in s)]
        assert np.allclose(inner, (2.0 / math.pi) ** 2 * h1 ** 2 * h2 ** 2,
                           rtol=1e-10)

    def test_self_wedge_matches_monge_ampere(self):
        f = make_field(self.BOX, 16,
                       lambda a, b: np.abs(a) ** 2 * np.abs(b) ** 2
                       + (a * a * b).real)
        with np.errstate(all="ignore"):
            m1 = wedge_pair(f, f)
            m2 = monge_ampere2(f)
        assert np.array_equal(m1.raw_mass, m2.raw_mass)

    def test_boundary_shell_zeroed(self):
        f = make_field(self.BOX, 16, lambda a, b: np.abs(a) ** 2 + np.abs(b) ** 2)
        mu = monge_ampere2(f)
        s = mu.meta["boundary_shell"][0]
        assert np.all(mu.raw_mass[:s] == 0) and np.all(mu.raw_mass[-s:] == 0)

    def test_indefinite_field_warns(self):
        # |l1|^2 - |l2|^2 has signature (+1, -1): the polarized
        # determinant is -1 on every interior cell
        f = make_field(self.BOX, 16,
                       lambda a, b: np.abs(a) ** 2 - np.abs(b) ** 2)
        with pytest.warns(NotPlurisubharmonic):
            mu = monge_ampere2(f)
        assert mu.clamp_total > 0

    def test_rejects_rectangular_planes(self):
        box = Box((0j, 0j), (1.0, 1.0), (1.0, 0.5))
        f = GridField(box=box, resolution=16, values=np.zeros((16,) * 4))
        with pytest.raises(ValueError):
            wedge_pair(f, f)


class TestRadial:
    def test_lebesgue_ball_mass(self):
        box = Box((0j,), (1.0,))
        mu = lebesgue_measure(box, 128)
        radii = np.array([0.5, 0.4, 0.3, 0.2])
        prof = radial_masses(mu, 0j, radii)
        assert np.allclose(prof.masses, math.pi * radii ** 2, rtol=0.01)

    def test_point_mass_is_radius_independent(self):
        box = Box((0j,), (1.0,))
        res = 64
        mass = np.zeros((res, res))
        mass[res // 2, res // 2] = 1.0
        mu = MeasureField(box=box, resolution=res, cell_mass=mass,
                          raw_mass=mass.copy(), clamp_total=0.0)
        prof = radial_masses(mu, 0j, np.array([0.8, 0.5, 0.2]))
        assert np.allclose(prof.masses, 1.0)

    def test_requires_decreasing_radii(self):
        mu = lebesgue_measure(Box((0j,), (1.0,)), 32)
        with pytest.raises(ValueError):
            radial_masses(mu, 0j, np.array([0.2, 0.3]))

    def test_resolution_guard(self):
        mu = lebesgue_measure(Box((0j,), (1.0,)), 32)
        with pytest.raises(ResolutionExceeded):
            radial_masses(mu, 0j, np.array([0.5, 0.01]))

    def test_lebesgue_pointwise_dimension(self):
        mu = lebesgue_measure(Box((0j,), (1.0,)), 256)
        radii = 0.6 * 2.0 ** -np.arange(5, dtype=float)
        est = pointwise_dimension(radial_masses(mu, 0j, radii))
        assert abs(est.slope - 2.0) < 0.02
        assert est.n_points == 5


class TestMassScaling:
    def test_linear_law(self):
        m_plus = np.arange(1, 21) * math.log(2)
        res = mass_scaling(lambda r: r, 0j, m_plus, q=1, d=2)
        assert abs(res.deviation) < 1e-6

    def test_lebesgue_law_degree_four(self):
        m_plus = np.arange(1, 16) * math.log(4)
        res = mass_scaling(lambda r: r * r, 0j, m_plus, q=2, d=4)
        assert abs(res.slope - (-2 * math.log(4))) < 1e-6
        assert abs(res.deviation) < 1e-6

    def test_grid_measure_law(self):
        mu = lebesgue_measure(Box((0j,), (1.0,)), 256)
        m_plus = np.arange(1, 30) * math.log(2)
        res = mass_scaling(mu, 0j, m_plus, q=2, d=2, eps=0.5)
        assert abs(res.deviation) < 0.01
        assert res.n_used >= 3

    def test_resolution_exceeded(self):
        mu = lebesgue_measure(Box((0j,), (1.0,)), 16)
        m_plus = np.arange(10, 30) * math.log(2)
        with pytest.raises(ResolutionExceeded):
            mass_scaling(mu, 0j, m_plus, q=2, d=2, eps=0.5)


class TestBoxDimension:
    @staticmethod
    def cantor_points(depth):
        pts = np.array([0.0])
        for k in range(1, depth + 1):
            pts = np.concatenate([pts, pts + 2.0 * 3.0 ** -k])
        return pts.astype(complex)

    def test_middle_thirds(self):
        pts = self.cantor_points(12)
        scales = 3.0 ** -np.arange(2, 8, dtype=float)
        est = box_dimension(pts, scales)
        assert abs(est.slope - math.log(2) / math.log(3)) < 0.05

    def test_circle(self):
        th = 2 * np.pi * np.arange(5000) / 5000
        est = box_dimension(np.exp(1j * th), 2.0 ** -np.arange(2, 9, dtype=float))
        assert abs(est.slope - 1.0) < 0.05

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            box_dimension(np.zeros(10, dtype=complex), [0.1, 0.05])

    def test_scales_below_spacing(self):
        pts = np.linspace(0, 1, 2000).astype(complex)
        with pytest.raises(InsufficientScales):
            box_dimension(pts, [1e-5, 1e-6, 1e-7, 1e-8])


def test_bifurcation_mass_concentrates_where_green_is_small():
    # the bifurcation measure lives on the activity boundary, where the
    # parameter Green value vanishes; the mass-weighted Green level must
    # be small and shrink roughly linearly with the cell width
    box = Box((-0.5 + 0j,), (2.0,))
    stats = {}
    for res in (128, 256):
        G = scan_field(QUAD, box, res, "G0")
        mu = ddc(G)
        total = mu.total_mass
        assert total > 0
        stats[res] = (
            float(np.sum(mu.cell_mass[G.values < 0.05])) / total,
            float(np.sum(mu.cell_mass * G.values)) / total,
        )
    assert stats[128][0] >= 0.95 and stats[256][0] >= 0.98
    assert stats[256][1] <= 0.65 * stats[128][1]
