import math
import re

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
    radial_window,
    scan_field,
    wedge_pair,
)
from biflab.errors import (
    DegenerateProfile,
    InsufficientScales,
    NotPlurisubharmonic,
    ResolutionExceeded,
)
from biflab.families import MapFamily

QUAD = MapFamily("unicritical", 2)
BH3 = MapFamily("branner_hubbard", 3)


def make_field(box, res, func):
    mesh = np.meshgrid(*box.axes(res), indexing="ij")
    lam = [mesh[2 * i] + 1j * mesh[2 * i + 1] for i in range(box.m)]
    return GridField(box=box, resolution=res, values=func(*lam))


def lebesgue_measure(box, res):
    hx, hy = box.cell_sizes(res)
    mass = np.full((res, res), hx * hy)
    return MeasureField(box=box, resolution=res, raw_mass=mass)


class TestBox:
    def test_square_default(self):
        b = Box((0j,), (2.0,))
        assert b.half_heights == (2.0,) and b.is_square

    def test_rectangular(self):
        b = Box((0j,), (2.0,), (1.0,))
        assert not b.is_square
        assert b.cell_sizes(10) == (0.4, 0.2)

    def test_axes_cell_centers(self):
        b = Box((1.0 + 0j,), (1.0,))
        x, y = b.axes(4)
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
        hx, hy = box.cell_sizes(res)
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

        hx, hy = box.cell_sizes(res)
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

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            scan_field(QUAD, Box((0j,), (1.0,)), 8, "Q0")
        with pytest.raises(ValueError):
            scan_field(QUAD, Box((0j,), (1.0,)), 8, "G1")

    def test_negative_critical_index_rejected(self):
        # a negative index names no marked critical point, in the cubic
        # family (which marks c_0 and c_1) as in the quadratic one
        cubic = MapFamily("branner_hubbard", 3)
        for family, box in [(QUAD, Box((0j,), (1.0,))),
                            (cubic, Box((0.4 + 0j, 1.0 + 0j), (0.5, 0.5)))]:
            with pytest.raises(ValueError, match="critical index -1 out of range"):
                scan_field(family, box, 8, "G-1")

    @pytest.mark.parametrize("maxiter", [0, -1])
    def test_maxiter_below_one_rejected(self, maxiter):
        with pytest.raises(ValueError, match="maxiter"):
            scan_field(QUAD, Box((0j,), (1.0,)), 8, "G0", maxiter=maxiter)

    @pytest.mark.parametrize("family, box, res, cells", [
        (QUAD, Box((0j,), (1.0,)), 4097, 4097 ** 2),
        (MapFamily("branner_hubbard", 3), Box((0j, 0j), (1.0, 1.0)), 65, 65 ** 4),
    ], ids=["C", "C2"])
    def test_oversized_grid_rejected(self, family, box, res, cells):
        # one cell past MAX_GRID_CELLS = 2^24 = 4096^2 = 64^4
        with pytest.raises(ValueError, match=f"resolution {res} gives {cells} cells, "
                                             f"above the 16777216 of MAX_GRID_CELLS"):
            scan_field(family, box, res, "G0")


class TestWedge:
    BOX = Box((0j, 0j), (1.0, 1.0))

    def test_sum_of_squares_density(self):
        # (dd^c (|l1|^2 + |l2|^2))^2 has density 8/pi^2 per 4-volume
        res = 16
        f = make_field(self.BOX, res, lambda a, b: np.abs(a) ** 2 + np.abs(b) ** 2)
        mu = monge_ampere2(f)
        h1, h2 = self.BOX.cell_sizes(res)[::2]
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
        h1, h2 = self.BOX.cell_sizes(res)[::2]
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

    @pytest.mark.parametrize("center", [(0j, 0j), (0.05 + 0.02j, -0.03j)])
    def test_lebesgue_ball_mass_in_c2(self, center):
        # the ball of radius r in C^2 = R^4 has volume pi^2 r^4 / 2
        box = Box((0j, 0j), (1.0, 1.0))
        h = box.cell_sizes(16)[0]
        mass = np.full((16,) * 4, h ** 4)
        mu = MeasureField(box=box, resolution=16, raw_mass=mass)
        radii = np.array([0.9, 0.7, 0.5, 0.4])
        prof = radial_masses(mu, center, radii)
        assert np.allclose(prof.masses, math.pi ** 2 * radii ** 4 / 2, rtol=0.005)

    def test_point_mass_is_radius_independent(self):
        box = Box((0j,), (1.0,))
        res = 64
        mass = np.zeros((res, res))
        mass[res // 2, res // 2] = 1.0
        mu = MeasureField(box=box, resolution=res, raw_mass=mass)
        prof = radial_masses(mu, 0j, np.array([0.8, 0.5, 0.2]))
        assert np.allclose(prof.masses, 1.0)

    @pytest.mark.parametrize("m, center", [(2, (0j,)), (2, (0j, 0j, 0j)), (1, (0j, 0j))])
    def test_center_needs_one_coordinate_per_parameter(self, m, center):
        # a short center raised IndexError, and a long one was cut to m;
        # in radial_window, a short one gave fewer ranges than the grid
        # has axes
        box = Box((0j,) * m, (1.0,) * m)
        mass = np.ones((8,) * (2 * m))
        mu = MeasureField(box=box, resolution=8, raw_mass=mass)
        message = rf"center of {m} coordinate\(s\), got {len(center)}"
        with pytest.raises(ValueError, match=message):
            radial_masses(mu, center, np.array([0.9, 0.8]))
        with pytest.raises(ValueError, match=message):
            radial_window(box, 8, center, 0.9)

    def test_requires_decreasing_radii(self):
        mu = lebesgue_measure(Box((0j,), (1.0,)), 32)
        with pytest.raises(ValueError):
            radial_masses(mu, 0j, np.array([0.2, 0.3]))
        # a nan among the radii orders with nothing
        with pytest.raises(ValueError, match="strictly decreasing"):
            radial_masses(mu, 0j, np.array([0.5, np.nan, 0.2]))

    @pytest.mark.parametrize("radii", [[np.nan], [np.inf], [1.0, np.nan]])
    def test_requires_finite_radii(self, radii):
        # a lone nan returned mass 0 and a lone inf the whole mass
        mu = ddc(scan_field(MapFamily("unicritical", 2), Box((-0.5 + 0j,), (2.5,), (2.0,)),
                            32, "G0"))
        with pytest.raises(ValueError, match="radii must be"):
            radial_masses(mu, -0.5 + 0j, radii)

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


def window_slices(window):
    return tuple(slice(lo, hi) for lo, hi in window)


class TestRadialWindow:
    @settings(max_examples=120, deadline=None)
    @given(res=st.integers(8, 40), log_half=st.floats(-3.0, 1.0),
           log_aspect=st.floats(-1.0, 1.0),
           offset=st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)),
           reach=st.lists(st.floats(0.0, 2.5), min_size=1, max_size=4, unique=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_masses_match_the_whole_grid(self, res, log_half, log_aspect, offset, reach,
                                         seed):
        # centres inside, near and outside the box (|offset| > 1), radii
        # from below the 3-cell floor to past the box, rectangular cells
        hw = 10.0 ** log_half
        hh = hw * 10.0 ** log_aspect
        box = Box((0.3 - 0.2j,), (hw,), (hh,))
        center = complex(0.3 + offset[0] * hw, -0.2 + offset[1] * hh)
        radii = max(hw, hh) * np.array(sorted(reach, reverse=True))
        values = np.random.default_rng(seed).standard_normal((res, res))
        window = radial_window(box, res, [center], radii[0])
        whole = ddc(GridField(box, res, values))
        part = ddc(GridField(box, res, values[window_slices(window)], window=window))
        assert part.cell_mass.shape == tuple(hi - lo for lo, hi in window)
        try:
            expected = radial_masses(whole, center, radii).masses
        except (ResolutionExceeded, ValueError) as exc:
            # radii below the 3-cell floor, or two reaches that round to
            # one radius (0 and 5e-324 scaled by 0.1): the window refuses
            # them alike
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                radial_masses(part, center, radii)
            return
        got = radial_masses(part, center, radii).masses
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("center, r_max", [(-2 + 0j, 0.0625), (-2.29 + 0.1j, 0.05),
                                               (5 + 0j, 0.1), (-2 + 0j, 1.0)])
    def test_window_is_the_reach_plus_one_cell(self, center, r_max):
        # the README scaling box; each range holds the cells whose offset
        # from the centre lies below r_max + half a cell diagonal, and one
        # more cell on each side, within the grid
        box, res = Box((-2 + 0j,), (0.3,)), 512
        h = box.cell_sizes(res)[0]
        reach = r_max + 0.5 * math.hypot(h, h)
        expected = []
        for axis, c in zip(box.axes(res), (center.real, center.imag)):
            near = np.flatnonzero(np.abs(axis - c) < reach)
            expected.append((max(near[0] - 1, 0), min(near[-1] + 2, res)) if near.size
                            else (0, 0))
        assert radial_window(box, res, [center], r_max) == tuple(expected)

    def test_tip_window(self):
        # the benchmark's tip: 1604^2 of 2048^2 cells
        window = radial_window(Box((-2 + 0j,), (0.08,)), 2048, [-2 + 0j], 2.0 ** -4)
        assert window == ((222, 1826), (222, 1826))

    @pytest.mark.parametrize("which", ["G0", "L"])
    def test_scan_window_has_the_whole_scan_bits(self, which):
        box = Box((-2 + 0j,), (0.3,), (0.2,))
        window = radial_window(box, 64, [-2.05 + 0.02j], 0.1)
        whole = scan_field(QUAD, box, 64, which, maxiter=128)
        part = scan_field(QUAD, box, 64, which, maxiter=128, window=window)
        assert part.window == window
        expected = whole.values[window_slices(window)]
        assert np.array_equal(part.values.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("family, ranges", [(QUAD, 1), (QUAD, 4), (BH3, 2), (BH3, 6)])
    def test_window_needs_one_range_per_axis(self, family, ranges):
        # a short window made the scan raise a bare IndexError, and a long
        # one was cut to the grid's axes
        m = family.param_dim
        box, window = Box((0j,) * m, (1.0,) * m), ((2, 6),) * ranges
        message = rf"window of {ranges} cell range\(s\) for the {2 * m} real axes"
        with pytest.raises(ValueError, match=message):
            box.axes(16, window)
        with pytest.raises(ValueError, match=message):
            scan_field(family, box, 16, "G0", maxiter=8, window=window)

    def test_window_short_of_the_radii_refused(self):
        box = Box((0j,), (1.0,))
        window = radial_window(box, 64, [0j], 0.3)
        mass = np.ones(tuple(hi - lo for lo, hi in window))
        mu = MeasureField(box=box, resolution=64, raw_mass=mass, window=window)
        assert radial_masses(mu, 0j, [0.3, 0.2]).masses[0] > 0
        with pytest.raises(ValueError, match="misses cells"):
            radial_masses(mu, 0j, [0.4, 0.2])


class TestMassScaling:
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

    @pytest.mark.parametrize("m_plus", [[2.0, 1.0, 3.0, 4.0], [1.0, 2.0, 2.0, 3.0]])
    def test_m_plus_must_increase(self, m_plus):
        # an unordered ladder was cut at the first radius below 3 cells
        # ("only 2 usable scales") or refused as unordered radii
        mu = lebesgue_measure(Box((0j,), (1.0,)), 128)
        with pytest.raises(ValueError, match=r"^m_plus must be strictly increasing, got \["):
            mass_scaling(mu, 0j, m_plus, q=1, d=2, eps=0.5)

    def test_massless_law_names_its_stage(self):
        mu = lebesgue_measure(Box((0j,), (1.0,)), 128)
        mu.raw_mass[:] = 0.0
        m_plus = np.arange(1, 11) * math.log(2)
        with pytest.raises(DegenerateProfile, match="^mass scaling: fewer than 3 positive"):
            mass_scaling(mu, 0j, m_plus, q=1, d=2, eps=0.5)


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

    def test_nonpositive_scale_rejected(self):
        # 600 of 1,500 circle points doubled: the median spacing is 0, so
        # a scale of 0 passed the spacing test and the fit read log 0
        th = 2 * np.pi * np.arange(1500) / 1500
        pts = np.exp(1j * np.concatenate([th, th[:600]]))
        scales = [0.0, 0.25, 0.125, 0.0625, 0.03125]
        with pytest.raises(ValueError, match=r"scales must be positive, got \[0.25, "):
            box_dimension(pts, scales)
        assert box_dimension(pts, scales[1:]).n_points == 4

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
