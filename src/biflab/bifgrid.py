"""Parameter-grid scans of Lyapunov and per-critical Green fields,
discrete dd^c and two-parameter Monge-Ampere measures, radial mass
profiles and dimension estimators.

Grids live over boxes in C^m (m = 1 or 2); value arrays carry one real
axis pair per complex coordinate, in the order (x1, y1[, x2, y2]) with
"ij" indexing.  The mass normalization is fixed so that dd^c log|l - l0|
carries total mass 1 in one complex parameter; every other stated
density follows from that choice.

The scans run no orbit loop here but ``potential.escape_rate``, the one
escape-rate kernel, on blocks of cells whose parameters each block forms
from the box axes.  A radial output reads only the cells within reach
of its centre, so a scan may cover just those (``radial_window``): the
fields and measures record that window, and every cell in it has the
bits it has on the whole grid.  The stencils and radial masses walk
blocks of first-axis rows (``_row_blocks``), each with the one-row halo
a stencil reads, so their differences, products, distances and masks
are formed a block at a time.
"""

from __future__ import annotations

import cmath
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateProfile,
    InsufficientScales,
    NotPlurisubharmonic,
    ResolutionExceeded,
)
from .potential import _blocks, escape_rate

SCAN_MAXITER = 512
# largest grid a scan takes, in cells: 4096^2, 4x the largest README or
# benchmark grid (2048^2); `ddc --res 4096` on the README box peaks at
# 429 MB RSS on a 2-core Xeon
MAX_GRID_CELLS = 2 ** 24
MIN_CLOUD_POINTS = 1000
# a wedge warns when clamping removed more than this share of its mass
CLAMP_WARN_SHARE = 0.05
# the Gaussian mollifier, the stencils and radial masses work on blocks of
# whole rows of about this many cells (``_row_blocks``), so that a block's
# temporaries stay small and in cache; radial masses of the benchmark tip's
# 1604^2 window took 0.094 s with 8192 cells a block and 0.061 s with
# 32768, on a 2-core Xeon, and nothing else ran slower
ROW_BLOCK = 1 << 15
# the spacing search walks at most this many sorted neighbors on each side
# of a point before it searches the point's box (``_box_search``)
SWEEP_STEPS = 64
# the box search measures about this many (point, row) pairs at a time
_BOX_PAIRS = 1 << 16
# radial masses test band cells against the sphere in chunks of at most
# this many sub-cell offsets
_BAND_FLOATS = 1 << 16


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in C^m: one center, one half-width (real axis) and
    optionally one half-height (imaginary axis) per complex coordinate;
    half-heights default to the half-widths (square planes)."""
    centers: tuple
    half_widths: tuple
    half_heights: tuple = None

    def __post_init__(self):
        if self.half_heights is None:
            object.__setattr__(self, "half_heights", tuple(self.half_widths))
        if not (len(self.centers) == len(self.half_widths) == len(self.half_heights)):
            raise ValueError("one half-width and half-height per center")
        if not all(cmath.isfinite(v)
                   for v in self.centers + self.half_widths + self.half_heights):
            raise ValueError("box centers, half-widths and half-heights must be finite")
        for name, halves in (("half-widths", self.half_widths),
                             ("half-heights", self.half_heights)):
            if any(h <= 0 for h in halves):
                raise ValueError(f"{name} must be positive, got {list(halves)}")

    @property
    def m(self):
        return len(self.centers)

    @property
    def is_square(self):
        return all(abs(w - h) <= 1e-12 * max(w, h)
                   for w, h in zip(self.half_widths, self.half_heights))

    def cell_sizes(self, resolution):
        """Cell size per real axis, in ``axes`` order."""
        return tuple(2.0 * h / resolution for hw, hh in zip(self.half_widths, self.half_heights)
                     for h in (hw, hh))

    def axes(self, resolution, window=None):
        """Cell-center coordinates of the 2m real axes, in value-array
        axis order (re1, im1[, re2, im2]), each cut to its (lo, hi) cell
        range of ``window`` (None: every cell)."""
        if window is not None and len(window) != 2 * self.m:
            raise ValueError(f"a window of {len(window)} cell range(s) for the "
                             f"{2 * self.m} real axes of the box")
        t = (np.arange(resolution) + 0.5) / resolution
        out = []
        for c, hw, hh in zip(self.centers, self.half_widths, self.half_heights):
            out += [complex(c).real - hw + 2.0 * hw * t, complex(c).imag - hh + 2.0 * hh * t]
        return out if window is None else [a[lo:hi] for a, (lo, hi) in zip(out, window)]


@dataclass
class GridField:
    """Values of a field on the cells of a grid.  ``window`` (one (lo, hi)
    cell range per real axis, ``scan_field``'s) names the cells that
    ``values`` holds; None is the whole grid."""
    box: Box
    resolution: int
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    window: tuple = None


@dataclass
class MeasureField:
    """Discrete measure on the cells of a grid.  ``raw_mass`` is the
    signed stencil output, ``cell_mass`` the clamped (nonnegative) mass
    and ``clamp_total`` the amount removed by clamping.  The masses are
    those of the cells of ``window``, as in ``GridField``."""
    box: Box
    resolution: int
    raw_mass: np.ndarray
    meta: dict = field(default_factory=dict)
    window: tuple = None

    @property
    def cell_mass(self):
        return np.maximum(self.raw_mass, 0.0)

    @property
    def clamp_total(self):
        return float(np.sum(self.cell_mass - self.raw_mass))

    @property
    def total_mass(self):
        return float(np.sum(self.cell_mass))


@dataclass(frozen=True)
class RadialMassProfile:
    center: tuple
    radii: np.ndarray
    masses: np.ndarray


@dataclass(frozen=True)
class DimensionEstimate:
    slope: float
    stderr: float
    fit_range: tuple
    n_points: int


@dataclass(frozen=True)
class MassScalingResult:
    slope: float
    stderr: float
    expected: float
    deviation: float
    n_used: int
    radii: np.ndarray
    masses: np.ndarray


def _second_difference(u, ax, others, ay=None):
    """u[i+1] + u[i-1] - 2 u[i] along axis ``ax`` at the cells 1..n-2 of
    that axis; ``others`` (a slice) selects the cells of every other axis.
    With a second axis ``ay``, the mixed difference (u[i+1, j+1] +
    u[i-1, j-1] - u[i+1, j-1] - u[i-1, j+1]) / 4 at the cells 1..n-2 of
    both axes."""
    def cut(s_ax, s_ay=None):
        return u[tuple(s_ax if b == ax else (s_ay if b == ay else others)
                       for b in range(u.ndim))]

    up, dn = slice(2, None), slice(0, -2)
    if ay is None:
        return cut(up) + cut(dn) - 2.0 * cut(slice(1, -1))
    return (cut(up, up) + cut(dn, dn) - cut(up, dn) - cut(dn, up)) / 4.0


def _row_blocks(shape):
    """Blocks of the first-axis rows of a grid of ``shape``, about
    ROW_BLOCK cells each, in order: (rows, halo) slices, the rows
    lo..hi-1 of a block and those rows with the one row on each side
    that a stencil reads, cut to the grid."""
    n = shape[0]
    step = max(1, ROW_BLOCK // max(math.prod(shape[1:]), 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield slice(lo, hi), slice(max(lo - 1, 0), min(hi + 1, n))


def _local_mass(values, weights=None):
    """Unscaled 5-point mass per complex coordinate, (1/2pi)(sum of the 4
    in-plane neighbors - 4 center), summed over coordinates; boundary
    cells get 0.  ``weights`` rescale each axis's second difference for
    rectangular cells (weight = h_other / h_axis per coordinate plane).
    Each row block reads its rows with their halo, so the temporaries are
    a block's."""
    ndim = values.ndim
    if weights is None:
        weights = [1.0] * ndim
    # the boundary ring, where the stencil is one-sided, keeps mass 0; the
    # inner rows of a block's halo are the block's rows off the grid's edge
    inner = (slice(1, -1),) * ndim
    mass = np.zeros_like(values)
    for _, halo in _row_blocks(values.shape):
        u = values[halo]
        acc = np.zeros_like(u[inner])
        for ax in range(ndim):
            acc += weights[ax] * _second_difference(u, ax, slice(1, -1))
        mass[halo][inner] = acc / (2.0 * math.pi)
    return mass


def _field_index(family, which):
    """The marked critical index that the field ``which`` of ``scan_field``
    reads, None for "L"; a ValueError for any other name, or for an index
    that names no marked critical point."""
    if which == "L":
        return None
    if not re.fullmatch(r"G(0|-?[1-9][0-9]*)", which):
        raise ValueError(f"unknown field {which!r}: a field is L or G<j>, "
                         f"j a critical index in decimal digits (G0, G1, ...)")
    j = int(which[1:])
    if not 0 <= j < len(family.marked_critical_points([0j] * family.param_dim)):
        raise ValueError(f"critical index {j} out of range")
    return j


def _check_resolution(resolution):
    if resolution < 8:
        raise ValueError("resolution must be >= 8")


def scan_field(family, box, resolution, which, maxiter=SCAN_MAXITER, window=None):
    """Grid scan of a parameter field.

    ``which``: "L" (Lyapunov, log d + sum of critical Green values at the
    critical values) or "G<j>" (Green value of marked critical point j,
    taken at its critical value), j written in plain decimal; any other
    name (``G``, ``Gx``, ``G+0``, ``G00``) is a ValueError, and so is a
    grid of more than MAX_GRID_CELLS cells.

    ``window``, one (lo, hi) cell range per real axis (``radial_window``),
    scans only the cells lo..hi-1 of each axis; the limits above still
    hold for the whole grid.  None scans every cell.

    The flat cell range is split into contiguous blocks (``_blocks``).
    Each block forms its cells' parameters x + iy from the box axes and
    runs ``escape_rate`` on them alone.  A cell's orbit, its exit step
    and the steps at which its z is saved depend only on its parameter,
    so neither the split nor the window changes a bit of a cell's value.
    """
    _check_resolution(resolution)
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    j = _field_index(family, which)
    cells = resolution ** (2 * box.m)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"resolution {resolution} gives {cells} cells, above the "
                         f"{MAX_GRID_CELLS} of MAX_GRID_CELLS")
    axes = box.axes(resolution, window)
    shape = tuple(len(a) for a in axes)
    cells = math.prod(shape)
    mults = [k for _, k in family.marked_critical_points([0j] * family.param_dim)]
    vals = np.empty(cells)

    def run(lo, hi):
        ix = np.unravel_index(np.arange(lo, hi), shape)
        lams = [axes[2 * i][ix[2 * i]] + 1j * axes[2 * i + 1][ix[2 * i + 1]]
                for i in range(box.m)]
        if j is not None:
            vals[lo:hi] = escape_rate(family, lams, j, maxiter)
            return
        vals[lo:hi] = math.log(family.degree)
        for k, mult in enumerate(mults):
            vals[lo:hi] += mult * escape_rate(family, lams, k, maxiter)

    _blocks(run, cells)
    return GridField(box=box, resolution=resolution, values=vals.reshape(shape),
                     meta={"which": which, "maxiter": maxiter}, window=window)


# ----------------------------------------------------------------------
# discrete dd^c and Monge-Ampere

def ddc(gfield):
    """Discrete bifurcation-type measure of a one-parameter field:
    interior cell mass (1/2pi)(sum of 4 neighbors - 4 center).  The edge
    cells of the field's window get mass 0, like the grid's edge."""
    if gfield.box.m != 1:
        raise ValueError("ddc requires one complex parameter")
    hx, hy = gfield.box.cell_sizes(gfield.resolution)
    return MeasureField(box=gfield.box, resolution=gfield.resolution,
                        raw_mass=_local_mass(gfield.values, weights=[hy / hx, hx / hy]),
                        meta={"op": "ddc", "source": dict(gfield.meta)}, window=gfield.window)


def _hessian_fields(u, h1, h2, keep=slice(None)):
    """Complex-Hessian entries (d^2 u / dl_j dl_k-bar) of a 4D grid with
    axis order (x1, y1, x2, y2), at the first-axis rows ``keep`` of u
    (a row block's, with the rows of its halo around it).  A second
    difference is 0 on the end cells of its axes, as on the grid's."""
    lo, hi, _ = keep.indices(len(u))

    def d2(ax, ay=None):
        out = np.zeros((hi - lo,) + u.shape[1:])
        cut = [slice(1, -1) if b in (ax, ay) else slice(None) for b in range(u.ndim)]
        if ax == 0:
            # the rows of ``keep`` with both neighbors in u
            a, b = max(lo, 1), min(hi, len(u) - 1)
            cut[0] = slice(a - lo, b - lo)
            out[tuple(cut)] = _second_difference(u[a - 1:b + 1], ax, slice(None), ay)
        else:
            out[tuple(cut)] = _second_difference(u[lo:hi], ax, slice(None), ay)
        return out

    A11 = 0.25 * (d2(0) + d2(1)) / h1 ** 2
    A22 = 0.25 * (d2(2) + d2(3)) / h2 ** 2
    A12 = 0.25 * (d2(0, 2) + d2(1, 3)
                  + 1j * (d2(0, 3) - d2(1, 2))) / (h1 * h2)
    return A11, A22, A12


def _gaussian(values, sigmas):
    """Separable Gaussian blur, edge values repeated past the border; the
    axes with sigma > 1e-15 are taken in order, each with weights
    exp(-x^2 / 2 sigma^2) / sum for |x| <= int(2 sigma + 0.5).  A cell
    accumulates its center term, then (left_j + right_j) w_j from the
    widest j inwards, as scipy's symmetric ``correlate1d`` does."""
    out = np.array(values, dtype=float)
    shape = out.shape
    for n, s in zip(shape, sigmas):
        # ``out`` holds this axis first; blur along it, then move it last
        rows = out.reshape(n, -1)
        if s > 1e-15:
            r = int(2.0 * s + 0.5)
            w = np.exp(-0.5 / (s * s) * np.arange(-r, r + 1) ** 2)
            w = w / w.sum()
            padded = np.pad(rows, [(r, r), (0, 0)], mode="edge")
            rows = np.empty_like(rows)
            # blocks of whole rows, so that every operand is contiguous
            step = max(1, ROW_BLOCK // rows.shape[1])
            tmp = np.empty((min(step, n), rows.shape[1]))
            # an inf - inf or an overflow passes silently, as in scipy's loop
            with np.errstate(invalid="ignore", over="ignore"):
                for i in range(0, n, step):
                    k = min(step, n - i)
                    acc, t = rows[i:i + k], tmp[:k]
                    np.multiply(padded[i + r:i + r + k], w[r], out=acc)
                    for j in range(r, 0, -1):
                        np.add(padded[i + r - j:i + r - j + k], padded[i + r + j:i + r + j + k],
                               out=t)
                        np.multiply(t, w[r + j], out=t)
                        np.add(acc, t, out=acc)
        out = np.ascontiguousarray(rows.T)
    return out.reshape(shape)


def _mollify(values, box, resolution, radius):
    sig = []
    for h in box.cell_sizes(resolution)[::2]:
        sig.extend([radius / (2.0 * h)] * 2)
    # bit for bit scipy.ndimage.gaussian_filter(values, sig, mode="nearest", truncate=2.0)
    return _gaussian(values, sig)


def wedge_pair(field_a, field_b, mollify_radius=None):
    """Mixed Monge-Ampere measure of two fields over C^2.

    Cell mass (8/pi^2) M(A, B) h1^2 h2^2 with the polarized determinant
    M(A,B) = (A11 B22 + B11 A22 - A12 conj(B12) - B12 conj(A12)) / 2, so
    wedge_pair(u, u) reproduces monge_ampere2(u) exactly.
    """
    box, res = field_a.box, field_a.resolution
    if box.m != 2:
        raise ValueError("wedge_pair requires two complex parameters")
    if not box.is_square:
        raise ValueError("wedge stencils require square coordinate planes")
    if field_b.box != box or field_b.resolution != res:
        raise ValueError("fields must share box and resolution")
    h1, h2 = box.cell_sizes(res)[::2]
    if mollify_radius is None:
        mollify_radius = 3.0 * max(h1, h2)
    if not math.isfinite(mollify_radius):
        raise ValueError(f"mollify_radius must be finite, got {mollify_radius}")
    if mollify_radius < 2.0 * min(h1, h2):
        raise ValueError("mollify_radius must be >= 2 cell widths")
    ua = _mollify(field_a.values, box, res, mollify_radius)
    ub = (ua if field_b is field_a or np.array_equal(field_b.values, field_a.values)
          else _mollify(field_b.values, box, res, mollify_radius))
    # drop the shell whose stencil sees padded (edge-replicated) data
    shells = []
    for h in (h1, h1, h2, h2):
        shells.append(int(math.ceil(2.0 * mollify_radius / (2.0 * h))) + 1)
    valid = [slice(s, n - s) for s, n in zip(shells, ua.shape)]
    raw = np.zeros(ua.shape)
    # the largest Hessian entry of each field, over every cell
    size_a = size_b = np.full(3, -np.inf)
    for rows, halo in _row_blocks(ua.shape):
        keep = slice(rows.start - halo.start, rows.stop - halo.start)
        A = _hessian_fields(ua[halo], h1, h2, keep)
        B = A if ub is ua else _hessian_fields(ub[halo], h1, h2, keep)
        size_a = np.maximum(size_a, [np.max(np.abs(e)) for e in A])
        size_b = size_a if ub is ua else np.maximum(size_b, [np.max(np.abs(e)) for e in B])
        lo, hi = max(valid[0].start, rows.start), min(valid[0].stop, rows.stop)
        if lo >= hi:
            continue
        cut = (slice(lo - rows.start, hi - rows.start), *valid[1:])
        (A11, A22, A12), (B11, B22, B12) = ([e[cut] for e in A], [e[cut] for e in B])
        M = 0.5 * (A11 * B22 + B11 * A22 - A12 * np.conj(B12) - B12 * np.conj(A12))
        raw[(slice(lo, hi), *valid[1:])] = (8.0 / math.pi ** 2) * M.real * (h1 ** 2) * (h2 ** 2)
    mu = MeasureField(box=box, resolution=res, raw_mass=raw,
                      meta={"op": "wedge_pair", "mollify_radius": mollify_radius,
                            "boundary_shell": shells,
                            "a": dict(field_a.meta), "b": dict(field_b.meta)})
    clamp_total = mu.clamp_total
    absolute = mu.total_mass + clamp_total
    # Roundoff moves a Hessian entry of u by up to about 16 eps max|u| / h^2,
    # and M is bilinear in the entries of A and B; a clamped mass below the
    # mass that this can move over the valid cells is roundoff, as in a
    # pluriharmonic or rank-one field, and shows no loss of plurisubharmonicity
    err_a, err_b = (16.0 * np.finfo(float).eps * float(np.max(np.abs(u))) / min(h1, h2) ** 2
                    for u in (ua, ub))
    size_a, size_b = (max(float(e) for e in size) for size in (size_a, size_b))
    valid_cells = math.prod(max(v.stop - v.start, 0) for v in valid)
    roundoff = ((8.0 / math.pi ** 2) * (h1 * h2) ** 2 * valid_cells
                * (size_a * err_b + size_b * err_a + err_a * err_b))
    if clamp_total > max(CLAMP_WARN_SHARE * absolute, roundoff):
        warnings.warn(f"clamped mass {clamp_total:.3g} is {clamp_total / absolute:.1%} "
                      f"of the absolute mass {absolute:.3g}", NotPlurisubharmonic)
    return mu


def monge_ampere2(gfield, mollify_radius=None):
    """(dd^c u)^2 measure of a field over C^2 (self-wedge)."""
    out = wedge_pair(gfield, gfield, mollify_radius=mollify_radius)
    out.meta = {"op": "monge_ampere2",
                "mollify_radius": out.meta["mollify_radius"],
                "boundary_shell": out.meta["boundary_shell"],
                "source": dict(gfield.meta)}
    return out


# ----------------------------------------------------------------------
# radial masses and dimension estimators

def decreasing_radii(radii):
    """``radii`` as a float array; a ValueError unless strictly decreasing
    and finite (a lone nan has no difference to order)."""
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.diff(radii) < 0):
        raise ValueError("radii must be strictly decreasing")
    if not np.all(np.isfinite(radii)):
        raise ValueError(f"radii must be finite, got {radii.tolist()}")
    return radii


def _real_center(box, center):
    """The coordinates of a centre in C^m per real axis, in ``Box.axes``
    order; a ValueError unless it has the box's m coordinates."""
    ctr = np.atleast_1d(np.asarray(center, dtype=complex))
    if ctr.shape != (box.m,):
        raise ValueError(f"radial masses need a center of {box.m} coordinate(s), "
                         f"got {ctr.size}")
    return np.array([ctr.real, ctr.imag]).T.ravel()


def radial_window(box, resolution, center, r_max):
    """The cells that ``radial_masses`` about ``center`` reads for radii
    up to ``r_max``, with the halo cell the 5-point stencil needs: one
    (lo, hi) cell range per real axis, for ``scan_field``'s ``window``.

    A cell is read only where its distance to the centre is below
    r_max + half a cell diagonal, and that distance is at least the
    cell's offset along each axis.  So each range holds the cells whose
    offset lies below that reach, computed as ``radial_masses`` computes
    it, widened by one cell on each side and clipped to the grid.  The
    offset grows with the cell index, so each end is a sorted search of
    the 1-d axis and nothing of the grid's size is formed.  An axis with
    no such cell gets an empty range."""
    _check_resolution(resolution)
    cvec = _real_center(box, center)
    reach = r_max + 0.5 * float(np.linalg.norm(box.cell_sizes(resolution)))
    window = []
    for a, c in zip(box.axes(resolution), cvec):
        offset = a - c
        first = int(np.searchsorted(offset, -reach, side="right"))
        end = int(np.searchsorted(offset, reach, side="left"))
        window.append((max(first - 1, 0), min(end + 1, resolution)) if first < end else (0, 0))
    return tuple(window)


def radial_masses(measure, center, radii):
    """mu(ball(center, r_k)) by cell summation; cells cut by the sphere
    contribute their subsampled covered fraction.

    Only the cells within reach of the largest radius are read, so a
    measure on a ``radial_window`` (for these radii or larger ones) gives
    the masses of the whole grid, bit for bit; a window that misses a
    cell in reach is a ValueError.

    The measure is read by row blocks (``_row_blocks``).  Each radius
    gathers the clamped masses of its inner cells, and those of its band
    cells times their covered fractions, in flat cell order, and sums
    each gather once: the sums of whole-array masks, with no array of the
    measure's size formed.  A counting pass over the blocks sizes the
    gathers, and a second pass fills them."""
    box, res = measure.box, measure.resolution
    hs = box.cell_sizes(res)
    radii = decreasing_radii(radii)
    hmax = float(np.max(hs))
    if radii[-1] < 3.0 * hmax:
        raise ResolutionExceeded(
            f"r_min = {radii[-1]:.3g} below 3 cell widths ({3 * hmax:.3g})")
    ctr = np.atleast_1d(np.asarray(center, dtype=complex))
    cvec = _real_center(box, ctr)
    if measure.window is not None:
        need = radial_window(box, res, ctr, radii[0])
        if all(lo < hi for lo, hi in need) and any(
                lo < wlo or hi > whi for (lo, hi), (wlo, whi) in zip(need, measure.window)):
            raise ValueError(f"the measure's window {measure.window} misses cells of "
                             f"{need}, within reach of the radii")
    flats = box.axes(res, measure.window)
    shape = tuple(len(a) for a in flats)
    half_diag = 0.5 * float(np.linalg.norm(hs))
    subsample = 8 if box.m == 1 else 4
    offs = [(np.arange(subsample) + 0.5) / subsample - 0.5 for _ in hs]
    off_flat = np.stack([om.ravel() for om in np.meshgrid(*offs, indexing="ij")], axis=0)
    step = max(1, _BAND_FLOATS // off_flat.shape[1])
    raw = measure.raw_mass

    def cells():
        """(rows, axes, i, near, inner, band) for each row block and radius
        i in turn (``_ball_cells``)."""
        for rows, _ in _row_blocks(shape):
            axes = [flats[0][rows], *flats[1:]]
            for i, ball in enumerate(_ball_cells(axes, cvec, radii, half_diag)):
                yield rows, axes, i, *ball

    counts = np.zeros((len(radii), 2), dtype=np.intp)
    for _, _, i, _, inner, band in cells():
        counts[i] += np.count_nonzero(inner), np.count_nonzero(band)
    gathers = [(np.empty(n_inner), np.empty(n_band)) for n_inner, n_band in counts]
    filled = np.zeros_like(counts)
    for rows, axes, i, near, inner, band in cells():
        inner, band = near[inner], near[band]
        mass = raw[rows].ravel()
        (g_inner, g_band), (p, q) = gathers[i], filled[i]
        np.maximum(mass[inner], 0.0, out=g_inner[p:p + inner.size])
        # the covered fraction of band cells, a chunk of cells at a time,
        # so no (band cells x sub-cells) array is formed
        for lo in range(0, band.size, step):
            chunk = band[lo:lo + step]
            sub2 = np.zeros((chunk.size, off_flat.shape[1]))
            ix = np.unravel_index(chunk, tuple(len(a) for a in axes))
            for k, (a, ik) in enumerate(zip(axes, ix)):
                sub2 += (a[ik][:, None] + off_flat[k][None, :] * hs[k] - cvec[k]) ** 2
            g_band[q + lo:q + lo + chunk.size] = (
                np.maximum(mass[chunk], 0.0) * np.mean(sub2 <= radii[i] * radii[i], axis=1))
        filled[i] += inner.size, band.size
    masses = np.empty(len(radii))
    for i, (g_inner, g_band) in enumerate(gathers):
        masses[i] = float(np.sum(g_inner))
        if g_band.size:
            masses[i] += float(np.sum(g_band))
    return RadialMassProfile(center=tuple(ctr), radii=radii, masses=masses)


def _ball_cells(axes, cvec, radii, half_diag):
    """For each of the decreasing ``radii`` in turn, (near, inner, band):
    the flat indices, in increasing order, of cells on ``axes`` within
    reach of the radius, and masks over them of those inside the ball
    about ``cvec`` (distance at most r - half_diag) and of those in its
    band (the others nearer than r + half_diag).  Each radius searches
    only the cells within reach of the one before it."""
    # the distance to the centre adds the squared offsets of each real
    # axis, broadcast from 1-d, so no array of cell coordinates is formed
    dist = np.zeros(tuple(len(a) for a in axes))
    for k, a in enumerate(np.ix_(*axes)):
        dist += (a - cvec[k]) ** 2
    dist = np.sqrt(dist, out=dist).ravel()
    near = None
    for r in radii:
        lo, hi = r - half_diag, r + half_diag
        keep = dist <= max(lo, hi)
        near, dist = (np.flatnonzero(keep) if near is None else near[keep]), dist[keep]
        inner = dist <= lo
        yield near, inner, ~inner & (dist < hi)


def _ols(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return slope, stderr


def pointwise_dimension(profile):
    """Least-squares slope of log mu(ball(r)) against log r."""
    keep = profile.masses > 0
    radii = profile.radii[keep]
    masses = profile.masses[keep]
    if len(radii) < 4:
        raise DegenerateProfile(f"pointwise dimension: only {len(radii)} radii with positive mass")
    slope, stderr = _ols(np.log(radii), np.log(masses))
    return DimensionEstimate(slope=slope, stderr=stderr,
                             fit_range=(float(radii[0]), float(radii[-1])),
                             n_points=len(radii))


def scaling_ladder(m_plus, eps):
    """The radii eps/m_n^+ = eps exp(-m_plus) of the mass-scaling ladder,
    largest first; a ValueError unless ``eps`` is positive and finite and
    ``m_plus`` strictly increasing."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"mass scaling eps must be positive and finite, got {eps}")
    m_plus = np.asarray(m_plus, dtype=float)
    if not np.all(np.diff(m_plus) > 0):
        raise ValueError(f"m_plus must be strictly increasing, got {m_plus.tolist()}")
    return eps * np.exp(-m_plus)


def mass_scaling(measure, center, m_plus, q, d, eps=0.25):
    """Regression slope of log mu(ball(center, eps/m_n^+)) against n,
    compared with the -q log d scaling law.

    ``m_plus``: log m_n^+ values for n = 1, 2, ..., strictly increasing;
    ``eps`` must be positive and finite (``scaling_ladder``).
    """
    radii = scaling_ladder(m_plus, eps)
    h = max(measure.box.cell_sizes(measure.resolution))
    usable = int(np.sum(radii >= 3.0 * h))
    if usable < 3:
        raise ResolutionExceeded(f"only {usable} usable scales at this resolution")
    radii = radii[:usable]
    masses = radial_masses(measure, center, radii).masses
    keep = masses > 0
    if int(np.sum(keep)) < 3:
        raise DegenerateProfile("mass scaling: fewer than 3 positive masses")
    ns = np.arange(1, usable + 1)[keep]
    slope, stderr = _ols(ns, np.log(masses[keep]))
    expected = -q * math.log(d)
    return MassScalingResult(slope=slope, stderr=stderr, expected=expected,
                             deviation=slope - expected, n_used=int(ns[-1]),
                             radii=radii, masses=masses)


def _nearest_distances(xy, count):
    """Distance sqrt(dx*dx + dy*dy) from each of the first ``count`` rows
    of ``xy`` to the nearest other row (0 where a row repeats).

    The rows are sorted along the axis of the larger span, and each query
    steps outwards in that order, one neighbor per side per step.  A
    query retires once both sides are exhausted or have reached an axis
    distance sqrt(dx*dx) at least its best distance: every row farther
    out on that side is at least that far away.  Queries still open after
    SWEEP_STEPS steps, as in a long run of equal sort-axis values, go to
    ``_box_search``."""
    n = len(xy)
    ax = 0 if np.ptp(xy[:, 0]) >= np.ptp(xy[:, 1]) else 1
    order = np.argsort(xy[:, ax], kind="stable")
    s, t = xy[order, ax], xy[order, 1 - ax]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    pos = rank[:count]
    best = np.full(count, np.inf)
    live = np.arange(count)
    for k in range(1, SWEEP_STEPS + 1):
        if not live.size:
            break
        p = pos[live]
        sp, tp, b = s[p], t[p], best[live]
        done = np.ones(live.size, dtype=bool)
        for j in (p - k, p + k):
            inside = (j >= 0) & (j < n)
            j = np.where(inside, j, p)
            dx, dy = sp - s[j], tp - t[j]
            b = np.where(inside, np.minimum(b, np.sqrt(dx * dx + dy * dy)), b)
            done &= ~inside | (np.sqrt(dx * dx) >= b)
        best[live] = b
        live = live[~done]
    # a repeat (distance 0) is as near as a row can come
    live = live[best[live] > 0]
    if live.size:
        best[live] = _box_search(s, t, pos[live], best[live])
    return best


def _box_search(s, t, pos, best):
    """The nearest distances from the rows ``pos`` of a cloud sorted along
    ``s`` (``t`` the other axis), each ``best`` an upper bound that some
    other row attains.

    Only rows inside a query's box [fl(s - b), fl(s + b)] x [fl(t - b),
    fl(t + b)] can come nearer than b: no float lies strictly between
    s - b and its rounding, so a row below fl(s - b) lies at least b
    below s, and sqrt(dx*dx + dy*dy) >= |dx| >= b; the same holds on each
    side.  The rows are cut into strips of width max(best) along s, so
    a box meets at most a few strips, and ranked along t within each
    strip, so the rows of a box in one strip are one range."""
    n = len(s)
    sp, tp = s[pos], t[pos]
    ts = np.sort(t)
    cut = np.diff(np.floor((s - s[0]) / float(np.max(best)))) != 0
    strip = np.concatenate([[0], np.cumsum(cut)])
    # (strip, t rank) in one integer; rows ordered by it
    key = strip * (n + 1) + np.searchsorted(ts, t)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = strip[np.searchsorted(s, sp - best)]
    last = strip[np.searchsorted(s, sp + best, side="right") - 1]
    t_lo = np.searchsorted(ts, tp - best)
    t_hi = np.searchsorted(ts, tp + best, side="right")
    best = best.copy()
    for k in range(int(np.max(last - first)) + 1):
        q = np.flatnonzero(first + k <= last)
        base = (first[q] + k) * (n + 1)
        lo = np.searchsorted(key, base + t_lo[q])
        size = np.searchsorted(key, base + t_hi[q]) - lo
        # measure the boxes of a run of queries at a time
        start = np.cumsum(size) - size
        cuts = np.searchsorted(start, np.arange(_BOX_PAIRS, start[-1] + size[-1], _BOX_PAIRS))
        for a, b in zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [q.size]])):
            qi = np.repeat(np.arange(a, b), size[a:b])
            j = order[lo[qi] + np.arange(qi.size) + start[a] - start[qi]]
            dx, dy = sp[q[qi]] - s[j], tp[q[qi]] - t[j]
            d = np.sqrt(dx * dx + dy * dy)
            d[j == pos[q[qi]]] = np.inf
            np.minimum.at(best, q[qi], d)
    return best


def box_dimension(points, scales):
    """Box-counting slope of log N(eps) against log(1/eps) for a planar
    point cloud; every scale eps must be positive."""
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) < MIN_CLOUD_POINTS:
        raise ValueError(f"need >= {MIN_CLOUD_POINTS} points, got {len(pts)}")
    scales = np.asarray(sorted(set(float(s) for s in scales), reverse=True))
    if not np.all(scales > 0):
        raise ValueError(f"box-counting scales must be positive, got {scales.tolist()}")
    xy = np.column_stack([pts.real, pts.imag])
    if not np.all(np.isfinite(xy)):
        raise ValueError("cloud points must be finite")
    spacing = float(np.median(_nearest_distances(xy, min(len(xy), 2000))))
    usable = scales[scales >= 2.0 * spacing]
    if len(usable) < 4:
        raise InsufficientScales(
            f"only {len(usable)} scales above 2x point spacing {spacing:.3g}")
    counts = []
    for eps in usable:
        # occupied boxes: sort the box indices, count the rows that differ
        # from their predecessor
        ix, iy = np.floor(xy / eps).astype(np.int64).T
        order = np.lexsort((iy, ix))
        ix, iy = ix[order], iy[order]
        counts.append(min(len(ix), 1) + int(np.count_nonzero(
            (ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1]))))
    slope, stderr = _ols(np.log(1.0 / usable), np.log(counts))
    return DimensionEstimate(slope=slope, stderr=stderr,
                             fit_range=(float(usable[0]), float(usable[-1])),
                             n_points=len(usable))
