"""Parameter-grid scans of Lyapunov and per-critical Green fields,
discrete dd^c and two-parameter Monge-Ampere measures, radial mass
profiles and dimension estimators.

Grids live over boxes in C^m (m = 1 or 2); value arrays carry one real
axis pair per complex coordinate, in the order (x1, y1[, x2, y2]) with
"ij" indexing.  The mass normalization is fixed so that dd^c log|l - l0|
carries total mass 1 in one complex parameter; every other stated
density follows from that choice.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateProfile,
    InsufficientScales,
    NotPlurisubharmonic,
    ResolutionExceeded,
)
from .potential import escape_rate

SCAN_MAXITER = 512
ACTIVITY_THRESHOLD = 1e-8
MIN_CLOUD_POINTS = 1000
# a wedge warns when clamping removed more than this share of its mass
CLAMP_WARN_SHARE = 0.05
# the Gaussian mollifier accumulates blocks of whole rows of about this
# many cells, so that a block and the padded rows it reads stay in cache
GAUSS_BLOCK = 8192
# the spacing search walks at most this many sorted neighbors on each side
# of a point before it measures the distance to every point
SWEEP_STEPS = 512


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
        if any(h <= 0 for h in self.half_widths + self.half_heights):
            raise ValueError("half-widths must be positive")

    @property
    def m(self):
        return len(self.centers)

    @property
    def is_square(self):
        return all(abs(w - h) <= 1e-12 * max(w, h)
                   for w, h in zip(self.half_widths, self.half_heights))

    def cell_widths(self, resolution):
        return tuple(2.0 * h / resolution for h in self.half_widths)

    def cell_heights(self, resolution):
        return tuple(2.0 * h / resolution for h in self.half_heights)

    def axes(self, resolution):
        """Cell-center coordinates, one (x, y) pair per complex coordinate."""
        out = []
        t = (np.arange(resolution) + 0.5) / resolution
        for c, hw, hh in zip(self.centers, self.half_widths, self.half_heights):
            out.append((complex(c).real - hw + 2.0 * hw * t,
                        complex(c).imag - hh + 2.0 * hh * t))
        return out

    def param_grids(self, resolution):
        """Complex coordinate arrays of shape (resolution,) * 2m."""
        mesh = np.meshgrid(*_cell_center_coords(self, resolution), indexing="ij")
        return [mesh[2 * i] + 1j * mesh[2 * i + 1] for i in range(self.m)]


@dataclass
class GridField:
    box: Box
    resolution: int
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    nan_count: int = 0


@dataclass
class MeasureField:
    """Discrete measure on the cells of a grid.  ``cell_mass`` is the
    clamped (nonnegative) mass; ``raw_mass`` keeps the signed stencil
    output and ``clamp_total`` the amount removed by clamping."""
    box: Box
    resolution: int
    cell_mass: np.ndarray
    raw_mass: np.ndarray
    clamp_total: float
    meta: dict = field(default_factory=dict)

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


# ----------------------------------------------------------------------
# vectorized polynomial iteration over parameter grids

def _grid_apply(family, rows, z):
    """f applied cellwise in power form.  ``rows`` are the entries of
    ``family.coeff_rows`` at the cells' parameters that depend on lambda,
    in order: c for unicritical; a^d, then the rows of z^2..z^(d-1) for
    Branner-Hubbard.  ``np.multiply`` keeps each product's operand order,
    which the elided ``row * z ** j`` would not (see ``families``)."""
    d = family.degree
    if family.kind == "unicritical":
        return z ** d + rows[0]
    out = z ** d / d + rows[0]
    for j in range(2, d):
        out = out + np.multiply(rows[j - 1], z ** j)
    return out


def _grid_green(family, lams, z0, maxiter=SCAN_MAXITER):
    """Escape-rate Green value of the orbit of z0, cellwise."""
    d = family.degree
    rows = family.coeff_rows([l.ravel() for l in lams])
    gamma = math.log(abs(rows[d])) / (d - 1)
    return escape_rate(z0, lambda z, *cur: _grid_apply(family, cur, z), d, gamma,
                       maxiter, args=[row for row in rows if np.ndim(row)])[0]


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


def _local_mass(values, weights=None):
    """Unscaled 5-point mass per complex coordinate, (1/2pi)(sum of the 4
    in-plane neighbors - 4 center), summed over coordinates; boundary
    cells get 0.  ``weights`` rescale each axis's second difference for
    rectangular cells (weight = h_other / h_axis per coordinate plane)."""
    ndim = values.ndim
    if weights is None:
        weights = [1.0] * ndim
    # the boundary ring, where the stencil is one-sided, keeps mass 0
    inner = (slice(1, -1),) * ndim
    acc = np.zeros_like(values[inner])
    for ax in range(ndim):
        acc += weights[ax] * _second_difference(values, ax, slice(1, -1))
    mass = np.zeros_like(values)
    mass[inner] = acc / (2.0 * math.pi)
    return mass


def scan_field(family, box, resolution, which, maxiter=SCAN_MAXITER):
    """Grid scan of a parameter field.

    ``which``: "L" (Lyapunov, log d + sum of critical Green values at the
    critical values), "G<j>" (Green value of marked critical point j,
    taken at its critical value) or "activity<j>" (0/1 flag, local dd^c
    mass of G_j above the threshold).
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    lams = box.param_grids(resolution)
    rows = [row for row in family.coeff_rows(lams) if np.ndim(row)]
    crit = family.critical_rows(lams)
    meta = {"which": which, "maxiter": maxiter}

    def green_field(j):
        if not 0 <= j < len(crit):
            raise ValueError(f"critical index {j} out of range")
        cv = _grid_apply(family, rows, crit[j][0])
        return _grid_green(family, lams, cv, maxiter=maxiter)

    if which == "L":
        vals = np.full(lams[0].shape, math.log(family.degree))
        for j, (_, mult) in enumerate(crit):
            vals = vals + mult * green_field(j)
    elif which.startswith("activity"):
        j = int(which[len("activity"):])
        g = green_field(j)
        ws = []
        for hx, hy in zip(box.cell_widths(resolution), box.cell_heights(resolution)):
            ws.extend([hy / hx, hx / hy])
        mass = _local_mass(g, weights=ws)
        vals = (np.abs(mass) > ACTIVITY_THRESHOLD).astype(float)
        meta["threshold"] = ACTIVITY_THRESHOLD
    elif which.startswith("G"):
        vals = green_field(int(which[1:]))
    else:
        raise ValueError(f"unknown field {which!r}")
    nan_count = int(np.sum(~np.isfinite(vals)))
    return GridField(box=box, resolution=resolution, values=vals,
                     meta=meta, nan_count=nan_count)


# ----------------------------------------------------------------------
# discrete dd^c and Monge-Ampere

def ddc(gfield):
    """Discrete bifurcation-type measure of a one-parameter field:
    interior cell mass (1/2pi)(sum of 4 neighbors - 4 center)."""
    if gfield.box.m != 1:
        raise ValueError("ddc requires one complex parameter")
    hx = gfield.box.cell_widths(gfield.resolution)[0]
    hy = gfield.box.cell_heights(gfield.resolution)[0]
    raw = _local_mass(gfield.values, weights=[hy / hx, hx / hy])
    clamped = np.maximum(raw, 0.0)
    clamp_total = float(np.sum(clamped - raw))
    return MeasureField(box=gfield.box, resolution=gfield.resolution,
                        cell_mass=clamped, raw_mass=raw, clamp_total=clamp_total,
                        meta={"op": "ddc", "source": dict(gfield.meta)})


def _hessian_fields(u, h1, h2):
    """Complex-Hessian entries (d^2 u / dl_j dl_k-bar) of a 4D grid with
    axis order (x1, y1, x2, y2)."""
    def d2(ax, ay=None):
        out = np.zeros_like(u)
        out[tuple(slice(1, -1) if b in (ax, ay) else slice(None) for b in range(u.ndim))] = \
            _second_difference(u, ax, slice(None), ay)
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
            step = max(1, GAUSS_BLOCK // rows.shape[1])
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
    h = box.cell_widths(resolution)
    sig = []
    for i in range(box.m):
        sig.extend([radius / (2.0 * h[i])] * 2)
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
    h1, h2 = box.cell_widths(res)
    if mollify_radius is None:
        mollify_radius = 3.0 * max(h1, h2)
    if not math.isfinite(mollify_radius):
        raise ValueError(f"mollify_radius must be finite, got {mollify_radius}")
    if mollify_radius < 2.0 * min(h1, h2):
        raise ValueError("mollify_radius must be >= 2 cell widths")
    ua = _mollify(field_a.values, box, res, mollify_radius)
    ub = (ua if field_b is field_a or np.array_equal(field_b.values, field_a.values)
          else _mollify(field_b.values, box, res, mollify_radius))
    A11, A22, A12 = _hessian_fields(ua, h1, h2)
    if ub is ua:
        B11, B22, B12 = A11, A22, A12
    else:
        B11, B22, B12 = _hessian_fields(ub, h1, h2)
    M = 0.5 * (A11 * B22 + B11 * A22 - A12 * np.conj(B12) - B12 * np.conj(A12))
    raw = (8.0 / math.pi ** 2) * M.real * (h1 ** 2) * (h2 ** 2)
    # drop the shell whose stencil sees padded (edge-replicated) data
    shells = []
    for h in (h1, h1, h2, h2):
        shells.append(int(math.ceil(2.0 * mollify_radius / (2.0 * h))) + 1)
    valid = np.zeros(raw.shape, dtype=bool)
    valid[tuple(slice(s, -s) for s in shells)] = True
    raw = np.where(valid, raw, 0.0)
    clamped = np.maximum(raw, 0.0)
    clamp_total = float(np.sum(clamped - raw))
    absolute = float(np.sum(clamped)) + clamp_total
    # Roundoff moves a Hessian entry of u by up to about 16 eps max|u| / h^2,
    # and M is bilinear in the entries of A and B; a clamped mass below the
    # mass that this can move over the valid cells is roundoff, as in a
    # pluriharmonic or rank-one field, and shows no loss of plurisubharmonicity
    err_a, err_b = (16.0 * np.finfo(float).eps * float(np.max(np.abs(u))) / min(h1, h2) ** 2
                    for u in (ua, ub))
    size_a, size_b = (max(float(np.max(np.abs(e))) for e in entries)
                      for entries in ((A11, A22, A12), (B11, B22, B12)))
    roundoff = ((8.0 / math.pi ** 2) * (h1 * h2) ** 2 * int(np.sum(valid))
                * (size_a * err_b + size_b * err_a + err_a * err_b))
    if clamp_total > max(CLAMP_WARN_SHARE * absolute, roundoff):
        warnings.warn(f"clamped mass {clamp_total:.3g} is {clamp_total / absolute:.1%} "
                      f"of the absolute mass {absolute:.3g}", NotPlurisubharmonic)
    return MeasureField(box=box, resolution=res, cell_mass=clamped,
                        raw_mass=raw, clamp_total=clamp_total,
                        meta={"op": "wedge_pair", "mollify_radius": mollify_radius,
                              "boundary_shell": shells,
                              "a": dict(field_a.meta), "b": dict(field_b.meta)})


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

def _cell_center_coords(box, resolution):
    flats = []
    for x, y in box.axes(resolution):
        flats.extend([x, y])
    return flats


def radial_masses(measure, center, radii):
    """mu(ball(center, r_k)) by cell summation; cells cut by the sphere
    contribute their subsampled covered fraction."""
    box, res = measure.box, measure.resolution
    hs = []
    for w, h in zip(box.cell_widths(res), box.cell_heights(res)):
        hs.extend([w, h])
    hs = np.array(hs)
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing")
    hmax = float(np.max(hs))
    if radii[-1] < 3.0 * hmax:
        raise ResolutionExceeded(
            f"r_min = {radii[-1]:.3g} below 3 cell widths ({3 * hmax:.3g})")
    ctr = np.atleast_1d(np.asarray(center, dtype=complex))
    cvec = []
    for v in ctr:
        cvec.extend([v.real, v.imag])
    cvec = np.array(cvec)
    flats = _cell_center_coords(box, res)
    mesh = np.meshgrid(*flats, indexing="ij")
    dist2 = np.zeros(mesh[0].shape)
    for k, g in enumerate(mesh):
        dist2 += (g - cvec[k]) ** 2
    dist = np.sqrt(dist2)
    half_diag = 0.5 * float(np.linalg.norm(hs))
    subsample = 8 if box.m == 1 else 4
    offs = [(np.arange(subsample) + 0.5) / subsample - 0.5 for _ in hs]
    off_mesh = np.meshgrid(*offs, indexing="ij")
    masses = np.empty(len(radii))
    mass_flat = measure.cell_mass.ravel()
    dist_flat = dist.ravel()
    for i, r in enumerate(radii):
        inner = dist_flat <= r - half_diag
        band = (~inner) & (dist_flat < r + half_diag)
        total = float(np.sum(mass_flat[inner]))
        idx = np.nonzero(band)[0]
        if idx.size:
            centers = np.stack([g.ravel()[idx] for g in mesh], axis=-1)
            off_flat = np.stack([om.ravel() for om in off_mesh], axis=0)
            sub2 = np.zeros((idx.size, off_flat.shape[1]))
            for k in range(len(hs)):
                sub2 += (centers[:, k: k + 1] + off_flat[k][None, :] * hs[k]
                         - cvec[k]) ** 2
            frac = np.mean(sub2 <= r * r, axis=1)
            total += float(np.sum(mass_flat[idx] * frac))
        masses[i] = total
    return RadialMassProfile(center=tuple(ctr), radii=radii, masses=masses)


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


def mass_scaling(measure, center, m_plus, q, d, eps=0.25):
    """Regression slope of log mu(ball(center, eps/m_n^+)) against n,
    compared with the -q log d scaling law.

    ``m_plus``: log m_n^+ values for n = 1, 2, ...; ``measure`` may also
    be a callable r -> mass (synthetic laws).  ``eps`` must be positive
    and finite.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"mass scaling eps must be positive and finite, got {eps}")
    radii = eps * np.exp(-np.asarray(m_plus, dtype=float))
    if callable(measure):
        usable = len(radii)
        masses = np.array([float(measure(r)) for r in radii])
    else:
        h = max(measure.box.cell_widths(measure.resolution)
                + measure.box.cell_heights(measure.resolution))
        usable = int(np.sum(radii >= 3.0 * h))
        if usable < 3:
            raise ResolutionExceeded(
                f"only {usable} usable scales at this resolution")
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
    SWEEP_STEPS steps measure the distance to every row."""
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
    for i in live:
        dx, dy = s[pos[i]] - s, t[pos[i]] - t
        d = np.sqrt(dx * dx + dy * dy)
        d[pos[i]] = np.inf
        best[i] = d.min()
    return best


def box_dimension(points, scales):
    """Box-counting slope of log N(eps) against log(1/eps) for a planar
    point cloud."""
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) < MIN_CLOUD_POINTS:
        raise ValueError(f"need >= {MIN_CLOUD_POINTS} points, got {len(pts)}")
    scales = np.asarray(sorted(set(float(s) for s in scales), reverse=True))
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
