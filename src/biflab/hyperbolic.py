"""Holomorphic-motion continuation of repelling fixed points, multiplier
distortion, chain linearization around repelling orbits and Cantor
hyperbolic sets.

Continuation moves one repelling fixed point along a straight parameter
segment with adaptive step halving; each accepted step is one Newton
solve of f(z) = z from the point of the step before.  A Cantor cloud
sizes its own generator disks; its anchors are repelling fixed points,
so ``continue_orbit`` moves each of them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    ChainDivergence,
    CoverageError,
    LostHyperbolicity,
    StepFloorReached,
)
from .families import newton, orbit as forward_orbit

STEP_FLOOR = 1e-12
# continuation starts with 1/CONTINUATION_STEPS of the parameter segment
CONTINUATION_STEPS = 8
# continuation needs per-step |f'| >= 1 + REPEL_MARGIN (half that on the path)
REPEL_MARGIN = 0.05
N_FIT = 10
LIN_RESIDUAL_TOL = 1e-8
RHO_HALVINGS = 20
# largest Cantor cloud: g^depth points; building 2^20 points (depth 20)
# peaks at 104 MB RSS on a 2-core Xeon
MAX_CLOUD_POINTS = 2 ** 20


@dataclass
class ChainLinearization:
    """Truncated conjugacy pair for f^n near a repelling orbit point w:
    f^n(z + w) - f^n(w) = psi1(m_n * psi0(z)) on |z| <= rho_n.

    Coefficients are stored in the scaled variable zeta = z / rho;
    use psi0_eval / psi1_eval for stable evaluation.
    """
    psi0_scaled: np.ndarray
    psi1_scaled: np.ndarray
    rho: float
    rho_n: np.ndarray
    C: float
    m_log: tuple          # (log-modulus, argument) of (f^n)'(w)
    residual: float
    n: int

    @property
    def psi0(self):
        k = np.arange(len(self.psi0_scaled), dtype=float)
        return self.psi0_scaled * self.rho ** (1.0 - k)

    @property
    def psi1(self):
        k = np.arange(len(self.psi1_scaled), dtype=float)
        return self.psi1_scaled * self.rho ** (1.0 - k)

    def psi0_eval(self, z):
        return self.rho * npoly.polyval(np.asarray(z, dtype=complex) / self.rho,
                                        self.psi0_scaled)

    def psi1_eval(self, z):
        return self.rho * npoly.polyval(np.asarray(z, dtype=complex) / self.rho,
                                        self.psi1_scaled)


@dataclass
class CantorSystem:
    family: object
    lam: np.ndarray
    anchors: list
    eta: float
    specs: list           # per anchor, its branch disk {"eta", "K", "B"}
    depth: int
    cloud: np.ndarray     # point p has the word of its base-g digits (coded_orbit)
    K_cloud: float


# ----------------------------------------------------------------------
# continuation

def continue_orbit(family, lam0, lam1, z0):
    """Predictor-corrector continuation of the repelling fixed point z0 of
    f_lam0 along the segment to lam1: the moved point, a complex number.

    Each step is one ``newton`` solve of f(z) = z from the point of the
    step before.  The step size halves whenever Newton needs more than 5
    iterations; fails (StepFloorReached) rather than jumping branches.
    """
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=complex))
    lam1 = np.atleast_1d(np.asarray(lam1, dtype=complex))
    z = complex(z0)
    dz0 = abs(complex(family.deriv(lam0, z)))
    # also refuses a non-finite point, whose |f'| compares false
    if not dz0 >= 1.0 + REPEL_MARGIN:
        raise LostHyperbolicity(f"base orbit not uniformly repelling: min |f'| = {dz0:.6g}")
    if np.array_equal(lam0, lam1):
        return z
    t, dt = 0.0, 1.0 / CONTINUATION_STEPS
    while t < 1.0:
        t_next = min(1.0, t + dt)
        lam = lam0 + (lam1 - lam0) * t_next
        trial, iters = newton(family, lam, z, maxiter=12)
        if trial is not None and iters <= 5:
            dzp = abs(complex(family.deriv(lam, trial)))
            if dzp < 1.0 + REPEL_MARGIN / 2:
                raise LostHyperbolicity(f"per-step |f'| dropped to {dzp:.6g} at t={t_next:.4g}")
            z, t = trial, t_next
        else:
            dt /= 2.0
            if dt < STEP_FLOOR:
                raise StepFloorReached("continuation step fell below 1e-12")
    return z


# ----------------------------------------------------------------------
# inverse branches

def branch_radius(family, lam, anchor):
    """Certified disk data (r, K, B): |f'| in [K, B] on the doubled disk
    |z - anchor| <= 2r, measured by boundary sampling, with K > 1."""
    fp = complex(family.deriv(lam, anchor))
    series = family.local_series(lam, anchor, 2)
    fpp = 2.0 * series[2]
    r = 0.1 * abs(fp) ** 2 / max(abs(fpp), 1e-12)
    r = min(r, 1e3)
    theta = np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(60):
        ring = anchor + 2.0 * r * theta
        mags = np.abs(np.asarray(family.deriv(lam, ring), dtype=complex))
        K, B = float(np.min(mags)), float(np.max(mags))
        if K >= max(1.0 + 1e-6, 0.5 * abs(fp)):
            return r, K, B
        r /= 2.0
    raise LostHyperbolicity(f"no expanding disk found at anchor {anchor}")


# ----------------------------------------------------------------------
# multiplier distortion

def distortion_profile(family, lam0, lam, w0, n_max):
    """Multiplier ratios (f_lam^n)'(w) / (f_lam0^n)'(w0) = q^n, n = 1..n_max,
    of the repelling fixed point w0 of f_lam0 and its continuation w to
    lam, where q = f_lam'(w) / f_lam0'(w0)."""
    w = continue_orbit(family, lam0, lam, w0)
    q = complex(family.deriv(lam, w)) / complex(family.deriv(lam0, w0))
    return q ** np.arange(1, n_max + 1)


def fit_distortion_constant(family, lam0, lams, w0):
    """Largest C needed so that |ratio - 1| <= e^{n C ||lam||} - 1 over
    the fitting set n <= N_FIT and the given parameter list."""
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=complex))
    C = 0.0
    for lam in lams:
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        norm = float(np.linalg.norm(lam - lam0))
        if norm == 0.0:
            continue
        ratios = distortion_profile(family, lam0, lam, w0, N_FIT)
        for n, r in enumerate(ratios, start=1):
            C = max(C, math.log1p(abs(r - 1.0)) / (n * norm))
    return C


def distortion_ratio(family, lam0, lam, w0, n, C):
    """(ratio, ok): the multiplier ratio along base and moved orbits, and
    whether it meets the exponential distortion bound for the constant C
    (``fit_distortion_constant``)."""
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=complex))
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    norm = float(np.linalg.norm(lam - lam0))
    if norm == 0.0:
        return 1.0 + 0j, True
    ratio = complex(distortion_profile(family, lam0, lam, w0, n)[n - 1])
    return ratio, abs(ratio - 1.0) <= math.expm1(n * C * norm) + 1e-12


# ----------------------------------------------------------------------
# chain linearization

def _series_compose(a, b, N):
    """a(b(zeta)) truncated at degree N; requires b[0] = 0."""
    out = np.zeros(N + 1, dtype=complex)
    bp = np.array([1.0 + 0j])
    out[0] = a[0]
    for k in range(1, len(a)):
        bp = npoly.polymul(bp, b)[: N + 1]
        m = len(bp)
        out[:m] += a[k] * bp
        if np.max(np.abs(out)) > 1e80:
            raise ChainDivergence("series coefficients beyond overflow guard")
    return out


def _series_invert(a, N):
    """Compositional inverse of a (a[0] = 0, a[1] = 1) up to degree N."""
    g = np.zeros(N + 1, dtype=complex)
    g[1] = 1.0
    for m in range(2, N + 1):
        comp = _series_compose(a[: m + 1], g[: m + 1], m)
        g[m] = -comp[m]
    return g


def _backward_extend(family, lam, start, tail):
    """Uniformly repelling backward orbit from ``start``: each step takes
    the repelling preimage nearest to the current point."""
    out = np.empty(tail, dtype=complex)
    z = complex(start)
    for t in range(tail):
        pre = np.asarray(family.preimages(lam, z), dtype=complex)
        pre = pre[np.argsort(np.abs(pre - z))]
        repel = np.abs(np.asarray(family.deriv(lam, pre), dtype=complex)) > 1.0
        if not np.any(repel):
            raise LostHyperbolicity("no repelling preimage on the backward extension")
        z = out[t] = complex(pre[np.argmax(repel)])
    return out


def linearize_orbit(family, lam, w, n, N_trunc=12, tail=30, forward_points=None):
    """Truncated conjugacy pair (psi0, psi1) for f^n along the repelling
    orbit of w, with domain radius rho, per-depth radii rho_n and
    quadratic-error constant C.

    The pair comes from the Koenigs chain of the inverse-branch
    contractions along the orbit, continued ``tail`` extra steps backward
    past w; the recursion phi_j = l_j^{-1} (phi_{j+1} o g_j) damps
    coefficient errors by |l_j|^{k-1} per step, so it is run backward
    from the identity at the far end of the chain.

    ``forward_points``: optional precomputed forward orbit of w (length
    >= n + 1), e.g. when the orbit is Cantor-coded.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if n < 1:
        raise ValueError("n must be >= 1")
    if N_trunc < 1:
        raise ValueError(f"N_trunc must be >= 1, got {N_trunc}")
    if tail < 0:
        raise ValueError(f"tail must be >= 0, got {tail}")
    if forward_points is None:
        ob = forward_orbit(family, lam, w, n)
        if ob.escaped or len(ob) < n + 1:
            raise LostHyperbolicity("orbit escaped before the requested depth")
        pts = ob.points
    else:
        pts = np.asarray(forward_points, dtype=complex)
        if len(pts) < n + 1:
            raise ValueError("forward_points shorter than n + 1")
        pts = pts[: n + 1]
    # chain[i]: i-th backward point, chain[0] = f^n(w), chain[n] = w,
    # then ``tail`` extra preimages past w
    chain = np.empty(n + tail + 1, dtype=complex)
    chain[: n + 1] = pts[::-1]
    chain[n + 1:] = _backward_extend(family, lam, pts[0], tail)
    order = family.series_order(N_trunc)
    # local series of f at chain[i], i >= 1 (maps toward chain[i-1])
    locs = [family.local_series(lam, chain[i], order) for i in range(1, n + tail + 1)]
    lin = np.array([loc[1] for loc in locs])
    mags = np.abs(lin)
    if np.any(mags <= 1.0):
        raise LostHyperbolicity(f"per-step |f'| = {float(np.min(mags)):.6g} <= 1 on the chain")
    # local scale where nonlinear terms stay below the linear one
    scale = math.inf
    for loc in locs:
        for k in range(2, len(loc)):
            if abs(loc[k]) > 1e-300:
                scale = min(scale, (abs(loc[1]) / abs(loc[k])) ** (1.0 / (k - 1)))
    m_logmod = float(np.sum(np.log(mags[:n])))
    m_arg = float(np.sum(np.angle(lin[:n])))
    theta32 = np.exp(2j * np.pi * np.arange(32) / 32)

    # inverse-branch contraction series g_i(t) = f^{-1}(t + chain[i-1]) - chain[i]
    # and the Koenigs chain phi_i, run from the identity at the far end
    phi = np.zeros(N_trunc + 1, dtype=complex)
    phi[1] = 1.0
    psi0_raw = phi.copy()
    for i in range(len(locs) - 1, -1, -1):
        s = locs[i][: N_trunc + 1].copy()
        s[0] = 0.0
        c1 = s[1]
        ginv = _series_invert(s / c1, N_trunc)
        g = ginv * c1 ** -np.arange(N_trunc + 1, dtype=float)
        phi = c1 * _series_compose(phi, g, N_trunc)
        if i == n:
            psi0_raw = phi.copy()
    psi1_raw = _series_invert(phi, N_trunc)

    rho = float(0.25 * scale if math.isfinite(scale) else 1.0)
    last_err = None
    for _ in range(RHO_HALVINGS + 1):
        # functional-equation residual on |z| = rho_n/2 (32 samples); on a
        # circle below the normal floats the samples lose their bits and the
        # residual reads 0, and a smaller rho only shrinks it
        rn = (rho / 2.0) * math.exp(-m_logmod)
        if not rn / 2.0 >= np.finfo(float).tiny:
            raise ChainDivergence(f"residual circle radius {rn / 2.0:.3g} at depth n = {n} "
                                  f"is below the normal floats")
        try:
            pows = rho ** (np.arange(N_trunc + 1, dtype=float) - 1.0)
            psi0 = psi0_raw * pows
            psi1 = psi1_raw * pows
            # quadratic-error constant on |z| = rho/2, rho/4, rho/8
            C = 0.0
            for frac in (0.5, 0.25, 0.125):
                zeta = frac * theta32
                for ser in (psi0, psi1):
                    dev = np.abs(npoly.polyval(zeta, ser) - zeta)
                    C = max(C, float(np.max(dev / (rho * frac ** 2))))
            if C * rho >= 1.0:
                raise ChainDivergence(f"C*rho = {C * rho:.3g} >= 1")
            zs = (rn / 2.0) * theta32
            D = zs.astype(complex)
            for i in range(n, 0, -1):
                fj = locs[i - 1].copy()
                fj[0] = 0.0
                D = npoly.polyval(D, fj)
            p0 = npoly.polyval(zs / rho, psi0)   # psi0(z)/rho
            svals = np.array([cmath.exp(m_logmod + 1j * m_arg + cmath.log(complex(p)))
                              if p != 0 else 0j for p in p0])
            pred = rho * npoly.polyval(svals, psi1)
            residual = float(np.max(np.abs(D - pred)))
            if residual > LIN_RESIDUAL_TOL * rho:
                raise ChainDivergence(f"residual {residual:.3g} > {LIN_RESIDUAL_TOL * rho:.3g}")
            rho_seq = (rho / 2.0) * np.exp(-np.cumsum(
                np.concatenate([[0.0], np.log(mags[:n][::-1])])))
            return ChainLinearization(
                psi0_scaled=psi0, psi1_scaled=psi1, rho=rho, rho_n=rho_seq,
                C=C, m_log=(m_logmod, m_arg), residual=residual, n=n)
        except ChainDivergence as err:
            last_err = err
            rho /= 2.0
    raise ChainDivergence(f"no admissible rho after {RHO_HALVINGS} halvings: {last_err}")


# ----------------------------------------------------------------------
# Cantor hyperbolic sets

def _branch_apply(family, lam, anchor, w):
    """Inverse branch of f at the fixed point ``anchor`` applied to every
    point of the 1-d array w: each point takes its preimage nearest the
    anchor, from one batched ``preimages`` call.  Raises CoverageError
    when, for any point, the second-nearest preimage is within twice the
    nearest distance."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    pre = np.asarray(family.preimages(lam, w), dtype=complex)
    dist = np.abs(pre - anchor)
    order = np.argsort(dist, axis=0)
    cols = np.arange(w.size)
    d0 = dist[order[0], cols]
    if len(order) > 1 and np.any((dist[order[1], cols] < 2.0 * d0) & (d0 > 1e-12)):
        raise CoverageError(f"ambiguous branch selection near {anchor}")
    return pre[order[0], cols]


def _build_cloud(family, lam, anchors, depth):
    """Points of the depth-``depth`` word cloud: the point of the word
    w_1..w_k applies the generators g_{w_1} o ... o g_{w_{k-1}} to the
    anchor of the last symbol.  The word of point p is p in base g, least
    significant digit first, so it is never stored.

    Each level applies every generator to all points of the level below,
    one ``_branch_apply`` call per generator: new point i*g + j is
    generator j applied to point i, so its word is j followed by the word
    of point i.  Depths 0 and 1 both give the anchors."""
    pts = np.array(anchors, dtype=complex)
    for _ in range(depth - 1):
        new = np.empty((len(pts), len(anchors)), dtype=complex)
        for j, a in enumerate(anchors):
            new[:, j] = _branch_apply(family, lam, a, pts)
        pts = new.ravel()
    return pts


def _check_coverage(family, lam, anchors, radius):
    """Raise CoverageError unless every generator branch maps 16 points on
    the boundary of every generator disk of this radius into its own disk."""
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    targets = np.concatenate([ak + radius * ring for ak in anchors])
    for j, aj in enumerate(anchors):
        leaves = np.abs(_branch_apply(family, lam, aj, targets) - aj) > radius
        if np.any(leaves):
            ak = anchors[int(np.argmax(leaves)) // len(ring)]
            raise CoverageError(
                f"branch {j} image of the disk at {ak} leaves its own disk")


def build_cantor(family, lam, anchors, depth):
    """IFS-style hyperbolic Cantor cloud generated by the inverse branches
    of f anchored at two or more repelling fixed points.  The disks
    share the largest radius eta in a list of fractions of the anchor
    separation that passes ``_check_coverage`` (the window is bounded
    above by disk overlap, below by the coded set's diameter)."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    anchors = [complex(a) for a in anchors]
    if len(anchors) < 2:
        raise ValueError(f"a Cantor cloud needs at least two anchors, got {len(anchors)}")
    # equal anchors leave radius 0, where every coverage ring is the anchor
    sep, i, j = min((abs(anchors[i] - anchors[j]), i, j)
                    for i in range(len(anchors)) for j in range(i + 1, len(anchors)))
    if sep == 0.0:
        raise ValueError(f"Cantor anchors {i} and {j} coincide at {anchors[i]}")
    # compared in logs, so a huge depth forms no huge integer
    if depth * math.log2(len(anchors)) > math.log2(MAX_CLOUD_POINTS):
        raise ValueError(f"a Cantor cloud of depth {depth} has {len(anchors)}^{depth} points, "
                         f"more than {MAX_CLOUD_POINTS}")
    specs = []
    for a in anchors:
        r, K, B = branch_radius(family, lam, a)
        specs.append({"eta": K * r, "K": K, "B": B})
    eta = last = None
    for frac in (0.49, 0.45, 0.35, 0.25, 0.15):
        try:
            _check_coverage(family, lam, anchors, frac * sep)
            eta = frac * sep
            break
        except CoverageError as err:
            last = err
    if eta is None:
        raise CoverageError(f"no admissible disk radius found: {last}")
    cloud = _build_cloud(family, lam, anchors, depth)
    mags = np.abs(np.asarray(family.deriv(lam, cloud), dtype=complex))
    K_cloud = float(np.min(mags))
    if K_cloud <= 1.0:
        raise LostHyperbolicity(f"cloud expansion min |f'| = {K_cloud:.6g} <= 1")
    return CantorSystem(family=family, lam=lam, anchors=anchors, eta=eta, specs=specs,
                        depth=depth, cloud=cloud, K_cloud=K_cloud)


def coded_orbit(cantor, index, length):
    """Forward orbit of cloud point ``index`` of the given length + 1,
    rebuilt from its symbolic word at each step.  Symbol t of the word
    (t = 0..depth-1) is digit t of the index in base g, index // g**t % g.

    Naive forward iteration loses shadowing accuracy (errors grow by the
    expansion factor per step); point k is instead the point of the word
    stripped of its first k symbols (at least one symbol is kept), built
    by contracting inverse branches from an anchor, so the rounding
    errors of the branch solves shrink instead of growing.  All those
    suffixes start at the anchor of the last symbol and apply the same
    generators from the back, so one pass over the word, one branch call
    per symbol, gives every suffix's point.
    """
    family, lam, anchors = cantor.family, cantor.lam, cantor.anchors
    if cantor.depth < 1:
        raise ValueError(f"coded_orbit needs a cloud of depth >= 1, got depth {cantor.depth}")
    if not 0 <= index < len(cantor.cloud):
        raise ValueError(f"cloud point index {index} is outside 0..{len(cantor.cloud) - 1}")
    word = [index // len(anchors) ** t % len(anchors) for t in range(cantor.depth)]
    suffix_pts = np.empty(len(word), dtype=complex)
    suffix_pts[-1] = anchors[word[-1]]
    for t in range(len(word) - 2, -1, -1):
        suffix_pts[t] = _branch_apply(family, lam, anchors[word[t]], suffix_pts[t + 1:t + 2])[0]
    return suffix_pts[np.minimum(np.arange(length + 1), len(word) - 1)]

