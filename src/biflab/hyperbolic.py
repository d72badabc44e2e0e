"""Holomorphic-motion continuation of repelling orbits, inverse branches
with contraction certificates, multiplier distortion, chain linearization
around repelling orbits, Cantor hyperbolic sets and bi-Hoelder exponents.

Continuation follows straight parameter segments with adaptive step
halving; each accepted step Newton-corrects the tail cycle and recovers
the earlier orbit points through local inverse branches, so the conjugacy
residual is at Newton tolerance by construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    BranchAmbiguity,
    ChainDivergence,
    CoverageError,
    LostHyperbolicity,
    NoConvergence,
    OverlapError,
    StepFloorReached,
)
from .families import multiplier, newton, orbit as forward_orbit

STEP_FLOOR = 1e-12
# continuation needs per-step |f'| >= 1 + REPEL_MARGIN (half that on the path)
REPEL_MARGIN = 0.05
N_FIT = 10
LIN_RESIDUAL_TOL = 1e-8
RHO_HALVINGS = 20


@dataclass
class OrbitTrack:
    base_param: np.ndarray
    path: list
    base_points: np.ndarray
    moved_points: np.ndarray
    multiplier_log_base: tuple
    multiplier_log_moved: tuple


@dataclass(frozen=True)
class InverseBranchSpec:
    eta: float
    K: float
    B: float


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
    period: int
    eta: float
    specs: list
    depth: int
    words: np.ndarray     # shape (n_points, depth), symbols index generators
    cloud: np.ndarray
    K_cloud: float


# ----------------------------------------------------------------------
# continuation

def _correct_orbit(family, lam, pts, period):
    """One corrector pass: continue the tail cycle, then walk backwards
    through inverse branches.  Returns (new_points, worst_newton_iters)."""
    n = len(pts) - 1
    z_tail, it_tail = newton(family, lam, pts[n], period, maxiter=12)
    if z_tail is None:
        return None, it_tail
    worst = it_tail
    new = np.array(pts, dtype=complex)
    new[n] = z_tail
    # propagate the tail cycle point backwards
    for k in range(n - 1, -1, -1):
        zk, it = newton(family, lam, pts[k], target=new[k + 1], maxiter=12)
        if zk is None:
            return None, it
        worst = max(worst, it)
        new[k] = zk
    return new, worst


def continue_orbit(family, lam0, lam1, base_points, period=1, steps=8):
    """Predictor-corrector continuation of a repelling orbit whose tail
    point lies on a cycle of the given period.

    Step size halves whenever Newton needs more than 5 iterations; fails
    (StepFloorReached) rather than jumping branches.
    """
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=complex))
    lam1 = np.atleast_1d(np.asarray(lam1, dtype=complex))
    pts = np.asarray(base_points, dtype=complex)
    dz0 = np.abs(np.asarray(family.deriv(lam0, pts[:-1]), dtype=complex)) \
        if len(pts) > 1 else np.abs(np.atleast_1d(family.deriv(lam0, pts[0])))
    if np.any(dz0 < 1.0 + REPEL_MARGIN):
        raise LostHyperbolicity(
            f"base orbit not uniformly repelling: min |f'| = {float(np.min(dz0)):.6g}")
    mlog0 = multiplier(family, lam0, pts[:-1] if len(pts) > 1 else pts[:1])
    if np.array_equal(lam0, lam1):
        return OrbitTrack(lam0, [lam0, lam1], pts, pts.copy(), mlog0, mlog0)
    t, dt = 0.0, 1.0 / steps
    cur = pts.copy()
    path = [lam0.copy()]
    while t < 1.0:
        t_next = min(1.0, t + dt)
        lam = lam0 + (lam1 - lam0) * t_next
        trial, worst = _correct_orbit(family, lam, cur, period)
        ok = trial is not None and worst <= 5
        if ok:
            dzp = np.abs(np.asarray(family.deriv(lam, trial[:-1] if len(trial) > 1 else trial[:1]), dtype=complex))
            if np.any(dzp < 1.0 + REPEL_MARGIN / 2):
                raise LostHyperbolicity(
                    f"per-step |f'| dropped to {float(np.min(dzp)):.6g} at t={t_next:.4g}")
            cur, t = trial, t_next
            path.append(lam.copy())
        else:
            dt /= 2.0
            if dt < STEP_FLOOR:
                raise StepFloorReached("continuation step fell below 1e-12")
    mlog1 = multiplier(family, lam1, cur[:-1] if len(cur) > 1 else cur[:1])
    return OrbitTrack(lam0, path, pts, cur, mlog0, mlog1)


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


def inverse_branch(family, lam, anchor, w):
    """Preimage of w near the anchor, plus its (eta, K, B) certificate.

    The branch is certified on the target disk |w - f(anchor)| < eta with
    two-sided contraction constants 1/B <= |branch'| <= 1/K.
    """
    r, K, B = branch_radius(family, lam, anchor)
    eta = K * r
    fa = complex(family.eval(lam, anchor))
    if abs(w - fa) >= eta:
        raise ValueError(f"target {w} outside the certified disk of radius {eta:.6g}")
    z, _ = newton(family, lam, anchor, target=complex(w), maxiter=40)
    if z is None:
        raise NoConvergence("inverse-branch Newton did not converge")
    if abs(z - anchor) > eta / K:
        raise BranchAmbiguity(
            f"Newton result {z} farther than eta/K = {eta / K:.6g} from the anchor")
    return z, InverseBranchSpec(eta=eta, K=K, B=B)


# ----------------------------------------------------------------------
# multiplier distortion

def distortion_profile(family, lam0, lam, w0, n_max):
    """Multiplier ratios (f_lam^n)'(h(w0)) / (f_lam0^n)'(w0), n = 1..n_max."""
    base = forward_orbit(family, lam0, w0, n_max)
    if base.escaped or len(base) < n_max + 1:
        raise LostHyperbolicity("base orbit escaped; cannot form the ratio")
    track = continue_orbit(family, lam0, lam, base.points)
    dz0 = np.asarray(family.deriv(lam0, base.points[:-1]), dtype=complex)
    dz1 = np.asarray(family.deriv(np.atleast_1d(np.asarray(lam, dtype=complex)),
                                  track.moved_points[:-1]), dtype=complex)
    dlog = np.cumsum(np.log(np.abs(dz1)) - np.log(np.abs(dz0)))
    darg = np.cumsum(np.angle(dz1) - np.angle(dz0))
    return np.exp(dlog + 1j * darg)


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


def distortion_ratio(family, lam0, lam, w0, n, C=None):
    """Multiplier ratio along base and moved orbits and the exponential
    distortion bound check.  When C is None it is fitted on n <= N_FIT
    at this parameter."""
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=complex))
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    norm = float(np.linalg.norm(lam - lam0))
    if norm == 0.0:
        return 1.0 + 0j, True, 0.0 if C is None else C
    ratios = distortion_profile(family, lam0, lam, w0, max(n, N_FIT) if C is None else n)
    if C is None:
        C = max(math.log1p(abs(ratios[k] - 1.0)) / ((k + 1) * norm)
                for k in range(min(N_FIT, len(ratios))))
    ratio = complex(ratios[n - 1])
    bound_ok = abs(ratio - 1.0) <= math.expm1(n * C * norm) + 1e-12
    return ratio, bound_ok, C


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
    """Uniformly repelling backward orbit from ``start``: each step picks
    the preimage nearest to the current point, skipping non-repelling
    candidates.  Works for any kind (Newton fallback for rational)."""
    out = np.empty(tail, dtype=complex)
    z = complex(start)
    for t in range(tail):
        if family.kind != "rational":
            pre = np.asarray(family.preimages(lam, z), dtype=complex)
            order = np.argsort(np.abs(pre - z))
            nxt = None
            for k in order:
                if abs(complex(family.deriv(lam, pre[k]))) > 1.0:
                    nxt = complex(pre[k])
                    break
            if nxt is None:
                raise LostHyperbolicity("no repelling preimage on the backward extension")
        else:
            nxt, _ = newton(family, lam, z, target=z, maxiter=60)
            if nxt is None or abs(complex(family.deriv(lam, nxt))) <= 1.0:
                raise LostHyperbolicity("backward extension lost expansion")
        out[t] = nxt
        z = nxt
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
    order = family.degree if family.kind != "rational" else N_trunc + 4
    order = max(order, 2)
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
    psi0_raw = phi.copy() if n == len(locs) else None
    for i in range(len(locs) - 1, -1, -1):
        s = locs[i][: N_trunc + 1].copy()
        s[0] = 0.0
        c1 = s[1]
        ginv = _series_invert(s / c1, N_trunc)
        g = ginv * c1 ** -np.arange(N_trunc + 1, dtype=float)
        phi = c1 * _series_compose(phi, g, N_trunc)
        if i == n:
            psi0_raw = phi.copy()
    if psi0_raw is None:
        psi0_raw = np.zeros(N_trunc + 1, dtype=complex)
        psi0_raw[1] = 1.0
    psi1_raw = _series_invert(phi, N_trunc)

    rho = float(0.25 * scale if math.isfinite(scale) else 1.0)
    last_err = None
    for _ in range(RHO_HALVINGS + 1):
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
            # functional-equation residual on |z| = rho_n/2 (32 samples)
            rn = (rho / 2.0) * math.exp(-m_logmod)
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

def _branch_apply(family, lam, anchor, w, period, guard=None):
    """Inverse branch of f^period at the anchor applied to every point of
    the 1-d array w, seeded at ``guard`` (defaults to the anchor).

    For period 1 on a polynomial kind each point takes its preimage
    nearest the seed, from one batched ``preimages`` call; the call raises
    CoverageError when, for any point, the second-nearest preimage is
    within twice the nearest distance.  Otherwise each point runs its own
    Newton solve of f^period(z) = w from the seed."""
    seed = anchor if guard is None else guard
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if period == 1 and family.kind != "rational":
        pre = np.asarray(family.preimages(lam, w), dtype=complex)
        dist = np.abs(pre - seed)
        order = np.argsort(dist, axis=0)
        cols = np.arange(w.size)
        d0 = dist[order[0], cols]
        if len(order) > 1 and np.any((dist[order[1], cols] < 2.0 * d0) & (d0 > 1e-12)):
            raise CoverageError(f"ambiguous branch selection near {seed}")
        return pre[order[0], cols]
    out = np.empty(w.size, dtype=complex)
    for i, x in enumerate(w.tolist()):
        z, _ = newton(family, lam, seed, period, target=x, maxiter=60)
        if z is None:
            raise NoConvergence("branch Newton did not converge")
        out[i] = z
    return out


def _build_cloud(family, lam, anchors, depth, period):
    """Depth-``depth`` word cloud: point(w_1..w_k) applies the generators
    g_{w_1} o ... o g_{w_{k-1}} to the anchor of the last symbol.

    Each level applies every generator to all points of the level below,
    one ``_branch_apply`` call per generator: new point i*g + j is
    generator j applied to point i, and its word is j followed by the
    word of point i."""
    g = len(anchors)
    pts = np.array(anchors, dtype=complex)
    if depth == 0:
        return pts, np.zeros((g, 0), dtype=np.int64)
    words = np.arange(g, dtype=np.int64)[:, None]
    for _ in range(depth - 1):
        new = np.empty((len(pts), g), dtype=complex)
        for j in range(g):
            new[:, j] = _branch_apply(family, lam, anchors[j], pts, period)
        pts = new.ravel()
        words = np.column_stack([np.tile(np.arange(g, dtype=np.int64), len(words)),
                                 np.repeat(words, g, axis=0)])
    return pts, words


def build_cantor(family, lam, anchors, depth, period=1, eta=None):
    """IFS-style hyperbolic Cantor cloud generated by the inverse branches
    of f^period anchored at two repelling periodic points."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    anchors = [complex(a) for a in anchors]
    if len(anchors) < 2:
        raise ValueError(f"a Cantor cloud needs at least two anchors, got {len(anchors)}")
    specs = []
    for a in anchors:
        r, K, B = branch_radius(family, lam, a)
        specs.append(InverseBranchSpec(eta=K * r, K=K, B=B))
    sep = min(abs(anchors[i] - anchors[j])
              for i in range(len(anchors)) for j in range(i + 1, len(anchors)))
    # coverage: every boundary point of every disk pulls back into each disk
    ring = np.exp(2j * np.pi * np.arange(16) / 16)

    def _check_coverage(radius):
        targets = np.concatenate([ak + radius * ring for ak in anchors])
        for j, aj in enumerate(anchors):
            leaves = np.abs(_branch_apply(family, lam, aj, targets, period) - aj) > radius
            if np.any(leaves):
                ak = anchors[int(np.argmax(leaves)) // len(ring)]
                raise CoverageError(
                    f"branch {j} image of the disk at {ak} leaves its own disk")

    if eta is None:
        # the feasible radius window is bounded above by disk overlap and
        # below by the diameter of the coded set around each anchor
        last = None
        for frac in (0.49, 0.45, 0.35, 0.25, 0.15):
            try:
                _check_coverage(frac * sep)
                eta = frac * sep
                break
            except (CoverageError, BranchAmbiguity, NoConvergence) as err:
                last = err
        if eta is None:
            raise CoverageError(f"no admissible disk radius found: {last}")
    else:
        if 2.0 * eta >= sep:
            raise OverlapError(
                f"generator disks of radius {eta:.4g} overlap (separation {sep:.4g})")
        _check_coverage(eta)
    cloud, words = _build_cloud(family, lam, anchors, depth, period)
    mags = np.abs(np.asarray(family.deriv(lam, cloud), dtype=complex))
    K_cloud = float(np.min(mags))
    if K_cloud <= 1.0:
        raise LostHyperbolicity(f"cloud expansion min |f'| = {K_cloud:.6g} <= 1")
    return CantorSystem(family=family, lam=lam, anchors=anchors, period=period,
                        eta=eta, specs=specs, depth=depth, words=words,
                        cloud=cloud, K_cloud=K_cloud)


def coded_orbit(cantor, index, length):
    """Forward orbit of cloud point ``index`` of the given length + 1,
    rebuilt from its symbolic word at each step.

    Naive forward iteration loses shadowing accuracy (errors grow by the
    expansion factor per step); point k is instead the point of the word
    stripped of its first k symbols (at least one symbol is kept), so
    every point is at Newton tolerance.  All those suffixes start at the
    anchor of the last symbol and apply the same generators from the
    back, so one pass over the word, one branch call per symbol, gives
    every suffix's point.
    """
    family, lam = cantor.family, cantor.lam
    anchors, period = cantor.anchors, cantor.period
    if period != 1:
        raise NotImplementedError("coded_orbit supports period-1 anchors")
    if cantor.depth < 1:
        raise ValueError(f"coded_orbit needs a cloud of depth >= 1, got depth {cantor.depth}")
    word = cantor.words[index]
    suffix_pts = np.empty(len(word), dtype=complex)
    suffix_pts[-1] = anchors[word[-1]]
    for t in range(len(word) - 2, -1, -1):
        suffix_pts[t] = _branch_apply(family, lam, anchors[word[t]],
                                      suffix_pts[t + 1:t + 2], period)[0]
    return suffix_pts[np.minimum(np.arange(length + 1), len(word) - 1)]


def continue_cantor(cantor, lam1, steps=8):
    """Move a Cantor cloud to a nearby parameter: the anchors are tracked
    by Newton continuation along the segment, then the word cloud is
    rebuilt at the target parameter (the holomorphic motion restricted to
    the cloud, by uniqueness of coded points)."""
    family = cantor.family
    lam0 = cantor.lam
    lam1 = np.atleast_1d(np.asarray(lam1, dtype=complex))
    if np.array_equal(lam0, lam1):
        return cantor.cloud.copy(), list(cantor.anchors)
    anchors = list(cantor.anchors)
    for s in range(1, steps + 1):
        lam = lam0 + (lam1 - lam0) * (s / steps)
        new_anchors = []
        for a in anchors:
            z, _ = newton(family, lam, a, cantor.period, maxiter=12)
            if z is None:
                raise NoConvergence("anchor continuation failed")
            new_anchors.append(z)
        anchors = new_anchors
    cloud, _ = _build_cloud(family, lam1, anchors, cantor.depth, cantor.period)
    return cloud, anchors


@dataclass(frozen=True)
class HolderBand:
    alpha_low: float
    alpha_high: float
    slope: float
    n_pairs: int


def holder_exponents(cantor, lam1):
    """Bi-Hoelder exponent band of the motion from the cloud's parameter
    to lam1, measured on cloud pairs.

    Per-pair exponents log(moved distance)/log(base distance) over all
    pairs closer than ``min(cantor.eta, 0.99)`` (the generator disk
    radius, kept below 1 so that every log distance is negative), plus
    the least-squares slope of log-moved vs log-base distances.
    """
    moved, _ = continue_cantor(cantor, lam1)
    base = cantor.cloud
    n = len(base)
    iu = np.triu_indices(n, k=1)
    db = np.abs(base[iu[0]] - base[iu[1]])
    dm = np.abs(moved[iu[0]] - moved[iu[1]])
    mask = (db < min(cantor.eta, 0.99)) & (db > 0)
    db, dm = db[mask], dm[mask]
    if len(db) == 0:
        raise ValueError("no cloud pairs below the separation cut")
    alphas = np.log(dm) / np.log(db)
    x, y = np.log(db), np.log(dm)
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)) \
        if len(x) > 1 and np.ptp(x) > 0 else 1.0
    return HolderBand(alpha_low=float(np.min(alphas)),
                      alpha_high=float(np.max(alphas)),
                      slope=slope, n_pairs=int(len(db)))
