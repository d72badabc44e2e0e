"""Green functions of homogeneous lifts, max-entropy sampling and
Lyapunov-exponent estimators.

Normalization: for polynomial kinds the lift is F(u,v) = (v^d p(u/v), v^d),
and per-critical-point Green values are taken at the critical *value*
lift F(c_j, 1).  With this choice G_j coincides with the classical
parameter-space Green function (for z^2+c it is the Mandelbrot-set Green
function, growing like log|c|), G_j >= 0 with equality exactly on bounded
critical orbits, and dd^c of the quadratic G_0 carries unit total mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import CriticalOnOrbit, DegenerateLift, PreimageFailure
from .rng import counter_choice

GREEN_MAXITER = 200
PLANE_BIG = 1e12
PLANE_MAXITER = 2048


@dataclass(frozen=True)
class LiftVector:
    """A point of C^2 \\ {0} stored as e^{log_scale} * (u, v) with
    max(|u|, |v|) = 1."""
    u: complex
    v: complex
    log_scale: float = 0.0

    @staticmethod
    def of(u, v, log_scale=0.0):
        s = max(abs(u), abs(v))
        if s == 0.0:
            raise ValueError("lift vector cannot be (0, 0)")
        return LiftVector(u / s, v / s, log_scale + math.log(s))


@dataclass(frozen=True)
class GreenValue:
    value: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class LyapunovResult:
    value: float
    stderr: float
    n_points: int
    depth: int
    flagged: int = 0


def apply_lift(family, lam, v: LiftVector) -> LiftVector:
    """Image of a lift vector under F_lambda, renormalized."""
    F = family.lift(lam)
    U, V = F(v.u, v.v)
    s = max(abs(U), abs(V))
    if s < 1e-300:
        raise DegenerateLift("lift image collapsed to zero")
    d = family.degree
    return LiftVector(U / s, V / s, d * v.log_scale + math.log(s))


def green_at(family, lam, v: LiftVector, tol=1e-12):
    """Green function G_F of the lift at the given vector.

    Telescoping renormalized iteration: G = log_scale +
    sum_n d^{-(n+1)} log ||F(z_n)|| with z_n rescaled to unit sup-norm.
    """
    family.check_nondegenerate(lam)
    d = family.degree
    F = family.lift(lam)
    G = v.log_scale
    u, w = v.u, v.v
    prev_inc = math.inf
    converged = False
    n = 0
    for n in range(GREEN_MAXITER):
        U, V = F(u, w)
        s = max(abs(U), abs(V))
        if s < 1e-300:
            raise DegenerateLift("||F|| < 1e-300: resultant is numerically zero")
        inc = d ** (-(n + 1)) * math.log(s)
        G += inc
        u, w = U / s, V / s
        if max(abs(inc), abs(prev_inc)) < tol and n >= 2:
            converged = True
            break
        prev_inc = inc
    return GreenValue(value=G, iterations=n + 1, converged=converged)


def escape_rate(z0, step, degree, gamma, maxiter, big=PLANE_BIG):
    """Escape-rate values g = d^{-n} (log|z_n| + gamma) at the first n
    with |z_n| > big, for every orbit z_0 = z0[i], z_{n+1} = step(z_n).

    ``step(z, active)`` returns the images of the points z that are still
    iterated; ``active`` holds their flat indices into z0, for steps that
    depend on a per-point parameter.  Returns g (shape of z0, 0 where the
    orbit never passes ``big`` within ``maxiter`` steps) and the flat
    indices of those non-escaping points.
    """
    z = z0.ravel().copy()
    g = np.zeros(z.size, dtype=float)
    active = np.arange(z.size)
    for n in range(maxiter + 1):
        out = np.abs(z[active]) > big
        if np.any(out):
            hit = active[out]
            g[hit] = degree ** (-float(n)) * (np.log(np.abs(z[hit])) + gamma)
            active = active[~out]
        if active.size == 0 or n == maxiter:
            break
        z[active] = step(z[active], active)
    return g.reshape(z0.shape), active


def plane_green(family, lam, z, big=PLANE_BIG, maxiter=PLANE_MAXITER):
    """Escape-rate Green function g(z) = lim d^{-n} log|f^n(z)| in the
    affine chart, vectorized over z (polynomial kinds only).

    Returns (g, escaped) arrays; non-escaping points get g = 0.
    """
    if family.kind == "rational":
        raise ValueError("plane_green is defined for polynomial kinds")
    d = family.degree
    coef = family.poly_coeffs(lam)
    gamma = math.log(abs(coef[d])) / (d - 1)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    g, bounded = escape_rate(z, lambda zz, _: npoly.polyval(zz, coef), d, gamma,
                             maxiter, big=big)
    escaped = np.ones(z.shape, dtype=bool)
    escaped.ravel()[bounded] = False
    return g, escaped


def critical_green_sum(family, lam):
    """Sum over marked critical points of mult_j * G_j(lambda), where
    G_j is the Green value of the critical value orbit (see module
    docstring for the normalization)."""
    total = 0.0
    for c, mult in family.marked_critical_points(lam):
        cv = complex(family.eval(lam, c))
        g, _ = plane_green(family, lam, cv)
        total += mult * float(g[0])
    return total


def sample_mu_f(family, lam, n_points, depth, seed):
    """Point cloud approximating the maximal entropy measure.

    Each sample is the endpoint of a random backward orbit of length
    ``depth`` from the fixed generic start 1+i, choosing uniformly among
    the d preimages with a counter-based RNG keyed by (seed, index):
    deterministic under any parallel split of the index range.
    """
    d = family.degree
    idx = np.arange(n_points, dtype=np.uint64)
    z = np.full(n_points, 1.0 + 1.0j, dtype=complex)
    for s in range(depth):
        pre = family.preimages(lam, z)
        if pre.shape[0] != d:
            raise PreimageFailure(f"expected {d} preimages, got {pre.shape[0]}")
        k = counter_choice(seed, idx, s, d)
        z = pre[k, np.arange(n_points)]
    return z


def lyapunov_mc(family, lam, n_points, depth, seed):
    """Monte-Carlo Lyapunov exponent against the maximal entropy measure.

    Samples landing within 1e-12 of a critical point are redrawn (with a
    shifted counter key) and counted in ``flagged``; CriticalOnOrbit is
    raised if any remain after five rounds, or if a log-derivative is
    not finite.  The derivative is measured in the affine chart; the
    spherical correction is applied only for the rational kind.
    """
    z = sample_mu_f(family, lam, n_points, depth, seed)
    crit = ([c for c, _ in family.marked_critical_points(lam)]
            if family.kind != "rational"
            else [c for c, _ in _finite_critical(family, lam)])
    flagged = 0
    for round_ in range(1, 6):
        bad = _near_critical(z, crit)
        if not np.any(bad):
            break
        flagged += int(np.sum(bad))
        idx = np.nonzero(bad)[0]
        zz = np.full(len(idx), 1.0 + 1.0j, dtype=complex)
        for s in range(depth):
            pre = family.preimages(lam, zz)
            k = counter_choice(seed + 0x5851F42D * round_, idx.astype(np.uint64), s, family.degree)
            zz = pre[k, np.arange(len(idx))]
        z[idx] = zz
    else:
        n_bad = int(np.sum(_near_critical(z, crit)))
        if n_bad:
            raise CriticalOnOrbit(
                f"{n_bad} samples within 1e-12 of a critical point after 5 redraw rounds")
    dz = np.asarray(family.deriv(lam, z), dtype=complex)
    with np.errstate(divide="ignore"):
        vals = np.log(np.abs(dz))
    if family.kind == "rational":
        fz = np.asarray(family.eval(lam, z), dtype=complex)
        vals = vals + np.log1p(np.abs(z) ** 2) - np.log1p(np.abs(fz) ** 2)
    n_bad = int(np.sum(~np.isfinite(vals)))
    if n_bad:
        raise CriticalOnOrbit(f"{n_bad} log-derivatives are not finite")
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return LyapunovResult(value=value, stderr=stderr, n_points=n_points,
                          depth=depth, flagged=flagged)


def _near_critical(z, crit):
    bad = np.zeros(len(z), dtype=bool)
    for c in crit:
        bad |= np.abs(z - c) < 1e-12
    return bad


def _finite_critical(family, lam):
    from .families import critical_points
    return [(c, m) for c, m in critical_points(family, lam) if np.isfinite(c)]
