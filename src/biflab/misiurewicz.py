"""Critical-orbit activity maps, Newton certification of Misiurewicz
parameters (critical points preperiodic to repelling cycles) and
transversality measurement.

The activity map chi has one coordinate per tracked critical point.  The
algebraic form is chi_i = f^{k0+n_i}(c_i) - f^{k0}(c_i); the motion form
replaces the second term with the holomorphically continued landing
point.  Near a zero of chi with landing multiplier m the two forms are
proportional: chi_alg = (m - 1) chi_mot + O(chi_mot^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import BiflabError, CriticalOnOrbit, NoConvergence, NonRepellingTarget
from .families import family_to_json, multiplier as segment_multiplier, orbit

DELTA_REP = 1e-3
N_CERT = 60
FD_STEP = 1e-7
SOLVE_MAXITER = 60
CLOSURE_TOL = 1e-8


@dataclass(frozen=True)
class Preperiodic:
    """Algebraic pattern: the orbit of the critical point closes after k0
    steps with lag n (chi = f^{k0+n}(c) - f^{k0}(c)); the landing cycle
    has period p."""
    n: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("pattern requires n >= 1 and p >= 1")


@dataclass(frozen=True)
class MotionTarget:
    """Motion pattern: chi = f^{k0}(c) - x(lambda), where x is the landing
    point continued from (base_param, base_point) along a straight
    parameter segment; p is its period."""
    base_param: tuple
    base_point: complex
    p: int


@dataclass(frozen=True)
class ActivitySpec:
    tracked: tuple
    k0: int
    patterns: tuple

    def __post_init__(self):
        if self.k0 < 1:
            raise ValueError("k0 must be >= 1")
        if len(self.tracked) != len(self.patterns):
            raise ValueError("one pattern per tracked critical point")


@dataclass
class MisiurewiczCertificate:
    lam: np.ndarray
    residual: float
    multipliers: list          # per tracked index, (log-modulus, argument)
    sigma_min: float
    m_plus: np.ndarray         # log m_n^+ for n = 1..N_CERT
    spec: ActivitySpec


def _critical_point(marked, index):
    """Critical point ``index`` of a ``marked_critical_points`` list."""
    if index >= len(marked):
        raise ValueError(f"critical index {index} out of range")
    return complex(marked[index][0])


def _iterate(family, lam, z, n):
    for _ in range(n):
        z = complex(family.eval(lam, z))
    return z


def activity_chi(family, lam, spec):
    """Activity vector chi in C^k at the parameter lam (shape (m,)), or
    one row per parameter of a stack lam of shape (P, m), shape (P, k).

    All rows' tracked critical orbits run together as arrays: one
    ``family.poly_coeffs`` call gives the coefficients of every row, and
    one step is one column-wise Horner pass
    ``npoly.polyval(z, coef, tensor=False)``.  Column r of that stack
    has the bits of ``family.poly_coeffs(lam[r])``, and the pass is the
    multiply-and-add sequence of ``family.eval`` at one point, which
    numpy's array loops round as its 0-d path does, so every row keeps
    the bits of chi at that row alone.  Critical points, and the
    continued landing points of motion patterns, are taken one row at a
    time, in the order the rows and tracked points are given.
    """
    lam = np.asarray(lam, dtype=complex)
    lams = np.atleast_2d(lam)
    k, rows = len(spec.tracked), len(lams)
    z = np.empty((k, rows), dtype=complex)
    target = np.empty((k, rows), dtype=complex)
    base_orbits = {}
    for r, row in enumerate(lams):
        marked = family.marked_critical_points(row)
        for i, (idx, pat) in enumerate(zip(spec.tracked, spec.patterns)):
            z[i, r] = _critical_point(marked, idx)
            if isinstance(pat, MotionTarget):
                from .hyperbolic import continue_orbit
                if i not in base_orbits:
                    start = np.atleast_1d(np.asarray(pat.base_param, dtype=complex))
                    base_orbits[i] = start, orbit(family, start, complex(pat.base_point), pat.p)
                start, seg = base_orbits[i]
                track = continue_orbit(family, start, row, seg.points, period=pat.p)
                target[i, r] = track.moved_points[0]
            elif not isinstance(pat, Preperiodic):
                raise TypeError(f"unknown pattern {pat!r}")
    coef = family.poly_coeffs(lams)
    for _ in range(spec.k0):
        z = npoly.polyval(z, coef, tensor=False)
    out = np.empty((rows, k), dtype=complex)
    for i, pat in enumerate(spec.patterns):
        if isinstance(pat, Preperiodic):
            w = z[i]
            for _ in range(pat.n):
                w = npoly.polyval(w, coef, tensor=False)
            out[:, i] = w - z[i]
        else:
            out[:, i] = z[i] - target[i]
    return out if lam.ndim == 2 else out[0]


def _chi_jacobian(family, lam, spec, step=FD_STEP):
    """Central finite-difference Jacobian of chi; chi is holomorphic in
    lam, so one complex direction per coordinate suffices.  The 2m points
    lam + h_j e_j, lam - h_j e_j (j = 0..m-1, in that order) are one stack
    for one ``activity_chi`` call."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    k = len(spec.tracked)
    m = len(lam)
    pts = np.repeat(lam[None, :], 2 * m, axis=0)
    hs = []
    for j in range(m):
        h = step * max(1.0, abs(lam[j]))
        pts[2 * j, j] += h
        pts[2 * j + 1, j] -= h
        hs.append(h)
    chi = activity_chi(family, pts, spec)
    J = np.empty((k, m), dtype=complex)
    for j, h in enumerate(hs):
        J[:, j] = (chi[2 * j] - chi[2 * j + 1]) / (2.0 * h)
    return J


def transversality(family, lam, spec, step=FD_STEP):
    """Smallest singular value of the finite-difference Jacobian of chi
    at lam.  A value near zero is reported, not raised."""
    J = _chi_jacobian(family, lam, spec, step=step)
    return float(np.linalg.svd(J, compute_uv=False)[-1])


def _landing_multiplier(family, lam, spec, i):
    idx, pat = spec.tracked[i], spec.patterns[i]
    c = _critical_point(family.marked_critical_points(lam), idx)
    land = _iterate(family, lam, c, spec.k0 + (pat.n if isinstance(pat, Preperiodic) else 0))
    seg = orbit(family, lam, land, pat.p)
    return segment_multiplier(family, lam, seg.points[:-1])


def _m_plus(family, lam, spec):
    """log m_n^+ = log max_i |(f^n)'(f^{k0}(c_i))| over tracked indices.

    The landing point is periodic at a certified parameter, so the
    per-step log-derivatives are folded over one period; naive forward
    iteration would amplify roundoff by the repelling multiplier per
    step and lose the orbit within a few dozen steps.
    """
    logs = np.full((len(spec.tracked), N_CERT), -math.inf)
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    for i, (idx, pat) in enumerate(zip(spec.tracked, spec.patterns)):
        c = _critical_point(family.marked_critical_points(lam), idx)
        land = _iterate(family, lam, c, spec.k0)
        q = pat.n if isinstance(pat, Preperiodic) else pat.p
        ob = orbit(family, lam, land, q)
        step = np.diff(ob.log_deriv[: q + 1])
        reps = -(-N_CERT // q)
        logs[i] = np.cumsum(np.tile(step, reps))[:N_CERT]
    return np.max(logs, axis=0)


def _closure_gap(family, lam, spec):
    """Largest |f^p(z) - z| over the tracked landing points z."""
    worst = 0.0
    for idx, pat in zip(spec.tracked, spec.patterns):
        c = _critical_point(family.marked_critical_points(lam), idx)
        z = _iterate(family, lam, c, spec.k0 + (pat.n if isinstance(pat, Preperiodic) else 0))
        worst = max(worst, abs(_iterate(family, lam, z, pat.p) - z))
    return worst


def solve_misiurewicz(family, seed, spec):
    """Damped Newton on chi = 0 from the seed, followed by certification.

    The parameter slice must be square (k tracked points, k coordinates).
    A landing point that does not close under f^p (gap above CLOSURE_TOL)
    is refused (NoConvergence): its pattern's period is wrong.  Landing
    cycles with |multiplier| <= 1 + DELTA_REP are refused
    (NonRepellingTarget) rather than certified.
    """
    lam = np.atleast_1d(np.asarray(seed, dtype=complex)).copy()
    k = len(spec.tracked)
    if k != len(lam):
        raise ValueError(f"square solve requires {k} parameter coordinates, got {len(lam)}")
    # A diverging seed overflows its orbits; the non-finite values are
    # handled below, so numpy's overflow/invalid warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        chi = activity_chi(family, lam, spec)
        # No early exit on a non-finite starting residual: such a seed
        # fails below, on the Jacobian check or in the damping loop.
        res = float(np.linalg.norm(chi))
        for _ in range(SOLVE_MAXITER):
            if res <= 1e-12:
                break
            J = _chi_jacobian(family, lam, spec)
            if not np.all(np.isfinite(J)):
                raise NoConvergence(f"Newton: activity Jacobian is not finite at lambda={lam}")
            try:
                step = np.linalg.solve(J, chi)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"singular activity Jacobian: {exc}") from exc
            for damping in (1.0, 0.5, 0.25, 0.125, 0.0625):
                trial = lam - damping * step
                chi_t = activity_chi(family, trial, spec)
                res_t = float(np.linalg.norm(chi_t))
                if math.isfinite(res_t) and res_t < res:
                    lam, chi, res = trial, chi_t, res_t
                    break
            else:
                raise NoConvergence(f"damped Newton stalled at residual {res:.3g}")
    if not res <= 1e-10:  # also refuses a nan residual
        raise NoConvergence(f"residual {res:.3g} > 1e-10 after {SOLVE_MAXITER} iterations")
    gap = _closure_gap(family, lam, spec)
    if not gap <= CLOSURE_TOL:
        raise NoConvergence(f"landing point does not close under f^p: gap {gap:.3g} > {CLOSURE_TOL}")
    mults = []
    for i in range(k):
        try:
            ml = _landing_multiplier(family, lam, spec, i)
        except CriticalOnOrbit as exc:
            raise NonRepellingTarget(f"landing cycle passes through a critical point: {exc}") from exc
        if ml[0] <= math.log1p(DELTA_REP):
            raise NonRepellingTarget(
                f"landing cycle multiplier {math.exp(ml[0]):.6g} <= 1 + {DELTA_REP}")
        mults.append(ml)
    sigma = transversality(family, lam, spec)
    return MisiurewiczCertificate(
        lam=lam, residual=res, multipliers=mults, sigma_min=sigma,
        m_plus=_m_plus(family, lam, spec), spec=spec)


def verify_certificate(cert, family):
    """Independent re-check of a certificate: orbit closure, repelling
    multipliers, transversality (fresh finite-difference step) and the
    m_n^+ profile.  Failures land in the report, never as exceptions."""
    spec, lam = cert.spec, cert.lam
    checks = {}
    worst = _closure_gap(family, lam, spec)
    checks["orbit_closure"] = worst <= CLOSURE_TOL
    repelling = True
    drift = 0.0
    for i in range(len(spec.tracked)):
        try:
            ml = _landing_multiplier(family, lam, spec, i)
        except (BiflabError, ArithmeticError, np.linalg.LinAlgError):
            repelling = False
            break
        if ml[0] <= math.log1p(DELTA_REP):
            repelling = False
        drift = max(drift, abs(ml[0] - cert.multipliers[i][0]))
    checks["repelling_landing"] = repelling
    checks["multiplier_match"] = repelling and drift <= 1e-6
    sigma = transversality(family, lam, spec, step=2e-7)
    checks["sigma_min_match"] = abs(sigma - cert.sigma_min) <= 1e-4 * max(1.0, cert.sigma_min)
    mp = _m_plus(family, lam, spec)
    checks["m_plus_match"] = bool(np.max(np.abs(mp - cert.m_plus)) <= 1e-8 * max(1.0, float(np.max(np.abs(mp)))))
    return {
        "passed": all(checks.values()),
        "checks": checks,
        "closure_gap": worst,
        "sigma_min": sigma,
    }


def _pair(z):
    return [float(z.real), float(z.imag)]


def _pattern_to_json(pat):
    if isinstance(pat, Preperiodic):
        return {"n": pat.n, "p": pat.p}
    return {"p": pat.p, "motion": True,
            "base_param": [_pair(complex(v)) for v in pat.base_param],
            "base_point": _pair(complex(pat.base_point))}


def _pattern_from_json(doc):
    if "p" not in doc:
        raise ValueError("certificate pattern entry is missing p")
    if not doc.get("motion"):
        return Preperiodic(doc.get("n", doc["p"]), doc["p"])
    if "base_param" not in doc or "base_point" not in doc:
        raise ValueError("motion pattern without base_param/base_point")
    return MotionTarget(tuple(complex(re, im) for re, im in doc["base_param"]),
                        complex(*doc["base_point"]), doc["p"])


def certificate_to_json(cert, family):
    """One NDJSON object per certificate."""
    spec = cert.spec
    return {
        "lambda": [_pair(v) for v in cert.lam],
        "residual": cert.residual,
        "multipliers": [{"log_mod": lm, "arg": ar} for lm, ar in cert.multipliers],
        "sigma_min": cert.sigma_min,
        "m_plus": [float(v) for v in cert.m_plus],
        "pattern": {
            "k0": spec.k0,
            "tracked": list(spec.tracked),
            "patterns": [_pattern_to_json(p) for p in spec.patterns],
        },
        "family": family_to_json(family),
    }


def certificate_from_json(doc):
    """Inverse of certificate_to_json (the family is not rebuilt); a
    missing key is a ValueError that names it."""
    missing = [k for k in ("lambda", "residual", "multipliers", "sigma_min", "m_plus", "pattern")
               if k not in doc]
    missing += [f"pattern.{k}" for k in ("k0", "tracked", "patterns")
                if "pattern" in doc and k not in doc["pattern"]]
    if missing:
        raise ValueError(f"certificate is missing {', '.join(missing)}")
    pat = doc["pattern"]
    spec = ActivitySpec(tracked=tuple(pat["tracked"]), k0=pat["k0"],
                        patterns=tuple(_pattern_from_json(p) for p in pat["patterns"]))
    return MisiurewiczCertificate(
        lam=np.array([complex(re, im) for re, im in doc["lambda"]]),
        residual=doc["residual"],
        multipliers=[(m["log_mod"], m["arg"]) for m in doc["multipliers"]],
        sigma_min=doc["sigma_min"],
        m_plus=np.array(doc["m_plus"]),
        spec=spec)
