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
from .hyperbolic import continue_orbit

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

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"motion pattern requires p >= 1, got {self.p}")
        if not np.all(np.isfinite(np.asarray(self.base_param, dtype=complex))):
            raise ValueError("motion pattern base_param must be finite")
        if not np.isfinite(complex(self.base_point)):
            raise ValueError("motion pattern base_point must be finite")


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
    """Marked critical point ``index`` of a ``critical_rows`` or
    ``marked_critical_points`` list."""
    if not 0 <= index < len(marked):
        raise ValueError(f"critical index {index} out of range")
    return marked[index][0]


def activity_chi(family, lam, spec):
    """Activity vector chi in C^k at the parameter lam (shape (m,)), or
    one row per parameter of a stack lam of shape (P, m), shape (P, k).

    All rows' tracked critical orbits run together as arrays: one
    ``family.critical_rows`` call on the stack's coordinate columns gives
    every row's critical points, one ``family.poly_coeffs`` call its
    coefficients, and one step is one column-wise Horner pass
    ``npoly.polyval(z, coef, tensor=False)``.  Column r of that stack
    has the bits of ``family.poly_coeffs(lam[r])``, and the pass is the
    multiply-and-add sequence of ``family.eval`` at one point, which
    numpy's array loops round as its 0-d path does, so every row keeps
    the bits of chi at that row alone.  The continued landing points of
    motion patterns are taken one row at a time, in the order the rows
    are given, after every tracked index and pattern kind is checked.
    """
    lam = np.asarray(lam, dtype=complex)
    lams = np.atleast_2d(lam)
    k, rows = len(spec.tracked), len(lams)
    crit = family.critical_rows(list(np.ascontiguousarray(lams.T)))
    z = np.empty((k, rows), dtype=complex)
    target = np.empty((k, rows), dtype=complex)
    for i, (idx, pat) in enumerate(zip(spec.tracked, spec.patterns)):
        z[i] = _critical_point(crit, idx)
        if not isinstance(pat, (Preperiodic, MotionTarget)):
            raise TypeError(f"unknown pattern {pat!r}")
    for i, pat in enumerate(spec.patterns):
        if isinstance(pat, MotionTarget):
            start = np.atleast_1d(np.asarray(pat.base_param, dtype=complex))
            seg = orbit(family, start, complex(pat.base_point), pat.p)
            for r, row in enumerate(lams):
                target[i, r] = continue_orbit(family, start, row, seg.points,
                                              period=pat.p)[0]
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


def _landing_walk(family, lam, spec):
    """The landing checks' readings off one forward orbit per tracked
    critical point c_i: q + p steps from f^{k0}(c_i), with q = n for a
    Preperiodic pattern and q = 0 for a motion, so z_q is the landing
    point.

    Returns (gap, cycles, m_plus): the largest closure gap
    |z_{q+p} - z_q|, the cycles z_q..z_{q+p-1}, and log m_n^+ =
    log max_i |(f^n)'(f^{k0}(c_i))| for n = 1..N_CERT.  The landing
    point is periodic at a certified parameter, so m_n^+ folds the
    per-step log|f'| of the first n steps (p for a motion) over one
    period; naive forward iteration would amplify roundoff by the
    repelling multiplier per step and lose the orbit within a few dozen
    steps.  An orbit that escapes before its last step has an infinite
    gap and an empty cycle (multiplier 1); one that escapes within its
    fold leaves m_plus None.
    """
    f, _ = family.map_and_deriv(lam)
    marked = family.marked_critical_points(lam)
    gap, cycles, folds = 0.0, [], []
    for idx, pat in zip(spec.tracked, spec.patterns):
        z = _critical_point(marked, idx)
        for _ in range(spec.k0):
            z = complex(f(z))
        q, fold = (pat.n, pat.n) if isinstance(pat, Preperiodic) else (0, pat.p)
        end = q + pat.p
        ob = orbit(family, lam, z, end)
        if len(ob) > end:
            gap = max(gap, abs(complex(ob.points[end]) - complex(ob.points[q])))
            cycles.append(ob.points[q:end])
        else:
            gap = math.inf
            cycles.append(ob.points[:0])
        step = np.diff(ob.log_deriv[: fold + 1])
        folds.append(np.cumsum(np.tile(step, -(-N_CERT // fold)))[:N_CERT]
                     if len(step) == fold else None)
    m_plus = None if any(row is None for row in folds) else np.max(folds, axis=0)
    return gap, cycles, m_plus


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
    gap, cycles, m_plus = _landing_walk(family, lam, spec)
    if not gap <= CLOSURE_TOL:
        raise NoConvergence(f"landing point does not close under f^p: gap {gap:.3g} > {CLOSURE_TOL}")
    mults = []
    for cycle in cycles:
        try:
            ml = segment_multiplier(family, lam, cycle)
        except CriticalOnOrbit as exc:
            raise NonRepellingTarget(f"landing cycle passes through a critical point: {exc}") from exc
        if ml[0] <= math.log1p(DELTA_REP):
            raise NonRepellingTarget(
                f"landing cycle multiplier {math.exp(ml[0]):.6g} <= 1 + {DELTA_REP}")
        mults.append(ml)
    sigma = transversality(family, lam, spec)
    return MisiurewiczCertificate(
        lam=lam, residual=res, multipliers=mults, sigma_min=sigma,
        m_plus=m_plus, spec=spec)


def verify_certificate(cert, family):
    """Independent re-check of a certificate: orbit closure, repelling
    multipliers, transversality (fresh finite-difference step) and the
    m_n^+ profile, the landing checks read off ``_landing_walk``.

    A landing orbit that escapes, or a cycle multiplier that fails
    numerically, is a failed check in the report.  Errors of the
    transversality Jacobian (a critical index out of range, a motion
    target that does not continue) and programming errors propagate.
    """
    spec, lam = cert.spec, cert.lam
    checks = {}
    worst, cycles, mp = _landing_walk(family, lam, spec)
    checks["orbit_closure"] = worst <= CLOSURE_TOL
    repelling = True
    drift = 0.0
    for i, cycle in enumerate(cycles):
        try:
            ml = segment_multiplier(family, lam, cycle)
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
    checks["m_plus_match"] = mp is not None and bool(
        np.max(np.abs(mp - cert.m_plus)) <= 1e-8 * max(1.0, float(np.max(np.abs(mp)))))
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
    missing key, or a non-finite lambda, is a ValueError that names it."""
    missing = [k for k in ("lambda", "residual", "multipliers", "sigma_min", "m_plus", "pattern")
               if k not in doc]
    missing += [f"pattern.{k}" for k in ("k0", "tracked", "patterns")
                if "pattern" in doc and k not in doc["pattern"]]
    if missing:
        raise ValueError(f"certificate is missing {', '.join(missing)}")
    pat = doc["pattern"]
    spec = ActivitySpec(tracked=tuple(pat["tracked"]), k0=pat["k0"],
                        patterns=tuple(_pattern_from_json(p) for p in pat["patterns"]))
    lam = np.array([complex(re, im) for re, im in doc["lambda"]])
    if not np.all(np.isfinite(lam)):
        raise ValueError("certificate lambda must be finite")
    return MisiurewiczCertificate(
        lam=lam,
        residual=doc["residual"],
        multipliers=[(m["log_mod"], m["arg"]) for m in doc["multipliers"]],
        sigma_min=doc["sigma_min"],
        m_plus=np.array(doc["m_plus"]),
        spec=spec)
