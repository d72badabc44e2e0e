"""Critical-orbit activity maps, Newton certification of Misiurewicz
parameters (critical points preperiodic to repelling cycles) and
transversality measurement.

The activity map has one coordinate chi_i = f^{k0+n_i}(c_i) - f^{k0}(c_i)
per tracked critical point c_i: ``Preperiodic(n, p)`` is the one pattern
kind.  Near a zero with landing multiplier m, |m| > 1 + DELTA_REP in a
certificate, the motion form f^{k0}(c_i) - x(lambda), x the continued
landing point, is chi_i / (m - 1) + O(chi^2), with the same zeros and
transversality; it is not computed, and ``certify`` refuses it.
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
    """The orbit of a critical point closes after k0 steps with lag n
    (chi = f^{k0+n}(c) - f^{k0}(c)) on a landing cycle of period p."""
    n: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("pattern requires n >= 1 and p >= 1")


@dataclass(frozen=True)
class ActivitySpec:
    tracked: tuple
    k0: int
    patterns: tuple

    def __post_init__(self):
        if self.k0 < 1:
            raise ValueError("k0 must be >= 1")
        if not self.tracked or len(self.tracked) != len(self.patterns):
            raise ValueError("one pattern per tracked critical point, and at least one")
        for pat in self.patterns:
            if not isinstance(pat, Preperiodic):
                raise TypeError(f"unknown pattern {pat!r}")


@dataclass
class MisiurewiczCertificate:
    lam: np.ndarray
    residual: float
    multipliers: list          # per tracked index, (log-modulus, argument)
    sigma_min: float
    m_plus: np.ndarray         # log m_n^+ for n = 1..N_CERT
    spec: ActivitySpec


def _critical_point(marked, index):
    """Point ``index`` of a ``critical_rows`` or ``marked_critical_points`` list."""
    if not 0 <= index < len(marked):
        raise ValueError(f"critical index {index} out of range")
    return marked[index][0]


def activity_chi(family, lam, spec):
    """Activity vector chi in C^k at the parameter lam (shape (m,)), or
    one row per parameter of a stack lam of shape (P, m), shape (P, k).

    All rows' critical orbits run together: one ``family.critical_rows``
    and one ``family.poly_coeffs`` call on the stack (column r has the
    bits of ``family.poly_coeffs(lam[r])``), then k0 column-wise Horner
    passes ``npoly.polyval(z, coef, tensor=False)`` for every tracked
    point and n more per pattern.  A pass is ``family.eval``'s
    multiply-and-add sequence, which numpy's array loops round as its
    0-d path does, so every row keeps the bits of chi at that row alone.
    """
    lam = np.asarray(lam, dtype=complex)
    lams = np.atleast_2d(lam)
    k, rows = len(spec.tracked), len(lams)
    crit = family.critical_rows(list(np.ascontiguousarray(lams.T)))
    z = np.empty((k, rows), dtype=complex)
    for i, idx in enumerate(spec.tracked):
        z[i] = _critical_point(crit, idx)
    coef = family.poly_coeffs(lams)
    for _ in range(spec.k0):
        z = npoly.polyval(z, coef, tensor=False)
    out = np.empty((rows, k), dtype=complex)
    for i, pat in enumerate(spec.patterns):
        w = z[i]
        for _ in range(pat.n):
            w = npoly.polyval(w, coef, tensor=False)
        out[:, i] = w - z[i]
    return out if lam.ndim == 2 else out[0]


def _chi_jacobian(family, lam, spec, step=FD_STEP):
    """Central finite-difference Jacobian of chi; chi is holomorphic in
    lam, so one complex direction per coordinate suffices.  The 2m points
    lam + h_j e_j, lam - h_j e_j (j = 0..m-1, in that order) are one stack
    for one ``activity_chi`` call."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    hs = [step * max(1.0, abs(v)) for v in lam]
    pts = np.repeat(lam[None, :], 2 * len(lam), axis=0)
    for j, h in enumerate(hs):
        pts[2 * j, j] += h
        pts[2 * j + 1, j] -= h
    chi = activity_chi(family, pts, spec)
    return np.stack([(chi[2 * j] - chi[2 * j + 1]) / (2.0 * h) for j, h in enumerate(hs)], axis=1)


def transversality(family, lam, spec, step=FD_STEP):
    """Smallest singular value of the finite-difference Jacobian of chi at
    lam; one near zero is reported, a non-finite Jacobian NoConvergence."""
    with np.errstate(over="ignore", invalid="ignore"):
        J = _chi_jacobian(family, lam, spec, step=step)
    if not np.all(np.isfinite(J)):
        raise NoConvergence(f"activity Jacobian is not finite at lambda={lam}")
    return float(np.linalg.svd(J, compute_uv=False)[-1])


def _landing_walk(family, lam, spec):
    """The landing checks' readings off one forward orbit z_0, z_1, ...
    of n + p steps from f^{k0}(c_i) per tracked critical point c_i.

    Returns (gap, cycles, m_plus): the largest closure gap
    |z_{n+p} - z_n|, the landing cycles z_n..z_{n+p-1}, and log m_n^+ =
    log max_i |(f^n)'(f^{k0}(c_i))| for n = 1..N_CERT, which folds the
    per-step log|f'| of z_0..z_n over one period of the cycle (forward
    iteration would amplify roundoff by the multiplier per step).  An
    orbit that escapes before its last step has an infinite gap and an
    empty cycle (multiplier 1); one that escapes within n steps leaves
    m_plus None.
    """
    f, _ = family.map_and_deriv(lam)
    marked = family.marked_critical_points(lam)
    gap, cycles, folds = 0.0, [], []
    for idx, pat in zip(spec.tracked, spec.patterns):
        z = _critical_point(marked, idx)
        for _ in range(spec.k0):
            z = complex(f(z))
        end = pat.n + pat.p
        ob = orbit(family, lam, z, end)
        if len(ob) > end:
            gap = max(gap, abs(complex(ob.points[end]) - complex(ob.points[pat.n])))
            cycles.append(ob.points[pat.n:end])
        else:
            gap = math.inf
            cycles.append(ob.points[:0])
        step = np.diff(ob.log_deriv[: pat.n + 1])
        folds.append(np.cumsum(np.tile(step, -(-N_CERT // pat.n)))[:N_CERT]
                     if len(step) == pat.n else None)
    return gap, cycles, None if any(row is None for row in folds) else np.max(folds, axis=0)


def _landing_multipliers(family, lam, cycles):
    """(log-modulus, argument) of each landing cycle's multiplier; a cycle
    through a critical point or of |multiplier| <= 1 + DELTA_REP raises
    NonRepellingTarget."""
    mults = []
    for cycle in cycles:
        try:
            mults.append(segment_multiplier(family, lam, cycle))
        except CriticalOnOrbit as exc:
            raise NonRepellingTarget(f"landing cycle passes through a critical point: {exc}") from exc
        if mults[-1][0] <= math.log1p(DELTA_REP):
            raise NonRepellingTarget(
                f"landing cycle multiplier {math.exp(mults[-1][0]):.6g} <= 1 + {DELTA_REP}")
    return mults


def solve_misiurewicz(family, seed, spec):
    """Damped Newton on chi = 0 from the seed, followed by certification.
    The parameter slice must be square (k tracked points, k coordinates).
    A landing point that does not close under f^p (gap above CLOSURE_TOL)
    has the wrong period and is refused (NoConvergence), as is a landing
    cycle with |multiplier| <= 1 + DELTA_REP (NonRepellingTarget).
    """
    lam = np.atleast_1d(np.asarray(seed, dtype=complex)).copy()
    if len(spec.tracked) != len(lam):
        raise ValueError(f"square solve requires {len(spec.tracked)} parameter coordinates, "
                         f"got {len(lam)}")
    # a diverging seed overflows its orbits and fails below, on the
    # Jacobian check or in the damping loop: the warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        chi = activity_chi(family, lam, spec)
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
    mults = _landing_multipliers(family, lam, cycles)
    sigma = transversality(family, lam, spec)
    return MisiurewiczCertificate(lam=lam, residual=res, multipliers=mults, sigma_min=sigma,
                                  m_plus=m_plus, spec=spec)


def verify_certificate(cert, family):
    """Independent re-check of a certificate with the solver's landing
    checks: orbit closure, repelling multipliers, transversality (fresh
    finite-difference step) and the m_n^+ profile.  An escaping or
    overflowing orbit, a cycle that is not repelling or whose multiplier
    fails numerically, or an m_n^+ profile of another length fails its
    check in the report.  A lambda of another dimension than the family's
    is a ValueError; errors of the transversality Jacobian (NoConvergence
    where it is not finite) and programming errors propagate.
    """
    spec, lam = cert.spec, cert.lam
    if len(lam) != family.param_dim:
        raise ValueError(f"certificate lambda has {len(lam)} coordinates, the family {family.param_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        worst, cycles, mp = _landing_walk(family, lam, spec)
        try:
            mults = _landing_multipliers(family, lam, cycles)
        except (BiflabError, ArithmeticError, np.linalg.LinAlgError):
            mults = None
    sigma = transversality(family, lam, spec, step=2e-7)
    checks = {
        "orbit_closure": worst <= CLOSURE_TOL,
        "repelling_landing": mults is not None,
        "multiplier_match": mults is not None and all(
            abs(ml[0] - old[0]) <= 1e-6 for ml, old in zip(mults, cert.multipliers, strict=True)),
        "sigma_min_match": abs(sigma - cert.sigma_min) <= 1e-4 * max(1.0, cert.sigma_min),
        "m_plus_match": mp is not None and np.shape(cert.m_plus) == mp.shape and bool(
            np.max(np.abs(mp - cert.m_plus)) <= 1e-8 * max(1.0, float(np.max(np.abs(mp))))),
    }
    return {"passed": all(checks.values()), "checks": checks, "closure_gap": worst,
            "sigma_min": sigma}


def certificate_to_json(cert, family):
    """One NDJSON object per certificate."""
    return {
        "lambda": [[float(v.real), float(v.imag)] for v in cert.lam],
        "residual": cert.residual,
        "multipliers": [{"log_mod": lm, "arg": ar} for lm, ar in cert.multipliers],
        "sigma_min": cert.sigma_min,
        "m_plus": [float(v) for v in cert.m_plus],
        "pattern": {"k0": cert.spec.k0, "tracked": list(cert.spec.tracked),
                    "patterns": [{"n": pat.n, "p": pat.p} for pat in cert.spec.patterns]},
        "family": family_to_json(family),
    }


# a certificate's JSON shape: "integer" or "number" (a bool is neither),
# [shape] for a list, [shape, n] for n entries, {key: shape} for an object
_SHAPE = {"lambda": [["number", 2]], "residual": "number", "sigma_min": "number",
          "m_plus": ["number"], "multipliers": [{"log_mod": "number", "arg": "number"}],
          "pattern": {"k0": "integer", "tracked": ["integer"],
                      "patterns": [{"n": "integer", "p": "integer"}]}}


def _check_shape(v, shape, name="certificate"):
    """A ValueError that names the first field of v that is missing or
    out of shape, or a pattern entry that is a motion pattern."""
    if isinstance(shape, dict):
        if type(v) is not dict:
            raise ValueError(f"{name} must be an object, got {v!r}")
        if "p" in shape and v.get("motion"):
            raise ValueError(f"{name} is a motion pattern, which is not read; a pattern is n, p")
        for key, sub in shape.items():
            if key not in v:
                raise ValueError(f"{name} is missing {key}")
            _check_shape(v[key], sub, f"{name}.{key}")
    elif isinstance(shape, list):
        if type(v) is not list or shape[1:] not in ([], [len(v)]):
            raise ValueError(f"{name} must be a list of {shape[1] if shape[1:] else 'any number of'} "
                             f"entries, got {v!r}")
        for i, x in enumerate(v):
            _check_shape(x, shape[0], f"{name}[{i}]")
    elif type(v) not in {"integer": (int,), "number": (int, float)}[shape]:
        raise ValueError(f"{name} must be a JSON {shape}, got {v!r}")


def certificate_from_json(doc):
    """Inverse of certificate_to_json (the family is not rebuilt).  A
    missing field, a value of the wrong type or count, a non-finite lambda
    or a ``"motion"`` pattern is a ValueError that names it."""
    _check_shape(doc, _SHAPE)
    pat = doc["pattern"]
    if len(doc["multipliers"]) != len(pat["tracked"]):
        raise ValueError("certificate.multipliers must have one entry per tracked point")
    lam = np.array([complex(re, im) for re, im in doc["lambda"]], dtype=complex)
    if not np.all(np.isfinite(lam)):
        raise ValueError("certificate lambda must be finite")
    return MisiurewiczCertificate(
        lam=lam, residual=doc["residual"], sigma_min=doc["sigma_min"],
        multipliers=[(m["log_mod"], m["arg"]) for m in doc["multipliers"]],
        m_plus=np.array(doc["m_plus"], dtype=float),
        spec=ActivitySpec(tuple(pat["tracked"]), pat["k0"],
                          tuple(Preperiodic(e["n"], e["p"]) for e in pat["patterns"])))
