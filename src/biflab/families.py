"""Map families, orbits, derivative cocycles and periodic points.

Everything downstream (Green functions, continuation, Misiurewicz solving,
parameter scans) consumes the three family kinds defined here:

* ``unicritical``      f(z) = z^d + c                       (m = 1)
* ``branner_hubbard``  p(z) = z^d/d + sum_{j=2}^{d-1} (-1)^{d-j} s_{d-j}(c)/j z^j + a^d
                       with lambda = (c_1, ..., c_{d-2}, a)  (m = d-1)
* ``rational``         f(z) = N(z)/D(z), coefficients polynomial in a single
                       complex parameter (m = 1)

Derivatives in z are analytic (from the coefficient formulas), never
numerical.  Derivatives in lambda are the callers' concern.

``newton`` is the one Newton routine in the dynamical plane: it solves
f^p(z) = target, or f^p(z) = z for a cycle, and serves ``find_periodic``
and the continuation, inverse-branch and Cantor code of ``hyperbolic``
(``misiurewicz`` runs a damped Newton in parameter space).

``coeff_rows`` is the one coefficient builder of the polynomial kinds:
scalar evaluation, the stacked activity maps of ``misiurewicz`` and the
parameter-grid scans of ``bifgrid`` all read their coefficients from
it, so each gets the same bits at the same parameter.  It works on
arrays of parameter coordinates, one entry per cell or row, and leaves
a coefficient that does not depend on lambda (1, 1/d or 0) a plain
float, so a grid never holds a per-cell array of a constant.

Scalar orbits and Newton call ``eval``/``deriv`` one point at a time at
a fixed parameter, so a polynomial family keeps the coefficient vector
(and its derivative) of the last parameter it saw and rebuilds them only
when the parameter changes; they evaluate with ``npoly.polyval`` on an
ndarray ``z``, whose array loops round each multiply and add as its 0-d
path does.  The activity maps evaluate a stack of parameters at once:
one ``poly_coeffs`` call for the whole stack and a column-wise
``npoly.polyval(z, coef, tensor=False)``.  The grid scans keep the power
form z^d + c and z^d/d + a^d + sum_j coef_j z^j, and write each product
as ``np.multiply(coef_j, z ** j)``: on arrays of 256 KiB or more numpy's
temporary elision evaluates ``coef_j * z ** j`` as ``z ** j * coef_j``,
and the fused complex multiply is not bitwise commutative.
"""

from __future__ import annotations

import json
import cmath
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    CriticalOnOrbit,
    DegenerateMap,
    NoConvergence,
    RootFindingFailure,
)

NEWTON_TOL = 1e-13
NEWTON_MAXITER = 100


@dataclass(frozen=True)
class PeriodicPoint:
    location: complex
    period: int
    multiplier: complex


@dataclass
class Orbit:
    """Forward orbit with its derivative cocycle.

    ``log_deriv[k]`` is log|(f^k)'(z0)| in nats (prefix sum of per-step
    log|f'|), ``arg_deriv[k]`` the accumulated (unwrapped) argument.
    """
    points: np.ndarray
    log_deriv: np.ndarray
    arg_deriv: np.ndarray
    escaped: bool = False
    escape_index: int | None = None

    def __len__(self):
        return len(self.points)


def _cluster(values, tol):
    """Group nearly-equal complex values, returning (value, count) pairs."""
    out = []
    for v in values:
        for i, (w, k) in enumerate(out):
            if abs(v - w) <= tol:
                out[i] = ((w * k + v) / (k + 1), k + 1)
                break
        else:
            out.append((v, 1))
    return [(complex(v), k) for v, k in out]


class MapFamily:
    """A holomorphic family f_lambda of degree-d maps."""

    def __init__(self, kind, degree, num=None, den=None):
        kind = kind.lower()
        if kind not in ("unicritical", "branner_hubbard", "rational"):
            raise ValueError(f"unknown family kind {kind!r}")
        min_deg = 1 if kind == "rational" else 2
        if degree < min_deg:
            raise ValueError(f"degree {degree} too small for kind {kind!r}")
        self.kind = kind
        self.degree = int(degree)
        if kind == "unicritical":
            self.param_dim = 1
        elif kind == "branner_hubbard":
            self.param_dim = degree - 1
        else:
            if num is None or den is None:
                raise ValueError("rational kind needs num/den coefficient tables")
            # num[k][j]: coefficient of z^k lambda^j, lowest powers first
            self.num = [np.asarray(row, dtype=complex) for row in num]
            self.den = [np.asarray(row, dtype=complex) for row in den]
            if max(len(self.num), len(self.den)) - 1 != degree:
                raise ValueError("rational degree must match max(deg N, deg D)")
            self.param_dim = 1
        # (parameter bytes, coefficients, derivative coefficients or None),
        # replaced as one tuple so key and arrays always belong together
        self._memo = None

    # ------------------------------------------------------------------
    # coefficients

    def coeff_rows(self, lams):
        """z-coefficients c_0..c_d (lowest first) of the polynomial kinds at
        the parameter coordinates ``lams``, m arrays of one shape.

        A coefficient that depends on lambda is an array of that shape,
        one that does not (1, 1/d or 0) a plain float.  Branner-Hubbard
        coefficients come from the elementary symmetric functions
        sigma_k of c_1..c_{d-2}, taking in one c at a time
        (sigma_k += c sigma_{k-1}).
        """
        d = self.degree
        if self.kind == "unicritical":
            return [lams[0]] + [0.0] * (d - 1) + [1.0]
        if self.kind != "branner_hubbard":
            raise ValueError("rational kind has no single coefficient vector")
        sig = [1.0]
        for c in lams[: d - 2]:
            sig = [1.0] + [(sig[k] if k < len(sig) else 0.0) + c * sig[k - 1]
                           for k in range(1, len(sig) + 1)]
        return ([lams[d - 2] ** d, 0.0]
                + [(-1.0) ** (d - j) * sig[d - j] / j for j in range(2, d)]
                + [1.0 / d])

    def poly_coeffs(self, lam):
        """z-coefficients (lowest first) for the polynomial kinds: shape
        (d+1,) for one parameter of shape (m,), or (d+1, P) for a stack of
        shape (P, m), column r being the coefficients at lam[r]."""
        lam = np.asarray(lam, dtype=complex)
        stack = np.atleast_2d(lam)
        rows = self.coeff_rows(list(np.ascontiguousarray(stack.T)))
        coef = np.empty((self.degree + 1, len(stack)), dtype=complex)
        for j, row in enumerate(rows):
            coef[j] = row
        return coef if lam.ndim == 2 else coef[:, 0]

    def _coeffs(self, lam, with_deriv=False):
        """Read-only (coef, dcoef) of a polynomial kind, rebuilt only when
        lam differs from the previous call; dcoef is None unless asked."""
        key = np.asarray(lam, dtype=complex).ravel().tobytes()
        memo = self._memo
        if memo is None or memo[0] != key:
            coef = self.poly_coeffs(lam)
            coef.flags.writeable = False
            memo = (key, coef, None)
        if with_deriv and memo[2] is None:
            dcoef = npoly.polyder(memo[1])
            dcoef.flags.writeable = False
            memo = (key, memo[1], dcoef)
        self._memo = memo
        return memo[1], memo[2]

    def _rat_coeffs(self, lam):
        """Numerator and denominator z-coefficients at lam, both padded
        with zeros to degree + 1 entries."""
        lam = complex(np.asarray(lam, dtype=complex).ravel()[0])
        size = self.degree + 1
        n = np.array([npoly.polyval(lam, row) for row in self.num], dtype=complex)
        d = np.array([npoly.polyval(lam, row) for row in self.den], dtype=complex)
        return np.pad(n, (0, size - len(n))), np.pad(d, (0, size - len(d)))

    def resultant(self, lam):
        """Sylvester resultant of numerator and denominator (rational kind)."""
        n, d = self._rat_coeffs(lam)
        n = np.trim_zeros(n, "b")
        d = np.trim_zeros(d, "b")
        p, q = len(n) - 1, len(d) - 1
        if p < 0 or q < 0:
            return 0.0 + 0j
        if p == 0 and q == 0:
            return 1.0 + 0j
        size = p + q
        syl = np.zeros((size, size), dtype=complex)
        for i in range(q):
            syl[i, i : i + p + 1] = n[::-1]
        for i in range(p):
            syl[q + i, i : i + q + 1] = d[::-1]
        return complex(np.linalg.det(syl))

    def check_nondegenerate(self, lam):
        if self.kind == "rational":
            r = self.resultant(lam)
            if abs(r) < 1e-12:
                raise DegenerateMap(f"resultant {r} vanishes at lambda={lam}")

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, lam, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "rational":
            return self._rat_eval(lam, z)
        return npoly.polyval(z, self._coeffs(lam)[0])

    def deriv(self, lam, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "rational":
            return self._rat_deriv(lam, z)
        return npoly.polyval(z, self._coeffs(lam, with_deriv=True)[1])

    def _rat_chart(self, lam, z, value):
        """value(x, n, d, far) over z: x = z with the coefficients n, d
        where |z| <= 1, and x = 1/z with reversed coefficients (far=True)
        where |z| > 1, so no power of a large z is formed."""
        n, d = self._rat_coeffs(lam)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        big = np.abs(z) > 1.0
        out[~big] = value(z[~big], n, d, False)
        out[big] = value(1.0 / z[big], n[::-1], d[::-1], True)
        return out[0] if scalar else out

    def _rat_eval(self, lam, z):
        return self._rat_chart(
            lam, z, lambda x, n, d, far: npoly.polyval(x, n) / npoly.polyval(x, d))

    def _rat_deriv(self, lam, z):
        def quotient_rule(x, n, d, far):
            nv = npoly.polyval(x, n)
            dv = npoly.polyval(x, d)
            top = (npoly.polyval(x, npoly.polyder(n)) * dv
                   - nv * npoly.polyval(x, npoly.polyder(d)))
            # d/dz of R(1/z) is -R'(1/z)/z^2
            if far:
                top = -x ** 2 * top
            return top / dv ** 2

        return self._rat_chart(lam, z, quotient_rule)

    def local_series(self, lam, w, order):
        """Taylor coefficients b_0..b_order of f at the point w."""
        if self.kind != "rational":
            return _taylor_shift(self.poly_coeffs(lam), w, order)
        n, d = self._rat_coeffs(lam)
        ns, ds = _taylor_shift(n, w, order), _taylor_shift(d, w, order)
        if abs(ds[0]) < 1e-300:
            raise DegenerateMap(f"denominator vanishes at expansion point {w}")
        # power-series quotient ns/ds up to given order
        q = np.zeros(order + 1, dtype=complex)
        for k in range(order + 1):
            acc = ns[k]
            for j in range(1, k + 1):
                if j < len(ds):
                    acc -= ds[j] * q[k - j]
            q[k] = acc / ds[0]
        return q

    def preimages(self, lam, w):
        """All degree-many preimages of w, in a deterministic order.

        Accepts scalar or 1-d array w; returns shape (d,) or (d, len(w)).
        """
        d = self.degree
        w = np.asarray(w, dtype=complex)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        if self.kind == "unicritical":
            c = complex(np.asarray(lam, dtype=complex).ravel()[0])
            base = (w - c) ** (1.0 / d)
            rots = np.exp(2j * np.pi * np.arange(d) / d)
            roots = rots[:, None] * base[None, :]
        else:
            if self.kind == "rational":
                n, dd = self._rat_coeffs(lam)
                # solve N(z) - w D(z) = 0 per sample, batched companion matrices
                coefs = n[None, :] - w[:, None] * dd[None, :]
            else:
                coef = self.poly_coeffs(lam)
                coefs = np.broadcast_to(coef, (len(w), d + 1)).copy()
                coefs[:, 0] -= w
            lead = coefs[:, -1]
            if np.any(np.abs(lead) < 1e-300):
                raise RootFindingFailure("leading coefficient vanished in preimage solve")
            comp = np.zeros((len(w), d, d), dtype=complex)
            comp[:, 1:, :-1] = np.eye(d - 1)
            comp[:, :, -1] = -coefs[:, :-1] / lead[:, None]
            roots = np.linalg.eigvals(comp).T
            order = np.lexsort((roots.imag, roots.real), axis=0)
            roots = np.take_along_axis(roots, order, axis=0)
        return roots[:, 0] if scalar else roots

    # ------------------------------------------------------------------
    # structure

    def escape_radius(self, lam):
        if self.kind == "rational":
            return math.inf
        coef = self.poly_coeffs(lam)
        return max(10.0, 2.0 * float(np.max(np.abs(coef))))

    def marked_critical_points(self, lam):
        """Marked critical points with multiplicities (polynomial kinds)."""
        lam = np.asarray(lam, dtype=complex).ravel()
        d = self.degree
        if self.kind == "unicritical":
            return [(0j, d - 1)]
        if self.kind == "branner_hubbard":
            pts = [0j] + [complex(v) for v in lam[: d - 2]]
            scale = max(1.0, max(abs(p) for p in pts))
            return _cluster(pts, 1e-9 * scale)
        raise ValueError("rational kind has no marked critical points")

    def lift(self, lam):
        """Homogeneous lift F(u, v) of f_lambda on C^2."""
        d = self.degree
        if self.kind == "rational":
            n, dd = self._rat_coeffs(lam)
        else:
            n, dd = self.poly_coeffs(lam), None

        def F(u, v):
            powsu = u ** np.arange(d + 1)
            powsv = v ** np.arange(d, -1, -1)
            second = v ** d if dd is None else np.sum(dd * powsu * powsv)
            return np.sum(n * powsu * powsv), second

        return F


def _taylor_shift(coef, w, order):
    """Coefficients b_0..b_order of sum_k coef[k] (w + t)^k in t."""
    shift = np.array([complex(w), 1.0], dtype=complex)  # the polynomial w + t
    out = np.zeros(order + 1, dtype=complex)
    acc = np.array([1.0 + 0j])
    for c in coef:
        m = min(order + 1, len(acc))
        out[:m] += c * acc[:m]
        acc = npoly.polymul(acc, shift)[: order + 2]
    return out


# ----------------------------------------------------------------------
# module-level operations

def eval_map(family, lam, z):
    """f_lambda(z); rational kinds switch to the 1/z chart for |z| > 1."""
    family.check_nondegenerate(lam)
    return family.eval(lam, z)


def orbit(family, lam, z0, n):
    """Forward orbit of z0 with the derivative cocycle.

    Stops early (escape flag set) once |z_k| exceeds the family's escape
    radius; escape is a flagged result, not an error.
    """
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    r_esc = family.escape_radius(lam)
    pts = [complex(z0)]
    logs = [0.0]
    args = [0.0]
    escaped = False
    esc_idx = None
    z = complex(z0)
    for k in range(n):
        if abs(z) > r_esc:
            escaped = True
            esc_idx = k
            break
        dz = complex(family.deriv(lam, z))
        z = complex(family.eval(lam, z))
        mag = abs(dz)
        logs.append(logs[-1] + (math.log(mag) if mag > 0 else -math.inf))
        args.append(args[-1] + cmath.phase(dz))
        pts.append(z)
    else:
        if abs(z) > r_esc:
            escaped = True
            esc_idx = n
    return Orbit(
        points=np.array(pts, dtype=complex),
        log_deriv=np.array(logs),
        arg_deriv=np.array(args),
        escaped=escaped,
        escape_index=esc_idx,
    )


def critical_points(family, lam):
    """Critical points with multiplicities.

    Polynomial kinds return the marked points (multiplicities summing to
    d-1); the rational kind solves N'D - ND' = 0 and counts infinity in
    the reciprocal chart (total 2d-2).
    """
    if family.kind != "rational":
        return family.marked_critical_points(lam)
    family.check_nondegenerate(lam)
    d = family.degree
    n, dd = family._rat_coeffs(lam)
    wr = npoly.polysub(npoly.polymul(npoly.polyder(n), dd),
                       npoly.polymul(n, npoly.polyder(dd)))
    wr = np.trim_zeros(wr, "b")
    if len(wr) == 0:
        raise RootFindingFailure("critical polynomial vanished identically")
    roots = npoly.polyroots(wr) if len(wr) > 1 else np.array([])
    if np.any(~np.isfinite(roots)):
        raise RootFindingFailure("critical-point roots did not converge")
    scale = max(1.0, float(np.max(np.abs(roots))) if len(roots) else 1.0)
    out = _cluster(list(roots), 1e-7 * scale)
    missing = (2 * d - 2) - len(roots)
    if missing > 0:
        out.append((complex("inf"), missing))
    return out


def _iterate(family, lam, z, period):
    """(f^period(z), (f^period)'(z)), the derivative by the chain rule."""
    w, dw = z, 1.0 + 0j
    for _ in range(period):
        dw *= complex(family.deriv(lam, w))
        w = complex(family.eval(lam, w))
    return w, dw


def newton(family, lam, seed, period=1, target=None, maxiter=NEWTON_MAXITER):
    """Newton on f^period(z) = target from the seed, or on f^period(z) = z
    when there is no target.

    Returns (z, iterations) once a step is below NEWTON_TOL relative to
    max(1, |z|), or (None, iterations) when the derivative vanishes
    (|dg| < 1e-300) or ``maxiter`` runs out.
    """
    z = complex(seed)
    for it in range(1, maxiter + 1):
        w, dw = _iterate(family, lam, z, period)
        if target is None:
            g, dg = w - z, dw - 1.0
        else:
            g, dg = w - target, dw
        if abs(dg) < 1e-300:
            return None, it
        step = g / dg
        z -= step
        if abs(step) < NEWTON_TOL * max(1.0, abs(z)):
            return z, it
    return None, maxiter


def find_periodic(family, lam, period, seed):
    """Newton-solve f^p(z) = z from the seed; reports the minimal period.

    A cycle that closes under a proper divisor of p at our tolerance is
    reported as that divisor's cycle (not an error).
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    z, it = newton(family, lam, seed, period)
    if z is None:
        raise NoConvergence(f"find_periodic: Newton derivative vanished or no convergence "
                            f"after {it} iterations")
    tol = NEWTON_TOL * max(1.0, abs(z)) * 10
    minimal = period
    for q in range(1, period):
        if period % q == 0 and abs(_iterate(family, lam, z, q)[0] - z) <= tol:
            minimal = q
            break
    return PeriodicPoint(location=z, period=minimal,
                         multiplier=_iterate(family, lam, z, minimal)[1])


def multiplier(family, lam, segment):
    """Derivative product along an orbit segment, in log-polar form.

    Returns (log-modulus, accumulated argument); raises CriticalOnOrbit
    when some per-step |f'| < 1e-14.
    """
    segment = np.asarray(segment, dtype=complex)
    if not np.all(np.isfinite(segment)):
        raise ValueError("segment points must be finite")
    dz = np.asarray(family.deriv(lam, segment), dtype=complex)
    mags = np.abs(dz)
    if np.any(mags < 1e-14):
        raise CriticalOnOrbit("derivative below 1e-14 on the segment")
    return float(np.sum(np.log(mags))), float(np.sum(np.angle(dz)))


# ----------------------------------------------------------------------
# JSON interface

def family_from_json(doc):
    """Build a MapFamily from its JSON document (dict or JSON string)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    missing = [k for k in ("kind", "degree") if k not in doc]
    if not missing and doc["kind"] == "rational":
        missing = [k for k in ("num", "den") if k not in doc]
    if missing:
        raise ValueError(f"family JSON is missing {', '.join(missing)}")
    kind = doc["kind"]
    degree = int(doc["degree"])
    if kind == "rational":
        num = [[complex(re, im) for re, im in row] for row in doc["num"]]
        den = [[complex(re, im) for re, im in row] for row in doc["den"]]
        fam = MapFamily(kind, degree, num=num, den=den)
    else:
        fam = MapFamily(kind, degree)
    params = None
    if "params" in doc:
        params = np.array([complex(re, im) for re, im in doc["params"]])
        if len(params) != fam.param_dim:
            raise ValueError("params length does not match the family's parameter dimension")
    return fam, params


def family_to_json(family, params=None):
    doc = {"kind": family.kind, "degree": family.degree}
    if family.kind == "rational":
        doc["num"] = [[[float(c.real), float(c.imag)] for c in row] for row in family.num]
        doc["den"] = [[[float(c.real), float(c.imag)] for c in row] for row in family.den]
    if params is not None:
        doc["params"] = [[float(p.real), float(p.imag)] for p in np.atleast_1d(params)]
    return doc
