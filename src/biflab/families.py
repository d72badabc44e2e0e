"""Map families, orbits, derivative cocycles and dynamical-plane Newton.

Everything downstream (Green functions, continuation, Misiurewicz solving,
parameter scans) tells the three kinds apart only through ``MapFamily``:

* ``unicritical``      f(z) = z^d + c                       (m = 1)
* ``branner_hubbard``  p(z) = z^d/d + sum_{j=2}^{d-1} (-1)^{d-j} s_{d-j}(c)/j z^j + a^d
                       with lambda = (c_1, ..., c_{d-2}, a)  (m = d-1)
* ``rational``         f(z) = N(z)/D(z), coefficients polynomial in a single
                       complex parameter (m = 1)

Derivatives in z are analytic (from the coefficient formulas), never
numerical.  Derivatives in lambda are the callers' concern.

``newton`` is the one Newton routine in the dynamical plane: it solves
f(z) = z for a fixed point and serves only the fixed-point continuation
of ``hyperbolic``, whose Cantor branches and backward extension take
``preimages`` for every kind (``misiurewicz`` runs a damped Newton in
parameter space).

``coeff_rows`` is the one coefficient builder of the polynomial kinds:
scalar evaluation, the stacked activity maps of ``misiurewicz`` and the
escape-rate kernel of ``potential`` (the grid scans of ``bifgrid`` and
``critical_green_sum``) all read their coefficients from it, so each
gets the same bits at the same parameter.  It works on
arrays of parameter coordinates, one entry per cell or row, and leaves
a coefficient that does not depend on lambda (1, 1/d or 0) a plain
float, so a grid never holds a per-cell array of a constant.
``critical_rows`` is its companion for the marked critical points c_j,
which the same three callers read.  Index j always names c_j(lambda),
also where two marked points meet (c_1 = 0 in the cubic family);
``critical_points`` gives the finite critical points at one parameter,
each once and never merged, for the sampler's near-critical test.

The scalar loops that step one parameter many times (``orbit`` and
``newton``) build the coefficients once per call:
``map_and_deriv`` gives two functions of z that hold them (and their
derivative), ``eval``/``deriv`` are its one-point calls, and ``orbit``
reads its escape radius off the same build.
A family keeps no state between calls.  Each step evaluates with
``npoly.polyval`` on ``np.asarray(z)``, a 0-d array for a scalar z,
whose array loops round each multiply and add as the batched path does;
numpy's scalar complex arithmetic, which ``polyval`` would run on the
numpy scalar it returns, rounds differently.

The activity maps evaluate a stack of parameters at once: one
``poly_coeffs`` call for the whole stack, then column-wise Horner
passes written inline with ``polyval``'s own expressions; the
escape-rate kernel steps with ``power_step``.

``preimages`` of the unicritical kind are the d-th roots of w - c.  The
other kinds solve each target's monic polynomial by Aberth-Ehrlich
iterations, with companion-matrix eigenvalues for the rare targets that
do not converge (``_companion_roots``), and sort its roots with
``lexsort``.  A target's roots are a function of its own bits, so the
sampler's samples keep their bits whatever the split into blocks.

A family's JSON document holds ``kind``, ``degree`` and, for the
rational kind, the ``num``/``den`` tables.  ``_check_shape`` checks it
against one declarative shape, as ``misiurewicz`` checks a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    CriticalOnOrbit,
    DegenerateMap,
    RootFindingFailure,
)

NEWTON_TOL = 1e-13
# The Aberth-Ehrlich solve of ``_companion_roots``.  ABERTH_TOL, about 9
# ulps, is above the rounding noise of a step at a well-conditioned root
# and deep enough in the cubic convergence that the last step leaves the
# root within rounding.  A Lattes benchmark target takes 6 sweeps on
# average; those still stepping after ABERTH_MAXITER (clustered roots
# near a critical value, about 1 in 5,000) take eigenvalues instead.
# Chunks of ABERTH_ROWS targets keep a sweep's arrays in cache.
ABERTH_TOL = 2e-15
ABERTH_MAXITER = 24
ABERTH_ROWS = 8192


@dataclass
class Orbit:
    """Forward orbit with its derivative cocycle.

    ``log_deriv[k]`` is log|(f^k)'(z0)| in nats (prefix sum of per-step
    log|f'|).
    """
    points: np.ndarray
    log_deriv: np.ndarray
    escaped: bool

    def __len__(self):
        return len(self.points)


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
            if not all(len(row) and np.all(np.isfinite(row)) for row in self.num + self.den):
                raise ValueError("rational num/den rows need one or more finite coefficients")
            if max(len(self.num), len(self.den)) - 1 != degree:
                raise ValueError("rational degree must match max(deg N, deg D)")
            self.param_dim = 1

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

    def power_step(self, rows, z):
        """f at z in power form, z^d + c or z^d/d + a^d + sum_j row_j z^j,
        ``rows`` from ``coeff_rows``.  ``np.multiply`` keeps the operand
        order, which numpy's temporary elision swaps in ``row * z ** j`` on
        arrays of 256 KiB or more; complex multiplication is not commutative in bits."""
        d = self.degree
        if self.kind == "unicritical":
            return z ** d + rows[0]
        out = z ** d / d + rows[0]
        for j in range(2, d):
            out = out + np.multiply(rows[j], z ** j)
        return out

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
        if not (len(n) and len(d)):
            return 0.0 + 0j
        # huge coefficients overflow to inf or NaN, which check_nondegenerate refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(np.linalg.det(_sylvester(n, d)))

    def check_nondegenerate(self, lam):
        if self.kind == "rational":
            r = self.resultant(lam)
            # abs(nan) compares false, but abs(inf+nanj) is inf
            if not (np.isfinite(r) and abs(r) >= 1e-12):
                raise DegenerateMap(f"resultant {r} is not finite and >= 1e-12 in modulus "
                                    f"at lambda={lam}")

    # ------------------------------------------------------------------
    # evaluation

    def map_and_deriv(self, lam):
        """(f, f') of f_lambda as two functions of z, the coefficients
        built once, here; a scalar z is evaluated as a 0-d array."""
        if self.kind == "rational":
            n, d = self._rat_coeffs(lam)
            return lambda z: _rat_chart(n, d, z, False), lambda z: _rat_chart(n, d, z, True)
        return _poly_maps(self.poly_coeffs(lam))

    def eval(self, lam, z):
        return self.map_and_deriv(lam)[0](z)

    def deriv(self, lam, z):
        return self.map_and_deriv(lam)[1](z)

    def log_derivs(self, lam, z):
        """log|f'| at the points z, spherical for the rational kind, else affine."""
        f, df = self.map_and_deriv(lam)
        with np.errstate(divide="ignore"):
            vals = np.log(np.abs(df(z)))
        if self.kind == "rational":
            vals = vals + np.log1p(np.abs(z) ** 2) - np.log1p(np.abs(f(z)) ** 2)
        return vals

    def series_order(self, N_trunc):
        """Local series order of a chain cut at N_trunc: the degree, or N_trunc + 4 if rational."""
        return N_trunc + 4 if self.kind == "rational" else self.degree

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

    def _companion_columns(self, lam, w):
        """The (d, N) companion columns of the companion kinds' preimage
        solve at the targets w: column r holds c_k with z^d = sum_k c_k z^k
        at the roots of N(z) - w_r D(z) (rational) or p(z) - w_r
        (Branner-Hubbard).  A vanished leading coefficient or a column
        that is not finite is a RootFindingFailure."""
        # an overflowed coefficient is refused below as a failed solve
        with np.errstate(over="ignore", invalid="ignore"):
            # rows of z-coefficients, one column per target, formed in place
            if self.kind == "rational":
                n, dd = self._rat_coeffs(lam)
                coefs = np.multiply(w[None, :], dd[:, None])
                np.subtract(n[:, None], coefs, out=coefs)
            else:
                coefs = np.repeat(self.poly_coeffs(lam)[:, None], len(w), axis=1)
                coefs[0] -= w
            lead = coefs[-1]
            if np.any(np.abs(lead) < 1e-300):
                raise RootFindingFailure("leading coefficient vanished in preimage solve")
            col = np.negative(coefs[:-1])
            col /= lead
        if not np.isfinite(col).all():
            raise RootFindingFailure("non-finite companion column in preimage solve")
        return col

    def preimages(self, lam, w):
        """All degree-many preimages of w, in a deterministic order.

        Accepts scalar or 1-d array w; returns shape (d,) or (d, len(w)),
        the columns sorted by (real, imaginary) part for the rational and
        Branner-Hubbard kinds, which solve N(z) - w D(z) or p(z) - w by
        ``_companion_roots``; a column's bits depend on its own target
        alone, never on the other targets of the call.
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
            roots = _companion_roots(self._companion_columns(lam, w))
            order = np.lexsort((roots.imag, roots.real), axis=0)
            roots = np.take_along_axis(roots, order, axis=0)
        return roots[:, 0] if scalar else roots

    # ------------------------------------------------------------------
    # structure

    def critical_rows(self, lams):
        """Marked critical points c_j with their multiplicities at the
        parameter coordinates ``lams`` (as for ``coeff_rows``): [(0, d-1)]
        for unicritical, [(0, 1), (c_1, 1), ..., (c_{d-2}, 1)] for
        Branner-Hubbard.  Index j names c_j(lambda) also where two of the
        points meet.  The fixed point 0 is a plain float."""
        d = self.degree
        if self.kind == "unicritical":
            return [(0.0, d - 1)]
        if self.kind != "branner_hubbard":
            raise ValueError("rational kind has no marked critical points")
        return [(0.0, 1)] + [(c, 1) for c in lams[: d - 2]]

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

    def lift_log_bound(self, lam):
        """A bound B with |log ||F(z)||| <= B for the lift F wherever
        ||z|| = 1 (sup norms).  Write F = (sum_k n_k u^k v^(d-k),
        sum_k e_k u^k v^(d-k)).  Above, ||F|| <= max(sum |n_k|, sum |e_k|).
        Below, the 2d products u^(d-1-i) v^i F_1 and u^(d-1-i) v^i F_2
        (i < d) are the Sylvester matrix S times the 2d monomials of
        degree 2d - 1; each product is at most ||F(z)|| and one monomial
        has modulus 1, so ||F(z)|| >= 1 / ||S^-1|| in the row-sum norm
        (computed in floating point)."""
        d = self.degree
        if self.kind == "rational":
            n, e = self._rat_coeffs(lam)
        else:
            n, e = self.poly_coeffs(lam), np.eye(1, d + 1, dtype=complex)[0]
        lower = 1.0 / np.max(np.sum(np.abs(np.linalg.inv(_sylvester(n, e))), axis=1))
        return max(math.log(max(np.sum(np.abs(n)), np.sum(np.abs(e)))), -math.log(lower))


def _poly_maps(coef):
    """(f, f') of the polynomial with z-coefficients coef (lowest first)."""
    dcoef = npoly.polyder(coef)
    return (lambda z: npoly.polyval(np.asarray(z, dtype=complex), coef),
            lambda z: npoly.polyval(np.asarray(z, dtype=complex), dcoef))


def _companion_roots(col):
    """Roots of the monic polynomials z^d - sum_k col[k, r] z^k, one per
    column r of the (d, N) companion columns ``col``, as a (d, N) array
    in no particular order.

    Simultaneous Aberth-Ehrlich iterations (D. A. Bini, Numer.
    Algorithms 13, 1996) in Gauss-Seidel form: a sweep takes the d roots
    of a column in turn and moves root i by r / (1 - r sum_{j != i}
    1/(z_i - z_j)), r = p(z_i)/p'(z_i), against the other roots as they
    stand.  Horner gives p and p', and the sum is q'/q for the product q
    of the differences, so the step p q / (p' q - p q') takes one
    division.  Each sweep works on arrays of one entry per column,
    never on a d x d stack.  The roots start on the circle of radius
    |col[0]|^(1/d), the geometric mean of their moduli, at angles
    rotated off the real axis.  After each sweep the columns whose d
    steps were all at most ABERTH_TOL times their root are done and
    leave the iteration.  Columns that are not done after ABERTH_MAXITER
    sweeps, or whose roots are not finite (a zero radius puts all the
    roots on one point), take the eigenvalues of their companion
    matrices, the solve the iteration replaced.

    Every operation acts on each column alone, so a column's roots are a
    function of its own bits, whatever the other columns are; columns
    run in chunks of ABERTH_ROWS, which bounds the sweep's temporaries.
    """
    d, n = col.shape
    out = np.empty((d, n), dtype=complex)
    start = np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.4))
    left = [np.arange(0)]
    # roots that meet or overflow make their column non-finite, and so
    # send it to the eigenvalue solve, without a warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, ABERTH_ROWS):
            a = col[:, lo:lo + ABERTH_ROWS]
            rows = np.arange(lo, lo + a.shape[1])
            z = start[:, None] * (np.abs(a[0]) ** (1.0 / d))
            for _ in range(ABERTH_MAXITER):
                done = np.ones(rows.size, dtype=bool)
                for i in range(d):
                    zi = z[i]
                    p, dp = zi - a[d - 1], 1.0
                    for k in range(d - 2, -1, -1):
                        dp = dp * zi + p
                        p = p * zi - a[k]
                    # q = prod_{j != i} (z_i - z_j) and q' = q sum_{j != i} 1/(z_i - z_j)
                    dq, q = 0.0, 1.0
                    for j in range(d):
                        if j != i:
                            gap = zi - z[j]
                            dq, q = dq * gap + q, q * gap
                    step = p * q / (dp * q - p * dq)
                    z[i] = zi - step
                    done &= np.abs(step) <= ABERTH_TOL * np.abs(z[i])
                ok = np.isfinite(z).all(axis=0)
                out[:, rows[done & ok]] = z[:, done & ok]
                keep = ~done & ok
                left.append(rows[~ok])
                rows, z, a = rows[keep], z[:, keep], a[:, keep]
                if not rows.size:
                    break
            left.append(rows)
    left = np.concatenate(left)
    if left.size:
        comp = np.zeros((left.size, d, d), dtype=complex)
        comp[:, 1:, :-1] = np.eye(d - 1)
        comp[:, :, -1] = col[:, left].T
        out[:, left] = np.linalg.eigvals(comp).T
    return out


def _sylvester(a, b):
    """Sylvester matrix of the polynomials with coefficients a and b
    (lowest first): deg b shifted rows of a over deg a shifted rows of b."""
    p, q = len(a) - 1, len(b) - 1
    syl = np.zeros((p + q, p + q), dtype=complex)
    for i in range(q):
        syl[i, i:i + p + 1] = a[::-1]
    for i in range(p):
        syl[q + i, i:i + q + 1] = b[::-1]
    return syl


def _rat_chart(n, d, z, deriv):
    """N/D at z, or its derivative when ``deriv``, from the coefficients
    n, d: in x = z where |z| <= 1, and in x = 1/z with reversed
    coefficients where |z| > 1, so no power of a large z is formed."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    big = np.abs(z) > 1.0
    for part, x, nc, dc, far in ((~big, z[~big], n, d, False),
                                 (big, 1.0 / z[big], n[::-1], d[::-1], True)):
        nv = npoly.polyval(x, nc)
        dv = npoly.polyval(x, dc)
        if not deriv:
            out[part] = nv / dv
            continue
        top = (npoly.polyval(x, npoly.polyder(nc)) * dv
               - nv * npoly.polyval(x, npoly.polyder(dc)))
        # d/dz of R(1/z) is -R'(1/z)/z^2
        if far:
            top = -x ** 2 * top
        out[part] = top / dv ** 2
    return out[0] if scalar else out


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

def _modulus(z):
    """|z|, inf where it overflows: Python's complex abs raises there, and
    a point that far out has escaped."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def orbit(family, lam, z0, n):
    """Forward orbit of z0 with the derivative cocycle.

    Stops early (escape flag set) once |z_k| exceeds the escape radius
    (infinite for the rational kind, max(10, 2 max_j |coef_j|) for the
    polynomial kinds) or is not finite; escape is a flagged result, not
    an error.
    """
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    if family.kind == "rational":
        r_esc, (f, df) = math.inf, family.map_and_deriv(lam)
    else:
        coef = family.poly_coeffs(lam)
        r_esc, (f, df) = max(10.0, 2.0 * float(np.max(np.abs(coef)))), _poly_maps(coef)
    pts = [complex(z0)]
    logs = [0.0]
    z = complex(z0)
    for _ in range(n):
        if not _modulus(z) <= r_esc:
            break
        dz = complex(df(z))
        z = complex(f(z))
        mag = _modulus(dz)
        logs.append(logs[-1] + (math.log(mag) if mag > 0 else -math.inf))
        pts.append(z)
    # the last point is the first one outside the radius, if any is
    return Orbit(points=np.array(pts, dtype=complex), log_deriv=np.array(logs),
                 escaped=not _modulus(z) <= r_esc)


def critical_points(family, lam):
    """The finite critical points of f_lambda as complex values, each
    once and none merged: the marked points of ``critical_rows`` for the
    polynomial kinds, the roots of N'D - ND' for the rational kind."""
    if family.kind != "rational":
        lams = list(np.asarray(lam, dtype=complex).ravel())
        return [complex(c) for c, _ in family.critical_rows(lams)]
    family.check_nondegenerate(lam)
    n, dd = family._rat_coeffs(lam)
    wr = npoly.polysub(npoly.polymul(npoly.polyder(n), dd),
                       npoly.polymul(n, npoly.polyder(dd)))
    wr = np.trim_zeros(wr, "b")
    if len(wr) == 0:
        raise RootFindingFailure("critical polynomial vanished identically")
    roots = npoly.polyroots(wr)
    if np.any(~np.isfinite(roots)):
        raise RootFindingFailure("critical-point roots did not converge")
    return [complex(c) for c in roots]


def newton(family, lam, seed, *, maxiter):
    """Newton on f(z) = z from the seed.

    Returns (z, iterations) once a step is below NEWTON_TOL relative to
    max(1, |z|), or (None, iterations) when the derivative of f(z) - z
    vanishes (|dg| < 1e-300) or ``maxiter`` runs out.
    """
    f, df = family.map_and_deriv(lam)
    z = complex(seed)
    for it in range(1, maxiter + 1):
        # the complex multiply by 1 sets the sign of a zero part of f'(z)
        # (and turns inf into nan beside it); the solves' bits rest on it
        dg = (1.0 + 0j) * complex(df(z)) - 1.0
        if abs(dg) < 1e-300:
            return None, it
        step = (complex(f(z)) - z) / dg
        z -= step
        if abs(step) < NEWTON_TOL * max(1.0, abs(z)):
            return z, it
    return None, maxiter


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

def _check_shape(v, shape, name):
    """A ValueError that names the first field of the JSON value v that is
    missing or out of shape, or a pattern entry that is a motion pattern.

    A shape is "integer", "number" or "string" (a bool is none of them),
    [shape] for a list, [shape, n] for a list of n entries, or
    {key: shape} for an object, whose other keys are not read."""
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
    elif type(v) not in {"integer": (int,), "number": (int, float), "string": (str,)}[shape]:
        raise ValueError(f"{name} must be a JSON {shape}, got {v!r}")


def family_from_json(doc):
    """Build a MapFamily from its JSON document, a dict.  A
    missing field or a value of the wrong JSON type or count (``num``
    and ``den`` are lists of rows of [re, im] pairs) is a ValueError
    that names it."""
    shape = {"kind": "string", "degree": "integer"}
    if type(doc) is dict and doc.get("kind") == "rational":
        shape.update(num=[[["number", 2]]], den=[[["number", 2]]])
    _check_shape(doc, shape, "family JSON")
    if doc["kind"] == "rational":
        num = [[complex(re, im) for re, im in row] for row in doc["num"]]
        den = [[complex(re, im) for re, im in row] for row in doc["den"]]
        return MapFamily("rational", doc["degree"], num=num, den=den)
    return MapFamily(doc["kind"], doc["degree"])


def family_to_json(family):
    doc = {"kind": family.kind, "degree": family.degree}
    if family.kind == "rational":
        doc["num"] = [[[float(c.real), float(c.imag)] for c in row] for row in family.num]
        doc["den"] = [[[float(c.real), float(c.imag)] for c in row] for row in family.den]
    return doc
