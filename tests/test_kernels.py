"""Bit identity of the shared numerical kernels against the copies they
replaced.

Each reference below is the earlier implementation, kept verbatim as the
oracle: the four Newton loops (``find_periodic``, the cycle and preimage
helpers of the continuation code, the Newton branch of ``_branch_apply``),
the two escape-rate loops (``plane_green`` and the grid scan's), the two
second-difference stencils (``_local_mass`` and the Hessian's ``d2``), and
the rational chart and Taylor-shift code.  Results are compared through
``uint64`` views, so a changed last bit, sign of zero or NaN fails.
"""

import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from biflab import bifgrid, hyperbolic
from biflab.bifgrid import Box, _hessian_fields, _local_mass, scan_field
from biflab.errors import NoConvergence
from biflab.families import NEWTON_TOL, MapFamily, PeriodicPoint, find_periodic, newton
from biflab.potential import plane_green

QUAD = MapFamily("unicritical", 2)
CUBIC = MapFamily("unicritical", 3)
BH3 = MapFamily("branner_hubbard", 3)


def lattes_family():
    return MapFamily("rational", 4,
                     num=[[1], [0], [2], [0], [1]],
                     den=[[0], [-4], [0], [4], [0]])


def same_bits(a, b):
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


# ----------------------------------------------------------------------
# reference Newton loops

def old_find_periodic(family, lam, period, seed):
    if period < 1:
        raise ValueError("period must be >= 1")
    z = complex(seed)
    for _ in range(100):
        w = z
        dw = 1.0 + 0j
        for _ in range(period):
            dw *= complex(family.deriv(lam, w))
            w = complex(family.eval(lam, w))
        g = w - z
        dg = dw - 1.0
        if abs(dg) < 1e-300:
            raise NoConvergence("Newton derivative vanished in find_periodic")
        step = g / dg
        z = z - step
        if abs(step) < NEWTON_TOL * max(1.0, abs(z)):
            break
    else:
        raise NoConvergence("find_periodic: no convergence after 100 iterations")
    tol = NEWTON_TOL * max(1.0, abs(z)) * 10
    minimal = period
    for q in range(1, period):
        if period % q == 0:
            w = z
            for _ in range(q):
                w = complex(family.eval(lam, w))
            if abs(w - z) <= tol:
                minimal = q
                break
    mult = 1.0 + 0j
    w = z
    for _ in range(minimal):
        mult *= complex(family.deriv(lam, w))
        w = complex(family.eval(lam, w))
    return PeriodicPoint(location=z, period=minimal, multiplier=mult)


def old_newton_cycle(family, lam, seed, period, tol=NEWTON_TOL, maxiter=12):
    z = complex(seed)
    for it in range(1, maxiter + 1):
        w, dw = z, 1.0 + 0j
        for _ in range(period):
            dw *= complex(family.deriv(lam, w))
            w = complex(family.eval(lam, w))
        dg = dw - 1.0
        if abs(dg) < 1e-300:
            return None, it
        step = (w - z) / dg
        z -= step
        if abs(step) < tol * max(1.0, abs(z)):
            return z, it
    return None, maxiter


def old_newton_preimage(family, lam, target, seed, tol=NEWTON_TOL, maxiter=12):
    z = complex(seed)
    for it in range(1, maxiter + 1):
        g = complex(family.eval(lam, z)) - target
        dg = complex(family.deriv(lam, z))
        if abs(dg) < 1e-300:
            return None, it
        step = g / dg
        z -= step
        if abs(step) < tol * max(1.0, abs(z)):
            return z, it
    return None, maxiter


def old_branch_apply(family, lam, anchor, w, period, guard=None):
    seed = anchor if guard is None else guard
    if period == 1 and family.kind != "rational":
        pre = np.asarray(family.preimages(lam, complex(w)), dtype=complex)
        dist = np.abs(pre - seed)
        order = np.argsort(dist)
        best = pre[order[0]]
        if len(order) > 1 and dist[order[1]] < 2.0 * dist[order[0]] and dist[order[0]] > 1e-12:
            raise hyperbolic.CoverageError(f"ambiguous branch selection near {seed}")
        return complex(best)
    z = complex(seed)
    for _ in range(60):
        g, dg = z, 1.0 + 0j
        for _ in range(period):
            dg *= complex(family.deriv(lam, g))
            g = complex(family.eval(lam, g))
        step = (g - complex(w)) / dg
        z -= step
        if abs(step) < NEWTON_TOL * max(1.0, abs(z)):
            return z
    raise NoConvergence("branch Newton did not converge")


def outcome(fn, *args, **kw):
    """The result, or the exception type, of one call."""
    try:
        return fn(*args, **kw)
    except (NoConvergence, hyperbolic.CoverageError, ZeroDivisionError) as exc:
        return type(exc)


def same_newton(a, b):
    """(z, iterations) pairs agree: both None or the same bits, and the
    same iteration count."""
    (za, ia), (zb, ib) = a, b
    if za is None or zb is None:
        return za is None and zb is None and ia == ib
    return ia == ib and same_bits(np.complex128(za), np.complex128(zb))


def random_seeds(rng, n, scale):
    return [complex(*(scale * rng.standard_normal(2))) for _ in range(n)]


class TestNewton:
    # (family, lam, period, seed) of the find_periodic tests, then random seeds
    CASES = [(QUAD, [-2.0 + 0j], 1, 1.9 + 0j), (QUAD, [0j], 1, 0.9 + 0j),
             (QUAD, [1j], 2, -1.1 + 0.9j), (QUAD, [-2.0 + 0j], 4, 2.05 + 0j),
             (CUBIC, [0.21 + 0.3j], 3, 0.5 + 0.4j),
             (QUAD, [0j], 1, 0.5 + 0j)]          # f'(1/2) = 1: dg vanishes

    def test_find_periodic(self):
        rng = np.random.default_rng(1)
        cases = list(self.CASES)
        for fam in (QUAD, CUBIC, BH3):
            for _ in range(40):
                lam = random_seeds(rng, fam.param_dim, 1.0)
                cases.append((fam, lam, int(rng.integers(1, 5)), random_seeds(rng, 1, 1.5)[0]))
        failures = 0
        for fam, lam, period, seed in cases:
            old = outcome(old_find_periodic, fam, lam, period, seed)
            new = outcome(find_periodic, fam, lam, period, seed)
            if isinstance(old, type):
                assert new is old
                failures += 1
                continue
            assert new.period == old.period
            assert same_bits(np.complex128(new.location), np.complex128(old.location))
            assert same_bits(np.complex128(new.multiplier), np.complex128(old.multiplier))
        assert failures > 0

    def test_cycle(self):
        # anchors of the Cantor and continuation tests, then random seeds
        rng = np.random.default_rng(2)
        cases = [(QUAD, [-6.0 + 0j], 3.0 + 0j, 1), (QUAD, [-6.0 + 0j], -2.0 + 0j, 1),
                 (QUAD, [-0.5 + 0j], 1.0 + 0j, 1), (QUAD, [-2.0 + 0j], 2.0 + 0j, 1)]
        for fam in (QUAD, CUBIC, BH3):
            for _ in range(60):
                lam = random_seeds(rng, fam.param_dim, 1.0)
                cases.append((fam, lam, random_seeds(rng, 1, 2.0)[0], int(rng.integers(1, 4))))
        cases.append((QUAD, [0j], np.complex128(0.5), 1))    # f'(1/2) = 1: dg vanishes
        nones = 0
        for fam, lam, seed, period in cases:
            for maxiter in (12, 40):
                old = old_newton_cycle(fam, lam, seed, period, maxiter=maxiter)
                new = newton(fam, lam, seed, period, maxiter=maxiter)
                assert same_newton(old, new)
                nones += old[0] is None
        assert nones > 0

    def test_preimage(self):
        # the continuation corrector passes numpy targets; the inverse
        # branch and backward extension pass Python complex ones
        rng = np.random.default_rng(3)
        cases = [(QUAD, [-2.0 + 0j], 2.0 + 0j, 2.0 + 0j), (QUAD, [0j], 1.21 + 0j, 1.0 + 0j),
                 (QUAD, [0j], 0j, 0j), (lattes_family(), [0j], 0.3 + 0.2j, 0.3 + 0.2j)]
        ob = np.array([2.0, 2.0, 2.0], dtype=complex)
        cases += [(QUAD, [-2.0 + 1e-3j], ob[k + 1], ob[k]) for k in range(2)]
        for fam in (QUAD, CUBIC, BH3, lattes_family()):
            for _ in range(60):
                lam = random_seeds(rng, fam.param_dim, 1.0)
                target, seed = random_seeds(rng, 2, 2.0)
                cases.append((fam, lam, np.complex128(target) if _ % 2 else target, seed))
        nones = 0
        for fam, lam, target, seed in cases:
            for maxiter in (12, 40, 60):
                old = old_newton_preimage(fam, lam, target, seed, maxiter=maxiter)
                new = newton(fam, lam, seed, target=target, maxiter=maxiter)
                assert same_newton(old, new)
                nones += old[0] is None
        assert nones > 0

    def test_branch_apply(self):
        rng = np.random.default_rng(4)
        cases = [(QUAD, [-6.0 + 0j], a, w, p, None)
                 for a in (3.0 + 0j, -2.0 + 0j) for w in (3.1 + 0.2j, -2.2 - 0.1j) for p in (1, 2)]
        for fam in (QUAD, CUBIC, lattes_family()):
            for _ in range(40):
                lam = random_seeds(rng, fam.param_dim, 1.0)
                anchor, w, guard = random_seeds(rng, 3, 2.0)
                cases.append((fam, lam, anchor, w, int(rng.integers(1, 3)),
                              guard if _ % 2 else None))
        for fam, lam, anchor, w, period, guard in cases:
            old = outcome(old_branch_apply, fam, lam, anchor, w, period, guard)
            new = outcome(hyperbolic._branch_apply, fam, lam, anchor, w, period, guard)
            if isinstance(old, type):
                assert new is old
            else:
                assert same_bits(np.complex128(new), np.complex128(old))

    def test_cantor_cloud_and_motion(self, monkeypatch):
        cs = hyperbolic.build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 6, period=2)
        moved, anchors = hyperbolic.continue_cantor(cs, [-6.1 + 0.05j], steps=4)
        monkeypatch.setattr(hyperbolic, "_branch_apply", old_branch_apply)
        monkeypatch.setattr(hyperbolic, "newton", lambda fam, lam, seed, period, maxiter:
                            old_newton_cycle(fam, lam, seed, period, maxiter=maxiter))
        cs_old = hyperbolic.build_cantor(QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 6, period=2)
        moved_old, anchors_old = hyperbolic.continue_cantor(cs_old, [-6.1 + 0.05j], steps=4)
        assert same_bits(cs.cloud, cs_old.cloud)
        assert same_bits(moved, moved_old)
        assert same_bits(np.array(anchors), np.array(anchors_old))


# ----------------------------------------------------------------------
# reference escape-rate loops

def old_plane_green(family, lam, z, big=1e12, maxiter=2048):
    if family.kind == "rational":
        raise ValueError("plane_green is defined for polynomial kinds")
    d = family.degree
    coef = family.poly_coeffs(lam)
    gamma = math.log(abs(coef[d])) / (d - 1)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    g = np.zeros(z.shape, dtype=float)
    escaped = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    zz = z.ravel().copy()
    for n in range(maxiter + 1):
        cur = zz[active]
        out = np.abs(cur) > big
        if np.any(out):
            hit = active[out]
            g.ravel()[hit] = d ** (-float(n)) * (np.log(np.abs(zz[hit])) + gamma)
            escaped.ravel()[hit] = True
            active = active[~out]
        if active.size == 0 or n == maxiter:
            break
        zz[active] = np.polynomial.polynomial.polyval(zz[active], coef)
    return g, escaped


def old_grid_green(family, lams, z0, maxiter=512, big=1e12):
    d = family.degree
    lead = 1.0 / d if family.kind == "branner_hubbard" else 1.0
    gamma = math.log(abs(lead)) / (d - 1)
    shape = z0.shape
    g = np.zeros(shape, dtype=float).ravel()
    z = z0.ravel().copy()
    lam_flat = [l.ravel() for l in lams]
    sig_flat = (bifgrid._sigma_arrays(lam_flat[:-1])
                if family.kind == "branner_hubbard" else None)
    active = np.arange(z.size)
    for n in range(maxiter + 1):
        out = np.abs(z[active]) > big
        if np.any(out):
            hit = active[out]
            g[hit] = d ** (-float(n)) * (np.log(np.abs(z[hit])) + gamma)
            active = active[~out]
        if active.size == 0 or n == maxiter:
            break
        cur = [l[active] for l in lam_flat]
        sig = ([s[active] if np.ndim(s) else s for s in sig_flat]
               if sig_flat is not None else None)
        z[active] = bifgrid._grid_apply(family, cur, z[active], sig=sig)
    return g.reshape(shape)


class TestEscapeRate:
    @pytest.mark.parametrize("fam, box, res, fields", [
        (QUAD, Box((-0.5 + 0j,), (2.5,), (2.0,)), 48, ("G0", "L", "activity0")),
        (QUAD, Box((-0.7435 + 0.1314j,), (0.01,)), 32, ("G0",)),
        (BH3, Box((0j, 0.3 + 0.1j), (1.5, 1.2)), 10, ("G0", "G1", "L", "activity1")),
    ], ids=["unicritical2", "unicritical2-zoom", "bh3"])
    def test_scan_field(self, monkeypatch, fam, box, res, fields):
        new = [scan_field(fam, box, res, f, maxiter=200).values for f in fields]
        monkeypatch.setattr(bifgrid, "_grid_green", old_grid_green)
        old = [scan_field(fam, box, res, f, maxiter=200).values for f in fields]
        for a, b in zip(new, old):
            assert same_bits(a, b)

    def test_plane_green(self):
        rng = np.random.default_rng(5)
        for fam in (QUAD, CUBIC, BH3, MapFamily("branner_hubbard", 4)):
            lam = random_seeds(rng, fam.param_dim, 1.0)
            for shape in [(), (7,), (5, 6)]:
                z = 2.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for maxiter in (0, 3, 60, 2048):
                    g, esc = plane_green(fam, lam, z, maxiter=maxiter)
                    g0, esc0 = old_plane_green(fam, lam, z, maxiter=maxiter)
                    assert same_bits(g, g0) and np.array_equal(esc, esc0)
                    assert esc.shape == esc0.shape and esc.dtype == esc0.dtype
        # bounded orbits, and one that escapes on the first test
        g, esc = plane_green(QUAD, [-1.0 + 0j], [0j, -1.0 + 0j, 1e13 + 0j, 2.0 + 0j])
        g0, esc0 = old_plane_green(QUAD, [-1.0 + 0j], [0j, -1.0 + 0j, 1e13 + 0j, 2.0 + 0j])
        assert same_bits(g, g0) and np.array_equal(esc, esc0)
        assert esc.tolist() == [False, False, True, True]


# ----------------------------------------------------------------------
# reference second-difference stencils

def old_local_mass(values, resolution, weights=None):
    u = values
    out = np.zeros_like(u)
    ndim = u.ndim
    if weights is None:
        weights = [1.0] * ndim
    for ax in range(ndim):
        lo = [slice(1, -1) if a == ax else slice(None) for a in range(ndim)]
        up = [slice(2, None) if a == ax else slice(None) for a in range(ndim)]
        dn = [slice(0, -2) if a == ax else slice(None) for a in range(ndim)]
        out[tuple(lo)] += weights[ax] * (u[tuple(up)] + u[tuple(dn)] - 2.0 * u[tuple(lo)])
    mass = out / (2.0 * math.pi)
    for ax in range(ndim):
        edge0 = [0 if a == ax else slice(None) for a in range(ndim)]
        edge1 = [-1 if a == ax else slice(None) for a in range(ndim)]
        mass[tuple(edge0)] = 0.0
        mass[tuple(edge1)] = 0.0
    return mass


def old_hessian_fields(u, h1, h2):
    def d2(a, ax):
        out = np.zeros_like(a)
        ndim = a.ndim
        lo = [slice(1, -1) if b == ax else slice(None) for b in range(ndim)]
        up = [slice(2, None) if b == ax else slice(None) for b in range(ndim)]
        dn = [slice(0, -2) if b == ax else slice(None) for b in range(ndim)]
        out[tuple(lo)] = a[tuple(up)] + a[tuple(dn)] - 2.0 * a[tuple(lo)]
        return out

    def dxy(a, ax, ay):
        out = np.zeros_like(a)
        ndim = a.ndim
        mid = tuple(slice(1, -1) if b in (ax, ay) else slice(None) for b in range(ndim))
        pp = a[tuple(slice(2, None) if b in (ax, ay) else slice(None) for b in range(ndim))]
        mm = a[tuple(slice(0, -2) if b in (ax, ay) else slice(None) for b in range(ndim))]
        pm = a[tuple(slice(2, None) if b == ax else (slice(0, -2) if b == ay else slice(None))
                     for b in range(ndim))]
        mp = a[tuple(slice(0, -2) if b == ax else (slice(2, None) if b == ay else slice(None))
                     for b in range(ndim))]
        out[mid] = (pp + mm - pm - mp) / 4.0
        return out

    A11 = 0.25 * (d2(u, 0) + d2(u, 1)) / h1 ** 2
    A22 = 0.25 * (d2(u, 2) + d2(u, 3)) / h2 ** 2
    A12 = 0.25 * (dxy(u, 0, 2) + dxy(u, 1, 3)
                  + 1j * (dxy(u, 0, 3) - dxy(u, 1, 2))) / (h1 * h2)
    return A11, A22, A12


def spiky(rng, shape):
    """Random values with signed zeros, nan and +-inf sprinkled in."""
    u = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    flat = u.ravel()
    picks = rng.choice(flat.size, size=(4, max(1, flat.size // 50)), replace=False)
    flat[picks[0]] = np.nan
    flat[picks[1]] = np.inf
    flat[picks[2]] = -np.inf
    flat[picks[3]] = -0.0
    return u


class TestStencils:
    @pytest.mark.parametrize("shape", [(9, 9), (16, 11), (6, 7, 5, 6)])
    def test_local_mass(self, shape):
        rng = np.random.default_rng(sum(shape))
        with np.errstate(invalid="ignore"):
            for _ in range(5):
                u = spiky(rng, shape)
                weights = list(rng.uniform(0.2, 3.0, len(shape)))
                assert same_bits(_local_mass(u, weights=weights),
                                 old_local_mass(u, shape[0], weights=weights))
                assert same_bits(_local_mass(u), old_local_mass(u, shape[0]))

    def test_hessian_fields(self):
        rng = np.random.default_rng(6)
        with np.errstate(invalid="ignore"):
            for shape in [(6, 6, 6, 6), (5, 7, 6, 4)]:
                u = spiky(rng, shape)
                for new, old in zip(_hessian_fields(u, 0.1, 0.03),
                                    old_hessian_fields(u, 0.1, 0.03)):
                    assert same_bits(new, old)


# ----------------------------------------------------------------------
# reference rational chart and Taylor-shift code

def old_rat_coeffs(fam, lam):
    lam = complex(np.asarray(lam, dtype=complex).ravel()[0])
    n = np.array([npoly.polyval(lam, row) for row in fam.num], dtype=complex)
    d = np.array([npoly.polyval(lam, row) for row in fam.den], dtype=complex)
    return n, d


def old_rat_eval(fam, lam, z):
    n, d = old_rat_coeffs(fam, lam)
    deg = fam.degree
    n = np.pad(n, (0, deg + 1 - len(n)))
    d = np.pad(d, (0, deg + 1 - len(d)))
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        if abs(z) > 1.0:
            w = 1.0 / z
            return npoly.polyval(w, n[::-1]) / npoly.polyval(w, d[::-1])
        return npoly.polyval(z, n) / npoly.polyval(z, d)
    big = np.abs(z) > 1.0
    out = np.empty_like(z)
    out[~big] = npoly.polyval(z[~big], n) / npoly.polyval(z[~big], d)
    w = 1.0 / z[big]
    out[big] = npoly.polyval(w, n[::-1]) / npoly.polyval(w, d[::-1])
    return out


def old_rat_deriv(fam, lam, z):
    n, d = old_rat_coeffs(fam, lam)
    deg = fam.degree
    n = np.pad(n, (0, deg + 1 - len(n)))
    d = np.pad(d, (0, deg + 1 - len(d)))
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    big = np.abs(z) > 1.0
    zs = z[~big]
    nv = npoly.polyval(zs, n)
    dv = npoly.polyval(zs, d)
    out[~big] = (npoly.polyval(zs, npoly.polyder(n)) * dv
                 - nv * npoly.polyval(zs, npoly.polyder(d))) / dv ** 2
    w = 1.0 / z[big]
    nr, dr = n[::-1], d[::-1]
    nv = npoly.polyval(w, nr)
    dv = npoly.polyval(w, dr)
    out[big] = -w ** 2 * (npoly.polyval(w, npoly.polyder(nr)) * dv
                          - nv * npoly.polyval(w, npoly.polyder(dr))) / dv ** 2
    return out[0] if scalar else out


def old_rat_preimages(fam, lam, w):
    d = fam.degree
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    n, dd = old_rat_coeffs(fam, lam)
    n = np.pad(n, (0, d + 1 - len(n)))
    dd = np.pad(dd, (0, d + 1 - len(dd)))
    coefs = n[None, :] - w[:, None] * dd[None, :]
    lead = coefs[:, -1]
    comp = np.zeros((len(w), d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -coefs[:, :-1] / lead[:, None]
    roots = np.linalg.eigvals(comp).T
    order = np.lexsort((roots.imag, roots.real), axis=0)
    roots = np.take_along_axis(roots, order, axis=0)
    return roots[:, 0] if scalar else roots


def old_local_series(fam, lam, w, order):
    w = complex(w)
    shift = np.array([w, 1.0], dtype=complex)
    if fam.kind != "rational":
        coef = fam.poly_coeffs(lam)
        out = np.zeros(order + 1, dtype=complex)
        acc = np.array([1.0 + 0j])
        for k, c in enumerate(coef):
            m = min(order + 1, len(acc))
            out[:m] += c * acc[:m]
            acc = npoly.polymul(acc, shift)[: order + 2]
        return out
    n, d = old_rat_coeffs(fam, lam)

    def shifted(c):
        out = np.zeros(order + 1, dtype=complex)
        acc = np.array([1.0 + 0j])
        for k, ck in enumerate(c):
            m = min(order + 1, len(acc))
            out[:m] += ck * acc[:m]
            acc = npoly.polymul(acc, shift)[: order + 2]
        return out

    ns, ds = shifted(n), shifted(d)
    q = np.zeros(order + 1, dtype=complex)
    for k in range(order + 1):
        acc = ns[k]
        for j in range(1, k + 1):
            if j < len(ds):
                acc -= ds[j] * q[k - j]
        q[k] = acc / ds[0]
    return q


def chart_points(rng):
    """Random points at several scales plus the chart seam |z| = 1 and 0."""
    pts = list(2.0 ** rng.integers(-6, 7, 200) * (rng.standard_normal(200)
                                                 + 1j * rng.standard_normal(200)))
    pts += [1.0 + 0j, -1.0 + 0j, 1j, -1j, np.exp(0.7j), 0j, 1e-300 + 0j, 3e5 - 2e5j]
    return np.array(pts, dtype=complex)


class TestRational:
    def test_eval_deriv_batched(self):
        rng = np.random.default_rng(7)
        fam = lattes_family()
        with np.errstate(divide="ignore", invalid="ignore"):
            for lam in ([0j], [0.3 - 0.1j]):
                z = chart_points(rng)
                for arg in (z, z[:-8].reshape(8, 25), z[-8:].reshape(2, 4)):
                    assert same_bits(fam.eval(lam, arg), old_rat_eval(fam, lam, arg))
                    assert same_bits(fam.deriv(lam, arg), old_rat_deriv(fam, lam, arg))

    def test_eval_deriv_scalar(self):
        # for |z| > 1 the old 0-d eval branch ran numpy-scalar arithmetic,
        # which rounds differently from the array loops that a batched
        # eval and every deriv use; a scalar now takes the batched path,
        # so eval(z) and eval([z])[0] agree bit for bit
        rng = np.random.default_rng(8)
        fam = lattes_family()
        with np.errstate(divide="ignore", invalid="ignore"):
            for z in chart_points(rng):
                new = fam.eval([0j], z)
                assert isinstance(new, np.complex128)
                if abs(z) <= 1.0:
                    assert same_bits(new, old_rat_eval(fam, [0j], z))
                assert same_bits(new, old_rat_eval(fam, [0j], z[None])[0])
                new = fam.deriv([0j], z)
                assert isinstance(new, np.complex128)
                assert same_bits(new, old_rat_deriv(fam, [0j], z))

    def test_preimages(self):
        rng = np.random.default_rng(9)
        fam = lattes_family()
        for lam in ([0j], [0.2 + 0.1j]):
            z = chart_points(rng)
            z = z[np.isfinite(z) & (z != 0)]
            assert same_bits(fam.preimages(lam, z), old_rat_preimages(fam, lam, z))
            for w in z[-6:]:
                assert same_bits(fam.preimages(lam, w), old_rat_preimages(fam, lam, w))


class TestLocalSeries:
    def test_unicritical2(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            lam = [complex(*rng.standard_normal(2))]
            w = complex(*(3.0 * rng.standard_normal(2)))
            for order in (1, 2, 5, 16):
                assert same_bits(QUAD.local_series(lam, w, order),
                                 old_local_series(QUAD, lam, w, order))

    def test_polynomial_and_rational(self):
        rng = np.random.default_rng(11)
        for fam in (CUBIC, BH3, lattes_family()):
            for _ in range(50):
                lam = [complex(*rng.standard_normal(2)) for _ in range(fam.param_dim)]
                w = complex(*(2.0 * rng.standard_normal(2)))
                assert same_bits(fam.local_series(lam, w, 8),
                                 old_local_series(fam, lam, w, 8))
