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

import contextvars
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import CriticalOnOrbit, DegenerateLift, PreimageFailure
from .rng import counter_choice

GREEN_MAXITER = 200
PLANE_BIG = 1e12
PLANE_MAXITER = 2048

# Largest block of a split kernel, in points.  Every worker holds one
# block's temporaries at a time, and each block pays the loop's fixed
# cost per step, so the length trades peak memory against that cost.
# On 2 cores, 2^17 scanned a 1024^2 grid about 0.04 s faster, but the
# freed block temporaries that the pool thread's malloc arena keeps
# raised the peak RSS of `ddc` at that size above the serial loop's;
# 2^16 keeps it below.
_BLOCK = 1 << 16

# the pool threads of _blocks, made on its first split with one thread
# per CPU but one; the calling thread is the last worker
_pool = None
_pool_lock = threading.Lock()


def _blocks(run, n):
    """Call ``run(lo, hi)`` on contiguous blocks that cover range(n) and
    return the results in block order.

    One worker per CPU the process may run on, and no more workers than
    points: the calling thread and workers - 1 pool threads take blocks
    from a shared queue.  The block count is a multiple of the workers,
    with blocks of at most ``_BLOCK`` points.  With one worker
    ``run(0, n)`` runs inline.  Each pool task runs in a copy of the
    caller's context, so numpy's errstate (a context variable) holds in
    every block.  An exception raised in a block is re-raised here with
    its type (the calling thread's, if blocks of several threads fail),
    and blocks not yet started are left undone.
    """
    global _pool
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, n)
    if workers < 2:
        return [run(0, n)]
    count = workers * -(-n // (workers * _BLOCK))
    bounds = [(n * i // count, n * (i + 1) // count) for i in range(count)]
    todo = queue.SimpleQueue()
    for i in range(count):
        todo.put(i)
    results = [None] * count
    failed = threading.Event()

    def drain():
        while not failed.is_set():
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            try:
                results[i] = run(*bounds[i])
            except BaseException:
                failed.set()
                raise

    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="biflab")
    tasks = [_pool.submit(contextvars.copy_context().run, drain)
             for _ in range(workers - 1)]
    try:
        drain()
    finally:
        # a task that has not started would find the queue empty
        for t in tasks:
            t.cancel()
        wait(tasks)
    for t in tasks:
        if not t.cancelled():
            t.result()
    return results


@dataclass(frozen=True)
class LiftVector:
    """A point of C^2 \\ {0} stored as e^{log_scale} * (u, v) with
    max(|u|, |v|) = 1."""
    u: complex
    v: complex
    log_scale: float = 0.0

    @staticmethod
    def of(u, v):
        s = max(abs(u), abs(v))
        if s == 0.0:
            raise ValueError("lift vector cannot be (0, 0)")
        return LiftVector(u / s, v / s, math.log(s))


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


def escape_rate(z0, step, degree, gamma, maxiter, args=()):
    """Escape-rate values g = d^{-n} (log|z_n| + gamma) at the first n
    with |z_n| > PLANE_BIG, for every orbit z_0 = z0[i], z_{n+1} = step(z_n).

    ``step(z, *args)`` returns the images of the points z that are still
    iterated; ``args`` are per-point flat arrays (parameters of the step),
    the size of z0, and reach the step compacted together with z.  Returns
    g (shape of z0, 0 where the orbit never passes PLANE_BIG within
    ``maxiter`` steps) and the sorted flat indices of those non-escaping
    points.

    The loop carries only the points still iterated, and retires a point
    whose float orbit repeats exactly: it keeps a copy of z taken at each
    power-of-two step n >= 8, and on every 8th step a point with z equal
    to that copy leaves with g = 0.  This changes no bit of g.  The step
    is a pure function of (z, the point's args), so z_n == z_m with m < n
    makes the float orbit periodic from step m on; it stayed <= PLANE_BIG
    from m to n and so never passes PLANE_BIG, which is g = 0 at
    ``maxiter``.  NaN never compares equal, so NaN orbits keep iterating;
    orbits that differ only in the sign of a zero have equal magnitudes.

    The points are split into contiguous index blocks (``_blocks``), each
    run through this loop on its own.  A point's orbit, its exit step
    and the steps at which its z is saved depend only on the point, so
    the split changes no bit of g, and the blocks' bounded indices,
    concatenated in block order, are the sorted indices of one loop.
    """
    flat = z0.ravel()
    g = np.zeros(flat.size, dtype=float)

    def run(lo, hi):
        z = flat[lo:hi].copy()
        idx = np.arange(lo, hi)
        cur = [a[lo:hi] for a in args]
        saved = None
        retired = []
        for n in range(maxiter + 1):
            leave = np.abs(z) > PLANE_BIG
            if np.any(leave):
                hit = idx[leave]
                g[hit] = degree ** (-float(n)) * (np.log(np.abs(z[leave])) + gamma)
            if saved is not None and n % 8 == 0:
                cycled = z == saved
                if np.any(cycled):
                    retired.append(idx[cycled])
                    leave |= cycled
            if np.any(leave):
                keep = ~leave
                z, idx = z[keep], idx[keep]
                cur = [a[keep] for a in cur]
                if saved is not None:
                    saved = saved[keep]
            if idx.size == 0 or n == maxiter:
                break
            if n >= 8 and n & (n - 1) == 0:
                saved = z.copy()
            z = step(z, *cur)
        return np.sort(np.concatenate(retired + [idx])) if retired else idx

    bounded = np.concatenate(_blocks(run, flat.size))
    return g.reshape(z0.shape), bounded


def plane_green(family, lam, z, maxiter=PLANE_MAXITER):
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
    g, bounded = escape_rate(z, lambda zz: npoly.polyval(zz, coef), d, gamma, maxiter)
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
    the d preimages with a counter-based RNG keyed by (seed, index,
    step).  The index range is split into blocks that run their orbits
    on separate threads (``_blocks``); every draw depends on its key
    alone, so the samples do not depend on the split.
    """
    if n_points < 0:
        raise ValueError(f"n_points must be >= 0, got {n_points}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return _backward_orbits(family, lam, np.arange(n_points, dtype=np.uint64), depth, seed)


def _backward_orbits(family, lam, idx, depth, seed):
    """Endpoints of the random backward orbits of sample indices ``idx``."""
    d = family.degree
    out = np.empty(len(idx), dtype=complex)

    def run(lo, hi):
        keys = idx[lo:hi]
        cols = np.arange(hi - lo)
        z = np.full(hi - lo, 1.0 + 1.0j, dtype=complex)
        for s in range(depth):
            pre = family.preimages(lam, z)
            if pre.shape[0] != d:
                raise PreimageFailure(f"expected {d} preimages, got {pre.shape[0]}")
            z = pre[counter_choice(seed, keys, s, d), cols]
        out[lo:hi] = z

    _blocks(run, len(idx))
    return out


def lyapunov_mc(family, lam, n_points, depth, seed):
    """Monte-Carlo Lyapunov exponent against the maximal entropy measure.

    Samples landing within 1e-12 of a critical point are redrawn (with a
    shifted counter key) and counted in ``flagged``; CriticalOnOrbit is
    raised if any remain after five rounds, or if a log-derivative is
    not finite.  The derivative is measured in the affine chart; the
    spherical correction is applied only for the rational kind.  A
    standard error needs two samples, so ``n_points < 2`` is a ValueError;
    so is ``depth < 1``, which leaves every sample at the start point.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2 for a standard error, got {n_points}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
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
        z[idx] = _backward_orbits(family, lam, idx.astype(np.uint64), depth,
                                  seed + 0x5851F42D * round_)
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
