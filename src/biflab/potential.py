"""Green functions of homogeneous lifts, max-entropy sampling and
Lyapunov-exponent estimators.

Normalization: for polynomial kinds the lift is F(u,v) = (v^d p(u/v), v^d),
and per-critical-point Green values are taken at the critical *value*
lift F(c_j, 1).  With this choice G_j coincides with the classical
parameter-space Green function (for z^2+c it is the Mandelbrot-set Green
function, growing like log|c|), G_j >= 0 with equality exactly on bounded
critical orbits, and dd^c of the quadratic G_0 carries unit total mass.

``escape_rate``, stepping with ``MapFamily.power_step``, is the one
escape-rate kernel.  It takes parameter coordinates and a marked
critical index, and starts each orbit at that point's critical value.
The grid scans run it on each block of cells, and
``critical_green_sum`` on one parameter.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CriticalOnOrbit, DegenerateLift
from .families import critical_points
from .rng import counter_choice, counter_key

GREEN_MAXITER = 200
GREEN_TOL = 1e-12
PLANE_BIG = 1e12
PLANE_MAXITER = 2048
# most samples of one Lyapunov estimate: `lyap` at depth 30 peaks at
# 64-65 MB RSS with 10^6 samples, 103-109 MB with 2^22 and 167-168 MB at
# the bound on a 2-core Xeon, about 14 MB per 10^6 (the log-derivatives
# and np.std's one temporary of them) above the import and one block per
# worker; `ddc` at MAX_GRID_CELLS peaks at 429 MB
MAX_SAMPLES = 2 ** 23

# Largest block of a split kernel, in points.  Every worker holds one
# block's temporaries at a time, and each block pays the loop's fixed
# cost per step, so the length trades peak memory against that cost.
# On 2 cores of a Xeon, `ddc` of the README's 1024^2 grid peaked at
# 67-77 MB RSS with 2^16 and at 72-83 MB with 2^17, in about the same
# 0.9-1.2 s; one worker peaked at 63 MB.
_BLOCK = 1 << 16


def _blocks(run, n):
    """Call ``run(lo, hi)`` on contiguous blocks that cover range(n) and
    return the results in block order.

    One worker per CPU the process may run on, and no more workers than
    points: a thread pool made for the call runs the blocks while the
    calling thread waits, and is closed before this returns.  The block
    count is a multiple of the workers, with blocks of at most ``_BLOCK``
    points and at least one block.  With one worker the blocks run
    inline, in order.  Each block runs in a copy of the caller's context,
    so numpy's errstate (a context variable) holds in every block.  The
    exception of the first failing block, in block order, is re-raised
    here with its type, and blocks not yet started are left undone.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(cpus, n))
    count = max(1, workers * -(-n // (workers * _BLOCK)))
    bounds = [(n * i // count, n * (i + 1) // count) for i in range(count)]
    if workers < 2:
        return [run(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(workers, thread_name_prefix="biflab") as pool:
        tasks = [pool.submit(contextvars.copy_context().run, run, lo, hi)
                 for lo, hi in bounds]
        try:
            return [t.result() for t in tasks]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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


def green_at(family, lam, v: LiftVector):
    """Green function G_F of the lift at the given vector.

    Telescoping renormalized iteration: G = log_scale +
    sum_n d^{-(n+1)} log ||F(z_n)|| with z_n rescaled to unit sup-norm.
    It stops once the terms after step n, at most B d^{-(n+1)} / (d - 1)
    with B = ``lift_log_bound``, are below GREEN_TOL (small terms prove
    nothing: inside the unit bidisk each is exactly 0).
    """
    family.check_nondegenerate(lam)
    d = family.degree
    F = family.lift(lam)
    bound = family.lift_log_bound(lam)
    G = v.log_scale
    u, w = v.u, v.v
    converged = False
    for n in range(GREEN_MAXITER):
        U, V = F(u, w)
        s = max(abs(U), abs(V))
        if s < 1e-300:
            raise DegenerateLift("||F|| < 1e-300: resultant is numerically zero")
        G += d ** (-(n + 1)) * math.log(s)
        u, w = U / s, V / s
        if bound * d ** (-(n + 1)) / (d - 1) < GREEN_TOL:
            converged = True
            break
    return GreenValue(value=G, converged=converged)


def escape_rate(family, lams, j, maxiter):
    """Escape-rate Green values g = d^{-n} (log|z_n| + gamma), gamma =
    log|lead| / (d - 1), of marked critical point j at the parameter
    coordinates ``lams`` (m 1-d arrays of one length, as for ``coeff_rows``):
    z_0 is the critical value f(c_j), n the first step with |z_n| >
    PLANE_BIG, and g = 0 where no such n <= ``maxiter`` exists.

    The loop carries only the points still iterated, and retires a point
    whose float orbit repeats exactly: it keeps a copy of z taken at each
    power-of-two step n >= 8, and on every 8th step a point with z equal
    to that copy leaves with g = 0.  This changes no bit of g.  The step
    is a pure function of (z, the point's rows), so z_n == z_m with m < n
    makes the float orbit periodic from step m on; it stayed <= PLANE_BIG
    from m to n and so never passes PLANE_BIG, which is g = 0 at
    ``maxiter``.  NaN never compares equal, so NaN orbits keep iterating;
    orbits that differ only in the sign of a zero have equal magnitudes.
    """
    d = family.degree
    rows = family.coeff_rows(lams)
    z = family.power_step(rows, family.critical_rows(lams)[j][0])
    gamma = math.log(abs(rows[d])) / (d - 1)
    g = np.zeros(z.size)
    idx = np.arange(z.size)
    saved = None
    for n in range(maxiter + 1):
        leave = np.abs(z) > PLANE_BIG
        if np.any(leave):
            g[idx[leave]] = d ** (-float(n)) * (np.log(np.abs(z[leave])) + gamma)
        if saved is not None and n % 8 == 0:
            leave |= z == saved
        if np.any(leave):
            keep = ~leave
            z, idx = z[keep], idx[keep]
            rows = [r[keep] if np.ndim(r) else r for r in rows]
            if saved is not None:
                saved = saved[keep]
        if idx.size == 0 or n == maxiter:
            break
        if n >= 8 and n & (n - 1) == 0:
            saved = z.copy()
        z = family.power_step(rows, z)
    return g


def critical_green_sum(family, lam):
    """Sum over marked critical points of mult_j * G_j(lambda), G_j the
    Green value at the critical value (see the module docstring): the
    scans' kernel on one-point arrays, so G_j has the bits of the scan
    field ``G<j>`` at ``maxiter`` PLANE_MAXITER."""
    lams = list(np.asarray(lam, dtype=complex).reshape(-1, 1))
    total = 0.0
    for j, (_, mult) in enumerate(family.critical_rows(lams)):
        total += mult * float(escape_rate(family, lams, j, PLANE_MAXITER)[0])
    return total


def _backward_orbits(family, lam, keys, depth, seed):
    """Endpoints of the random backward orbits of the uint64 sample
    ``keys``, one block of samples on the calling thread.

    Each orbit has length ``depth`` from the fixed generic start 1+i and
    chooses uniformly among the d preimages with a counter-based RNG
    keyed by (seed, key, step).  After s steps the samples sit on at most
    d^s points, one per distinct prefix of choices.  The block keeps
    those points ``vals`` and the point ``inv[i]`` of each sample, and
    solves the preimages of each point once per step: the pair (choice
    k, point j) names the point's k-th preimage, column j of row k of
    ``preimages``.  A mark array over the d |vals| pairs, read in order,
    numbers the pairs in use, which gives the next ``vals`` and ``inv``;
    once every sample has a point of its own, ``inv`` is a permutation
    and each step solves one point per sample.  Every draw depends on its
    key alone and every preimage on its point's bits alone, so each
    sample ends with the bits of its own orbit, whatever the other keys
    of the block.  The keys are mixed once (``counter_key``) and every
    step draws from them.
    """
    d = family.degree
    key = counter_key(seed, keys)
    vals = np.array([1.0 + 1.0j])
    inv = np.zeros(len(keys), dtype=np.intp)
    for s in range(depth):
        pre = family.preimages(lam, vals)
        pair = counter_choice(key, s, d) * vals.size + inv
        used = np.zeros(d * vals.size, dtype=bool)
        used[pair] = True
        vals = pre.reshape(-1)[used]
        inv = np.cumsum(used)[pair] - 1
    return vals[inv]


def lyapunov_mc(family, lam, n_points, depth, seed):
    """Monte-Carlo Lyapunov exponent against the maximal entropy measure:
    the mean of log|f'| (``MapFamily.log_derivs``) over sample i's
    endpoint of a random backward orbit (``_backward_orbits``, key i),
    for i < ``n_points``.

    The sample range runs in blocks (``_blocks``), each from its draws
    to its log-derivatives, so only the float64 log-derivatives of all
    samples are held at once.  Samples landing within 1e-12 of a
    critical point are redrawn (with a shifted counter seed) and counted
    in ``flagged``; CriticalOnOrbit is raised if any remain after five
    rounds, or else if a log-derivative is not finite.  Every sample's
    bits depend on its key alone, so no split changes a bit of the
    result.  A standard error needs two samples, so ``n_points < 2`` is
    a ValueError; so is ``depth < 1``, which leaves every sample at the
    start point, and a sample count above MAX_SAMPLES.  These are
    checked before anything is allocated, and the critical points are
    found before any draw.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2 for a standard error, got {n_points}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if n_points > MAX_SAMPLES:
        raise ValueError(f"{n_points} samples, above the {MAX_SAMPLES} of MAX_SAMPLES")
    crit = critical_points(family, lam)
    vals = np.empty(n_points)

    def run(lo, hi):
        # (samples redrawn, samples still near-critical after five rounds)
        keys = np.arange(lo, hi, dtype=np.uint64)
        z = _backward_orbits(family, lam, keys, depth, seed)
        flagged = 0
        for round_ in range(1, 6):
            bad = _near_critical(z, crit)
            if not np.any(bad):
                break
            flagged += int(np.sum(bad))
            z[bad] = _backward_orbits(family, lam, keys[bad], depth,
                                      seed + 0x5851F42D * round_)
        else:
            still = int(np.sum(_near_critical(z, crit)))
            if still:
                # refused after the pass, so no log|f'| is taken
                return flagged, still
        vals[lo:hi] = family.log_derivs(lam, z)
        return flagged, 0

    flagged, still = (sum(c) for c in zip(*_blocks(run, n_points)))
    if still:
        raise CriticalOnOrbit(
            f"{still} samples within 1e-12 of a critical point after 5 redraw rounds")
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
