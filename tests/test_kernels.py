"""Bit identity of the shared numerical kernels against the copies they
replaced.

Each reference below is the earlier implementation, kept verbatim as the
oracle: the two Newton loops (the cycle solve of the deleted
``find_periodic`` and the cycle helper of the continuation code), the
grid scan's escape-rate loop, with its old coefficient recurrence,
power-form step and meshgrid of parameters, which also serves as the
oracle of the one kernel at parameters off any grid, the two
second-difference stencils (``_local_mass`` and the Hessian's ``d2``
and ``dxy``) and the wedge measure with its cell-count warning,
the rational chart and Taylor-shift code, the per-point Cantor cloud loop
(its branch cut down to the nearest-preimage path, which every kind now
takes), coverage check and coded orbit, the ``csv``-module cloud reader, the
``np.unique`` box count, and the activity map and finite-difference
Jacobian that ran one chain of scalar ``eval`` calls per parameter, and
the Misiurewicz landing checks (closure gap, cycle multiplier and
m_n^+ profile) that each walked the critical orbit from scratch.  The
escape-rate references also pin the compacted loop that retires exactly
repeating orbits early, and they, the Cantor and the activity references
pin the files the CLI writes; the activity references also pin the
c05 and c12 certificates, and the landing references pin them with
their verify reports.  The block-split tests run the sampler and the
grid scan on 1, 2 and 3 CPUs with blocks shrunk so that small
inputs split, against the same references; the sampler's reference is
the loop that solved the preimages of every sample at every step, and
the shared-prefix tests also count the points the sampler solves.
The box's axis spans, cell sizes and the bisection that found a radial
window are the oracles of ``Box.axes``, ``Box.cell_sizes`` and
``radial_window``.
The Gaussian mollifier and the nearest-neighbor spacing of the box count
are compared with the scipy calls they replaced, ``gaussian_filter`` and
``cKDTree.query``.
The stencils and radial masses run by row blocks, and their tests cross
block edges: against the second-difference references, the wedge's
roundoff warning rule on whole-grid Hessians (``old_wedge_warns``) and
the radial masses of whole-array distances and masks
(``old_radial_masses``).
The Aberth-Ehrlich preimage solve of the rational and Branner-Hubbard
kinds changed bits on purpose, so it is compared with the companion
eigenvalue solve it replaced (``old_rat_preimages``,
``old_companion_preimages``) and with mpmath's 50-digit ``polyroots``
within stated tolerances; only its fallback rows keep eigvals' bits.
Results are compared through ``uint64`` views, so a changed last bit,
sign of zero or NaN fails.
"""

import bisect
import csv
import dataclasses
import json
import math
import os
import sys
import threading
import time
import types
import warnings

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import gaussian_filter
from scipy.spatial import cKDTree

from biflab import bifgrid, cli, families, hyperbolic, misiurewicz, potential
from biflab import io as bio
from biflab.bifgrid import Box, _hessian_fields, _local_mass, scan_field
from biflab.cli import main
from biflab.errors import (
    BiflabError,
    CriticalOnOrbit,
    NoConvergence,
    NonRepellingTarget,
    NotPlurisubharmonic,
    ResolutionExceeded,
    RootFindingFailure,
)
from biflab.families import (
    NEWTON_TOL,
    MapFamily,
    critical_points,
    multiplier as segment_multiplier,
    newton,
    orbit,
)
from biflab.misiurewicz import FD_STEP, ActivitySpec, Preperiodic
from biflab.rng import counter_choice

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
    """The cycle solve of the deleted ``find_periodic``: its location."""
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
    return z


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


def old_branch_apply(family, lam, anchor, w, guard=None):
    """The polynomial-kind path of the old per-point ``_branch_apply``."""
    seed = anchor if guard is None else guard
    pre = np.asarray(family.preimages(lam, complex(w)), dtype=complex)
    dist = np.abs(pre - seed)
    order = np.argsort(dist)
    best = pre[order[0]]
    if len(order) > 1 and dist[order[1]] < 2.0 * dist[order[0]] and dist[order[0]] > 1e-12:
        raise hyperbolic.CoverageError(f"ambiguous branch selection near {seed}")
    return complex(best)


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
    # (family, lam, seed) of the fixed-point tests, then random seeds;
    # the references solve at period 1
    CASES = [(QUAD, [-2.0 + 0j], 1.9 + 0j), (QUAD, [0j], 0.9 + 0j),
             (QUAD, [0j], 0.5 + 0j)]          # f'(1/2) = 1: dg vanishes

    def test_find_periodic(self):
        rng = np.random.default_rng(1)
        cases = list(self.CASES)
        for fam in (QUAD, CUBIC, BH3):
            for _ in range(40):
                lam = random_seeds(rng, fam.param_dim, 1.0)
                cases.append((fam, lam, random_seeds(rng, 1, 1.5)[0]))
        failures = 0
        for fam, lam, seed in cases:
            # ``newton`` at the old routine's budget of 100 iterations
            old = outcome(old_find_periodic, fam, lam, 1, seed)
            new, _ = newton(fam, lam, seed, maxiter=100)
            if isinstance(old, type):
                assert new is None
                failures += 1
            else:
                assert same_bits(np.complex128(new), np.complex128(old))
        assert failures > 0

    def test_cycle(self):
        # anchors of the Cantor and continuation tests, then random seeds
        rng = np.random.default_rng(2)
        cases = [(QUAD, [-6.0 + 0j], 3.0 + 0j), (QUAD, [-6.0 + 0j], -2.0 + 0j),
                 (QUAD, [-0.5 + 0j], 1.0 + 0j), (QUAD, [-2.0 + 0j], 2.0 + 0j)]
        for fam in (QUAD, CUBIC, BH3):
            for _ in range(60):
                lam = random_seeds(rng, fam.param_dim, 1.0)
                cases.append((fam, lam, random_seeds(rng, 1, 2.0)[0]))
        cases.append((QUAD, [0j], np.complex128(0.5)))    # f'(1/2) = 1: dg vanishes
        nones = 0
        for fam, lam, seed in cases:
            for maxiter in (12, 40):
                old = old_newton_cycle(fam, lam, seed, 1, maxiter=maxiter)
                new = newton(fam, lam, seed, maxiter=maxiter)
                assert same_newton(old, new)
                nones += old[0] is None
        assert nones > 0

    def test_branch_apply(self):
        rng = np.random.default_rng(4)
        cases = [(QUAD, [-6.0 + 0j], a, w, None)
                 for a in (3.0 + 0j, -2.0 + 0j) for w in (3.1 + 0.2j, -2.2 - 0.1j)]
        for fam in (QUAD, CUBIC, lattes_family()):
            for _ in range(40):
                lam = random_seeds(rng, fam.param_dim, 1.0)
                anchor, w, guard = random_seeds(rng, 3, 2.0)
                cases.append((fam, lam, anchor, w, guard if _ % 2 else None))
        lattes = 0
        for fam, lam, anchor, w, guard in cases:
            seed = anchor if guard is None else guard
            new = outcome(hyperbolic._branch_apply, fam, lam, seed, w)
            if fam.kind == "rational":
                # a Lattes row takes the preimage nearest the seed, or refuses
                if new is not hyperbolic.CoverageError:
                    z = complex(new[0])
                    pre = fam.preimages(lam, w)
                    assert abs(complex(fam.eval(lam, z)) - w) <= 1e-12 * max(1.0, abs(w))
                    assert z == pre[np.argmin(np.abs(pre - seed))]
                    lattes += 1
                continue
            old = outcome(old_branch_apply, fam, lam, anchor, w, guard)
            if isinstance(old, type):
                assert new is old
            else:
                assert same_bits(np.complex128(new), np.complex128(old))
        assert lattes > 0, "no Lattes row took a branch"


# ----------------------------------------------------------------------
# reference Cantor cloud code: the per-point cloud loop, coverage check and
# coded orbit, the csv-module cloud reader and the np.unique box count

def old_branch_map(family, lam, anchor, w, guard=None):
    """old_branch_apply point by point, in the array form of the current
    ``_branch_apply``."""
    return np.array([old_branch_apply(family, lam, anchor, x, guard)
                     for x in np.atleast_1d(w)], dtype=complex)


def old_build_cloud(family, lam, anchors, depth):
    g = len(anchors)
    if depth == 0:
        return np.array(anchors, dtype=complex), np.zeros((g, 0), dtype=np.int64)
    pts = list(anchors)
    words = [[j] for j in range(g)]
    for _ in range(depth - 1):
        new_pts, new_words = [], []
        for p, u in zip(pts, words):
            for j in range(g):
                new_pts.append(old_branch_apply(family, lam, anchors[j], p))
                new_words.append([j] + u)
        pts, words = new_pts, new_words
    return np.array(pts, dtype=complex), np.array(words, dtype=np.int64)


def old_check_coverage(family, lam, anchors, radius):
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    for j, aj in enumerate(anchors):
        for ak in anchors:
            for w in ak + radius * ring:
                x = old_branch_apply(family, lam, aj, w)
                if abs(x - aj) > radius:
                    raise hyperbolic.CoverageError(
                        f"branch {j} image of the disk at {ak} leaves its own disk")


def old_coverage_radius(family, lam, anchors):
    sep = min(abs(anchors[i] - anchors[j])
              for i in range(len(anchors)) for j in range(i + 1, len(anchors)))
    for frac in (0.49, 0.45, 0.35, 0.25, 0.15):
        try:
            old_check_coverage(family, lam, anchors, frac * sep)
            return frac * sep
        except hyperbolic.CoverageError:
            pass
    return None


def old_coded_orbit(cantor, word, length):
    """The orbit of the point of ``word`` (a row of old_build_cloud's words)."""
    family, lam = cantor.family, cantor.lam
    anchors = cantor.anchors
    word = list(word)
    pts = np.empty(length + 1, dtype=complex)
    for k in range(length + 1):
        suffix = word[min(k, len(word) - 1):]
        p = complex(anchors[suffix[-1]])
        for j in range(len(suffix) - 2, -1, -1):
            p = old_branch_apply(family, lam, anchors[suffix[j]], p)
        pts[k] = p
    return pts


def old_read_cloud_csv(path):
    out = []
    with open(path, newline="") as f:
        r = csv.DictReader(f)
        for row in r:
            out.append(float(row["re"]) + 1j * float(row["im"]))
    return np.array(out, dtype=complex)


def old_box_dimension(points, scales, min_points=1000):
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) < min_points:
        raise ValueError(f"need >= {min_points} points, got {len(pts)}")
    scales = np.asarray(sorted(set(float(s) for s in scales), reverse=True))
    from scipy.spatial import cKDTree
    xy = np.column_stack([pts.real, pts.imag])
    tree = cKDTree(xy)
    dd, _ = tree.query(xy[: min(len(xy), 2000)], k=2)
    spacing = float(np.median(dd[:, 1]))
    usable = scales[scales >= 2.0 * spacing]
    if len(usable) < 4:
        raise bifgrid.InsufficientScales(
            f"only {len(usable)} scales above 2x point spacing {spacing:.3g}")
    counts = []
    for eps in usable:
        cells = np.unique(np.floor(xy / eps).astype(np.int64), axis=0)
        counts.append(len(cells))
    slope, stderr = bifgrid._ols(np.log(1.0 / usable), np.log(counts))
    return bifgrid.DimensionEstimate(slope=slope, stderr=stderr,
                                     fit_range=(float(usable[0]), float(usable[-1])),
                                     n_points=len(usable))


def cantor_case(name):
    """(family, parameter, anchors) of a two-generator Cantor set."""
    if name == "unicritical2":
        return QUAD, [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j]
    if name == "unicritical3":       # z^3 - 6 fixes 2 and -1 +- i sqrt 2
        return CUBIC, [-6.0 + 0j], [2.0 + 0j, complex(-1.0, math.sqrt(2.0))]
    lam = [0.5 + 0.2j, 2.0 + 0j]
    return BH3, lam, [newton(BH3, lam, s, maxiter=100)[0] for s in (3.0 + 0j, -1.0 + 2j)]


def same_cloud(cloud, old, g):
    """A cloud agrees bit for bit with old_build_cloud's (points, words),
    and the old word of point p is p in base g, least significant first."""
    pts, words = old
    digits = np.arange(len(pts))[:, None] // g ** np.arange(words.shape[1]) % g
    return same_bits(cloud, pts) and np.array_equal(words, digits)


class TestCantorCloud:
    CASES = ["unicritical2", "unicritical3", "bh3"]

    @pytest.mark.parametrize("name", CASES)
    def test_cloud_and_words(self, name):
        fam, lam, anchors = cantor_case(name)
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        for depth in (0, 1, 2, 10, 14):
            assert same_cloud(hyperbolic._build_cloud(fam, lam, anchors, depth),
                              old_build_cloud(fam, lam, anchors, depth), len(anchors))

    def test_branch_apply_arrays(self):
        # one array call gives every point's old result, or the old error;
        # the targets near the critical value -6 have preimages closer to
        # the seed 0 than 1e-12, which the ambiguity test lets through
        rng = np.random.default_rng(14)
        lam = [-6.0 + 0j]
        near_critical = -6.0 + np.array([1e-30j, 1e-26j, -1e-25j, 0.0])
        spread = 3.0 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        for seed, w in [(0j, near_critical), (3.0 + 0j, spread[:1]), (3.0 + 0j, spread),
                        (-2.0 + 0j, spread), (0j, np.concatenate([near_critical, spread]))]:
            new = outcome(hyperbolic._branch_apply, QUAD, lam, seed, w)
            old = outcome(old_branch_map, QUAD, lam, seed, w)
            if isinstance(old, type):
                assert new is old
            else:
                assert same_bits(new, old)

    def test_lattes_anchors_are_coverage_error(self):
        # the Lattes map fixes +-sqrt(1 + 2/sqrt(3)), both repelling; from
        # either anchor some ring target has two preimages about as near,
        # so every disk radius is refused
        a = math.sqrt(1.0 + 2.0 / math.sqrt(3.0))
        with pytest.raises(hyperbolic.CoverageError,
                           match="no admissible disk radius found: ambiguous branch"):
            hyperbolic.build_cantor(lattes_family(), [0j], [a + 0j, -a + 0j], 6)

    @pytest.mark.parametrize("name", CASES)
    def test_coverage_radius(self, name):
        fam, lam, anchors = cantor_case(name)
        eta = old_coverage_radius(fam, np.atleast_1d(np.asarray(lam, dtype=complex)),
                                  anchors)
        assert eta is not None
        assert hyperbolic.build_cantor(fam, lam, anchors, 1).eta == eta

    @pytest.mark.parametrize("lam, anchors", [
        ([-6.0 + 0j], [3.0 + 0j, -2.0 + 0j]),
        ([-6.0 + 0j], [-2.0 + 0j, 3.0 + 0j]),
        # the rings of the 0.49 radius pass near the critical value -3
        ([-3.0 + 0j], [(1 + math.sqrt(13)) / 2 + 0j, (1 - math.sqrt(13)) / 2 + 0j]),
    ], ids=["beta-first", "alpha-first", "near-critical"])
    def test_coverage_failures(self, lam, anchors):
        # the same radii pass or fail, with the same error and message
        sep = abs(anchors[0] - anchors[1])
        failures = 0
        for frac in (0.002, 0.01, 0.04, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49):
            radius = frac * sep
            try:
                old_check_coverage(QUAD, np.array(lam), anchors, radius)
                old = None
            except hyperbolic.CoverageError as exc:
                old = str(exc)
            try:
                hyperbolic._check_coverage(QUAD, lam, anchors, radius)
                new = None
            except hyperbolic.CoverageError as exc:
                new = str(exc)
            assert new == old
            failures += old is not None
        assert failures > 0

    def test_ambiguous_branch(self):
        # both preimages of every target are about as close to 0.1 as
        # each other: the level step still raises CoverageError
        lam = np.array([-6.0 + 0j])
        anchors = [0.1 + 0j, -0.1 + 0j]
        with pytest.raises(hyperbolic.CoverageError, match="ambiguous") as new:
            hyperbolic._build_cloud(QUAD, lam, anchors, 3)
        with pytest.raises(hyperbolic.CoverageError) as old:
            old_build_cloud(QUAD, lam, anchors, 3)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("name", ["unicritical2", "bh3"])
    def test_continue_cantor(self, name):
        # a cloud moved with its anchors, each continued as a repelling
        # fixed point, and rebuilt at the target parameter
        fam, lam, anchors = cantor_case(name)
        lam1 = np.array([lam[0] + 0.02 - 0.01j] + lam[1:])
        moved = [hyperbolic.continue_orbit(fam, lam, lam1, a) for a in anchors]
        assert same_cloud(hyperbolic._build_cloud(fam, lam1, moved, 8),
                          old_build_cloud(fam, lam1, moved, 8), len(moved))

    def test_coded_orbit(self):
        fam, lam, anchors = cantor_case("unicritical2")
        cs = hyperbolic.build_cantor(fam, lam, anchors, 8)
        words = old_build_cloud(fam, cs.lam, cs.anchors, 8)[1]
        for index in range(len(cs.cloud)):
            for length in (3, 12):
                assert same_bits(hyperbolic.coded_orbit(cs, index, length),
                                 old_coded_orbit(cs, words[index], length))


class TestCloudReadAndCount:
    def test_read_cloud_csv(self, tmp_path):
        # every finite nonzero coordinate reads back as the old reader did
        rng = np.random.default_rng(12)
        parts = (rng.uniform(1.0, 10.0, (2, 5000)) * rng.choice([-1.0, 1.0], (2, 5000))
                 * 10.0 ** rng.integers(-300, 300, (2, 5000)))
        parts[:, :20] = 5e-324 * rng.integers(-1000, 1000, (2, 20)) + 1e-310
        pts = np.empty(5000, dtype=complex)
        pts.real, pts.imag = parts
        path = tmp_path / "cloud.csv"
        bio.write_cloud_csv(path, pts)
        assert same_bits(bio.read_cloud_csv(path), old_read_cloud_csv(path))
        assert same_bits(bio.read_cloud_csv(path), pts)

    def test_box_dimension(self):
        fam, lam, anchors = cantor_case("unicritical2")
        cloud = hyperbolic._build_cloud(fam, np.array(lam), anchors, 14)
        rng = np.random.default_rng(13)
        lattice = (rng.integers(-50, 50, 3000) + 1j * rng.integers(-50, 50, 3000)) / 64.0
        clouds = [(cloud, 2.0 ** -np.arange(2, 9)), (cloud, 3.0 ** -np.arange(1, 7)),
                  (lattice, 2.0 ** -np.arange(0, 6)),
                  (rng.standard_normal(4000) + 1j * rng.standard_normal(4000),
                   2.0 ** -np.arange(-1, 6))]
        for pts, scales in clouds:
            new, old = bifgrid.box_dimension(pts, scales), old_box_dimension(pts, scales)
            assert same_bits(np.array([new.slope, new.stderr, *new.fit_range]),
                             np.array([old.slope, old.stderr, *old.fit_range]))
            assert new.n_points == old.n_points


def same_or_both_nan(a, b):
    """Bit identity, except that a NaN matches a NaN of any sign or payload."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and same_bits(a[~nan], b[~nan]))


class TestScipyReplacements:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           data=st.data(), seed=st.integers(0, 2 ** 32 - 1), special=st.booleans())
    def test_gaussian(self, shape, data, seed, special):
        # sigma 0 skips an axis; a sigma of 5 reaches 10 cells past a 9-cell axis
        sigmas = data.draw(st.lists(st.sampled_from([0.0, 0.2, 0.7, 1.3, 3.0, 5.0])
                                    | st.floats(0.01, 6.0),
                                    min_size=len(shape), max_size=len(shape)))
        rng = np.random.default_rng(seed)
        u = np.exp(rng.uniform(-20.0, 20.0, shape)) * rng.choice([-1.0, 1.0], shape)
        if special:
            cells = rng.integers(0, u.size, 3)
            u.flat[cells] = [np.inf, -np.inf, np.nan]
        with np.errstate(invalid="ignore", over="ignore"):
            ref = gaussian_filter(u, sigma=sigmas, mode="nearest", truncate=2.0)
        assert same_or_both_nan(bifgrid._gaussian(u, sigmas), ref)

    def test_mollify_of_the_wedge_field(self):
        # the grid-deep wedge: a 24^4 G0 field of bh3 and radius 0.2
        box = Box((1.7 + 0.4j, 1.6 + 0.5j), (0.4, 0.4))
        field = scan_field(BH3, box, 24, "G0", maxiter=256)
        h1, h2 = box.cell_sizes(24)[::2]
        sigmas = [0.2 / (2.0 * h1)] * 2 + [0.2 / (2.0 * h2)] * 2
        ref = gaussian_filter(field.values, sigma=sigmas, mode="nearest", truncate=2.0)
        assert same_or_both_nan(bifgrid._mollify(field.values, box, 24, 0.2), ref)

    @staticmethod
    def clouds():
        rng = np.random.default_rng(21)
        fam, lam, anchors = cantor_case("unicritical2")
        th = 2 * np.pi * np.arange(5000) / 5000
        line = np.linspace(0.0, 1.0, 3000)
        centers = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        base = rng.random(1500) + 1j * rng.random(1500)
        # 1200 points share x = 0 in shuffled y order, so their sorted
        # neighbors along x are no nearer in y and the sweep runs out of steps
        comb = np.concatenate([1j * rng.permutation(np.linspace(0.0, 0.5, 1200)),
                               np.linspace(0.01, 1.0, 1000)])
        return {
            "cantor16": hyperbolic._build_cloud(fam, np.array(lam), anchors, 16),
            "gaussian": rng.standard_normal(65536) + 1j * rng.standard_normal(65536),
            "circle": np.exp(1j * th),
            "horizontal": line.astype(complex),
            "vertical": 1j * line,
            "clumps": centers[rng.integers(0, 20, 4000)]
            + 1e-9 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)),
            "triplicated": rng.permutation(np.concatenate([base, base, base])),
            "comb": comb,
        }

    def test_spacing(self, monkeypatch):
        for name, pts in self.clouds().items():
            xy = np.column_stack([pts.real, pts.imag])
            count = min(len(xy), 2000)
            ref = cKDTree(xy).query(xy[:count], k=2)[0][:, 1]
            assert same_bits(bifgrid._nearest_distances(xy, count), ref), name
            if len(xy) <= 5000:
                # one step, then the distance to every point
                monkeypatch.setattr(bifgrid, "SWEEP_STEPS", 1)
                assert same_bits(bifgrid._nearest_distances(xy, count), ref), name
                monkeypatch.undo()

    def test_comb_measures_no_query_against_every_row(self, monkeypatch):
        # the comb's x = 0 run outlasts the sweep; its queries used to
        # measure every row, 1200 x 2200 pairs, and the box search
        # measures a few rows per query
        comb = self.clouds()["comb"]
        xy = np.column_stack([comb.real, comb.imag])
        searched = []
        search, sqrt = bifgrid._box_search, np.sqrt

        def counted(s, t, pos, best):
            sizes = []

            def measured(x, *args, **kwargs):
                sizes.append(x.size)
                return sqrt(x, *args, **kwargs)

            monkeypatch.setattr(np, "sqrt", measured)
            try:
                return search(s, t, pos, best)
            finally:
                monkeypatch.setattr(np, "sqrt", sqrt)
                searched.append((len(pos), sum(sizes)))

        monkeypatch.setattr(bifgrid, "_box_search", counted)
        ref = cKDTree(xy).query(xy[:2000], k=2)[0][:, 1]
        assert same_bits(bifgrid._nearest_distances(xy, 2000), ref)
        [(queries, pairs)] = searched
        assert queries >= 1000
        assert pairs < queries * len(xy) / 100

    def test_nonfinite_cloud(self):
        pts = np.exp(2j * np.pi * np.arange(2000) / 2000)
        pts[7] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="cloud points must be finite"):
            bifgrid.box_dimension(pts, 2.0 ** -np.arange(2, 9))


class TestCantorEndToEnd:
    def test_outputs_match_old_code(self, tmp_path, monkeypatch):
        def run(side):
            out = tmp_path / side
            assert main(["cantor", "--family", "unicritical2", "--param", "-6,0",
                         "--anchors", "3,0;-2,0", "--depth", "10",
                         "--out", str(out / "cantor")]) == 0
            assert main(["dimension", "--family", "unicritical2",
                         "--cloud", str(out / "cantor" / "cloud.csv"),
                         "--scales", "0.25,0.125,0.0625,0.03125",
                         "--out", str(out / "dimension")]) == 0
            return {f"{p.parent.name}/{p.name}": bio.sha256_file(p)
                    for p in sorted(out.glob("*/*")) if p.name != "manifest.json"}

        new = run("new")
        monkeypatch.setattr(hyperbolic, "_build_cloud", lambda *a: old_build_cloud(*a)[0])
        monkeypatch.setattr(bio, "read_cloud_csv", old_read_cloud_csv)
        monkeypatch.setattr(cli, "box_dimension", old_box_dimension)
        old = run("old")
        assert len(new) == 3 and new == old


# ----------------------------------------------------------------------
# reference escape-rate loops

def old_sigma_arrays(cs):
    """Elementary symmetric functions sigma_0..sigma_k of the arrays cs."""
    sig = [np.ones_like(cs[0])] if cs else [np.array(1.0 + 0j)]
    for c in cs:
        new = [sig[0]]
        for k in range(1, len(sig) + 1):
            prev = sig[k] if k < len(sig) else 0.0
            new.append(prev + c * sig[k - 1])
        sig = new
    return sig


def old_grid_apply(family, lams, z, sig=None, top=None):
    """f applied cellwise: z and every entry of lams share a shape.

    For Branner-Hubbard, ``sig`` (the ``_sigma_arrays`` of lams[:-1]) and
    ``top`` (lams[-1] ** d) are the terms that do not depend on z; they
    are computed here unless a caller that iterates passes them."""
    d = family.degree
    if family.kind == "unicritical":
        return z ** d + lams[0]
    if family.kind == "branner_hubbard":
        if sig is None:
            sig = old_sigma_arrays(lams[:-1])
        if top is None:
            top = lams[-1] ** d
        out = z ** d / d + top
        for j in range(2, d):
            out = out + ((-1.0) ** (d - j)) * sig[d - j] / j * z ** j
        return out
    raise ValueError(f"grid scans require a polynomial kind, got {family.kind!r}")


def old_param_grids(box, resolution):
    """Complex coordinate arrays of shape (resolution,) * 2m: the meshgrid
    of the box axes that ``Box.param_grids`` built before scans formed
    each block's parameters from the axes."""
    mesh = np.meshgrid(*box.axes(resolution), indexing="ij")
    return [mesh[2 * i] + 1j * mesh[2 * i + 1] for i in range(box.m)]


def old_grid_green(family, lams, z0, maxiter=512, big=1e12):
    d = family.degree
    lead = 1.0 / d if family.kind == "branner_hubbard" else 1.0
    gamma = math.log(abs(lead)) / (d - 1)
    shape = z0.shape
    g = np.zeros(shape, dtype=float).ravel()
    z = z0.ravel().copy()
    lam_flat = [l.ravel() for l in lams]
    sig_flat = (old_sigma_arrays(lam_flat[:-1])
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
        z[active] = old_grid_apply(family, cur, z[active], sig=sig)
    return g.reshape(shape)


# boxes whose cells mostly stay bounded, so most of them retire early,
# and boundary zooms where orbits escape late or converge slowly
BOUNDED_BOXES = [
    Box((-0.1 + 0j,), (0.3,)),                  # main cardioid
    Box((-1.0 + 0j,), (0.15,)),                 # period-2 bulb
    Box((-0.1226 + 0.7449j,), (0.04,)),         # period-3 bulb
    Box((-0.75 + 0j,), (0.1,)),                 # cardioid / bulb junction
    Box((-0.7435 + 0.1314j,), (0.002,)),        # seahorse-valley zoom
    Box((0.25002 + 0j,), (2e-5,), (2e-6,)),     # cusp: slow passage past 1/2
]
BOUNDED_IDS = ["cardioid", "bulb2", "bulb3", "junction", "zoom", "cusp"]
BH3_BOXES = [Box((0j, 0.3 + 0.1j), (1.5, 1.2)), Box((0.2 + 0j, 0.1 + 0.1j), (0.6, 0.6))]

NAN, INF = float("nan"), float("inf")


def special_lams():
    """Parameter grids of unicritical2 (6 x 8) and bh3 (16 x 16 x 2):
    c = -2, 0, i, -1 make the critical orbit an exact float cycle; nan,
    +-inf and signed zeros must keep their old bits."""
    special = [-2.0 + 0j, 0j, 1j, -1.0 + 0j, complex(NAN, 0.0), complex(0.0, NAN),
               complex(INF, 0.0), complex(-INF, 0.0), complex(0.0, INF),
               complex(INF, NAN), complex(-0.0, 0.0), complex(0.0, -0.0),
               complex(-0.0, -0.0), -1.75 + 0j, 0.25 + 0j, -0.75 + 0j]
    quad_lams = [np.array(special * 3).reshape(6, 8)]
    pairs = np.array([(a, b) for a in special for b in special]).T
    return quad_lams, [pairs[0].reshape(16, 16), pairs[1].reshape(16, 16)]


class TestEscapeRate:
    @pytest.mark.parametrize("fam, box, res, fields", [
        (QUAD, Box((-0.5 + 0j,), (2.5,), (2.0,)), 48, ("G0", "L")),
        (QUAD, Box((-0.7435 + 0.1314j,), (0.01,)), 32, ("G0",)),
        (BH3, Box((0j, 0.3 + 0.1j), (1.5, 1.2)), 10, ("G0", "G1", "L")),
    ], ids=["unicritical2", "unicritical2-zoom", "bh3"])
    def test_scan_field(self, monkeypatch, fam, box, res, fields):
        new = [scan_field(fam, box, res, f, maxiter=200).values for f in fields]
        # each block's parameters have the bits of the old parameter grid
        assert same_bits(new[0], old_loop_over(fam, old_param_grids(box, res), 0, 200))
        monkeypatch.setattr(bifgrid, "escape_rate", old_loop_over)
        old = [scan_field(fam, box, res, f, maxiter=200).values for f in fields]
        for a, b in zip(new, old):
            assert same_bits(a, b)

    def test_kernel_at_any_point(self):
        # random parameters off any grid, from each marked critical value
        rng = np.random.default_rng(5)
        for fam in (QUAD, CUBIC, BH3, MapFamily("branner_hubbard", 4)):
            for size in (1, 7, 30):
                lams = [2.0 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
                        for _ in range(fam.param_dim)]
                for j in range(fam.degree - 1 if fam.kind == "branner_hubbard" else 1):
                    for maxiter in (0, 3, 60, 2048):
                        g, g0 = grid_green_pair(fam, lams, j, maxiter)
                        assert same_bits(g, g0) and g.shape == (size,)
        # bounded critical orbits, and one that escapes on the first test
        g, g0 = grid_green_pair(QUAD, [np.array([-1.0 + 0j, 0j, 1e13 + 0j, 2.0 + 0j])], 0, 2048)
        assert same_bits(g, g0) and (g > 0).tolist() == [False, False, True, True]

    @pytest.mark.parametrize("box", BOUNDED_BOXES, ids=BOUNDED_IDS)
    @pytest.mark.parametrize("maxiter", [512, 1024])
    def test_bounded_grids(self, box, maxiter):
        new, old = grid_green_pair(QUAD, old_param_grids(box, 64), 0, maxiter)
        assert same_bits(new, old)

    @pytest.mark.parametrize("box", BH3_BOXES, ids=["wide", "bounded"])
    def test_bh3_fields(self, monkeypatch, box):
        new = [scan_field(BH3, box, 10, f, maxiter=512).values for f in ("G0", "G1", "L")]
        monkeypatch.setattr(bifgrid, "escape_rate", old_loop_over)
        old = [scan_field(BH3, box, 10, f, maxiter=512).values for f in ("G0", "G1", "L")]
        for a, b in zip(new, old):
            assert same_bits(a, b)

    @pytest.mark.parametrize("j", [0, 1])
    def test_bh3_scan_past_the_elision_size(self, split, j):
        # 14^4 = 38,416 cells on one worker: the step arrays pass numpy's
        # 256 KiB threshold for temporary elision, which would swap the
        # operands of ``row * z ** j``
        box = Box((1.7 + 0.4j, 1.6 + 0.5j), (0.8, 0.8))
        lams = old_param_grids(box, 14)
        split(1, potential._BLOCK)
        new = scan_field(BH3, box, 14, f"G{j}", maxiter=512).values
        old = old_grid_green(BH3, lams, old_critical_values(BH3, lams, j), maxiter=512)
        assert same_bits(new, old)

    def test_special_parameters(self):
        quad_lams, bh3_lams = special_lams()
        with np.errstate(invalid="ignore", over="ignore"):
            for maxiter in (1, 8, 17, 512, 1024):
                assert same_bits(*grid_green_pair(QUAD, quad_lams, 0, maxiter))
                for j in (0, 1):
                    assert same_bits(*grid_green_pair(BH3, bh3_lams, j, maxiter))

    @settings(max_examples=40, deadline=None)
    @given(fam=st.sampled_from([QUAD, CUBIC, BH3]), j=st.integers(0, 1),
           re=st.floats(-2.5, 1.0), im=st.floats(-1.5, 1.5),
           log_half=st.floats(-14.0, 1.0), aspect=st.floats(0.5, 2.0),
           res=st.integers(8, 40), maxiter=st.integers(1, 600))
    def test_random_boxes(self, fam, j, re, im, log_half, aspect, res, maxiter):
        half = 2.0 ** log_half
        m = fam.param_dim
        box = Box((complex(re, im),) * m, (half,) * m, (half * aspect,) * m)
        j = j if fam is BH3 else 0
        lams = old_param_grids(box, res if m == 1 else min(res, 8))
        assert same_bits(*grid_green_pair(fam, lams, j, maxiter))

    def test_exact_cycle_retires_early(self, monkeypatch):
        # the orbit -1, 0, -1, ... of the critical value of z^2 - 1 repeats
        # z_8 at step 16: one step makes the critical value and 16 more
        # run the loop, where the old loop stepped it 2048 times
        calls = []
        step = MapFamily.power_step
        monkeypatch.setattr(MapFamily, "power_step", lambda *a: calls.append(1) or step(*a))
        g = potential.escape_rate(QUAD, [np.array([-1.0 + 0j])], 0, 2048)
        assert len(calls) <= 17 and same_bits(g, np.zeros(1))

    @pytest.mark.parametrize("fam, box, fields", [
        (QUAD, Box((-0.6 + 0.3j,), (1.6,)), ("L",)),
        (CUBIC, Box((0.1 + 0.2j,), (1.1,)), ("L",)),
        (BH3, Box((0j, 0.3 + 0.1j), (1.5, 1.2)), ("G0", "G1")),
    ], ids=["unicritical2", "unicritical3", "bh3"])
    def test_critical_green_sum_is_the_scan(self, fam, box, fields):
        # one kernel serves both: at a grid cell's parameter, log d plus
        # the critical Green sum is the L scan (G0 + G1 for bh3, whose L
        # adds its terms in another order), at the sum's depth
        lams = old_param_grids(box, 8)
        scans = [scan_field(fam, box, 8, f, maxiter=potential.PLANE_MAXITER).values
                 for f in fields]
        for flat in np.random.default_rng(7).choice(lams[0].size, 40, replace=False):
            cell = np.unravel_index(flat, lams[0].shape)
            total = potential.critical_green_sum(fam, [l[cell] for l in lams])
            if fam is BH3:
                assert same_bits(total, scans[0][cell] + scans[1][cell])
            else:
                assert same_bits(math.log(fam.degree) + total, scans[0][cell])


def old_grid_critical(family, lams, index):
    if index == 0:
        return np.zeros_like(lams[0])
    if family.kind == "branner_hubbard" and index <= family.degree - 2:
        return lams[index - 1]
    raise ValueError(f"critical index {index} out of range")


def old_critical_values(fam, lams, j):
    return old_grid_apply(fam, lams, old_grid_critical(fam, lams, j))


def grid_green_pair(fam, lams, j, maxiter):
    """Escape-rate field of critical point j over the parameter grids
    ``lams``, from the current kernel on the flattened grids and from the
    old step and loop."""
    new = potential.escape_rate(fam, [np.ravel(lam) for lam in lams], j, maxiter)
    return new.reshape(np.shape(lams[0])), old_loop_over(fam, lams, j, maxiter)


def old_loop_over(family, lams, j, maxiter):
    """A stand-in for ``escape_rate``: the old grid loop over the
    parameters ``lams``, from the old critical value of point j."""
    return old_grid_green(family, lams, old_critical_values(family, lams, j), maxiter=maxiter)


class TestEndToEnd:
    # a 10^4 wedge clamps negative cells; only the digests matter here
    @pytest.mark.filterwarnings("ignore::biflab.errors.NotPlurisubharmonic")
    @pytest.mark.parametrize("argv", [
        ["ddc", "--family", "unicritical2", "--box", "-0.5,0:5x4", "--res", "64",
         "--field", "G0"],
        ["ma2", "--family", "bh3", "--box", "1.7,0.4:0.8x0.8;1.6,0.5:0.8x0.8",
         "--res", "10", "--field", "G0", "--field2", "G1", "--maxiter", "256"],
    ], ids=["ddc", "ma2"])
    def test_outputs_match_old_loop(self, tmp_path, monkeypatch, argv):
        assert main(argv + ["--out", str(tmp_path / "new")]) == 0
        monkeypatch.setattr(bifgrid, "escape_rate", old_loop_over)
        assert main(argv + ["--out", str(tmp_path / "old")]) == 0
        digests = [{p.name: bio.sha256_file(p) for p in (tmp_path / side).iterdir()
                    if p.name != "manifest.json"} for side in ("new", "old")]
        assert len(digests[0]) == 4 and digests[0] == digests[1]


# ----------------------------------------------------------------------
# block split: the same bits for any worker count

def old_sample_mu_f(family, lam, n_points, depth, seed):
    d = family.degree
    idx = np.arange(n_points, dtype=np.uint64)
    z = np.full(n_points, 1.0 + 1.0j, dtype=complex)
    for s in range(depth):
        pre = family.preimages(lam, z)
        k = counter_choice(seed, idx, s, d)
        z = pre[k, np.arange(n_points)]
    return z


def old_finite_critical(family, lam):
    return [(c, m) for c, m in critical_points(family, lam) if np.isfinite(c)]


def old_lyapunov_mc(family, lam, n_points, depth, seed):
    z = old_sample_mu_f(family, lam, n_points, depth, seed)
    crit = ([c for c, _ in family.marked_critical_points(lam)]
            if family.kind != "rational"
            else [c for c, _ in old_finite_critical(family, lam)])
    flagged = 0
    for round_ in range(1, 6):
        bad = potential._near_critical(z, crit)
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
        n_bad = int(np.sum(potential._near_critical(z, crit)))
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
    return potential.LyapunovResult(value=value, stderr=stderr, n_points=n_points,
                                    depth=depth, flagged=flagged)


@pytest.fixture
def split(monkeypatch):
    """``split(cpus, block)`` makes the block runner see ``cpus`` CPUs and
    cut blocks of at most ``block`` points, so small inputs split too."""
    def use(cpus, block):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(potential, "_BLOCK", block)
    return use


def each_worker_count(split, block, fn, cpus=(1, 2, 3)):
    out = []
    for k in cpus:
        split(k, block)
        out.append(fn())
    return out


class TestBlockSplit:
    @pytest.mark.parametrize("cpus", [2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 13, 14, 15, 100])
    def test_runner_covers_range_in_order(self, split, cpus, n):
        # blocks of at most 7 points, as many as a multiple of the workers
        # (at most one per point), every block in the errstate of the
        # caller, results in block order
        split(cpus, 7)
        seen = []

        def run(lo, hi):
            time.sleep(0.002)
            seen.append(threading.get_ident())
            return lo, hi, np.geterr()["invalid"]

        with np.errstate(invalid="raise"):
            out = potential._blocks(run, n)
        bounds = [(lo, hi) for lo, hi, _ in out]
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == n
        assert all(mode == "raise" for _, _, mode in out)
        if n < 2:
            assert bounds == [(0, n)] and seen == [threading.get_ident()]
        else:
            assert len(out) % min(cpus, n) == 0 and all(0 < hi - lo <= 7 for lo, hi in bounds)
        if len(out) >= 4 * cpus:
            assert len(set(seen)) > 1

    def test_runner_takes_each_block_once(self, split):
        # more workers than cores and a short switch interval: every block
        # runs exactly once and its result lands in its own slot
        split(8, 3)
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran.clear()
                out = potential._blocks(lambda lo, hi: ran.append(lo) or lo, 2000)
                assert sorted(ran) == out and len(set(out)) == len(out)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 15, 61])
    @pytest.mark.parametrize("fam", [QUAD, lattes_family()], ids=["unicritical2", "lattes"])
    def test_sample_mu_f(self, split, fam, n):
        # point counts below, at and above one block of 7
        lam = [-0.9 + 0.2j] if fam is QUAD else [0j]
        ref = old_sample_mu_f(fam, lam, n, 12, 4)
        for z in each_worker_count(split, 7, lambda: potential.sample_mu_f(fam, lam, n, 12, 4)):
            assert same_bits(z, ref)

    def test_lyapunov_redraw(self, split, monkeypatch):
        # branch 0 of every point right of Re = 1 is moved onto the
        # critical point 0, so the redraw rounds have work to do
        fam = MapFamily("unicritical", 2)
        real = fam.preimages

        def landing(lam, w):
            pre = real(lam, w)
            pre[0, w.real > 1.0] = 0.0
            return pre

        monkeypatch.setattr(fam, "preimages", landing)
        ref = old_lyapunov_mc(fam, [-2.0 + 0j], 400, 10, 6)
        assert ref.flagged > 0
        for res in each_worker_count(split, 7, lambda: potential.lyapunov_mc(
                fam, [-2.0 + 0j], 400, 10, 6)):
            assert res == ref and same_bits([res.value, res.stderr], [ref.value, ref.stderr])

    @pytest.mark.parametrize("fam, box, res, block, fields", [
        *[(QUAD, box, 32, 64, ("G0", "L")) for box in BOUNDED_BOXES],
        *[(BH3, box, 10, 500, ("G0", "G1", "L")) for box in BH3_BOXES],
    ], ids=BOUNDED_IDS + ["bh3-wide", "bh3-bounded"])
    def test_scan_field(self, split, fam, box, res, block, fields):
        out = each_worker_count(split, block, lambda: [
            scan_field(fam, box, res, f, maxiter=512).values for f in fields])
        for vals in out[1:]:
            assert all(same_bits(a, b) for a, b in zip(vals, out[0]))

    def test_special_parameters(self, split, monkeypatch):
        # a Box holds only finite coordinates, so the axes are swapped for
        # ones that hold exact float cycles (c = -2, 0, -1), nan, +-inf
        # and signed zeros
        special = [-2.0, 0.0, -0.0, -1.0, NAN, INF, -INF, 1.0, -1.75, 0.25, -0.75, 2.0,
                   0.5, -0.5, 1e300, 0.3]
        with np.errstate(invalid="ignore", over="ignore"):
            for fam, res, block, fields in [(QUAD, 16, 16, ("G0", "L")),
                                            (BH3, 8, 256, ("G0", "G1", "L"))]:
                box = Box((0j,) * fam.param_dim, (1.0,) * fam.param_dim)
                monkeypatch.setattr(Box, "axes", lambda self, n, window=None: [
                    np.roll(special, 5 * k)[:n] for k in range(2 * self.m)])
                lams = old_param_grids(box, res)
                for maxiter in (8, 17, 512):
                    ref = old_loop_over(fam, lams, 0, maxiter)
                    out = each_worker_count(split, block, lambda: [
                        scan_field(fam, box, res, f, maxiter=maxiter).values for f in fields])
                    assert same_bits(out[0][0], ref)
                    for vals in out[1:]:
                        assert all(same_bits(a, b) for a, b in zip(vals, out[0]))

    def test_kernel_at_any_point(self, split):
        # random boxes, rectangular ones too, in blocks of 3 cells (100
        # for the 8^4 cells of bh3)
        rng = np.random.default_rng(11)
        for fam, res, block in ((QUAD, 9, 3), (CUBIC, 11, 3), (BH3, 8, 100)):
            for _ in range(3):
                m = fam.param_dim
                box = Box(tuple(random_seeds(rng, m, 1.0)), tuple(rng.uniform(0.1, 1.5, m)),
                          tuple(rng.uniform(0.1, 1.5, m)))
                ref = old_loop_over(fam, old_param_grids(box, res), 0, 100)
                for g in each_worker_count(split, block, lambda: scan_field(
                        fam, box, res, "G0", maxiter=100).values):
                    assert same_bits(g, ref)

    @pytest.mark.parametrize("argv", [
        ["lyap", "--family", "unicritical2", "--param", "-2,0", "--samples", "3000",
         "--depth", "20", "--seed", "3"],
        ["ddc", "--family", "unicritical2", "--box", "-0.5,0:5x4", "--res", "64",
         "--field", "G0"],
    ], ids=["lyap", "ddc"])
    def test_cli_outputs(self, tmp_path, split, argv):
        # the same output directory each time, so manifest.json's paths agree
        def run():
            assert main(argv + ["--out", str(tmp_path)]) == 0
            return {p.name: bio.sha256_file(p) for p in tmp_path.iterdir()}

        digests = each_worker_count(split, 200, run, cpus=(1, 2))
        assert "manifest.json" in digests[0] and digests[0] == digests[1]

    def test_errstate_in_every_block(self, split):
        # the huge z^2 row of c_1 ~ 2e300 overflows on the first step from
        # the critical value a^3 ~ 1e9, in every block: under "raise" the
        # scan fails with each worker count, and under "ignore" no block
        # warns, which a pool thread outside the caller's context would
        box = Box((2e300 + 0j, 1e3 + 0j), (1.0, 1.0))
        for k in (1, 2, 3):
            split(k, 16)
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    scan_field(BH3, box, 8, "G0", maxiter=64)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with np.errstate(over="ignore"):
                    values = scan_field(BH3, box, 8, "G0", maxiter=64).values
                    assert np.sum(~np.isfinite(values)) == 8 ** 4

    def test_block_failure_keeps_its_type(self, split, monkeypatch, tmp_path):
        # 5 samples on 2 CPUs are the blocks [0, 2) and [2, 5); the
        # second one fails
        real = MapFamily.preimages

        def failing(self, lam, w):
            if len(w) == 3:
                raise RootFindingFailure("injected")
            return real(self, lam, w)

        monkeypatch.setattr(MapFamily, "preimages", failing)
        split(2, 7)
        with pytest.raises(RootFindingFailure):
            potential.lyapunov_mc(QUAD, [-2.0 + 0j], 5, 4, 0)
        assert main(["lyap", "--family", "unicritical2", "--param", "-2,0", "--samples", "5",
                     "--depth", "4", "--out", str(tmp_path)]) == 3

    def test_no_worker_outlives_the_call(self, split):
        # block 0 fails first, so later blocks are left unstarted; the
        # pool's threads are gone whether the call returns or raises
        def alive():
            return [t.name for t in threading.enumerate() if t.name.startswith("biflab")]

        split(2, 1)
        assert potential._blocks(lambda lo, hi: lo, 200) == list(range(200))
        assert alive() == []
        ran = []

        def run(lo, hi):
            if lo == 0:
                raise RootFindingFailure("injected")
            time.sleep(0.002)
            ran.append(lo)

        with pytest.raises(RootFindingFailure):
            potential._blocks(run, 200)
        assert alive() == [] and len(ran) < 199


# ----------------------------------------------------------------------
# shared choice prefixes: each distinct point's preimages solved once

# (family, lam, samples, depth, seed): at these sizes every sample of one
# block of all the samples has a point of its own a few steps before the
# end, and so has every sample of the blocks of 2 and 3 workers
SHARED_CASES = {
    "unicritical2": (QUAD, [-2.0 + 0j], 3000, 30, 5),
    "bh3": (BH3, [0.3 + 0.2j, 0.5 - 0.1j], 3000, 20, 6),
    "lattes": (lattes_family(), [0j], 3000, 14, 7),
}


def prefix_counts(seed, keys, depth, d):
    """Distinct prefixes of s choices among the samples ``keys``, for
    s = 0..depth-1, from the counter draws alone."""
    choices = np.stack([counter_choice(seed, keys, s, d) for s in range(depth)], axis=1)
    return [min(1, len(keys))] + [len(np.unique(choices[:, :s], axis=0))
                                  for s in range(1, depth)]


class TestSharedPrefixes:
    @pytest.mark.parametrize("name", list(SHARED_CASES))
    def test_samples_and_lyapunov_match_per_sample_loop(self, split, name):
        fam, lam, n, depth, seed = SHARED_CASES[name]
        counts = prefix_counts(seed, np.arange(n, dtype=np.uint64), depth, fam.degree)
        assert 2 < counts.index(n) < depth - 1
        ref_z = old_sample_mu_f(fam, lam, n, depth, seed)
        ref = old_lyapunov_mc(fam, lam, n, depth, seed)
        for z, res in each_worker_count(split, 1 << 16, lambda: (
                potential.sample_mu_f(fam, lam, n, depth, seed),
                potential.lyapunov_mc(fam, lam, n, depth, seed))):
            assert same_bits(z, ref_z)
            assert res == ref and same_bits([res.value, res.stderr], [ref.value, ref.stderr])

    @pytest.mark.parametrize("name", list(SHARED_CASES))
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_points_solved_are_distinct_prefixes(self, split, monkeypatch, name, cpus):
        # each block solves, at step s, one point per distinct prefix of
        # s choices among its samples, and all of its samples once every
        # prefix is distinct
        fam, lam, n, depth, seed = SHARED_CASES[name]
        split(cpus, 1 << 16)
        sizes = []
        lock = threading.Lock()
        real = fam.preimages

        def counted(lam, w):
            with lock:
                sizes.append(len(w))
            return real(lam, w)

        monkeypatch.setattr(fam, "preimages", counted)
        potential.sample_mu_f(fam, lam, n, depth, seed)
        keys = np.arange(n, dtype=np.uint64)
        want = [prefix_counts(seed, keys[lo:hi], depth, fam.degree)
                for lo, hi in potential._blocks(lambda lo, hi: (lo, hi), n)]
        assert len(want) == cpus
        assert sorted(sizes) == sorted(k for block in want for k in block)
        if cpus == 1:
            assert sizes == want[0]
        assert sum(sizes) < n * depth


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


def old_wedge_pair(field_a, field_b, mollify_radius=None):
    """Mixed Monge-Ampere measure of two fields over C^2.

    Cell mass (8/pi^2) M(A, B) h1^2 h2^2 with the polarized determinant
    M(A,B) = (A11 B22 + B11 A22 - A12 conj(B12) - B12 conj(A12)) / 2, so
    wedge_pair(u, u) reproduces monge_ampere2(u) exactly.
    """
    box, res = field_a.box, field_a.resolution
    if box.m != 2:
        raise ValueError("wedge_pair requires two complex parameters")
    if not box.is_square:
        raise ValueError("wedge stencils require square coordinate planes")
    if field_b.box != box or field_b.resolution != res:
        raise ValueError("fields must share box and resolution")
    h1, h2 = box.cell_sizes(res)[::2]
    if mollify_radius is None:
        mollify_radius = 3.0 * max(h1, h2)
    if mollify_radius < 2.0 * min(h1, h2):
        raise ValueError("mollify_radius must be >= 2 cell widths")
    ua = bifgrid._mollify(field_a.values, box, res, mollify_radius)
    ub = (ua if field_b is field_a or np.array_equal(field_b.values, field_a.values)
          else bifgrid._mollify(field_b.values, box, res, mollify_radius))
    A11, A22, A12 = old_hessian_fields(ua, h1, h2)
    if ub is ua:
        B11, B22, B12 = A11, A22, A12
    else:
        B11, B22, B12 = old_hessian_fields(ub, h1, h2)
    M = 0.5 * (A11 * B22 + B11 * A22 - A12 * np.conj(B12) - B12 * np.conj(A12))
    raw = (8.0 / math.pi ** 2) * M.real * (h1 ** 2) * (h2 ** 2)
    # drop the shell whose stencil sees padded (edge-replicated) data
    shells = []
    for h in (h1, h1, h2, h2):
        shells.append(int(math.ceil(2.0 * mollify_radius / (2.0 * h))) + 1)
    valid = np.zeros(raw.shape, dtype=bool)
    valid[tuple(slice(s, -s) for s in shells)] = True
    raw = np.where(valid, raw, 0.0)
    clamped = np.maximum(raw, 0.0)
    clamp_total = float(np.sum(clamped - raw))
    # significance floor: second differences of u carry roundoff of order
    # eps * max|u|, which enters M through products with the Hessians
    eps_m = np.finfo(float).eps
    err_a = 16.0 * eps_m * float(np.max(np.abs(ua))) / min(h1, h2) ** 2
    err_b = err_a if ub is ua else \
        16.0 * eps_m * float(np.max(np.abs(ub))) / min(h1, h2) ** 2
    amax = max(float(np.max(np.abs(A11))), float(np.max(np.abs(A22))),
               float(np.max(np.abs(A12))))
    bmax = amax if ub is ua else \
        max(float(np.max(np.abs(B11))), float(np.max(np.abs(B22))),
            float(np.max(np.abs(B12))))
    floor = 8.0 * (8.0 / math.pi ** 2) * (h1 ** 2) * (h2 ** 2) \
        * (amax * err_b + bmax * err_a + err_a * err_b)
    eps_neg = max(1e-12 * float(np.max(np.abs(raw))), floor, 1e-300)
    n_clamped = int(np.sum(raw < -eps_neg))
    if n_clamped > 0.01 * int(np.sum(valid)):
        warnings.warn(f"{n_clamped} of {int(np.sum(valid))} interior cells clamped negative",
                      NotPlurisubharmonic)
    return types.SimpleNamespace(cell_mass=clamped, raw_mass=raw, clamp_total=clamp_total,
                                 meta={"op": "wedge_pair", "mollify_radius": mollify_radius,
                                       "boundary_shell": shells,
                                       "a": dict(field_a.meta), "b": dict(field_b.meta)})


def old_wedge_warns(field_a, field_b, mollify_radius=None):
    """Whether ``wedge_pair`` warns NotPlurisubharmonic: the reference's
    clamped mass is above both CLAMP_WARN_SHARE of its absolute mass and
    the roundoff bound of its valid cells, taken from the whole-grid
    Hessians of the reference."""
    box, res = field_a.box, field_a.resolution
    h1, h2 = box.cell_sizes(res)[::2]
    if mollify_radius is None:
        mollify_radius = 3.0 * max(h1, h2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotPlurisubharmonic)
        ref = old_wedge_pair(field_a, field_b, mollify_radius=mollify_radius)
    us = [bifgrid._mollify(f.values, box, res, mollify_radius) for f in (field_a, field_b)]
    err_a, err_b = (16.0 * np.finfo(float).eps * float(np.max(np.abs(u))) / min(h1, h2) ** 2
                    for u in us)
    size_a, size_b = (max(float(np.max(np.abs(e))) for e in old_hessian_fields(u, h1, h2))
                      for u in us)
    valid = np.zeros(us[0].shape, dtype=bool)
    valid[tuple(slice(s, -s) for s in ref.meta["boundary_shell"])] = True
    roundoff = ((8.0 / math.pi ** 2) * (h1 * h2) ** 2 * int(np.sum(valid))
                * (size_a * err_b + size_b * err_a + err_a * err_b))
    absolute = float(np.sum(ref.cell_mass)) + ref.clamp_total
    return ref.clamp_total > max(bifgrid.CLAMP_WARN_SHARE * absolute, roundoff)


# ----------------------------------------------------------------------
# reference radial masses: the whole-array distances, clamped masses and
# masks that the row blocks replaced

def old_radial_masses(measure, center, radii):
    """mu(ball(center, r_k)) by cell summation; cells cut by the sphere
    contribute their subsampled covered fraction.

    Only the cells within reach of the largest radius are read, so a
    measure on a ``radial_window`` (for these radii or larger ones) gives
    the masses of the whole grid, bit for bit; a window that misses a
    cell in reach is a ValueError."""
    box, res = measure.box, measure.resolution
    hs = box.cell_sizes(res)
    radii = bifgrid.decreasing_radii(radii)
    hmax = float(np.max(hs))
    if radii[-1] < 3.0 * hmax:
        raise ResolutionExceeded(
            f"r_min = {radii[-1]:.3g} below 3 cell widths ({3 * hmax:.3g})")
    ctr = np.atleast_1d(np.asarray(center, dtype=complex))
    cvec = bifgrid._real_center(box, ctr)
    if measure.window is not None:
        need = bifgrid.radial_window(box, res, ctr, radii[0])
        if all(lo < hi for lo, hi in need) and any(
                lo < wlo or hi > whi for (lo, hi), (wlo, whi) in zip(need, measure.window)):
            raise ValueError(f"the measure's window {measure.window} misses cells of "
                             f"{need}, within reach of the radii")
    flats = box.axes(res, measure.window)
    # the distance to the centre adds the squared offsets of each real
    # axis, broadcast from 1-d, so no array of cell coordinates is formed
    dist = np.zeros(tuple(len(a) for a in flats))
    for k, a in enumerate(np.ix_(*flats)):
        dist += (a - cvec[k]) ** 2
    np.sqrt(dist, out=dist)
    half_diag = 0.5 * float(np.linalg.norm(hs))
    subsample = 8 if box.m == 1 else 4
    offs = [(np.arange(subsample) + 0.5) / subsample - 0.5 for _ in hs]
    off_flat = np.stack([om.ravel() for om in np.meshgrid(*offs, indexing="ij")], axis=0)
    step = max(1, bifgrid._BAND_FLOATS // off_flat.shape[1])
    masses = np.empty(len(radii))
    mass_flat = measure.cell_mass.ravel()
    dist_flat = dist.ravel()
    for i, r in enumerate(radii):
        inner = dist_flat <= r - half_diag
        band = (~inner) & (dist_flat < r + half_diag)
        total = float(np.sum(mass_flat[inner]))
        # the covered fraction of band cells, a chunk of cells at a time,
        # so no (band cells x sub-cells) array is formed
        band_cells = np.nonzero(band)[0]
        frac = np.empty(band_cells.size)
        for lo in range(0, band_cells.size, step):
            cells = np.unravel_index(band_cells[lo:lo + step], dist.shape)
            sub2 = np.zeros((cells[0].size, off_flat.shape[1]))
            for k, (a, ik) in enumerate(zip(flats, cells)):
                sub2 += (a[ik][:, None] + off_flat[k][None, :] * hs[k] - cvec[k]) ** 2
            frac[lo:lo + step] = np.mean(sub2 <= r * r, axis=1)
        if band_cells.size:
            total += float(np.sum(mass_flat[band] * frac))
        masses[i] = total
    return bifgrid.RadialMassProfile(center=tuple(ctr), radii=radii, masses=masses)


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


def spanning(row):
    """A grid shape of rows of shape ``row`` whose first axis spans three
    whole row blocks (``bifgrid._row_blocks``) and ends in a partial one."""
    step = max(1, bifgrid.ROW_BLOCK // math.prod(row))
    return (3 * step + step // 2 + 1,) + row


def spans_blocks(shape):
    blocks = [rows.stop - rows.start for rows, _ in bifgrid._row_blocks(shape)]
    return len(blocks) >= 4 and blocks[-1] < blocks[0]


class TestStencils:
    @pytest.mark.parametrize("shape", [(9, 9), (16, 11), (6, 7, 5, 6),
                                       spanning((11,)), spanning((7, 5, 6))])
    def test_local_mass(self, shape):
        rng = np.random.default_rng(sum(shape))
        assert spans_blocks(shape) or math.prod(shape) <= bifgrid.ROW_BLOCK
        with np.errstate(invalid="ignore"):
            for _ in range(5 if math.prod(shape) < 2000 else 2):
                u = spiky(rng, shape)
                weights = list(rng.uniform(0.2, 3.0, len(shape)))
                assert same_bits(_local_mass(u, weights=weights),
                                 old_local_mass(u, shape[0], weights=weights))
                assert same_bits(_local_mass(u), old_local_mass(u, shape[0]))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_local_mass_in_blocks_of_few_rows(self, rows, monkeypatch):
        # blocks of 1 to 3 rows, so that a block's halo is most of what it
        # reads, and the grid's first and last rows are each a block's
        monkeypatch.setattr(bifgrid, "ROW_BLOCK", rows * 7)
        rng = np.random.default_rng(rows)
        with np.errstate(invalid="ignore"):
            for shape in [(10, 7), (11, 7), (3, 7), (2, 7), (1, 7)]:
                u = spiky(rng, shape)
                assert same_bits(_local_mass(u, weights=[0.5, 2.0]),
                                 old_local_mass(u, shape[0], weights=[0.5, 2.0]))

    def test_hessian_fields(self):
        # whole grids, and the blocks of grids that span several, each
        # block's entries read from its rows with their halo
        rng = np.random.default_rng(6)
        with np.errstate(invalid="ignore"):
            for shape in [(6, 6, 6, 6), (5, 7, 6, 4), spanning((6, 5, 4)), (3, 4, 5, 6)]:
                u = spiky(rng, shape)
                olds = old_hessian_fields(u, 0.1, 0.03)
                for new, old in zip(_hessian_fields(u, 0.1, 0.03), olds):
                    assert same_bits(new, old)
                for rows, halo in bifgrid._row_blocks(shape):
                    keep = slice(rows.start - halo.start, rows.stop - halo.start)
                    for new, old in zip(_hessian_fields(u[halo], 0.1, 0.03, keep), olds):
                        assert same_bits(new, old[rows])
            assert spans_blocks(spanning((6, 5, 4)))

    @pytest.mark.parametrize("mollify", [None, 0.2])
    def test_wedge_pair(self, mollify, monkeypatch):
        # the bh3 fields of the benchmark's ma2 box at 10^4, their self
        # wedge, an indefinite field that clamps every interior cell, a
        # field with nan, -inf and -0.0 spikes in different row blocks,
        # and the rank-one field exp(-40 x1) + 3 x2, whose clamped mass
        # (roundoff) stays below the bound only when it takes the largest
        # Hessian entries, in the first rows; the module's row blocks,
        # then blocks of 3 rows (the last one partial) and of 1
        box = Box((1.7 + 0.4j, 1.6 + 0.5j), (0.4, 0.4))
        g0, g1 = (scan_field(BH3, box, 10, f, maxiter=64) for f in ("G0", "G1"))
        a, b = old_param_grids(box, 10)
        saddle = bifgrid.GridField(box, 10, np.abs(a) ** 2 - np.abs(b) ** 2)
        spikes = g1.values.copy()
        spikes[8, 4, 5, 5], spikes[1, 2, 3, 4], spikes[4, 5, 5, 5] = np.nan, -np.inf, -0.0
        spiked = bifgrid.GridField(box, 10, spikes, meta={"which": "spiked"})
        steep = bifgrid.GridField(box, 10, np.exp(-40.0 * (a.real - 1.7)) + 3.0 * b.real)
        pairs = ((g0, g1), (g0, g0), (saddle, saddle), (g0, spiked), (steep, steep))
        with np.errstate(invalid="ignore"):
            olds = []
            for fa, fb in pairs:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", NotPlurisubharmonic)
                    olds.append(old_wedge_pair(fa, fb, mollify_radius=mollify))
            warns = [old_wedge_warns(fa, fb, mollify_radius=mollify) for fa, fb in pairs]
            assert warns[2] and not all(warns)
            for rows in (None, 3, 1):
                if rows is not None:
                    monkeypatch.setattr(bifgrid, "ROW_BLOCK", rows * 10 ** 3)
                for (fa, fb), old, warn in zip(pairs, olds, warns):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", NotPlurisubharmonic)
                        new = bifgrid.wedge_pair(fa, fb, mollify_radius=mollify)
                    for name in ("raw_mass", "cell_mass", "clamp_total"):
                        assert same_bits(getattr(new, name), getattr(old, name))
                    assert new.meta == old.meta
                    assert any(issubclass(w.category, NotPlurisubharmonic)
                               for w in caught) == warn


class TestRadialMasses:
    CASES = {
        # C at 1024^2 (rectangular cells, 32 rows a block) and 96^2; C^2
        # at 16^4
        "c1024": (Box((-0.5 + 0j,), (2.5,), (2.0,)), 1024, [-0.75 + 0.1j],
                  [0.9, 0.5, 0.31, 0.2, 0.1, 0.05]),
        "c96": (Box((-2 + 0j,), (0.3,)), 96, [-2.01 + 0.02j], [0.25, 0.1, 0.03]),
        "c2": (Box((1.7 + 0.4j, 1.6 + 0.5j), (0.4, 0.4)), 16, [1.7 + 0.4j, 1.63 + 0.48j],
               [0.4, 0.3, 0.2, 0.16]),
    }

    @pytest.mark.parametrize("rows", [None, 3, 1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_masses_match_old(self, case, rows, monkeypatch):
        # every ring's band spans many first-axis rows, so with blocks of
        # 1 or 3 rows and with the module's blocks of the 1024^2 grid its
        # cells fall on the first and last rows of blocks; the whole grid
        # and its radial window, whose blocks start at other rows
        box, res, center, radii = self.CASES[case]
        shape = (res,) * (2 * box.m)
        if rows is not None:
            monkeypatch.setattr(bifgrid, "ROW_BLOCK", rows * res ** (2 * box.m - 1))
        rng = np.random.default_rng(res)
        mass = rng.standard_normal(shape)
        mass.ravel()[rng.choice(mass.size, 3, replace=False)] = -0.0
        whole = bifgrid.MeasureField(box, res, mass)
        want = old_radial_masses(whole, center, radii).masses
        got = bifgrid.radial_masses(whole, center, radii).masses
        assert same_bits(got, want)
        window = bifgrid.radial_window(box, res, center, radii[0])
        part = bifgrid.MeasureField(box, res, mass[tuple(slice(lo, hi) for lo, hi in window)],
                                    window=window)
        assert same_bits(bifgrid.radial_masses(part, center, radii).masses, want)
        step = max(1, bifgrid.ROW_BLOCK // res ** (2 * box.m - 1))
        if rows is not None or case == "c1024":
            assert 2 * radii[0] / box.cell_sizes(res)[0] > step

    def test_nan_and_inf_masses(self):
        # a nan or inf in a ball carries into its mass as in the reference
        box, res, center, radii = self.CASES["c96"]
        mass = np.random.default_rng(9).random((res, res))
        mass[50, 40], mass[45, 50] = np.nan, np.inf
        mu = bifgrid.MeasureField(box, res, mass)
        assert same_bits(bifgrid.radial_masses(mu, center, radii).masses,
                         old_radial_masses(mu, center, radii).masses)


# ----------------------------------------------------------------------
# reference grid geometry: the axis spans, cell sizes and window
# bisection that ``Box.axes`` and ``Box.cell_sizes`` replaced

def old_spans(box):
    """(start, span) of each real axis, in value-array axis order
    (re1, im1[, re2, im2]): at resolution n, cell i of the axis is
    centred at start + span ((i + 0.5) / n)."""
    out = []
    for c, hw, hh in zip(box.centers, box.half_widths, box.half_heights):
        out += [(complex(c).real - hw, 2.0 * hw), (complex(c).imag - hh, 2.0 * hh)]
    return out


def old_axes(box, resolution):
    """Cell-center coordinates of the 2m real axes, in value-array
    axis order (re1, im1[, re2, im2])."""
    t = (np.arange(resolution) + 0.5) / resolution
    return [start + span * t for start, span in old_spans(box)]


def old_cell_widths(box, resolution):
    return tuple(2.0 * h / resolution for h in box.half_widths)


def old_cell_heights(box, resolution):
    return tuple(2.0 * h / resolution for h in box.half_heights)


def old_cell_sizes(box, resolution):
    """Cell size per real axis, in ``Box.axes`` order (re1, im1, ...)."""
    return np.array([old_cell_widths(box, resolution),
                     old_cell_heights(box, resolution)]).T.ravel()


def old_real_center(center):
    """The coordinates of a centre in C^m per real axis, in ``Box.axes``
    order."""
    ctr = np.atleast_1d(np.asarray(center, dtype=complex))
    return np.array([ctr.real, ctr.imag]).T.ravel()


def old_radial_window(box, resolution, center, r_max):
    """The bisection of each axis's cell offsets against the reach."""
    bifgrid._check_resolution(resolution)
    hs = old_cell_sizes(box, resolution)
    reach = r_max + 0.5 * float(np.linalg.norm(hs))
    cells = range(resolution)
    window = []
    for (start, span), c in zip(old_spans(box), old_real_center(center)):
        def offset(i):
            return start + span * ((i + 0.5) / resolution) - c
        first = bisect.bisect_left(cells, True, key=lambda i: offset(i) > -reach)
        end = bisect.bisect_left(cells, True, key=lambda i: offset(i) >= reach)
        window.append((max(first - 1, 0), min(end + 1, resolution)) if first < end else (0, 0))
    return tuple(window)


class TestGridGeometry:
    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 2), res=st.integers(8, 4096), data=st.data())
    def test_box_geometry_matches_old(self, m, res, data):
        # rectangular cells, and centres inside the box and up to twice
        # its half-extent outside it
        coord = st.floats(-3.0, 3.0)
        half = st.floats(1e-4, 2.0)
        box = Box(tuple(complex(data.draw(coord), data.draw(coord)) for _ in range(m)),
                  tuple(data.draw(half) for _ in range(m)),
                  tuple(data.draw(half) for _ in range(m)))
        center = [c + complex(data.draw(st.floats(-3.0, 3.0)) * hw,
                              data.draw(st.floats(-3.0, 3.0)) * hh)
                  for c, hw, hh in zip(box.centers, box.half_widths, box.half_heights)]
        r_max = data.draw(st.floats(1e-7, 10.0))
        if data.draw(st.booleans()):
            # a reach that lands on a cell's offset, where the two ends of
            # a range differ in whether they take the cell
            k, i = data.draw(st.integers(0, 2 * m - 1)), data.draw(st.integers(0, res - 1))
            half_diag = 0.5 * float(np.linalg.norm(old_cell_sizes(box, res)))
            off = abs(float(old_axes(box, res)[k][i] - old_real_center(center)[k]))
            r_max = off - half_diag
            for _ in range(4):
                if r_max + half_diag != off:
                    r_max = float(np.nextafter(r_max, off))
        window = bifgrid.radial_window(box, res, center, r_max)
        assert window == old_radial_window(box, res, center, r_max)
        axes = box.axes(res)
        assert all(same_bits(a, b) for a, b in zip(axes, old_axes(box, res), strict=True))
        assert same_bits(np.array(box.cell_sizes(res)), old_cell_sizes(box, res))
        cut = box.axes(res, window)
        assert all(same_bits(a, b[lo:hi])
                   for a, b, (lo, hi) in zip(cut, axes, window, strict=True))


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


def old_companion_preimages(fam, lam, w):
    """The companion-matrix branch of the earlier ``preimages``, for the
    rational and the Branner-Hubbard kinds: eigvals of batched
    companion matrices, columns in lexsort order."""
    d = fam.degree
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        if fam.kind == "rational":
            n, dd = fam._rat_coeffs(lam)
            coefs = n[None, :] - w[:, None] * dd[None, :]
        else:
            coef = fam.poly_coeffs(lam)
            coefs = np.broadcast_to(coef, (len(w), d + 1)).copy()
            coefs[:, 0] -= w
        lead = coefs[:, -1]
        col = -coefs[:, :-1] / lead[:, None]
    comp = np.zeros((len(w), d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = col
    roots = np.linalg.eigvals(comp).T
    order = np.lexsort((roots.imag, roots.real), axis=0)
    return np.take_along_axis(roots, order, axis=0)


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
        # the Aberth solve does not keep eigvals' bits: each target's roots
        # match the oracle's within 1e-12 of max(1, |root|), except at the
        # target 1e-300 beside the critical value 0, whose roots +-i are
        # double and which either solve fixes only to about sqrt(eps)
        rng = np.random.default_rng(9)
        fam = lattes_family()
        for lam in ([0j], [0.2 + 0.1j]):
            z = chart_points(rng)
            z = z[np.isfinite(z) & (z != 0)]
            new = fam.preimages(lam, z)
            gap, _ = root_gaps(new, old_rat_preimages(fam, lam, z))
            assert np.all(gap <= np.where(np.abs(z) < 1e-200, 1e-7, 1e-12))
            assert same_bits(new, lexsorted(new))
            for i in range(len(z) - 6, len(z)):
                assert same_bits(fam.preimages(lam, z[i]), new[:, i].copy())


# ----------------------------------------------------------------------
# the Aberth-Ehrlich preimage solve of the companion kinds, against the
# eigenvalue solve it replaced and against mpmath's polyroots at 50 digits

def root_gaps(new, old):
    """Per column of two (d, N) root arrays: the largest distance from a
    root of either to the nearest root of the other, over max(1, |root|),
    and whether each root of ``new`` has its nearest root of ``old`` at
    its own index (False is a branch-order flip)."""
    dist = np.abs(new[:, None, :] - old[None, :, :])
    gap = np.maximum(dist.min(axis=1) / np.maximum(1.0, np.abs(new)),
                     dist.min(axis=0) / np.maximum(1.0, np.abs(old))).max(axis=0)
    same_order = np.all(dist.argmin(axis=1) == np.arange(len(new))[:, None], axis=0)
    return gap, same_order


def lexsorted(roots):
    return np.take_along_axis(roots, np.lexsort((roots.imag, roots.real), axis=0), axis=0)


def row_polys(fam, lam, w):
    """(d+1, N) z-coefficients, lowest first, of N - w D or p - w."""
    if fam.kind == "rational":
        n, dd = fam._rat_coeffs(lam)
        return n[:, None] - w[None, :] * dd[:, None]
    coefs = np.repeat(fam.poly_coeffs(lam)[:, None], len(w), axis=1)
    coefs[0] -= w
    return coefs


def random_targets(rng, n):
    """Targets of moduli 1e-3 to 1e3 in random directions."""
    return ((rng.standard_normal(n) + 1j * rng.standard_normal(n))
            * 10.0 ** rng.uniform(-3.0, 3.0, n))


# (family, lam) of the companion kinds
COMPANION_CASES = {
    "lattes": (lattes_family(), [0j]),
    "bh3": (BH3, [0.3 + 0.2j, 0.5 - 0.1j]),
    "bh3-far": (BH3, [-1.1 + 0.4j, 0.9j]),
}


@pytest.fixture
def eig_rows(monkeypatch):
    """The number of companion matrices handed to eigvals, in a list."""
    rows = []
    real = np.linalg.eigvals

    def counted(a):
        rows.append(len(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return rows


class TestAberth:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("name", list(COMPANION_CASES))
    def test_residuals(self, name):
        # |sum_k c_k z^k| at each root is within 8 eps of sum_k |c_k| |z|^k,
        # the rounding of the sum itself (1.5 eps at most when measured)
        fam, lam = COMPANION_CASES[name]
        w = random_targets(np.random.default_rng(5), 3000)
        roots = fam.preimages(lam, w)
        coefs = row_polys(fam, lam, w)
        res, scale = np.zeros_like(roots), np.zeros(roots.shape)
        for k in range(fam.degree, -1, -1):
            res = res * roots + coefs[k]
            scale = scale * np.abs(roots) + np.abs(coefs[k])
        assert np.all(np.abs(res) <= 8 * self.EPS * scale)

    @pytest.mark.parametrize("name", list(COMPANION_CASES))
    def test_against_mpmath(self, name):
        # each root within 16 eps of the nearest 50-digit root, relative
        # (3.7 eps at most when measured; eigvals erred by up to 1e-11
        # on the small roots of large targets)
        fam, lam = COMPANION_CASES[name]
        w = random_targets(np.random.default_rng(6), 40)
        roots = fam.preimages(lam, w)
        coefs = row_polys(fam, lam, w)
        with mpmath.workdps(50):
            for i in range(len(w)):
                exact = np.array([complex(r) for r in mpmath.polyroots(
                    [mpmath.mpc(complex(c)) for c in coefs[::-1, i]], maxsteps=400, extraprec=300)])
                err = np.abs(roots[:, i, None] - exact[None, :]).min(axis=1)
                assert np.all(err <= 16 * self.EPS * np.abs(roots[:, i]))

    @pytest.mark.parametrize("name", list(COMPANION_CASES))
    def test_near_eigvals_on_random_targets(self, name):
        fam, lam = COMPANION_CASES[name]
        w = random_targets(np.random.default_rng(7), 5000)
        new = fam.preimages(lam, w)
        gap, same_order = root_gaps(new, old_companion_preimages(fam, lam, w))
        assert gap.max() <= 1e-12 and same_order.all()
        assert same_bits(new, lexsorted(new))
        if fam.kind == "rational":
            assert same_bits(old_companion_preimages(fam, lam, w), old_rat_preimages(fam, lam, w))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_lattes_backward_orbits(self, monkeypatch, eig_rows, seed):
        # every target the sampler solves on 2000 depth-25 orbits: roots
        # within 1e-12 of eigvals' over max(1, |root|) (1.6e-13 at most on
        # the benchmark's orbits), no branch-order flip, and at most 1 in
        # 1000 columns solved by eigvals (72 of 363,034 on the benchmark's)
        fam = lattes_family()
        seen = []
        real = fam.preimages

        def recorded(lam, w):
            seen.append(np.array(w))
            return real(lam, w)

        monkeypatch.setattr(fam, "preimages", recorded)
        potential.sample_mu_f(fam, [0j], 2000, 25, seed)
        w = np.concatenate(seen)
        assert 0 < sum(eig_rows) <= len(w) / 1000
        gap, same_order = root_gaps(real([0j], w), old_rat_preimages(fam, [0j], w))
        assert gap.max() <= 1e-12
        assert np.count_nonzero(~same_order) == 0

    @pytest.mark.parametrize("cap", [0, 1])
    @pytest.mark.parametrize("name", list(COMPANION_CASES))
    def test_capped_rows_are_eigvals(self, monkeypatch, eig_rows, name, cap):
        # no column is done after 0 or 1 sweeps, so every one takes the
        # eigenvalue solve and its bits
        fam, lam = COMPANION_CASES[name]
        w = random_targets(np.random.default_rng(8), 300)
        monkeypatch.setattr(families, "ABERTH_MAXITER", cap)
        new = fam.preimages(lam, w)
        assert eig_rows == [len(w)]
        assert same_bits(new, old_companion_preimages(fam, lam, w))

    def test_nonfinite_rows_fall_back_without_warning(self, eig_rows):
        # a zero start radius (p(z) - w with w = a^3 has the root 0) puts
        # the three starts on one point, and the root 4e250 of the Lattes
        # row at w = 1e250 overflows Horner; both columns take eigvals'
        # bits, without a RuntimeWarning, and the others keep their own
        fam, lam = COMPANION_CASES["bh3"]
        lattes = lattes_family()
        for f, lam, w, bad in ((fam, lam, np.array([1.5 + 0.5j, fam.poly_coeffs(lam)[0], -2j]), 1),
                               (lattes, [0j], np.array([0.5 + 0.1j, 1e250 + 0j, 2.0 + 0j]), 1)):
            eig_rows.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                new = f.preimages(lam, w)
            assert eig_rows == [1]
            assert same_bits(new[:, bad].copy(), old_companion_preimages(f, lam, w[bad])[:, 0])
            for i in (0, 2):
                assert same_bits(new[:, i].copy(), f.preimages(lam, w[i]))

    @pytest.mark.parametrize("name", list(COMPANION_CASES))
    def test_columns_are_independent(self, monkeypatch, name):
        # a column's bits do not depend on the chunk it runs in or on the
        # other targets of the call
        fam, lam = COMPANION_CASES[name]
        w = random_targets(np.random.default_rng(9), 40)
        ref = fam.preimages(lam, w)
        for rows in (1, 3, 7):
            monkeypatch.setattr(families, "ABERTH_ROWS", rows)
            assert same_bits(fam.preimages(lam, w), ref)
            assert same_bits(fam.preimages(lam, w[::-1]), ref[:, ::-1].copy())
        for i in range(0, len(w), 7):
            assert same_bits(fam.preimages(lam, w[i]), ref[:, i].copy())


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


# ----------------------------------------------------------------------
# reference activity map: one chain of scalar eval calls per parameter

def old_critical_point(family, lam, index):
    pts = family.marked_critical_points(lam)
    if index >= len(pts):
        raise ValueError(f"critical index {index} out of range")
    return complex(pts[index][0])


def old_iterate(family, lam, z, n):
    for _ in range(n):
        z = complex(family.eval(lam, z))
    return z


def old_activity_chi(family, lam, spec):
    """Activity vector chi in C^k at the parameter lam."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = np.empty(len(spec.tracked), dtype=complex)
    for i, (idx, pat) in enumerate(zip(spec.tracked, spec.patterns)):
        c = old_critical_point(family, lam, idx)
        land = old_iterate(family, lam, c, spec.k0)
        out[i] = old_iterate(family, lam, land, pat.n) - land
    return out


def old_chi_jacobian(family, lam, spec, step=FD_STEP):
    """Central finite-difference Jacobian of chi; chi is holomorphic in
    lam, so one complex direction per coordinate suffices."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    k = len(spec.tracked)
    m = len(lam)
    J = np.empty((k, m), dtype=complex)
    for j in range(m):
        h = step * max(1.0, abs(lam[j]))
        lp, lm = lam.copy(), lam.copy()
        lp[j] += h
        lm[j] -= h
        J[:, j] = (old_activity_chi(family, lp, spec)
                   - old_activity_chi(family, lm, spec)) / (2.0 * h)
    return J


def old_chi_and_jacobian(family, lam, spec, step=FD_STEP):
    """The references' value and Jacobian, as ``_chi_and_jacobian`` gives them."""
    return old_activity_chi(family, lam, spec), old_chi_jacobian(family, lam, spec, step=step)


def old_transversality(family, lam, spec, step=FD_STEP):
    """Smallest singular value of the reference Jacobian; a non-finite
    one is NoConvergence."""
    with np.errstate(over="ignore", invalid="ignore"):
        J = old_chi_jacobian(family, lam, spec, step=step)
    if not np.all(np.isfinite(J)):
        raise NoConvergence(f"activity Jacobian is not finite at lambda={lam}")
    return float(np.linalg.svd(J, compute_uv=False)[-1])


def activity_case(name):
    """(family, base parameter, {"preperiodic": spec})."""
    if name == "unicritical2":
        return QUAD, np.array([-2.0 + 0j]), {
            "preperiodic": ActivitySpec((0,), 2, (Preperiodic(1, 1),))}
    if name == "unicritical3":
        return CUBIC, np.array([0.3 + 0.1j]), {
            "preperiodic": ActivitySpec((0,), 3, (Preperiodic(2, 2),))}
    return BH3, np.array([0.5 + 0.2j, 1.1 + 0.3j]), {
        "preperiodic": ActivitySpec((0, 1), 2, (Preperiodic(1, 1), Preperiodic(2, 2)))}


ACTIVITY_NAMES = ["unicritical2", "unicritical3", "bh3"]


def stack_near(rng, base, rows, radius):
    """rows parameters within radius of base, one per row."""
    noise = rng.standard_normal((rows, len(base))) + 1j * rng.standard_normal((rows, len(base)))
    return base + radius * noise / np.abs(noise)


def same_stack(stack, family, spec):
    """activity_chi on the stack, and on each row alone, has the bits of
    the reference at each row."""
    new = misiurewicz.activity_chi(family, stack, spec)
    assert new.shape == (len(stack), len(spec.tracked))
    for r, row in enumerate(stack):
        ref = old_activity_chi(family, row, spec)
        assert same_bits(new[r], ref)
        assert same_bits(misiurewicz.activity_chi(family, row, spec), ref)
    return new


def run_outcome(fn, *args, **kw):
    """The result, or the exception type and message, of one call."""
    try:
        return fn(*args, **kw)
    except (BiflabError, ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestActivityMap:
    @pytest.mark.parametrize("name", ACTIVITY_NAMES)
    @pytest.mark.parametrize("kind", ["preperiodic"])
    def test_stacks(self, name, kind):
        family, base, specs = activity_case(name)
        rng = np.random.default_rng(ACTIVITY_NAMES.index(name))
        for rows in range(1, 10):
            same_stack(stack_near(rng, base, rows, 0.3), family, specs[kind])

    def test_scalar_parameter(self):
        _, _, specs = activity_case("unicritical2")
        spec = specs["preperiodic"]
        for lam in (-1.9 + 0.1j, 0.25 + 0j):
            assert misiurewicz.activity_chi(QUAD, lam, spec).shape == (1,)
            assert same_bits(misiurewicz.activity_chi(QUAD, lam, spec),
                             old_activity_chi(QUAD, lam, spec))

    @pytest.mark.parametrize("name", ACTIVITY_NAMES)
    def test_overflowing_rows(self, name):
        # the rows of huge parameters overflow to inf, or on to nan
        # (inf - inf), while the others stay finite
        family, base, specs = activity_case(name)
        rng = np.random.default_rng(20)
        huge = [1e80, 1e160 + 1e160j, -1e300j, 1e30 - 1e30j]
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in range(1, 10):
                stack = stack_near(rng, base, rows, 0.3)
                stack[::2, 0] = [huge[r % len(huge)] for r in range(len(stack[::2]))]
                new = same_stack(stack, family, specs["preperiodic"])
                assert not np.all(np.isfinite(new[0]))

    def test_failures_match(self):
        # the cubic family has no critical index 2, which fails as the
        # reference does at its first bad row; an unknown pattern is
        # refused where the spec is built
        bh3_spec = ActivitySpec((0, 2), 2, (Preperiodic(1, 1), Preperiodic(2, 2)))
        stack = np.array([[0.4 + 0j, 1.0 + 0j], [0j, 1.0 + 0j]])
        new = run_outcome(misiurewicz.activity_chi, BH3, stack, bh3_spec)
        assert isinstance(new, str)
        assert new == next(r for r in (run_outcome(old_activity_chi, BH3, row, bh3_spec)
                                       for row in stack) if isinstance(r, str))
        with pytest.raises(TypeError, match="unknown pattern 'not a pattern'"):
            ActivitySpec((0,), 2, ("not a pattern",))

    def test_meeting_critical_points_keep_their_row(self):
        # at c_1 = 0 both tracked critical points of the cubic family are
        # 0: that row of a stack gets chi of the orbit of 0 in each entry,
        # with the bits of the row alone, and the other rows are untouched
        spec = activity_case("bh3")[2]["preperiodic"]
        stack = np.array([[0.4 + 0j, 1.0 + 0j], [0j, 1.0 + 0j], [-0.3 + 0.2j, 0.9 + 0j]])
        new = misiurewicz.activity_chi(BH3, stack, spec)
        land = old_iterate(BH3, stack[1], 0j, spec.k0)
        want = [old_iterate(BH3, stack[1], land, pat.n) - land for pat in spec.patterns]
        assert same_bits(new[1], want)
        for r, row in enumerate(stack):
            assert same_bits(new[r], misiurewicz.activity_chi(BH3, row, spec))
        assert same_bits(new[[0, 2]], [old_activity_chi(BH3, stack[r], spec) for r in (0, 2)])

    @pytest.mark.parametrize("name", ACTIVITY_NAMES)
    @pytest.mark.parametrize("kind", ["preperiodic"])
    def test_jacobian(self, name, kind):
        family, base, specs = activity_case(name)
        rng = np.random.default_rng(30)
        for lam in stack_near(rng, base, 6, 0.3):
            for step in (FD_STEP, 2e-7):
                chi, J = misiurewicz._chi_and_jacobian(family, lam, specs[kind], step=step)
                old_chi, old_J = old_chi_and_jacobian(family, lam, specs[kind], step=step)
                assert same_bits(chi, old_chi) and same_bits(J, old_J)

    def test_horner_keeps_overflow_and_zero_rows(self):
        # the inline Horner pass (c_d, then c_j + w * z; polyval starts
        # from c_d + z * 0) keeps the reference's bits on a row whose orbit
        # overflows at a = 1e80, with its inf and nan where the
        # reference has them, and on the row at exactly 0
        spec = activity_case("bh3")[2]["preperiodic"]
        stack = np.array([[0.5 + 0.2j, 1e80 + 0j], [0j, 0j], [0.5 + 0.2j, 1.1 + 0.3j]])
        with np.errstate(over="ignore", invalid="ignore"):
            new = misiurewicz.activity_chi(BH3, stack, spec)
            old = np.array([old_activity_chi(BH3, row, spec) for row in stack])
        assert same_bits(new, old)
        assert np.array_equal(np.isinf(new), np.isinf(old))
        assert np.array_equal(np.isnan(new), np.isnan(old))
        assert np.any(np.isnan(new[0])) and np.all(np.isfinite(new[1:]))


# seeds of the c12 hunt grid (tests/test_acceptance.py): the four that
# certify for each pattern pair, and every 11th of the others, which fail
# in each of the solver's ways (superattracting target, stalled damping,
# singular Jacobian, residual above 1e-10); grid[144] has c_1 = 0, where
# both tracked critical points start at 0, and its Newton run ends at a
# superattracting target
def c12_seeds():
    grid = [[complex(re1, im1), complex(rea, ima)]
            for re1 in np.linspace(-1.5, 1.5, 9) for im1 in (0.0, 0.4, 0.8)
            for rea in np.linspace(0.3, 1.3, 6) for ima in (0.1, 0.5)]
    return {(Preperiodic(1, 1), Preperiodic(2, 2)): [grid[i] for i in (143, 203, 263, 275)],
            (Preperiodic(2, 2), Preperiodic(1, 1)): [grid[i] for i in (118, 167, 263, 275)],
            "failing": grid[::11] + [grid[144]]}


def hunt_record(family, seed, spec):
    """The certificate and its verify report as JSON, or the failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        cert = run_outcome(misiurewicz.solve_misiurewicz, family, seed, spec)
    if isinstance(cert, str):
        return cert
    return json.dumps([misiurewicz.certificate_to_json(cert, family),
                       misiurewicz.verify_certificate(cert, family)])


class TestActivityCertificates:
    def records(self):
        cases = [(QUAD, [-1.95 + 0j], activity_case("unicritical2")[2]["preperiodic"])]
        seeds = c12_seeds()
        failing = seeds.pop("failing")
        for pats, certified in seeds.items():
            spec = ActivitySpec((0, 1), 2, pats)
            cases += [(BH3, seed, spec) for seed in certified + failing]
        return [hunt_record(*case) for case in cases]

    def test_c05_and_c12_match_old_code(self, monkeypatch):
        new = self.records()
        assert sum(r.startswith("[") for r in new) >= 10
        assert len({r.split(":")[0] for r in new if not r.startswith("[")}) == 2
        monkeypatch.setattr(misiurewicz, "activity_chi", old_activity_chi)
        monkeypatch.setattr(misiurewicz, "_chi_and_jacobian", old_chi_and_jacobian)
        assert new == self.records()

    def test_cli_outputs_match_old_code(self, tmp_path, monkeypatch):
        runs = [["--family", "unicritical2", "--seed", "-1.95,0|-1.9,0",
                 "--pattern", "k0=2,n=1,p=1"],
                ["--family", "bh3", "--tracked", "0,1", "--seed",
                 "-0.375,0.8;1.3,0.5|1.125,0;1.3,0.5", "--pattern", "k0=2,n=1,p=1,n=2,p=2"]]

        def run(side):
            for i, argv in enumerate(runs):
                out = tmp_path / side / str(i)
                assert main(["misiurewicz"] + argv + ["--out", str(out / "solve")]) == 0
                assert main(["certify", argv[0], argv[1],
                             "--certs", str(out / "solve" / "certificates.ndjson"),
                             "--out", str(out / "certify")]) == 0
            return {str(p.relative_to(tmp_path / side)): bio.sha256_file(p)
                    for p in sorted((tmp_path / side).glob("*/*/*"))
                    if p.name != "manifest.json"}

        new = run("new")
        monkeypatch.setattr(misiurewicz, "activity_chi", old_activity_chi)
        monkeypatch.setattr(misiurewicz, "_chi_and_jacobian", old_chi_and_jacobian)
        old = run("old")
        assert len(new) == 4 and new == old


# ----------------------------------------------------------------------
# reference landing checks: each walked the critical orbit from scratch,
# the closure gap and multiplier through ``old_iterate``

def old_landing_multiplier(family, lam, spec, i):
    idx, pat = spec.tracked[i], spec.patterns[i]
    c = misiurewicz._critical_point(family.marked_critical_points(lam), idx)
    land = old_iterate(family, lam, c, spec.k0 + (pat.n if isinstance(pat, Preperiodic) else 0))
    seg = orbit(family, lam, land, pat.p)
    return segment_multiplier(family, lam, seg.points[:-1])


def old_m_plus(family, lam, spec):
    logs = np.full((len(spec.tracked), misiurewicz.N_CERT), -math.inf)
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    for i, (idx, pat) in enumerate(zip(spec.tracked, spec.patterns)):
        c = misiurewicz._critical_point(family.marked_critical_points(lam), idx)
        land = old_iterate(family, lam, c, spec.k0)
        q = pat.n if isinstance(pat, Preperiodic) else pat.p
        ob = orbit(family, lam, land, q)
        step = np.diff(ob.log_deriv[: q + 1])
        reps = -(-misiurewicz.N_CERT // q)
        logs[i] = np.cumsum(np.tile(step, reps))[:misiurewicz.N_CERT]
    return np.max(logs, axis=0)


def old_closure_gap(family, lam, spec):
    worst = 0.0
    for idx, pat in zip(spec.tracked, spec.patterns):
        c = misiurewicz._critical_point(family.marked_critical_points(lam), idx)
        z = old_iterate(family, lam, c, spec.k0 + (pat.n if isinstance(pat, Preperiodic) else 0))
        worst = max(worst, abs(old_iterate(family, lam, z, pat.p) - z))
    return worst


def old_solve_misiurewicz(family, seed, spec):
    lam = np.atleast_1d(np.asarray(seed, dtype=complex)).copy()
    k = len(spec.tracked)
    if k != len(lam):
        raise ValueError(f"square solve requires {k} parameter coordinates, got {len(lam)}")
    with np.errstate(over="ignore", invalid="ignore"):
        chi = old_activity_chi(family, lam, spec)
        res = float(np.linalg.norm(chi))
        for _ in range(misiurewicz.SOLVE_MAXITER):
            if res <= 1e-12:
                break
            J = old_chi_jacobian(family, lam, spec)
            if not np.all(np.isfinite(J)):
                raise NoConvergence(f"Newton: activity Jacobian is not finite at lambda={lam}")
            try:
                step = np.linalg.solve(J, chi)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"singular activity Jacobian: {exc}") from exc
            for damping in (1.0, 0.5, 0.25, 0.125, 0.0625):
                trial = lam - damping * step
                chi_t = old_activity_chi(family, trial, spec)
                res_t = float(np.linalg.norm(chi_t))
                if math.isfinite(res_t) and res_t < res:
                    lam, chi, res = trial, chi_t, res_t
                    break
            else:
                raise NoConvergence(f"damped Newton stalled at residual {res:.3g}")
    if not res <= 1e-10:
        raise NoConvergence(f"residual {res:.3g} > 1e-10 after {misiurewicz.SOLVE_MAXITER} iterations")
    gap = old_closure_gap(family, lam, spec)
    if not gap <= misiurewicz.CLOSURE_TOL:
        raise NoConvergence(f"landing point does not close under f^p: gap {gap:.3g} > "
                            f"{misiurewicz.CLOSURE_TOL}")
    mults = []
    for i in range(k):
        try:
            ml = old_landing_multiplier(family, lam, spec, i)
        except CriticalOnOrbit as exc:
            raise NonRepellingTarget(f"landing cycle passes through a critical point: {exc}") from exc
        if ml[0] <= math.log1p(misiurewicz.DELTA_REP):
            raise NonRepellingTarget(
                f"landing cycle multiplier {math.exp(ml[0]):.6g} <= 1 + {misiurewicz.DELTA_REP}")
        mults.append(ml)
    sigma = old_transversality(family, lam, spec)
    return misiurewicz.MisiurewiczCertificate(
        lam=lam, residual=res, multipliers=mults, sigma_min=sigma,
        m_plus=old_m_plus(family, lam, spec), spec=spec)


def old_verify_certificate(cert, family):
    spec, lam = cert.spec, cert.lam
    checks = {}
    worst = old_closure_gap(family, lam, spec)
    checks["orbit_closure"] = worst <= misiurewicz.CLOSURE_TOL
    repelling = True
    drift = 0.0
    for i in range(len(spec.tracked)):
        try:
            ml = old_landing_multiplier(family, lam, spec, i)
        except (BiflabError, ArithmeticError, np.linalg.LinAlgError):
            repelling = False
            break
        if ml[0] <= math.log1p(misiurewicz.DELTA_REP):
            repelling = False
        drift = max(drift, abs(ml[0] - cert.multipliers[i][0]))
    checks["repelling_landing"] = repelling
    checks["multiplier_match"] = repelling and drift <= 1e-6
    sigma = old_transversality(family, lam, spec, step=2e-7)
    checks["sigma_min_match"] = abs(sigma - cert.sigma_min) <= 1e-4 * max(1.0, cert.sigma_min)
    mp = old_m_plus(family, lam, spec)
    checks["m_plus_match"] = bool(np.max(np.abs(mp - cert.m_plus)) <= 1e-8 * max(1.0, float(np.max(np.abs(mp)))))
    return {
        "passed": all(checks.values()),
        "checks": checks,
        "closure_gap": worst,
        "sigma_min": sigma,
    }


def use_old_landing_checks(monkeypatch):
    """Route the library and the command line through the references."""
    for mod in (misiurewicz, cli):
        monkeypatch.setattr(mod, "solve_misiurewicz", old_solve_misiurewicz)
        monkeypatch.setattr(mod, "verify_certificate", old_verify_certificate)


class TestLandingWalk:
    # c05 at c = -2, and its certificate moved to c = -1 (a
    # superattracting 2-cycle) and c = 0.3 (outside the Mandelbrot set,
    # but no escape within the walk)
    C05 = [(QUAD, [-1.95 + 0j], activity_case("unicritical2")[2]["preperiodic"])]
    TAMPERED = ([-1.0 + 0j], [0.3 + 0j])

    def records(self):
        cases = list(self.C05)
        seeds = c12_seeds()
        failing = seeds.pop("failing")
        for pats, certified in seeds.items():
            spec = ActivitySpec((0, 1), 2, pats)
            cases += [(BH3, seed, spec) for seed in certified + failing]
        out = [hunt_record(*case) for case in cases]
        cert = misiurewicz.solve_misiurewicz(*self.C05[0])
        for lam in self.TAMPERED:
            report = run_outcome(misiurewicz.verify_certificate,
                                 dataclasses.replace(cert, lam=np.array(lam)), QUAD)
            out.append(report if isinstance(report, str) else json.dumps(report))
        return out

    def test_certificates_and_reports_match_old_code(self, monkeypatch):
        new = self.records()
        assert sum(r.startswith("[") for r in new) >= 10
        assert all('"orbit_closure": false' in r for r in new[-2:])
        use_old_landing_checks(monkeypatch)
        assert new == self.records()

    def test_cli_outputs_match_old_code(self, tmp_path, monkeypatch):
        runs = [["--family", "unicritical2", "--seed", "-1.95,0", "--pattern", "k0=2,n=1,p=1"],
                ["--family", "bh3", "--tracked", "0,1", "--seed",
                 "-0.375,0.8;1.3,0.5|1.125,0;1.3,0.5", "--pattern", "k0=2,n=1,p=1,n=2,p=2"],
                ["--family", "bh3", "--tracked", "0,1", "--seed",
                 "0,0.4;1.3,0.5|1.125,0;1.3,0.5",
                 "--pattern", "k0=2,n=2,p=2,n=1,p=1"]]

        def run(side):
            for i, argv in enumerate(runs):
                out = tmp_path / side / str(i)
                assert main(["misiurewicz"] + argv + ["--out", str(out / "solve")]) == 0
                assert main(["certify", argv[0], argv[1],
                             "--certs", str(out / "solve" / "certificates.ndjson"),
                             "--out", str(out / "certify")]) == 0
            docs = bio.read_ndjson(tmp_path / side / "0" / "solve" / "certificates.ndjson")
            for lam in self.TAMPERED:
                docs[0]["lambda"] = [[lam[0].real, lam[0].imag]]
                out = tmp_path / side / f"tampered{lam[0].real}"
                out.mkdir()
                bio.write_ndjson(out / "certs.ndjson", docs)
                assert main(["certify", "--family", "unicritical2", "--certs",
                             str(out / "certs.ndjson"), "--out", str(out / "certify")]) == 3
            return {str(p.relative_to(tmp_path / side)): bio.sha256_file(p)
                    for p in sorted((tmp_path / side).rglob("*"))
                    if p.is_file() and p.name != "manifest.json"}

        new = run("new")
        use_old_landing_checks(monkeypatch)
        old = run("old")
        assert len(new) == 10 and new == old
