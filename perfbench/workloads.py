"""The benchmark's workloads: the steps each one runs, the work it does
and the oracle checks its outputs must meet.

A step is either a `biflab` command line (``argv``) or the Misiurewicz
hunt (``hunt``), which has no command and calls the library directly.
Placeholders in an argv: ``{dir}`` is the directory of the current
iteration and ``{lattes}`` the Lattès family JSON written at set-up.
Every step writes into ``{dir}/<step name>``.

Sizes: ``full`` is what the benchmark measures; ``smoke`` runs the same
steps at a size that finishes in seconds, for the benchmark's own test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("plane-io", "grid-deep", "sampler", "certify")

# f(z) = (z^2+1)^2 / (4z(z^2-1)), the degree-4 Lattès map of
# tests/test_families.py; coefficient rows are [[re, im], ...] per power of z
LATTES = {
    "kind": "rational",
    "degree": 4,
    "num": [[[1.0, 0.0]], [[0.0, 0.0]], [[2.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]],
    "den": [[[0.0, 0.0]], [[-4.0, 0.0]], [[0.0, 0.0]], [[4.0, 0.0]], [[0.0, 0.0]]],
}

# half-width of the uniform jitter added to each coordinate of a hunt
# seed; small enough that the work per seed barely changes
HUNT_JITTER = 1e-3

_FULL = {
    "ddc_res": 1024,
    "tip_res": 2048, "tip_maxiter": 1024, "tip_radii": range(4, 11),
    "ma2_res": 24,
    "lyap_samples": 1_000_000, "lyap_depth": 30,
    "lattes_samples": 20_000, "lattes_depth": 25,
    "hunt_seeds": slice(None),
    "cantor_depth": 16, "cloud_scales": range(2, 9),
}
_SMOKE = {
    "ddc_res": 64,
    "tip_res": 128, "tip_maxiter": 256, "tip_radii": range(4, 9),
    "ma2_res": 12,
    "lyap_samples": 20_000, "lyap_depth": 30,
    "lattes_samples": 1_000, "lattes_depth": 25,
    "hunt_seeds": slice(196, 208),   # holds one certified seed
    "cantor_depth": 10, "cloud_scales": range(2, 6),
}


def _powers_of_half(exponents):
    return ",".join(repr(2.0 ** -k) for k in exponents)


def hunt_seeds(seed, part=slice(None)):
    """The c12 seed grid for the cubic family, each coordinate jittered
    by at most HUNT_JITTER; the grid order is that of the test."""
    rng = random.Random(seed)
    grid = []
    for i in range(9):
        re1 = -1.5 + 3.0 * i / 8
        for im1 in (0.0, 0.4, 0.8):
            for j in range(6):
                rea = 0.3 + 1.0 * j / 5
                for ima in (0.1, 0.5):
                    grid.append([v + rng.uniform(-HUNT_JITTER, HUNT_JITTER)
                                 for v in (re1, im1, rea, ima)])
    return grid[part]


def steps(workload, seed, size="full"):
    """The ordered steps of one iteration of the workload."""
    p = _FULL if size == "full" else _SMOKE
    if workload == "plane-io":
        return [
            {"name": "ddc", "argv": [
                "ddc", "--family", "unicritical2", "--box", "-0.5,0:5x4",
                "--res", str(p["ddc_res"]), "--field", "G0", "--out", "{dir}/ddc"]},
        ]
    if workload == "grid-deep":
        return [
            {"name": "tip", "argv": [
                "dimension", "--family", "unicritical2", "--box", "-2,0:0.16x0.16",
                "--res", str(p["tip_res"]), "--maxiter", str(p["tip_maxiter"]),
                "--field", "G0", "--center", "-2,0",
                "--radii", _powers_of_half(p["tip_radii"]), "--out", "{dir}/tip"]},
            {"name": "ma2", "argv": [
                "ma2", "--family", "bh3", "--box", "1.7,0.4:0.8x0.8;1.6,0.5:0.8x0.8",
                "--res", str(p["ma2_res"]), "--field", "G0", "--field2", "G1",
                "--maxiter", "256", "--mollify", "0.2", "--out", "{dir}/ma2"]},
        ]
    if workload == "sampler":
        return [
            {"name": "lyap_quadratic", "argv": [
                "lyap", "--family", "unicritical2", "--param", "-2,0",
                "--samples", str(p["lyap_samples"]), "--depth", str(p["lyap_depth"]),
                "--seed", str(seed), "--out", "{dir}/lyap_quadratic"]},
            {"name": "lyap_lattes", "argv": [
                "lyap", "--family", "{lattes}", "--param", "0,0",
                "--samples", str(p["lattes_samples"]), "--depth", str(p["lattes_depth"]),
                "--seed", str(seed), "--out", "{dir}/lyap_lattes"]},
        ]
    if workload == "certify":
        return [
            {"name": "hunt", "hunt": {
                "family": ["branner_hubbard", 3], "k0": 2, "tracked": [0, 1],
                "patterns": [[1, 1], [2, 2]],
                "seeds": hunt_seeds(seed, p["hunt_seeds"])}},
            {"name": "misiurewicz", "argv": [
                "misiurewicz", "--family", "unicritical2", "--seed", "-1.95,0",
                "--pattern", "k0=2,n=1,p=1", "--out", "{dir}/misiurewicz"]},
            {"name": "certify", "argv": [
                "certify", "--family", "unicritical2",
                "--certs", "{dir}/misiurewicz/certificates.ndjson", "--out", "{dir}/certify"]},
            {"name": "linearize", "argv": [
                "linearize", "--family", "unicritical2", "--param", "-2,0",
                "--w", "2,0", "--n", "30", "--out", "{dir}/linearize"]},
            {"name": "cantor", "argv": [
                "cantor", "--family", "unicritical2", "--param", "-6,0",
                "--anchors", "3,0;-2,0", "--depth", str(p["cantor_depth"]),
                "--out", "{dir}/cantor"]},
            {"name": "cloud_dimension", "argv": [
                "dimension", "--family", "unicritical2", "--cloud", "{dir}/cantor/cloud.csv",
                "--scales", _powers_of_half(p["cloud_scales"]), "--out", "{dir}/cloud_dimension"]},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def work(workload, size="full"):
    """(amount, unit) of the fixed work of one iteration; throughput is
    amount / wall_s."""
    p = _FULL if size == "full" else _SMOKE
    if workload == "plane-io":
        return p["ddc_res"] ** 2, "cells"
    if workload == "grid-deep":
        # the tip scan plus the two fields (G0, G1) scanned by ma2
        return p["tip_res"] ** 2 + 2 * p["ma2_res"] ** 4, "cells"
    if workload == "sampler":
        return (p["lyap_samples"] * p["lyap_depth"]
                + p["lattes_samples"] * p["lattes_depth"]), "steps"
    if workload == "certify":
        return len(hunt_seeds(0, p["hunt_seeds"])), "seeds"
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# oracles

@dataclass(frozen=True)
class Check:
    """One oracle: ``error(docs, ref)`` measures how far the outputs are
    from the reference ``ref``; the check passes when the error is
    finite and at most ``tol``.  ``docs`` maps "<step>/<file>" to the
    parsed JSON (a list of records for NDJSON) of every output file."""
    workload: str
    step: str
    name: str
    source: str
    ref: float
    tol: float
    error: Callable[[dict, float], float]


def _unless(ok):
    """Error of a yes/no condition: 0 when it holds, infinite when not."""
    return 0.0 if ok else math.inf


def _bowen_gap(docs, ref):
    # the box slope of the Cantor cloud lies in [log 2/log ref, log 2/log K]
    slope = docs["cloud_dimension/dimension.json"]["slope"]
    lo = math.log(2) / math.log(ref)
    hi = math.log(2) / math.log(docs["cantor/cantor.json"]["K_cloud"])
    return max(lo - slope, slope - hi, 0.0)


CHECKS = (
    Check("plane-io", "ddc", "total_mass", "c04", 1.0, 0.05,
          lambda d, ref: abs(d["ddc/ddc.json"]["total_mass"] - ref)),
    Check("grid-deep", "tip", "pointwise_slope", "c06", 0.5, 0.1,
          lambda d, ref: abs(d["tip/dimension.json"]["slope"] - ref)),
    Check("grid-deep", "ma2", "mixed_mass_positive", "c11", 0.0, 0.0,
          lambda d, ref: _unless(d["ma2/wedge_G0_G1.json"]["total_mass"] > ref)),
    # c01 allows 2e-3 at its one seed, about 2.2 stderr at 10^6 samples,
    # which seed 27 exceeds; with the seed varying, use 4 stderr as the
    # Lattès test does
    Check("sampler", "lyap_quadratic", "lyapunov_chebyshev_sigma", "c01", math.log(2), 4.0,
          lambda d, ref: abs(d["lyap_quadratic/lyap.json"]["value"] - ref)
          / d["lyap_quadratic/lyap.json"]["stderr"]),
    Check("sampler", "lyap_lattes", "lyapunov_lattes_sigma", "test_lattes_equals_half_log_degree",
          0.5 * math.log(4), 4.0,
          lambda d, ref: abs(d["lyap_lattes/lyap.json"]["value"] - ref)
          / d["lyap_lattes/lyap.json"]["stderr"]),
    Check("certify", "hunt", "found_any", "c12", 1.0, 0.0,
          lambda d, ref: _unless(len(d["hunt/certificates.ndjson"]) >= ref)),
    Check("certify", "hunt", "max_residual", "c12", 0.0, 1e-10,
          lambda d, ref: max((abs(c["residual"] - ref) for c in d["hunt/certificates.ndjson"]),
                             default=0.0)),
    Check("certify", "hunt", "repelling", "c12", math.log1p(1e-3), 0.0,
          lambda d, ref: _unless(all(m["log_mod"] > ref for c in d["hunt/certificates.ndjson"]
                                     for m in c["multipliers"]))),
    Check("certify", "hunt", "sigma_min_positive", "c12", 0.0, 0.0,
          lambda d, ref: _unless(all(c["sigma_min"] > ref
                                     for c in d["hunt/certificates.ndjson"]))),
    Check("certify", "hunt", "verified", "c12", 0.0, 0.0,
          lambda d, ref: abs(sum(not r["passed"] for r in d["hunt/verify.json"]["reports"]) - ref)),
    Check("certify", "misiurewicz", "lambda_star", "c05", -2.0, 1e-10,
          lambda d, ref: abs(complex(*d["misiurewicz/certificates.ndjson"][0]["lambda"][0]) - ref)),
    Check("certify", "misiurewicz", "sigma_min", "c05", 8.0, 1e-3,
          lambda d, ref: abs(d["misiurewicz/certificates.ndjson"][0]["sigma_min"] - ref)),
    Check("certify", "certify", "all_pass", "c05", 0.0, 0.0,
          lambda d, ref: abs(sum(not r["passed"]
                                 for r in d["certify/certify_report.json"]["reports"]) - ref)),
    Check("certify", "linearize", "residual_over_rho", "c08", 0.0, 1e-8,
          lambda d, ref: abs(d["linearize/linearize.json"]["residual"] - ref)
          / d["linearize/linearize.json"]["rho"]),
    Check("certify", "linearize", "c_rho_below_one", "c08", 1.0, 0.0,
          lambda d, ref: _unless(d["linearize/linearize.json"]["C"]
                                 * d["linearize/linearize.json"]["rho"] < ref)),
    Check("certify", "cloud_dimension", "bowen_band", "bowen_band", 6.0, 0.0, _bowen_gap),
)


def checks(workload):
    return [c for c in CHECKS if c.workload == workload]


def accuracy(workload, docs):
    """The accuracy fields of the per-layer report, measured errors as
    named there; reported, not gated."""
    out = {}
    if workload == "plane-io":
        out["bifgrid.ddc.mass_err"] = abs(docs["ddc/ddc.json"]["total_mass"] - 1.0)
    elif workload == "grid-deep":
        out["bifgrid.pointwise_dimension.slope_err"] = abs(docs["tip/dimension.json"]["slope"] - 0.5)
    elif workload == "sampler":
        quad = docs["lyap_quadratic/lyap.json"]
        lattes = docs["lyap_lattes/lyap.json"]
        out["potential.lyapunov_mc.err_sigma"] = max(
            abs(quad["value"] - math.log(2)) / quad["stderr"],
            abs(lattes["value"] - 0.5 * math.log(4)) / lattes["stderr"])
    elif workload == "certify":
        certs = docs["hunt/certificates.ndjson"] + docs["misiurewicz/certificates.ndjson"]
        out["misiurewicz.solve.max_residual"] = max(c["residual"] for c in certs)
        lin = docs["linearize/linearize.json"]
        out["hyperbolic.linearize_orbit.residual_ratio"] = lin["residual"] / lin["rho"]
    return out
