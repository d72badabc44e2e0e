"""Command-line interface.

Subcommands: scan, ddc, ma2, lyap, misiurewicz, certify, dimension,
scaling, cantor, linearize.  Every run writes its outputs plus a
manifest.json (resolved configuration and a sha256 per output) into the
chosen output directory.  Exit codes: 0 success, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import io as bio
from .bifgrid import (
    Box,
    box_dimension,
    ddc as ddc_op,
    mass_scaling,
    monge_ampere2,
    pointwise_dimension,
    radial_masses,
    scan_field,
    wedge_pair,
)
from .errors import BiflabError
from .families import MapFamily, family_from_json, family_to_json
from .hyperbolic import build_cantor, linearize_orbit
from .misiurewicz import (
    ActivitySpec,
    Preperiodic,
    certificate_from_json,
    certificate_to_json,
    solve_misiurewicz,
    verify_certificate,
)
from .potential import lyapunov_mc


# ----------------------------------------------------------------------
# flag parsing

def _parse_family(text):
    if os.path.exists(text):
        import json
        with open(text) as f:
            fam, _ = family_from_json(json.load(f))
        return fam
    for prefix, kind in (("unicritical", "unicritical"),
                         ("branner_hubbard", "branner_hubbard"),
                         ("bh", "branner_hubbard")):
        if text.startswith(prefix) and text[len(prefix):].isdigit():
            return MapFamily(kind, int(text[len(prefix):]))
    raise ValueError(f"unknown family {text!r} (try unicritical2, bh3, or a JSON file)")


def _parse_params(text):
    out = []
    for part in text.split(";"):
        re_s, im_s = part.split(",")
        out.append(float(re_s) + 1j * float(im_s))
    return out


def _parse_box(text):
    """`cx,cy:WxH[;cx,cy:WxH]`; sizes are full widths in parameter units."""
    centers, halves_w, halves_h = [], [], []
    for part in text.split(";"):
        c_s, size_s = part.split(":")
        cx, cy = (float(v) for v in c_s.split(","))
        w, h = (float(v) for v in size_s.lower().split("x"))
        centers.append(cx + 1j * cy)
        halves_w.append(w / 2.0)
        halves_h.append(h / 2.0)
    return Box(centers=tuple(centers), half_widths=tuple(halves_w),
               half_heights=tuple(halves_h))


def _parse_pattern(text, tracked):
    """`k0=2,n=1,p=1[,n=...,p=...]`: one (n, p) pair per tracked index."""
    k0 = None
    ns, ps = [], []
    for item in text.split(","):
        key, val = item.split("=")
        if key == "k0":
            k0 = int(val)
        elif key == "n":
            ns.append(int(val))
        elif key == "p":
            ps.append(int(val))
        else:
            raise ValueError(f"unknown pattern key {key!r}")
    if k0 is None or len(ns) != len(ps) or not ns:
        raise ValueError("pattern needs k0 and matching n=, p= pairs")
    if len(ns) == 1 and len(tracked) > 1:
        ns, ps = ns * len(tracked), ps * len(tracked)
    if len(ns) != len(tracked):
        raise ValueError("one n=,p= pair per tracked critical point")
    return ActivitySpec(tracked=tuple(tracked), k0=k0,
                        patterns=tuple(Preperiodic(n, p) for n, p in zip(ns, ps)))


def _config(args, family):
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func",) and v is not None}
    cfg["family_resolved"] = family_to_json(family) if family is not None else None
    return cfg


def _finish(outdir, config, paths):
    manifest = Path(outdir) / "manifest.json"
    bio.write_manifest(manifest, config, [str(p) for p in paths])
    return 0


# ----------------------------------------------------------------------
# subcommands

def _cmd_lyap(args):
    family = _parse_family(args.family)
    lam = _parse_params(args.param)
    res = lyapunov_mc(family, lam, args.samples, args.depth, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"value": res.value, "stderr": res.stderr, "n_points": res.n_points,
           "depth": res.depth, "flagged": res.flagged, "seed": args.seed}
    path = out / "lyap.json"
    bio.write_json(path, doc)
    print(f"L = {res.value:.6f} +/- {res.stderr:.2g}")
    return _finish(out, _config(args, family), [path])


def _scan(args, family):
    box = _parse_box(args.box)
    return scan_field(family, box, args.res, args.field, maxiter=args.maxiter)


def _cmd_scan(args):
    family = _parse_family(args.family)
    gf = _scan(args, family)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pgm = out / f"{args.field}.pgm"
    side = bio.write_pgm(pgm, gf.values, sidecar={"meta": gf.meta})
    csv_path = out / f"{args.field}.csv"
    bio.write_field_csv(csv_path, gf.box, gf.resolution, gf.values, args.field)
    print(f"scanned {args.field}: min {float(np.nanmin(gf.values)):.6g} "
          f"max {float(np.nanmax(gf.values)):.6g} nan {gf.nan_count}")
    return _finish(out, _config(args, family), [pgm, side, csv_path])


def _cmd_ddc(args):
    family = _parse_family(args.family)
    gf = _scan(args, family)
    mf = ddc_op(gf)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pgm = out / "ddc.pgm"
    side = bio.write_pgm(pgm, mf.cell_mass, sidecar={"meta": mf.meta})
    csv_path = out / "ddc.csv"
    bio.write_field_csv(csv_path, mf.box, mf.resolution, mf.cell_mass, "mass")
    stats = out / "ddc.json"
    bio.write_json(stats, {"total_mass": mf.total_mass,
                           "clamp_total": mf.clamp_total, "meta": mf.meta})
    print(f"total mass {mf.total_mass:.6f} (clamped {mf.clamp_total:.3g})")
    return _finish(out, _config(args, family), [pgm, side, csv_path, stats])


def _cmd_ma2(args):
    family = _parse_family(args.family)
    box = _parse_box(args.box)
    gf = scan_field(family, box, args.res, args.field, maxiter=args.maxiter)
    if args.field2:
        gf2 = scan_field(family, box, args.res, args.field2, maxiter=args.maxiter)
        mf = wedge_pair(gf, gf2, mollify_radius=args.mollify)
        stem = f"wedge_{args.field}_{args.field2}"
    else:
        mf = monge_ampere2(gf, mollify_radius=args.mollify)
        stem = f"ma2_{args.field}"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pgm = out / f"{stem}.pgm"
    side = bio.write_pgm(pgm, mf.cell_mass, sidecar={"meta": mf.meta})
    csv_path = out / f"{stem}.csv"
    bio.write_field_csv(csv_path, mf.box, mf.resolution, mf.cell_mass, "mass")
    stats = out / f"{stem}.json"
    bio.write_json(stats, {"total_mass": mf.total_mass,
                           "clamp_total": mf.clamp_total, "meta": mf.meta})
    print(f"{stem}: total mass {mf.total_mass:.6g}")
    return _finish(out, _config(args, family), [pgm, side, csv_path, stats])


def _cmd_misiurewicz(args):
    family = _parse_family(args.family)
    tracked = [int(t) for t in args.tracked.split(",")]
    spec = _parse_pattern(args.pattern, tracked)
    certs = []
    for seed in args.seed.split("|"):
        lam = _parse_params(seed)
        cert = solve_misiurewicz(family, lam, spec)
        certs.append(certificate_to_json(cert, family))
        print(f"lambda* = {cert.lam}  sigma_min = {cert.sigma_min:.6g}  "
              f"residual = {cert.residual:.2g}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "certificates.ndjson"
    bio.write_ndjson(path, certs)
    return _finish(out, _config(args, family), [path])


def _cmd_certify(args):
    family = _parse_family(args.family)
    docs = bio.read_ndjson(args.certs)
    reports = []
    for doc in docs:
        reports.append(verify_certificate(certificate_from_json(doc), family))
        print("pass" if reports[-1]["passed"] else "FAIL",
              [k for k, v in reports[-1]["checks"].items() if not v])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "certify_report.json"
    bio.write_json(path, {"reports": reports})
    code = _finish(out, _config(args, family), [path])
    return code if all(r["passed"] for r in reports) else 3


def _cmd_dimension(args):
    needed = ("scales",) if args.cloud else ("box", "res", "center", "radii")
    missing = [f"--{k}" for k in needed if getattr(args, k) is None]
    if missing:
        raise ValueError(f"dimension needs --cloud with --scales, or --box, --res, "
                         f"--center and --radii; missing {', '.join(missing)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.cloud:
        pts = bio.read_cloud_csv(args.cloud)
        scales = np.array([float(s) for s in args.scales.split(",")])
        est = box_dimension(pts, scales)
        doc = {"kind": "box_counting", "slope": est.slope, "stderr": est.stderr,
               "fit_range": list(est.fit_range), "n_points": est.n_points}
        family = None
    else:
        family = _parse_family(args.family)
        gf = _scan(args, family)
        mf = ddc_op(gf)
        center = _parse_params(args.center)
        radii = np.array([float(r) for r in args.radii.split(",")])
        prof = radial_masses(mf, center, radii)
        est = pointwise_dimension(prof)
        doc = {"kind": "pointwise", "slope": est.slope, "stderr": est.stderr,
               "fit_range": list(est.fit_range), "n_points": est.n_points,
               "masses": prof.masses.tolist(), "radii": prof.radii.tolist()}
    path = out / "dimension.json"
    bio.write_json(path, doc)
    print(f"slope = {est.slope:.4f} +/- {est.stderr:.4f}")
    return _finish(out, _config(args, family), [path])


def _cmd_scaling(args):
    family = _parse_family(args.family)
    gf = _scan(args, family)
    mf = ddc_op(gf)
    center = _parse_params(args.center)
    m_plus = np.array([float(v) for v in args.mplus.split(",")])
    res = mass_scaling(mf, center, m_plus, q=args.q, d=args.d, eps=args.eps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"slope": res.slope, "stderr": res.stderr, "expected": res.expected,
           "deviation": res.deviation, "n_used": res.n_used,
           "radii": res.radii.tolist(), "masses": res.masses.tolist(),
           "eps": args.eps}
    path = out / "scaling.json"
    bio.write_json(path, doc)
    print(f"slope = {res.slope:.4f} (expected {res.expected:.4f})")
    return _finish(out, _config(args, family), [path])


def _cmd_cantor(args):
    family = _parse_family(args.family)
    lam = _parse_params(args.param)
    anchors = _parse_params(args.anchors)
    cs = build_cantor(family, lam, anchors, args.depth, period=args.period)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cloud_path = out / "cloud.csv"
    bio.write_cloud_csv(cloud_path, cs.cloud)
    doc = {"eta": cs.eta, "K_cloud": cs.K_cloud, "depth": cs.depth,
           "n_points": len(cs.cloud),
           "specs": [{"eta": s.eta, "K": s.K, "B": s.B} for s in cs.specs]}
    stats = out / "cantor.json"
    bio.write_json(stats, doc)
    print(f"cloud of {len(cs.cloud)} points, eta = {cs.eta:.4g}, "
          f"min expansion {cs.K_cloud:.4g}")
    return _finish(out, _config(args, family), [cloud_path, stats])


def _cmd_linearize(args):
    family = _parse_family(args.family)
    lam = _parse_params(args.param)
    w = _parse_params(args.w)[0]
    lin = linearize_orbit(family, lam, w, args.n, N_trunc=args.ntrunc,
                          tail=args.tail)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"rho": lin.rho, "C": lin.C, "residual": lin.residual, "n": lin.n,
           "m_log_mod": lin.m_log[0], "m_arg": lin.m_log[1],
           "rho_n": lin.rho_n.tolist(),
           "psi0": [[v.real, v.imag] for v in lin.psi0],
           "psi1": [[v.real, v.imag] for v in lin.psi1]}
    path = out / "linearize.json"
    bio.write_json(path, doc)
    print(f"rho = {lin.rho:.6g}, C = {lin.C:.6g}, residual = {lin.residual:.3g}")
    return _finish(out, _config(args, family), [path])


# ----------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(prog="biflab",
                                 description="bifurcation-current laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    # let values like "-1.9,0" pass through as option arguments
    neg = re.compile(r"^-\d")
    ap._negative_number_matcher = neg

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p._negative_number_matcher = neg
        p.add_argument("--family", required=True,
                       help="unicritical<d>, bh<d>, or a JSON family file")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=fn)
        return p

    p = add("lyap", _cmd_lyap, help="Monte-Carlo Lyapunov exponent")
    p.add_argument("--param", required=True, help="re,im[;re,im...]")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)

    for name, fn, helptext in (("scan", _cmd_scan, "grid scan of a parameter field"),
                               ("ddc", _cmd_ddc, "discrete dd^c of a scanned field")):
        p = add(name, fn, help=helptext)
        p.add_argument("--box", required=True, help="cx,cy:WxH[;...]")
        p.add_argument("--res", type=int, required=True)
        p.add_argument("--field", default="L")
        p.add_argument("--maxiter", type=int, default=512)

    p = add("ma2", _cmd_ma2, help="Monge-Ampere / wedge measure over C^2")
    p.add_argument("--box", required=True, help="cx,cy:WxH;cx,cy:WxH")
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--field", default="L")
    p.add_argument("--field2", default=None, help="second field for a mixed wedge")
    p.add_argument("--mollify", type=float, default=None)
    p.add_argument("--maxiter", type=int, default=512)

    p = add("misiurewicz", _cmd_misiurewicz, help="Newton-certify Misiurewicz parameters")
    p.add_argument("--seed", required=True, help="re,im[;re,im][|re,im...] seeds")
    p.add_argument("--pattern", required=True, help="k0=2,n=1,p=1[,n=..,p=..]")
    p.add_argument("--tracked", default="0", help="critical indices, e.g. 0,1")

    p = add("certify", _cmd_certify, help="re-verify an NDJSON certificate file")
    p.add_argument("--certs", required=True)

    p = add("dimension", _cmd_dimension, help="pointwise or box-counting dimension")
    p.add_argument("--cloud", default=None, help="CSV point cloud (box counting)")
    p.add_argument("--scales", default=None, help="comma list of scales")
    p.add_argument("--box", default=None)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--field", default="L")
    p.add_argument("--maxiter", type=int, default=512)
    p.add_argument("--center", default=None, help="re,im")
    p.add_argument("--radii", default=None, help="comma list, decreasing")

    p = add("scaling", _cmd_scaling, help="mass-scaling law against -q log d")
    p.add_argument("--box", required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--field", default="L")
    p.add_argument("--maxiter", type=int, default=512)
    p.add_argument("--center", required=True)
    p.add_argument("--mplus", required=True, help="comma list of log m_n^+")
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.25)

    p = add("cantor", _cmd_cantor, help="build a certified Cantor cloud")
    p.add_argument("--param", required=True)
    p.add_argument("--anchors", required=True, help="re,im;re,im")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--period", type=int, default=1)

    p = add("linearize", _cmd_linearize, help="chain linearization along an orbit")
    p.add_argument("--param", required=True)
    p.add_argument("--w", required=True, help="orbit start, re,im")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tail", type=int, default=30)
    p.add_argument("--ntrunc", type=int, default=12)

    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except BiflabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
