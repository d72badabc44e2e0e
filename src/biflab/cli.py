"""Command-line interface.

Each subcommand is one row of ``COMMANDS``.  ``_run`` computes first and
only then writes the outputs plus a manifest.json (resolved configuration
and a sha256 per output) into ``--out``, so a run that raises leaves no
directory.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import io as bio
from .bifgrid import (
    Box,
    _field_index,
    box_dimension,
    ddc as ddc_op,
    decreasing_radii,
    mass_scaling,
    monge_ampere2,
    pointwise_dimension,
    radial_masses,
    radial_window,
    scaling_ladder,
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

def _int(text, flag):
    """``text`` as an int where it is ASCII ``-?[0-9]+``; ``int`` would also
    take ``1_0``, ``+1``, surrounding space and other scripts' digits
    (``\u0663``).  Anything else is a ValueError naming the flag."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"{flag} needs an integer, got {text!r}")
    return int(text)


def _float(text, flag):
    """``text`` as a float where it is ASCII: ``-?`` and digits with an
    optional point and exponent, or ``inf``, ``infinity`` or ``nan`` in
    any case, which the callers' finiteness checks refuse.  ``float``
    would also take ``1_0``, ``+1``, surrounding space and other scripts'
    digits.  Anything else is a ValueError naming the flag."""
    if re.fullmatch(r"-?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[-+]?[0-9]+)?|inf(inity)?|nan)",
                    text, re.ASCII | re.IGNORECASE) is None:
        raise ValueError(f"{flag} needs a number, got {text!r}")
    return float(text)


def _parse_family(text):
    if os.path.exists(text):
        with open(text) as f:
            return family_from_json(json.load(f))
    for prefix, kind in (("unicritical", "unicritical"),
                         ("branner_hubbard", "branner_hubbard"),
                         ("bh", "branner_hubbard")):
        if text.startswith(prefix):
            try:
                degree = _int(text[len(prefix):], "--family")
            except ValueError:
                break
            return MapFamily(kind, degree)
    raise ValueError(f"unknown --family {text!r} (try unicritical2, bh3, or a JSON file)")


def _parse_params(text, flag, count=None):
    """`re,im[;re,im...]` as finite complex numbers; with ``count``,
    exactly that many.  A malformed or non-finite point or a wrong count
    is a ValueError naming the flag."""
    out = []
    for part in text.split(";"):
        try:
            re_s, im_s = part.split(",")
            out.append(_float(re_s, flag) + 1j * _float(im_s, flag))
        except ValueError:
            raise ValueError(f"{flag} needs re,im point(s), got {part!r}") from None
        if not np.isfinite(out[-1]):
            raise ValueError(f"{flag} needs finite re,im point(s), got {part!r}")
    if count is not None and len(out) != count:
        raise ValueError(f"{flag} needs {count} re,im point(s), got {len(out)}")
    return out


def _floats(text, flag):
    """A comma list of finite numbers; a malformed or non-finite one is a
    ValueError naming the flag."""
    try:
        out = np.array([_float(v, flag) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"{flag} needs a comma list of numbers, got {text!r}") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{flag} needs finite numbers, got {text!r}")
    return out


def _parse_box(text, count):
    """`cx,cy:WxH[;cx,cy:WxH]`, one plane per family parameter; sizes are
    full widths in parameter units."""
    centers, halves_w, halves_h = [], [], []
    for part in text.split(";"):
        try:
            c_s, size_s = part.split(":")
            cx, cy = (_float(v, "--box") for v in c_s.split(","))
            w, h = (_float(v, "--box") for v in size_s.lower().split("x"))
        except ValueError:
            raise ValueError(f"--box needs cx,cy:WxH box(es), got {part!r}") from None
        if not (0 < w < math.inf and 0 < h < math.inf):
            raise ValueError(f"--box sizes must be positive and finite, got {size_s!r}")
        centers.append(cx + 1j * cy)
        halves_w.append(w / 2.0)
        halves_h.append(h / 2.0)
    if len(centers) != count:
        raise ValueError(f"--box needs {count} cx,cy:WxH box(es), got {len(centers)}")
    return Box(centers=tuple(centers), half_widths=tuple(halves_w),
               half_heights=tuple(halves_h))


def _parse_pattern(text, tracked):
    """`k0=2,n=1,p=1[,n=...,p=...]`: one (n, p) pair per tracked index.
    A malformed pattern is a ValueError naming --pattern."""
    k0 = None
    ns, ps = [], []
    for item in text.split(","):
        try:
            key, val = item.split("=")
            val = _int(val, "--pattern")
        except ValueError:
            raise ValueError(f"--pattern needs key=integer items, got {item!r}") from None
        if key == "k0":
            if k0 is not None:
                raise ValueError(f"--pattern gives k0 twice, in {text!r}")
            k0 = val
        elif key == "n":
            ns.append(val)
        elif key == "p":
            ps.append(val)
        else:
            raise ValueError(f"--pattern: unknown key {key!r}")
    if k0 is None or len(ns) != len(ps) or not ns:
        raise ValueError("--pattern needs k0 and matching n=, p= pairs")
    if len(ns) == 1 and len(tracked) > 1:
        ns, ps = ns * len(tracked), ps * len(tracked)
    if len(ns) != len(tracked):
        raise ValueError("--pattern needs one n=,p= pair per tracked critical point")
    return ActivitySpec(tracked=tuple(tracked), k0=k0,
                        patterns=tuple(Preperiodic(n, p) for n, p in zip(ns, ps)))


# ----------------------------------------------------------------------
# outputs: (file name, writer) pairs; a writer takes the file's path and
# returns None, or the path of a sidecar it wrote next to it

def _json(name, doc):
    return name, lambda path: bio.write_json(path, doc)


def _grid_files(stem, grid, values, column):
    """PGM (with its JSON sidecar) and cell-indexed CSV of a grid."""
    return [(f"{stem}.pgm", lambda path: bio.write_pgm(path, values, sidecar={"meta": grid.meta})),
            (f"{stem}.csv", lambda path: bio.write_field_csv(
                path, grid.box, grid.resolution, values, column))]


def _measure_files(stem, mf):
    """The files of a measure, with its total and clamped mass.  The
    clamped total comes first: its one whole-grid temporary is gone before
    the clamped array that the writers and the total share is built."""
    clamped = mf.clamp_total
    mass = mf.cell_mass
    total = float(np.sum(mass))
    files = _grid_files(stem, mf, mass, "mass") + [_json(
        f"{stem}.json", {"total_mass": total, "clamp_total": clamped, "meta": mf.meta})]
    return files, total, clamped


# ----------------------------------------------------------------------
# compute steps

def _grid(args, family, field=None, reach=None):
    """The scan of ``field`` (default ``--field``) on ``--box``; with a
    ``reach`` (centre, largest radius), of only the cells that radial
    masses about that centre read (``radial_window``)."""
    box = _parse_box(args.box, family.param_dim)
    window = None if reach is None else radial_window(box, args.res, *reach)
    return scan_field(family, box, args.res, field or args.field,
                      maxiter=args.maxiter, window=window)


def _lyap(args, family):
    res = lyapunov_mc(family, _parse_params(args.param, "--param", family.param_dim),
                      args.samples, args.depth, args.seed)
    doc = {"value": res.value, "stderr": res.stderr, "n_points": res.n_points,
           "depth": res.depth, "flagged": res.flagged, "seed": args.seed}
    return [_json("lyap.json", doc)], f"L = {res.value:.6f} +/- {res.stderr:.2g}"


def _scan(args, family):
    gf = _grid(args, family)
    return (_grid_files(args.field, gf, gf.values, args.field),
            f"scanned {args.field}: min {float(np.nanmin(gf.values)):.6g} "
            f"max {float(np.nanmax(gf.values)):.6g} nan {int(np.sum(~np.isfinite(gf.values)))}")


def _ddc(args, family):
    files, total, clamped = _measure_files("ddc", ddc_op(_grid(args, family)))
    return files, f"total mass {total:.6f} (clamped {clamped:.3g})"


def _ma2(args, family):
    # refuse a bad field, the second one too, before the first scan
    for field in filter(None, (args.field, args.field2)):
        _field_index(family, field)
    gf = _grid(args, family)
    if args.field2:
        mf = wedge_pair(gf, _grid(args, family, args.field2), mollify_radius=args.mollify)
        stem = f"wedge_{args.field}_{args.field2}"
    else:
        mf = monge_ampere2(gf, mollify_radius=args.mollify)
        stem = f"ma2_{args.field}"
    files, total, _ = _measure_files(stem, mf)
    return files, f"{stem}: total mass {total:.6g}"


def _misiurewicz(args, family):
    try:
        tracked = [_int(t, "--tracked") for t in args.tracked.split(",")]
    except ValueError:
        raise ValueError(f"--tracked needs comma-separated critical indices, "
                         f"got {args.tracked!r}") from None
    spec = _parse_pattern(args.pattern, tracked)
    seeds = [_parse_params(s, "--seed", family.param_dim) for s in args.seed.split("|")]
    certs = [solve_misiurewicz(family, lam, spec) for lam in seeds]
    docs = [certificate_to_json(c, family) for c in certs]
    return ([("certificates.ndjson", lambda path: bio.write_ndjson(path, docs))],
            "\n".join(f"lambda* = {c.lam}  sigma_min = {c.sigma_min:.6g}  "
                      f"residual = {c.residual:.2g}" for c in certs))


def _certify(args, family):
    reports = [verify_certificate(certificate_from_json(doc), family)
               for doc in bio.read_ndjson(args.certs)]
    lines = [f"{'pass' if r['passed'] else 'FAIL'} {[k for k, v in r['checks'].items() if not v]}"
             for r in reports]
    return ([_json("certify_report.json", {"reports": reports})], "\n".join(lines),
            0 if all(r["passed"] for r in reports) else 3)


def _dimension(args, family):
    if args.cloud:
        scales = _floats(args.scales, "--scales")
        est = box_dimension(bio.read_cloud_csv(args.cloud), scales)
        doc = {"kind": "box_counting"}
    else:
        center = _parse_params(args.center, "--center", family.param_dim)
        radii = decreasing_radii(_floats(args.radii, "--radii"))
        prof = radial_masses(ddc_op(_grid(args, family, reach=(center, radii[0]))),
                             center, radii)
        est = pointwise_dimension(prof)
        doc = {"kind": "pointwise", "masses": prof.masses.tolist(), "radii": prof.radii.tolist()}
    doc.update(slope=est.slope, stderr=est.stderr, fit_range=list(est.fit_range),
               n_points=est.n_points)
    return [_json("dimension.json", doc)], f"slope = {est.slope:.4f} +/- {est.stderr:.4f}"


def _scaling(args, family):
    center = _parse_params(args.center, "--center", family.param_dim)
    m_plus = _floats(args.mplus, "--mplus")
    r_max = scaling_ladder(m_plus, args.eps)[0]
    res = mass_scaling(ddc_op(_grid(args, family, reach=(center, r_max))), center, m_plus,
                       q=args.q, d=family.degree, eps=args.eps)
    doc = {"slope": res.slope, "stderr": res.stderr, "expected": res.expected,
           "deviation": res.deviation, "n_used": res.n_used,
           "radii": res.radii.tolist(), "masses": res.masses.tolist(),
           "eps": args.eps}
    return [_json("scaling.json", doc)], f"slope = {res.slope:.4f} (expected {res.expected:.4f})"


def _cantor(args, family):
    cs = build_cantor(family, _parse_params(args.param, "--param", family.param_dim),
                      _parse_params(args.anchors, "--anchors"), args.depth)
    doc = {"eta": cs.eta, "K_cloud": cs.K_cloud, "depth": cs.depth,
           "n_points": len(cs.cloud),
           "specs": cs.specs}
    files = [("cloud.csv", lambda path: bio.write_cloud_csv(path, cs.cloud)),
             _json("cantor.json", doc)]
    return files, (f"cloud of {len(cs.cloud)} points, eta = {cs.eta:.4g}, "
                   f"min expansion {cs.K_cloud:.4g}")


def _linearize(args, family):
    lin = linearize_orbit(family, _parse_params(args.param, "--param", family.param_dim),
                          _parse_params(args.w, "--w", 1)[0], args.n,
                          N_trunc=args.ntrunc, tail=args.tail)
    doc = {"rho": lin.rho, "C": lin.C, "residual": lin.residual, "n": lin.n,
           "m_log_mod": lin.m_log[0], "m_arg": lin.m_log[1],
           "rho_n": lin.rho_n.tolist(),
           "psi0": [[v.real, v.imag] for v in lin.psi0],
           "psi1": [[v.real, v.imag] for v in lin.psi1]}
    return ([_json("linearize.json", doc)],
            f"rho = {lin.rho:.6g}, C = {lin.C:.6g}, residual = {lin.residual:.3g}")


# ----------------------------------------------------------------------
# the command table: flags are (flag, add_argument keywords) pairs, and
# compute(args, family) returns (files, summary[, exit code])

Command = namedtuple("Command", "name help flags compute")

SCAN_FLAGS = (("--box", dict(required=True, help="cx,cy:WxH[;...]")),
              ("--res", dict(type=int, required=True)),
              ("--field", dict(default="L")),
              ("--maxiter", dict(type=int, default=512)))


COMMANDS = (
    Command("lyap", "Monte-Carlo Lyapunov exponent", (
        ("--param", dict(required=True, help="re,im[;re,im...]")),
        ("--samples", dict(type=int, default=100000)),
        ("--depth", dict(type=int, default=30)),
        ("--seed", dict(type=int, default=0))), _lyap),
    Command("scan", "grid scan of a parameter field", SCAN_FLAGS, _scan),
    Command("ddc", "discrete dd^c of a scanned field", SCAN_FLAGS, _ddc),
    Command("ma2", "Monge-Ampere / wedge measure over C^2", SCAN_FLAGS + (
        ("--field2", dict(default=None, help="second field for a mixed wedge")),
        ("--mollify", dict(type=float, default=None))), _ma2),
    Command("misiurewicz", "Newton-certify Misiurewicz parameters", (
        ("--seed", dict(required=True, help="re,im[;re,im][|re,im...] seeds")),
        ("--pattern", dict(required=True, help="k0=2,n=1,p=1[,n=..,p=..]")),
        ("--tracked", dict(default="0", help="critical indices, e.g. 0,1"))), _misiurewicz),
    Command("certify", "re-verify an NDJSON certificate file", (
        ("--certs", dict(required=True)),), _certify),
    Command("dimension", "pointwise or box-counting dimension", (
        ("--cloud", dict(default=None, help="CSV point cloud (box counting)")),
        ("--scales", dict(default=None, help="comma list of scales")),
        # --box and --res are needed only on the pointwise branch
        *((flag, {**kw, "required": False}) for flag, kw in SCAN_FLAGS),
        ("--center", dict(default=None, help="re,im")),
        ("--radii", dict(default=None, help="comma list, decreasing"))), _dimension),
    Command("scaling", "mass-scaling law against -q log d", SCAN_FLAGS + (
        ("--center", dict(required=True)),
        ("--mplus", dict(required=True, help="comma list of log m_n^+")),
        ("--q", dict(type=int, default=1)),
        ("--eps", dict(type=float, default=0.25))), _scaling),
    Command("cantor", "build a certified Cantor cloud", (
        ("--param", dict(required=True)),
        ("--anchors", dict(required=True, help="re,im;re,im")),
        ("--depth", dict(type=int, default=10))), _cantor),
    Command("linearize", "chain linearization along an orbit", (
        ("--param", dict(required=True)),
        ("--w", dict(required=True, help="orbit start, re,im")),
        ("--n", dict(type=int, required=True)),
        ("--tail", dict(type=int, default=30)),
        ("--ntrunc", dict(type=int, default=12))), _linearize),
)


def _build_parser():
    ap = argparse.ArgumentParser(prog="biflab",
                                 description="bifurcation-current laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    # let values like "-1.9,0" pass through as option arguments
    neg = re.compile(r"^-\d")
    ap._negative_number_matcher = neg
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p._negative_number_matcher = neg
        p.add_argument("--family", required=True,
                       help="unicritical<d>, bh<d>, or a JSON family file")
        p.add_argument("--out", default=".", help="output directory")
        for flag, kw in cmd.flags:
            # a number flag is stored as text, for _run to read with _int or _float
            p.add_argument(flag, **{k: v for k, v in kw.items() if k != "type"})
        p.set_defaults(func=cmd.compute)
    return ap


def _run(args):
    for flag, kw in next(c for c in COMMANDS if c.name == args.command).flags:
        value = getattr(args, flag[2:])
        read = {int: _int, float: _float}.get(kw.get("type"))
        if read and isinstance(value, str):
            setattr(args, flag[2:], read(value, flag))
    cloud = getattr(args, "cloud", None)
    if args.command == "dimension":
        needed = ("scales",) if cloud else ("box", "res", "center", "radii")
        missing = [f"--{k}" for k in needed if getattr(args, k) is None]
        if missing:
            raise ValueError(f"dimension needs --cloud with --scales, or --box, --res, "
                             f"--center and --radii; missing {', '.join(missing)}")
    # box counting reads no family, and its manifest records none
    family = None if cloud else _parse_family(args.family)
    files, summary, *code = args.func(args, family)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, write in files:
        sidecar = write(out / name)
        paths += [out / name] if sidecar is None else [out / name, sidecar]
    if summary:
        print(summary)
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    config["family_resolved"] = family_to_json(family) if family is not None else None
    bio.write_manifest(out / "manifest.json", config, [str(p) for p in paths])
    return code[0] if code else 0


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _run(args)
    except BiflabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
