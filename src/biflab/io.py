"""File artifacts: 16-bit binary PGM with JSON sidecars, RFC-4180 CSV,
NDJSON and run manifests with content hashes.

All writers are deterministic: no timestamps, sorted JSON keys, fixed
float formatting, so identical inputs give byte-identical files.

CSV byte contract (field and cloud files): one header line, then one row
per cell (fields) or point (clouds) in C order, ``\r\n`` after every
line, no quoting.  Indices are written with ``%d``; coordinates and
values with ``%.17g``, which round-trips every float64 (``-0.0`` prints
as ``-0``, non-finite values as ``nan``, ``inf``, ``-inf``).  A field
file formats each distinct index, coordinate and value bit pattern once,
and works out a row's cell indices from the row number; rows of both
kinds are joined and written in chunks of _CHUNK_ROWS.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def _to_image(values):
    """Grid values to a 2D raster: x to columns, y to rows (top = max y).
    4D grids tile as an outer (y1, x1) mosaic of inner (y2, x2) panes."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        return v.T[::-1]
    if v.ndim == 4:
        r = v.shape[0]
        img = v.transpose(1, 3, 0, 2)[::-1, ::-1]
        return img.reshape(r * r, r * r)
    raise ValueError(f"cannot rasterize a {v.ndim}-dimensional grid")


def write_pgm(path, values, sidecar=None):
    """16-bit big-endian binary PGM (P5) with min/max scaling recorded in
    a JSON sidecar next to the image."""
    img = _to_image(values)
    finite = img[np.isfinite(img)]
    vmin = float(np.min(finite)) if finite.size else 0.0
    vmax = float(np.max(finite)) if finite.size else 1.0
    # a span past the largest float64 is scaled in halves; any other
    # span is scaled as it is (a factor of 1.0 changes no bit)
    half = 0.5 if vmax - vmin == math.inf else 1.0
    span = vmax * half - vmin * half if vmax > vmin else 1.0
    scaled = np.zeros(img.shape, dtype=np.uint16)
    ok = np.isfinite(img)
    scaled[ok] = np.clip((img[ok] * half - vmin * half) / span * 65535.0,
                         0, 65535).astype(np.uint16)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(scaled.astype(">u2").tobytes())
    doc = {"min": vmin, "max": vmax, "gamma": 1.0}
    if sidecar:
        doc.update(sidecar)
    side_path = str(path) + ".json"
    with open(side_path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")
    return side_path


_CHUNK_ROWS = 1 << 13


def _strings(fmt, values):
    """Object array of ``fmt % v`` for each v, ready for fancy indexing."""
    return np.array([fmt % v for v in values], dtype=object)


def _cell_lookup(strings, shape, axis):
    """Column whose row r is strings[``axis`` index of C-order cell r]."""
    return lambda rows: strings[np.unravel_index(rows, shape)[axis]].tolist()


def _formatted(fmt, values):
    """Column whose row r is fmt % values[r], formatted chunk by chunk."""
    return lambda rows: [fmt % v for v in values[rows].tolist()]


def _distinct_lookup(values):
    """Float column that formats each distinct bit pattern once; keying on
    bits, not on float equality, keeps -0.0 apart from 0.0."""
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.uint64)
    distinct, codes = np.unique(bits, return_inverse=True)
    strings = _strings("%.17g", distinct.view(float).tolist())
    return lambda rows: strings[codes[rows]].tolist()


def _write_csv(path, header, n_rows, columns):
    """Header line, then n_rows rows of comma-joined fields, ``\r\n``
    after every line.  column(rows) gives a column's field strings for
    the row numbers in the array rows; rows are built and written
    _CHUNK_ROWS at a time, so per-row strings never exist for the whole
    table."""
    with open(path, "w", newline="") as f:
        f.write(header + "\r\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            rows = np.arange(start, min(start + _CHUNK_ROWS, n_rows))
            fields = [column(rows) for column in columns]
            f.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def write_field_csv(path, box, resolution, values, value_name="value"):
    """Cell-indexed CSV of a grid (one row per cell, headers included)."""
    v = np.asarray(values, dtype=float)
    ns = range(1, box.m + 1)
    header = ",".join([f"{a}{i}" for i in ns for a in ("ix", "iy")]
                      + [f"{a}{i}" for i in ns for a in ("re", "im")] + [value_name])
    columns = [_cell_lookup(_strings("%d", range(n)), v.shape, k) for k, n in enumerate(v.shape)]
    columns += [_cell_lookup(_strings("%.17g", a.tolist()), v.shape, k)
                for k, a in enumerate(box.axes(resolution))]
    columns.append(_distinct_lookup(v))
    _write_csv(path, header, v.size, columns)


_CLOUD_HEADER = "index,re,im"


def write_cloud_csv(path, points):
    pts = np.asarray(points, dtype=complex).ravel()
    _write_csv(path, _CLOUD_HEADER, len(pts), [
        lambda rows: ["%d" % r for r in rows.tolist()],
        _formatted("%.17g", pts.real), _formatted("%.17g", pts.imag)])


def read_cloud_csv(path):
    """Points of a cloud CSV, each coordinate bit for bit as written
    (NaN reads back as NaN)."""
    with open(path) as f:
        header = f.readline().rstrip("\r\n")
        if header != _CLOUD_HEADER:
            raise ValueError(f"{path}: header {header!r} is not {_CLOUD_HEADER!r}")
        start = f.tell()
        empty = not f.readline()
        f.seek(start)
        xy = np.empty((0, 2)) if empty else np.loadtxt(
            f, delimiter=",", usecols=(1, 2), ndmin=2)
    pts = np.empty(len(xy), dtype=complex)
    pts.real, pts.imag = xy[:, 0], xy[:, 1]
    return pts


def write_ndjson(path, records):
    with open(path, "w") as f:
        for rec in records:
            json.dump(rec, f, sort_keys=True)
            f.write("\n")


def read_ndjson(path):
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1, default=_json_default)
        f.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, config, output_paths):
    """manifest.json: the fully resolved run configuration plus a sha256
    per output file."""
    doc = {
        "config": config,
        "outputs": {str(p): sha256_file(p) for p in output_paths},
    }
    write_json(path, doc)
    return doc
