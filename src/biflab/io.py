"""File artifacts: 16-bit binary PGM with JSON sidecars, RFC-4180 CSV,
NDJSON and run manifests with content hashes.

All writers are deterministic: no timestamps, sorted JSON keys, fixed
float formatting, so identical inputs give byte-identical files.

CSV byte contract (field and cloud files): one header line, then one row
per cell (fields) or point (clouds) in C order, ``\r\n`` after every
line, no quoting.  Indices are written with ``%d``; coordinates and
values with ``%.17g``, which round-trips every float64 (``-0.0`` prints
as ``-0``, non-finite values as ``nan``, ``inf``, ``-inf``).  A field
file formats each index and coordinate once and each distinct value bit
pattern once per chunk, and works out a row's cell indices from the row
number; rows of both kinds are joined and written in chunks of
_CHUNK_ROWS.  A PGM image is scaled and written by blocks of rows.  So
beyond the value array, the plane writers hold memory of the order of a
chunk or a block.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


# a PGM is scaled and written in blocks of whole rows of about this many
# pixels
_PGM_PIXELS = 1 << 16


def _raster(values):
    """Grid values as a raster, x to columns and y to rows (top = max y):
    (rows, columns, blocks), where blocks() yields the raster top to
    bottom in blocks of whole rows of about _PGM_PIXELS pixels.  4D grids
    tile as an outer (y1, x1) mosaic of inner (y2, x2) panes, and a block
    holds whole rows of panes."""
    v = np.asarray(values, dtype=float)
    # bands of raster rows: one row each for a 2D grid (y, 1, x), one row
    # of panes each for a 4D grid (y1, y2, x1, x2)
    if v.ndim == 2:
        bands = v.T[::-1, None]
    elif v.ndim == 4:
        bands = v.transpose(1, 3, 0, 2)[::-1, ::-1]
    else:
        raise ValueError(f"cannot rasterize a {v.ndim}-dimensional grid")
    n, depth = bands.shape[:2]
    w = bands[0, 0].size
    step = max(1, _PGM_PIXELS // (depth * w))
    return n * depth, w, lambda: (bands[lo:lo + step].reshape(-1, w)
                                  for lo in range(0, n, step))


def _finite_range(blocks):
    """(min, max) of the finite pixels, (0.0, 1.0) if there are none, with
    the bits np.min and np.max give on the raster's finite pixels in
    raster order.  -0.0 and 0.0 tie, so only a zero extreme depends on
    the order of reduction, and only when both signs of zero are present;
    then the finite pixels are gathered in that order."""
    lo, hi, zeros, negative_zeros = math.inf, -math.inf, 0, 0
    for img in blocks():
        ok = np.isfinite(img)
        lo = min(lo, float(np.min(img, where=ok, initial=math.inf)))
        hi = max(hi, float(np.max(img, where=ok, initial=-math.inf)))
        zero = img == 0
        zeros += np.count_nonzero(zero)
        negative_zeros += np.count_nonzero(zero & np.signbit(img))
    if lo > hi:
        return 0.0, 1.0
    if 0 < negative_zeros < zeros and 0 in (lo, hi):
        finite = np.concatenate([img[np.isfinite(img)] for img in blocks()])
        return float(np.min(finite)), float(np.max(finite))
    return lo, hi


def write_pgm(path, values, sidecar=None):
    """16-bit big-endian binary PGM (P5) with min/max scaling recorded in
    a JSON sidecar next to the image.  Pixels are scaled and written one
    block of rows at a time."""
    h, w, blocks = _raster(values)
    vmin, vmax = _finite_range(blocks)
    # a span past the largest float64 is scaled in halves; any other
    # span is scaled as it is (a factor of 1.0 changes no bit)
    half = 0.5 if vmax - vmin == math.inf else 1.0
    span = vmax * half - vmin * half if vmax > vmin else 1.0
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        for img in blocks():
            scaled = np.zeros(img.shape, dtype=">u2")
            ok = np.isfinite(img)
            scaled[ok] = np.clip((img[ok] * half - vmin * half) / span * 65535.0,
                                 0, 65535).astype(np.uint16)
            f.write(scaled.tobytes())
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
    """Float column that formats each distinct bit pattern of a chunk
    once; keying on bits, not on float equality, keeps -0.0 apart from
    0.0."""
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.uint64)

    def column(rows):
        distinct, codes = np.unique(bits[rows], return_inverse=True)
        return _strings("%.17g", distinct.view(float).tolist())[codes].tolist()
    return column


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
    """Cell-indexed CSV of a grid (one row per cell, headers included).
    ``values`` holds every cell: the rows are labelled by the whole grid's
    indices and axes, so a window's field is a ValueError."""
    v = np.asarray(values, dtype=float)
    whole = (resolution,) * (2 * box.m)
    if v.shape != whole:
        raise ValueError(f"field values of shape {v.shape}, not the grid's {whole}")
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
