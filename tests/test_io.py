import csv
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biflab import io as bio
from biflab.bifgrid import Box

# values whose %.17g text is easy to get wrong: signed zeros, non-finite,
# subnormal, near-overflow and integer-valued floats
SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308,
                  3.0, -7.0, 2.0 ** 53, 1e16]


def _savetxt_field_csv(path, box, resolution, values, value_name):
    """Byte oracle: the np.savetxt field writer write_field_csv replaced."""
    v = np.asarray(values, dtype=float)
    m = box.m
    idx_names = []
    coord_names = []
    for i in range(1, m + 1):
        idx_names += [f"ix{i}", f"iy{i}"]
        coord_names += [f"re{i}", f"im{i}"]
    header = ",".join(idx_names + coord_names + [value_name])
    idx = np.indices(v.shape).reshape(2 * m, -1)
    axes = box.axes(resolution)
    cols = [a.astype(float) for a in idx]
    for i in range(m):
        cols.append(axes[2 * i][idx[2 * i]])
        cols.append(axes[2 * i + 1][idx[2 * i + 1]])
    cols.append(v.ravel())
    table = np.column_stack(cols)
    fmt = ["%d"] * (2 * m) + ["%.17g"] * (2 * m + 1)
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header,
               comments="", newline="\r\n")


def _csv_writer_cloud_csv(path, points):
    """Byte oracle: the csv.writer cloud writer write_cloud_csv replaced."""
    pts = np.asarray(points, dtype=complex).ravel()
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "re", "im"])
        for i, z in enumerate(pts):
            w.writerow([i, f"{z.real:.17g}", f"{z.imag:.17g}"])


# the PGM writer that scaled the whole image at once, kept verbatim as
# the byte oracle of the one that scales it by blocks of rows

def old_to_image(values):
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


def old_write_pgm(path, values, sidecar=None):
    """16-bit big-endian binary PGM (P5) with min/max scaling recorded in
    a JSON sidecar next to the image."""
    img = old_to_image(values)
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


def palette_field(data, shape, specials):
    """A field whose cells are drawn from a palette of at most four
    values, each any float or one of specials."""
    palette = data.draw(st.lists(st.one_of(st.floats(), st.sampled_from(specials)),
                                 min_size=1, max_size=4))
    n = math.prod(shape)
    return np.array(data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n)),
                    dtype=float).reshape(shape)


def assert_pgm_bytes_match_old(root, values, sidecar=None):
    new, old = root / "new.pgm", root / "old.pgm"
    new_side = bio.write_pgm(new, values, sidecar)
    old_side = old_write_pgm(old, values, sidecar)
    assert new.read_bytes() == old.read_bytes()
    assert Path(new_side).read_bytes() == Path(old_side).read_bytes()


class TestPgm:
    def test_bytes_and_sidecar(self, tmp_path):
        values = np.array([[0.0, 1.0], [2.0, 3.0]])
        path = tmp_path / "img.pgm"
        side = bio.write_pgm(path, values, sidecar={"note": "x"})
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n65535\n")
        pix = np.frombuffer(data[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        # x maps to columns, y to rows with the top row at max y
        assert pix.tolist() == [21845, 65535, 0, 43690]
        doc = json.loads(open(side).read())
        assert doc["min"] == 0.0 and doc["max"] == 3.0
        assert doc["gamma"] == 1.0 and doc["note"] == "x"
        assert side == str(path) + ".json"

    def test_four_dimensional_mosaic(self, tmp_path):
        r = 4
        values = np.zeros((r, r, r, r))
        path = tmp_path / "grid.pgm"
        bio.write_pgm(path, values)
        header = path.read_bytes().split(b"\n", 3)
        assert header[1] == b"16 16"

    def test_nonfinite_pixels_zeroed(self, tmp_path):
        values = np.array([[np.inf, 1.0], [2.0, -np.inf]])
        path = tmp_path / "img.pgm"
        side = bio.write_pgm(path, values)
        doc = json.loads(open(side).read())
        assert doc["min"] == 1.0 and doc["max"] == 2.0

    def test_deterministic(self, tmp_path):
        values = np.linspace(0, 1, 64).reshape(8, 8)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        bio.write_pgm(p1, values)
        bio.write_pgm(p2, values)
        assert p1.read_bytes() == p2.read_bytes()
        assert bio.sha256_file(p1) == bio.sha256_file(p2)

    @settings(max_examples=150, deadline=None)
    @given(r=st.integers(1, 3), nx=st.integers(1, 6), ny=st.integers(1, 6),
           four=st.booleans(), constant=st.booleans(), data=st.data())
    def test_round_trip(self, tmp_path_factory, r, nx, ny, four, constant, data):
        # st.floats() draws +-0, +-inf, NaN, subnormals and pairs whose
        # difference overflows; a constant field keeps one finite value
        # and may hold non-finite cells
        shape = (r,) * 4 if four else (nx, ny)
        value = st.floats()
        if constant:
            value = st.sampled_from([data.draw(st.floats(allow_nan=False, allow_infinity=False)),
                                     np.nan, np.inf, -np.inf])
        n = math.prod(shape)
        values = np.array(data.draw(st.lists(value, min_size=n, max_size=n)),
                          dtype=float).reshape(shape)
        path = tmp_path_factory.getbasetemp() / "round_trip.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            side = bio.write_pgm(path, values)
        magic, size, maxval, payload = path.read_bytes().split(b"\n", 3)
        assert magic == b"P5" and maxval == b"65535"
        w, h = (int(t) for t in size.split(b" "))
        assert (w, h) == ((r * r, r * r) if four else (nx, ny))
        assert len(payload) == 2 * w * h
        image = np.frombuffer(payload, dtype=">u2").reshape(h, w)
        # the pixel of each cell: x to columns, y to rows with max y on
        # top; a 4D cell (x1, y1, x2, y2) sits in the pane of (x1, y1)
        cell = np.indices(shape)
        if four:
            rows = (r - 1 - cell[1]) * r + (r - 1 - cell[3])
            cols = cell[0] * r + cell[2]
        else:
            rows, cols = ny - 1 - cell[1], cell[0]
        pix = image[rows, cols]
        doc = json.loads(open(side).read())
        ok = np.isfinite(values)
        lo, hi = (values[ok].min(), values[ok].max()) if ok.any() else (0.0, 1.0)
        assert doc["min"] == lo and doc["max"] == hi and doc["gamma"] == 1.0
        assert np.all(pix[~ok] == 0)
        for x, p in zip(values[ok].tolist(), pix[ok].tolist()):
            if hi == lo:
                assert p == 0
            else:
                exact = (Fraction(x) - Fraction(lo)) / (Fraction(hi) - Fraction(lo)) * 65535
                assert abs(p - exact) < 1
                if x in (lo, hi):
                    assert p == (0 if x == lo else 65535)

    @settings(max_examples=300, deadline=None)
    @given(r=st.integers(1, 5), nx=st.integers(1, 40), ny=st.integers(1, 40),
           four=st.booleans(), pixels=st.integers(1, 100), data=st.data())
    def test_bytes_match_old_writer(self, tmp_path_factory, r, nx, ny, four, pixels, data):
        # each field draws its cells from a palette of at most four values,
        # so constant and all-non-finite fields, and extremes of 0.0 tied
        # with -0.0, come up often; blocks of at most `pixels` pixels split
        # the raster into many
        values = palette_field(data, (r,) * 4 if four else (nx, ny),
                               [0.0, -0.0, np.nan, np.inf, -np.inf])
        with warnings.catch_warnings(), mock.patch.object(bio, "_PGM_PIXELS", pixels):
            warnings.simplefilter("error")
            assert_pgm_bytes_match_old(tmp_path_factory.getbasetemp(), values)

    @pytest.mark.parametrize("shape", [(300, 300), (7, 20000), (20, 20, 20, 20)],
                             ids=["square", "tall", "4d"])
    @pytest.mark.parametrize("kind", ["normal", "nonnegative", "signed-zeros"])
    def test_bytes_match_old_writer_at_block_size(self, tmp_path, shape, kind):
        # images of several blocks at the real block size; the zeros of
        # both signs make the extreme depend on the order of reduction
        rng = np.random.default_rng(len(shape) * 1000 + shape[0])
        values = rng.standard_normal(shape)
        if kind != "normal":
            values = np.abs(values)
            values[rng.random(shape) < 0.3] = 0.0
        if kind == "signed-zeros":
            values[rng.random(shape) < 0.3] = -0.0
        values[rng.random(shape) < 0.01] = np.nan
        assert values.size > bio._PGM_PIXELS
        assert_pgm_bytes_match_old(tmp_path, values, sidecar={"meta": {"field": "G0"}})

    def test_rejects_other_dimensions(self, tmp_path):
        with pytest.raises(ValueError, match="cannot rasterize a 3-dimensional grid"):
            bio.write_pgm(tmp_path / "img.pgm", np.zeros((2, 2, 2)))


class TestCsv:
    @pytest.mark.parametrize("m, shape", [(1, (20, 20)), (1, (64 * 64,)), (2, (64, 64))])
    def test_field_of_another_shape_refused(self, tmp_path, m, shape):
        # rows are labelled by the whole grid's indices and axes: the first
        # cell of the window 22..41 was written as cell 0, re1 = -2.07875
        box = Box((-2 + 0j,) * m, (0.16,) * m)
        whole = (64,) * (2 * m)
        with pytest.raises(ValueError, match=re.escape(
                f"field values of shape {shape}, not the grid's {whole}")):
            bio.write_field_csv(tmp_path / "field.csv", box, 64, np.zeros(shape), "g")
        assert not (tmp_path / "field.csv").exists()

    def test_field_round_trip(self, tmp_path):
        box = Box((0.5 + 0.25j,), (1.0,), (0.5,))
        res = 4
        values = np.arange(16, dtype=float).reshape(4, 4)
        path = tmp_path / "field.csv"
        bio.write_field_csv(path, box, res, values, "g")
        raw = path.read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode().strip().splitlines()
        assert lines[0] == "ix1,iy1,re1,im1,g"
        assert len(lines) == 17
        first = lines[1].split(",")
        x, y = box.axes(res)
        assert float(first[2]) == x[0] and float(first[3]) == y[0]
        assert float(first[4]) == 0.0

    @pytest.mark.parametrize("box, res", [
        (Box((0.5 + 0.25j,), (1.0,), (0.5,)), 4),
        (Box((-2.0 + 0j,), (0.16,)), 257),
        (Box((1.7 + 0.4j, 1.6 + 0.5j), (0.4, 0.4), (0.4, 0.3)), 5),
    ], ids=["2d", "2d-two-chunks", "4d"])
    def test_field_bytes_match_savetxt(self, tmp_path, box, res):
        rng = np.random.default_rng(res)
        values = rng.standard_normal((res,) * (2 * box.m))
        values[rng.random(values.shape) < 0.3] = 0.0
        values[rng.random(values.shape) < 0.2] = -1.5
        flat = values.reshape(-1)
        flat[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
        flat[-len(SPECIAL_VALUES):] = SPECIAL_VALUES[::-1]
        if res == 257:
            assert values.size > bio._CHUNK_ROWS
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        bio.write_field_csv(new, box, res, values, "mass")
        _savetxt_field_csv(old, box, res, values, "mass")
        assert new.read_bytes() == old.read_bytes()

    def test_field_bytes_match_savetxt_at_chunk_edges(self, tmp_path):
        # 8281 rows, one chunk and 89 rows; 0.1 on both sides of the chunk
        # edge, and 0.0 next to -0.0 in each chunk
        box, res = Box((-2.0 + 0j,), (0.16,)), 91
        values = np.full(res * res, 0.25)
        edge = bio._CHUNK_ROWS
        assert values.size % edge
        values[edge - 3:edge + 3] = 0.1
        values[[5, edge + 7]] = -0.0
        values[[6, edge + 8]] = 0.0
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        bio.write_field_csv(new, box, res, values.reshape(res, res), "mass")
        _savetxt_field_csv(old, box, res, values.reshape(res, res), "mass")
        assert new.read_bytes() == old.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 2), res=st.integers(1, 5), chunk=st.integers(1, 50),
           data=st.data())
    def test_field_bytes_match_savetxt_in_small_chunks(self, tmp_path_factory, m, res,
                                                       chunk, data):
        # a palette of at most four values repeats values across chunk
        # edges and puts 0.0 and -0.0 into one chunk
        values = palette_field(data, (res,) * (2 * m), [0.0, -0.0, 0.1])
        box = Box((0.5 + 0.25j,) * m, (1.0,) * m, (0.5,) * m)
        root = tmp_path_factory.getbasetemp()
        new, old = root / "chunks_new.csv", root / "chunks_old.csv"
        with mock.patch.object(bio, "_CHUNK_ROWS", chunk):
            bio.write_field_csv(new, box, res, values, "g")
        _savetxt_field_csv(old, box, res, values, "g")
        assert new.read_bytes() == old.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 2), res=st.integers(1, 3), data=st.data())
    def test_field_round_trip_bits(self, tmp_path_factory, m, res, data):
        # st.floats() draws +-0, +-inf, NaN and subnormals; the sampled
        # values put the extremes in most examples
        value = st.one_of(st.floats(), st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308]))
        n = res ** (2 * m)
        values = np.array(data.draw(st.lists(value, min_size=n, max_size=n)),
                          dtype=float).reshape((res,) * (2 * m))
        finite = st.floats(-1e3, 1e3)
        half = st.floats(1e-6, 1e3)
        box = Box(tuple(complex(data.draw(finite), data.draw(finite)) for _ in range(m)),
                  tuple(data.draw(half) for _ in range(m)),
                  tuple(data.draw(half) for _ in range(m)))
        path = tmp_path_factory.getbasetemp() / "field_round_trip.csv"
        bio.write_field_csv(path, box, res, values, "g")
        lines = path.read_bytes().decode("ascii").split("\r\n")
        assert lines[-1] == "" and len(lines) == n + 2
        assert lines[0].split(",")[-1] == "g"
        table = [line.split(",") for line in lines[1:-1]]
        idx = np.array([[int(f) for f in row[: 2 * m]] for row in table], dtype=int)
        coords = np.array([[float(f) for f in row[2 * m: 4 * m]] for row in table])
        back = np.array([float(row[4 * m]) for row in table])
        assert all(len(row) == 4 * m + 1 for row in table)
        assert np.array_equal(idx.T, np.indices(values.shape).reshape(2 * m, -1))
        for k, axis in enumerate(box.axes(res)):
            assert np.array_equal(coords[:, k].view(np.uint64), axis[idx[:, k]].view(np.uint64))
        flat = values.reshape(-1)
        nan = np.isnan(flat)
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(back[~nan].view(np.uint64), flat[~nan].view(np.uint64))

    @pytest.mark.parametrize("n", [0, 1, 10000])
    def test_cloud_bytes_match_csv_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pts[: min(n, 4)] = np.round(pts[: min(n, 4)])
        if n > 100:
            assert n > bio._CHUNK_ROWS
            pts.real[10:10 + len(SPECIAL_VALUES)] = SPECIAL_VALUES
            pts.imag[10:10 + len(SPECIAL_VALUES)] = SPECIAL_VALUES[::-1]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        bio.write_cloud_csv(new, pts)
        _csv_writer_cloud_csv(old, pts)
        assert new.read_bytes() == old.read_bytes()

    def test_cloud_round_trip(self, tmp_path):
        pts = np.array([1 + 2j, -0.5 - 0.25j, 1e-17 + 3j])
        path = tmp_path / "cloud.csv"
        bio.write_cloud_csv(path, pts)
        back = bio.read_cloud_csv(path)
        assert np.array_equal(back, pts)

    @pytest.mark.parametrize("re, im", [(-0.0, 2.0), (1.0, np.inf), (np.inf, -0.0),
                                        (-0.0, -0.0)])
    def test_cloud_round_trip_signs_and_infinities(self, tmp_path, re, im):
        # each case read back with another real part or a NaN before
        pts = np.empty(1, dtype=complex)
        pts.real, pts.imag = re, im
        path = tmp_path / "cloud.csv"
        bio.write_cloud_csv(path, pts)
        back = bio.read_cloud_csv(path)
        assert back.dtype == complex
        assert np.array_equal(back.view(np.uint64), pts.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats()), max_size=12))
    def test_cloud_round_trip_bits(self, tmp_path_factory, pairs):
        # st.floats() draws +-0, +-inf, NaN and subnormals
        parts = np.array(pairs, dtype=float).reshape(-1, 2)
        pts = np.empty(len(parts), dtype=complex)
        pts.real, pts.imag = parts[:, 0], parts[:, 1]
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        bio.write_cloud_csv(path, pts)
        back = bio.read_cloud_csv(path).view(float).reshape(-1, 2)
        nan = np.isnan(parts)
        assert back.shape == parts.shape
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(back[~nan].view(np.uint64), parts[~nan].view(np.uint64))

    def test_cloud_header_only(self, tmp_path):
        path = tmp_path / "cloud.csv"
        bio.write_cloud_csv(path, np.array([], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = bio.read_cloud_csv(path)
        assert back.dtype == complex and back.shape == (0,)

    @pytest.mark.parametrize("header", ["index,im,re", "re,im", "index,re,im,extra", ""])
    def test_cloud_header_checked(self, tmp_path, header):
        path = tmp_path / "cloud.csv"
        path.write_text(header + "\r\n0,1,2\r\n")
        with pytest.raises(ValueError, match="header"):
            bio.read_cloud_csv(path)


class TestJson:
    def test_ndjson_round_trip(self, tmp_path):
        recs = [{"a": 1, "b": [1.5, -2.0]}, {"a": 2, "c": "x"}]
        path = tmp_path / "r.ndjson"
        bio.write_ndjson(path, recs)
        assert bio.read_ndjson(path) == recs
        assert len(path.read_text().strip().splitlines()) == 2

    def test_numpy_and_complex_coercion(self, tmp_path):
        path = tmp_path / "doc.json"
        bio.write_json(path, {"z": 1 + 2j, "arr": np.arange(3),
                              "f": np.float64(0.5), "i": np.int64(7)})
        doc = json.loads(path.read_text())
        assert doc == {"z": [1.0, 2.0], "arr": [0, 1, 2], "f": 0.5, "i": 7}

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            bio.write_json(tmp_path / "bad.json", {"x": object()})

    def test_sorted_keys(self, tmp_path):
        path = tmp_path / "doc.json"
        bio.write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')


class TestManifest:
    def test_hashes_outputs(self, tmp_path):
        out = tmp_path / "data.csv"
        out.write_text("index,re,im\n")
        man = tmp_path / "manifest.json"
        doc = bio.write_manifest(man, {"cmd": "test"}, [str(out)])
        assert doc["outputs"][str(out)] == bio.sha256_file(out)
        loaded = json.loads(man.read_text())
        assert loaded["config"] == {"cmd": "test"}
        assert loaded["outputs"] == {str(out): bio.sha256_file(out)}
