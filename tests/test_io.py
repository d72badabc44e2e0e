import csv
import json
import warnings

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
        cols.append(axes[i][0][idx[2 * i]])
        cols.append(axes[i][1][idx[2 * i + 1]])
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


class TestCsv:
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
        x, y = box.axes(res)[0]
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
        axes = [a for pair in box.axes(res) for a in pair]
        for k, axis in enumerate(axes):
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
