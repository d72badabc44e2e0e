import contextlib
import copy
import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biflab import bifgrid, cli, hyperbolic, io as bio, potential
from biflab.cli import main
from biflab.errors import NotPlurisubharmonic
from biflab.families import MapFamily
from biflab.misiurewicz import (
    MAX_ORBIT_STEPS,
    ActivitySpec,
    Preperiodic,
    certificate_to_json,
    solve_misiurewicz,
)

FULL_BOX = "-0.5,0:5x4"
BH3_BOX = "1.7,0.4:0.8x0.8;1.6,0.5:0.8x0.8"
TIP_BOX = "-2,0:0.16x0.16"
# the c05 acceptance certificate: c = -2, where the critical value lands
# on the beta fixed point
C05_CERT = solve_misiurewicz(MapFamily("unicritical", 2), [-1.95 + 0j],
                             ActivitySpec((0,), 2, (Preperiodic(1, 1),)))


def read_json(path):
    with open(path) as f:
        return json.load(f)


class TestLyap:
    def test_squaring_map_value(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["lyap", "--family", "unicritical2", "--param", "0,0",
                   "--samples", "20000", "--depth", "30", "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "lyap.json")
        assert abs(doc["value"] - math.log(2)) < 1e-8
        man = read_json(out / "manifest.json")
        assert "threads" not in man["config"]
        assert man["config"]["family_resolved"]["kind"] == "unicritical"
        key = str(out / "lyap.json")
        assert man["outputs"][key] == bio.sha256_file(key)

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["lyap", "--family", "unicritical2", "--param", "-2,0",
                "--samples", "5000", "--depth", "25", "--seed", "3"]
        rc1 = main(args + ["--out", str(tmp_path / "a")])
        rc2 = main(args + ["--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "a" / "lyap.json").read_bytes() \
            == (tmp_path / "b" / "lyap.json").read_bytes()


class TestScanDdc:
    def test_scan_outputs(self, tmp_path):
        out = tmp_path / "scan"
        rc = main(["scan", "--family", "unicritical2", "--box", FULL_BOX,
                   "--res", "32", "--field", "L", "--out", str(out)])
        assert rc == 0
        for name in ("L.pgm", "L.pgm.json", "L.csv", "manifest.json"):
            assert (out / name).exists()
        man = read_json(out / "manifest.json")
        for path, digest in man["outputs"].items():
            assert bio.sha256_file(path) == digest

    def test_full_box_unit_mass(self, tmp_path):
        out = tmp_path / "ddc"
        rc = main(["ddc", "--family", "unicritical2", "--box", FULL_BOX,
                   "--res", "256", "--field", "G0", "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "ddc.json")
        assert abs(doc["total_mass"] - 1.0) < 0.05

    def test_rectangular_box_regression(self, tmp_path):
        # the example box cuts off measure near c = -2; its mass at this
        # resolution is a frozen regression value, not 1
        out = tmp_path / "rect"
        rc = main(["ddc", "--family", "unicritical2", "--box", "-0.5,0:2.25x2",
                   "--res", "256", "--field", "G0", "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "ddc.json")
        assert abs(doc["total_mass"] - 0.665) < 0.05

    def test_ddc_reruns_identical(self, tmp_path):
        args = ["ddc", "--family", "unicritical2", "--box", "-0.5,0:5x4",
                "--res", "64", "--field", "G0"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("ddc.pgm", "ddc.csv", "ddc.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()


class TestMisiurewicz:
    def test_solve_and_certify(self, tmp_path):
        out = tmp_path / "mis"
        rc = main(["misiurewicz", "--family", "unicritical2", "--seed", "-1.9,0",
                   "--pattern", "k0=2,n=1,p=1", "--out", str(out)])
        assert rc == 0
        docs = bio.read_ndjson(out / "certificates.ndjson")
        assert len(docs) == 1
        assert abs(docs[0]["lambda"][0][0] - (-2.0)) < 1e-10
        assert abs(docs[0]["sigma_min"] - 8.0) < 1e-3
        rc = main(["certify", "--family", "unicritical2",
                   "--certs", str(out / "certificates.ndjson"),
                   "--out", str(tmp_path / "cert")])
        assert rc == 0
        report = read_json(tmp_path / "cert" / "certify_report.json")
        assert report["reports"][0]["passed"]

    def test_tampered_certificate_fails(self, tmp_path):
        out = tmp_path / "mis"
        main(["misiurewicz", "--family", "unicritical2", "--seed", "-1.9,0",
              "--pattern", "k0=2,n=1,p=1", "--out", str(out)])
        docs = bio.read_ndjson(out / "certificates.ndjson")
        docs[0]["lambda"][0][0] += 1e-4
        bad = tmp_path / "bad.ndjson"
        bio.write_ndjson(bad, docs)
        rc = main(["certify", "--family", "unicritical2", "--certs", str(bad),
                   "--out", str(tmp_path / "cert")])
        assert rc == 3

    def test_escaping_certificate_fails(self, tmp_path, capsys):
        # the critical orbit at c = 5 escapes: a FAIL report, not a crash
        out = tmp_path / "mis"
        main(["misiurewicz", "--family", "unicritical2", "--seed", "-1.95,0",
              "--pattern", "k0=2,n=1,p=1", "--out", str(out)])
        docs = bio.read_ndjson(out / "certificates.ndjson")
        docs[0]["lambda"] = [[5, 0]]
        bad = tmp_path / "bad.ndjson"
        bio.write_ndjson(bad, docs)
        capsys.readouterr()
        rc = main(["certify", "--family", "unicritical2", "--certs", str(bad),
                   "--out", str(tmp_path / "cert")])
        assert rc == 3
        summary = capsys.readouterr().out
        assert summary.startswith("FAIL") and "'orbit_closure'" in summary
        assert "'m_plus_match'" in summary
        [report] = read_json(tmp_path / "cert" / "certify_report.json")["reports"]
        assert not report["passed"] and report["closure_gap"] == math.inf

    def test_nan_lambda_is_refused(self, tmp_path, capsys):
        # a NaN parameter is an input error that names the certificate's
        # lambda, not a failure of some later check
        out = tmp_path / "mis"
        main(["misiurewicz", "--family", "unicritical2", "--seed", "-1.95,0",
              "--pattern", "k0=2,n=1,p=1", "--out", str(out)])
        docs = bio.read_ndjson(out / "certificates.ndjson")
        docs[0]["lambda"] = [[math.nan, 0]]
        bad = tmp_path / "bad.ndjson"
        bio.write_ndjson(bad, docs)
        capsys.readouterr()
        rc = main(["certify", "--family", "unicritical2", "--certs", str(bad),
                   "--out", str(tmp_path / "cert")])
        assert rc == 2
        assert "invalid input: certificate lambda must be finite" in capsys.readouterr().err
        assert not (tmp_path / "cert" / "certify_report.json").exists()

    def test_certify_motion_pattern(self, tmp_path, capsys):
        # a certificate has one pattern kind, {n, p}: the motion record
        # that earlier versions wrote for c = -2 is an input error that
        # names it, and a file that holds one writes no report at all,
        # not even for the algebraic record before it
        good = certificate_to_json(C05_CERT, MapFamily("unicritical", 2))
        motion = copy.deepcopy(good)
        motion["pattern"]["patterns"] = [{"p": 1, "motion": True, "base_param": [[-2.0, 0.0]],
                                          "base_point": [2.0, 0.0]}]
        certs = tmp_path / "motion.ndjson"
        bio.write_ndjson(certs, [good, motion])
        assert main(["certify", "--family", "unicritical2", "--certs", str(certs),
                     "--out", str(tmp_path / "cert")]) == 2
        assert ("invalid input: certificate.pattern.patterns[0] is a motion pattern, which is "
                "not read" in capsys.readouterr().err)
        assert not (tmp_path / "cert").exists()

    @pytest.mark.parametrize("key, value", [("p", 0), ("p", -1), ("base_point", [math.nan, 0.0])],
                             ids=["p-0", "p-minus-1", "nan-base-point"])
    def test_malformed_motion_pattern_is_refused(self, tmp_path, capsys, key, value):
        # p = 0 used to crash with ZeroDivisionError and a NaN base point
        # reached the orbit continuation; a motion record is now refused
        # by its kind before any of its fields is read
        doc = certificate_to_json(C05_CERT, MapFamily("unicritical", 2))
        doc["pattern"]["patterns"] = [{"p": 1, "motion": True, "base_param": [[-2.0, 0.0]],
                                       "base_point": [2.0, 0.0], key: value}]
        bad = tmp_path / "bad.ndjson"
        bio.write_ndjson(bad, [doc])
        assert main(["certify", "--family", "unicritical2", "--certs", str(bad),
                     "--out", str(tmp_path / "cert")]) == 2
        assert "is a motion pattern, which is not read" in capsys.readouterr().err
        assert not (tmp_path / "cert").exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tampered_record_is_an_exit_code(self, tmp_path_factory, data):
        # a record with one value replaced by any JSON value is verified
        # (0 or 3) or refused (2); a missing arg, a string k0, a float
        # tracked index, a string in m_plus or too few multipliers used to
        # crash with a traceback
        family, record = data.draw(st.sampled_from(TAMPER_RECORDS))
        doc = copy.deepcopy(record)
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_VALUES)
        certs = tmp_path_factory.mktemp("certify") / "certs.ndjson"
        bio.write_ndjson(certs, [doc])
        assert main(["certify", "--family", family, "--certs", str(certs),
                     "--out", str(certs.parent / "out")]) in (0, 2, 3)

    def test_infinite_sigma_min_fails(self, tmp_path, capsys):
        # an infinite recorded sigma_min used to meet its own tolerance,
        # 1e-4 * max(1, inf), and certify printed "pass []"
        doc = certificate_to_json(C05_CERT, MapFamily("unicritical", 2))
        doc["sigma_min"] = math.inf
        certs = tmp_path / "certs.ndjson"
        bio.write_ndjson(certs, [doc])
        assert main(["certify", "--family", "unicritical2", "--certs", str(certs),
                     "--out", str(tmp_path / "cert")]) == 3
        assert capsys.readouterr().out.strip() == "FAIL ['sigma_min_match']"
        [report] = read_json(tmp_path / "cert" / "certify_report.json")["reports"]
        assert report["checks"]["sigma_min_match"] is False

    def test_overflowing_orbit_exits_3(self, tmp_path, capsys):
        # |lambda_0| near 7.7e307 sends an orbit point past the largest
        # float modulus; Python's complex abs raised OverflowError there,
        # and certify exited 1
        family, doc = TAMPER_RECORDS[1]
        doc = copy.deepcopy(doc)
        doc["lambda"][0][1] = 7.690162164221906e+307
        certs = tmp_path / "certs.ndjson"
        bio.write_ndjson(certs, [doc])
        assert main(["certify", "--family", family, "--certs", str(certs),
                     "--out", str(tmp_path / "cert")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["k0", "n", "p"])
    @pytest.mark.parametrize("command", ["certify", "misiurewicz"])
    def test_orbit_length_above_the_bound(self, tmp_path, capsys, command, field):
        # a check's work grows with k0 + n + p: a record with k0 = 10^5 held
        # certify for 1.6 s, and nothing bounded it
        big = MAX_ORBIT_STEPS + 1
        if command == "certify":
            doc = certificate_to_json(C05_CERT, MapFamily("unicritical", 2))
            pattern = doc["pattern"]
            (pattern if field == "k0" else pattern["patterns"][0])[field] = big
            certs = tmp_path / "certs.ndjson"
            bio.write_ndjson(certs, [doc])
            argv = ["certify", "--certs", str(certs)]
        else:
            items = {"k0": 2, "n": 1, "p": 1, field: big}
            argv = ["misiurewicz", "--seed", "-1.95,0",
                    "--pattern", ",".join(f"{k}={v}" for k, v in items.items())]
        out = tmp_path / "run"
        assert main(argv + ["--family", "unicritical2", "--out", str(out)]) == 2
        assert re.search(rf"invalid input: .*\b{field}\b.*\b{big}\b", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("tracked", [[0, 0], [0] * 10], ids=["two", "ten"])
    def test_tracked_count_must_be_square(self, tmp_path, capsys, tracked):
        # verify's work grows with the tracked points: ten copies of index
        # 0 took 0.55 s against 0.07 s for one, and nothing bounded them
        doc = certificate_to_json(C05_CERT, MapFamily("unicritical", 2))
        doc["pattern"]["tracked"] = tracked
        doc["pattern"]["patterns"] = doc["pattern"]["patterns"][:1] * len(tracked)
        doc["multipliers"] = doc["multipliers"][:1] * len(tracked)
        certs = tmp_path / "certs.ndjson"
        bio.write_ndjson(certs, [doc])
        out = tmp_path / "cert"
        assert main(["certify", "--family", "unicritical2", "--certs", str(certs),
                     "--out", str(out)]) == 2
        assert "certificate.pattern.tracked" in capsys.readouterr().err
        assert not out.exists()

    def test_two_coordinate_lambda_is_refused(self, tmp_path, capsys):
        # used to verify as pass under unicritical2, reading the first one
        doc = certificate_to_json(C05_CERT, MapFamily("unicritical", 2))
        doc["lambda"].append([0.5, 0.0])
        certs = tmp_path / "certs.ndjson"
        bio.write_ndjson(certs, [doc])
        assert main(["certify", "--family", "unicritical2", "--certs", str(certs),
                     "--out", str(tmp_path / "cert")]) == 2
        assert "certificate lambda has 2 coordinates, the family 1" in capsys.readouterr().err
        assert not (tmp_path / "cert").exists()

    def test_multiple_seeds(self, tmp_path):
        out = tmp_path / "mis2"
        rc = main(["misiurewicz", "--family", "unicritical2",
                   "--seed", "0.1,1.05|0.1,-1.05",
                   "--pattern", "k0=2,n=2,p=2", "--out", str(out)])
        assert rc == 0
        docs = bio.read_ndjson(out / "certificates.ndjson")
        lams = [complex(*d["lambda"][0]) for d in docs]
        assert abs(lams[0] - 1j) < 1e-10 and abs(lams[1] + 1j) < 1e-10


# any JSON value, with huge numbers drawn often enough to overflow an
# orbit; counts stay small, since a valid but large k0, n or p only makes
# a longer walk
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats()
    | st.floats(1e100, 1e308) | st.floats(-1e308, -1e100) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
TAMPER_RECORDS = [
    ("unicritical2", certificate_to_json(C05_CERT, MapFamily("unicritical", 2))),
    ("bh3", certificate_to_json(solve_misiurewicz(
        MapFamily("branner_hubbard", 3), [-0.375 + 0.8j, 1.3 + 0.5j],
        ActivitySpec((0, 1), 2, (Preperiodic(1, 1), Preperiodic(2, 2)))),
        MapFamily("branner_hubbard", 3)))]


# the Lattes map of tests/test_families.py, (z^2 + 1)^2 / (4z(z^2 - 1)),
# after the two polynomial kinds
TAMPER_FAMILIES = [
    {"kind": "unicritical", "degree": 2}, {"kind": "branner_hubbard", "degree": 3},
    {"kind": "rational", "degree": 4,
     "num": [[[1.0, 0.0]], [[0.0, 0.0]], [[2.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]],
     "den": [[[0.0, 0.0]], [[-4.0, 0.0]], [[0.0, 0.0]], [[4.0, 0.0]], [[0.0, 0.0]]]}]


def json_paths(doc, prefix=()):
    """The key path of every value below a JSON document, with only the
    first two entries of each list."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc[:2])
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


class TestCantorLinearize:
    def test_cantor_cloud(self, tmp_path):
        out = tmp_path / "cantor"
        b = (1 + math.sqrt(21)) / 2
        rc = main(["cantor", "--family", "unicritical2", "--param", "-5,0",
                   "--anchors", f"{b},0;{1 - b},0", "--depth", "8",
                   "--out", str(out)])
        assert rc == 0
        cloud = bio.read_cloud_csv(out / "cloud.csv")
        assert len(cloud) == 256
        doc = read_json(out / "cantor.json")
        assert doc["eta"] > 0 and doc["K_cloud"] > 1

    def test_linearize(self, tmp_path):
        out = tmp_path / "lin"
        rc = main(["linearize", "--family", "unicritical2", "--param", "-2,0",
                   "--w", "2,0", "--n", "10", "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "linearize.json")
        assert doc["rho"] > 0
        assert doc["residual"] <= 1e-8 * doc["rho"]
        assert abs(doc["m_log_mod"] - 10 * math.log(4)) < 1e-10
        assert doc["psi0"][1] == [1.0, 0.0]


class TestDimensionScaling:
    def test_box_counting_circle(self, tmp_path):
        cloud = tmp_path / "circle.csv"
        th = 2 * np.pi * np.arange(5000) / 5000
        bio.write_cloud_csv(cloud, np.exp(1j * th))
        out = tmp_path / "dim"
        rc = main(["dimension", "--family", "unicritical2",
                   "--cloud", str(cloud),
                   "--scales", "0.25,0.125,0.0625,0.03125,0.015625",
                   "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "dimension.json")
        assert doc["kind"] == "box_counting"
        assert abs(doc["slope"] - 1.0) < 0.05

    def test_pointwise_branch(self, tmp_path):
        out = tmp_path / "dimp"
        rc = main(["dimension", "--family", "unicritical2",
                   "--box", FULL_BOX, "--res", "256", "--field", "G0",
                   "--center", "-2,0", "--radii", "0.5,0.35,0.25,0.18,0.125",
                   "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "dimension.json")
        assert doc["kind"] == "pointwise"
        assert 0.0 < doc["slope"] < 2.0

    def test_scaling_chebyshev_tip(self, tmp_path):
        # harmonic measure at the tip scales like r^(1/2); along the
        # log 4 multiplier ladder the slope is -log 2
        out = tmp_path / "scal"
        mplus = ",".join(str(n * math.log(4)) for n in range(1, 6))
        rc = main(["scaling", "--family", "unicritical2",
                   "--box", "-2,0:0.6x0.6", "--res", "512", "--field", "G0",
                   "--center", "-2,0", "--mplus", mplus, "--q", "1",
                   "--eps", "0.25", "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "scaling.json")
        assert abs(doc["expected"] - (-math.log(2))) < 1e-12
        assert abs(doc["deviation"]) < 0.05


class TestWedgeCommand:
    # 0.66% of this wedge's absolute mass is clamped, below the warning share
    @pytest.mark.filterwarnings("error::biflab.errors.NotPlurisubharmonic")
    def test_mixed_wedge_runs(self, tmp_path):
        out = tmp_path / "ma2"
        rc = main(["ma2", "--family", "bh3",
                   "--box", "1.6,0.4:0.8x0.8;1.5,0.5:0.8x0.8",
                   "--res", "12", "--field", "G0", "--field2", "G1",
                   "--maxiter", "64", "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "wedge_G0_G1.json")
        assert doc["total_mass"] >= 0
        assert (out / "wedge_G0_G1.pgm").exists()


def no_scan(*args):
    raise AssertionError("a grid scan ran before the fields were checked")


class TestExitCodes:
    def test_unknown_family(self, tmp_path):
        assert main(["lyap", "--family", "nope", "--param", "0,0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field", ["G", "Gx", "G+0", "G-0", "G00", "G 0", "G0.0", "g0", "L0",
                                       "G\u0660"])
    @pytest.mark.parametrize("flag", ["--field", "--field2"])
    def test_field_is_L_or_G_index(self, tmp_path, capsys, monkeypatch, flag, field):
        # "G" and "Gx" exited with a bare "invalid literal for int()", and
        # "G+0" ran as G0 and wrote G+0.pgm and G+0.csv; a bad --field2
        # was refused only after the whole --field scan
        monkeypatch.setattr(bifgrid, "escape_rate", no_scan)
        if flag == "--field":
            argv = ["scan", "--family", "unicritical2", "--box", FULL_BOX, "--field", field]
        else:
            argv = ["ma2", "--family", "bh3", "--box", "1.7,0.4:0.8x0.8;1.6,0.5:0.8x0.8",
                    "--field", "G0", "--field2", field]
        out = tmp_path / "run"
        assert main(argv + ["--res", "8", "--maxiter", "8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown field {field!r}" in err and "L or G<j>" in err
        assert not out.exists()

    def test_out_of_range_critical_index(self, tmp_path):
        assert main(["scan", "--family", "unicritical2", "--box", FULL_BOX,
                     "--res", "8", "--field", "G1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field2", ["G2", "G-1"])
    def test_out_of_range_field2_before_any_scan(self, tmp_path, capsys, monkeypatch, field2):
        # bh3 marks the critical points 0 and 1
        monkeypatch.setattr(bifgrid, "escape_rate", no_scan)
        assert main(["ma2", "--family", "bh3", "--box", "1.7,0.4:0.8x0.8;1.6,0.5:0.8x0.8",
                     "--field", "G0", "--field2", field2, "--res", "8",
                     "--out", str(tmp_path / "run")]) == 2
        assert f"critical index {field2[1:]} out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["scaling", "--center", "-2,0", "--mplus", "3,2,1"],
         "m_plus must be strictly increasing, got [3.0, 2.0, 1.0]"),
        (["scaling", "--center", "-2,0", "--mplus", "1,2,3", "--eps", "0"],
         "mass scaling eps must be positive and finite, got 0.0"),
        (["dimension", "--center", "-2,0", "--radii", "0.01,0.02,0.03,0.04"],
         "radii must be strictly decreasing"),
    ], ids=["mplus-order", "eps-zero", "radii-order"])
    def test_order_and_sign_before_any_scan(self, tmp_path, capsys, monkeypatch, argv, message):
        # these were refused only after the scan and ddc
        monkeypatch.setattr(bifgrid, "escape_rate", no_scan)
        out = tmp_path / "run"
        assert main(argv + ["--family", "unicritical2", "--box", "-2,0:0.6x0.6", "--res", "32",
                            "--out", str(out)]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_sample_count(self, tmp_path, capsys):
        assert main(["lyap", "--family", "unicritical2", "--param", "-2,0",
                     "--samples", "-5", "--out", str(tmp_path)]) == 2
        assert "n_points" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_too_few_samples(self, tmp_path, capsys, samples):
        # a standard error needs two samples; this used to write NaN
        assert main(["lyap", "--family", "unicritical2", "--param", "-2,0",
                     "--samples", samples, "--out", str(tmp_path)]) == 2
        assert f"n_points must be >= 2 for a standard error, got {samples}" \
            in capsys.readouterr().err
        assert not (tmp_path / "lyap.json").exists()

    def test_too_many_samples(self, tmp_path, capsys):
        # 10^11 samples exited 1 with numpy's _ArrayMemoryError traceback
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            assert main(["lyap", "--family", "unicritical2", "--param", "-2,0",
                         "--samples", "100000000000", "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (f"invalid input: 100000000000 samples, above the {potential.MAX_SAMPLES} "
                f"of MAX_SAMPLES") in capsys.readouterr().err
        assert peak < 10 ** 7
        assert not out.exists()

    def test_bad_box_string(self, tmp_path):
        assert main(["scan", "--family", "unicritical2", "--box", "zzz",
                     "--res", "8", "--out", str(tmp_path)]) == 2

    def test_resolution_floor(self, tmp_path):
        assert main(["scan", "--family", "unicritical2", "--box", FULL_BOX,
                     "--res", "4", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("maxiter", ["0", "-1"])
    def test_maxiter_below_one(self, tmp_path, capsys, maxiter):
        # a scan that iterates nothing is an error, not a zero field
        assert main(["ddc", "--family", "unicritical2", "--box", FULL_BOX,
                     "--res", "16", "--maxiter", maxiter, "--out", str(tmp_path)]) == 2
        assert "maxiter" in capsys.readouterr().err

    @pytest.mark.parametrize("box", ["-0.5,0:nanx4", "-0.5,0:5xinf", "nan,0:5x4",
                                     "-0.5,inf:5x4"])
    def test_nonfinite_box(self, tmp_path, capsys, box):
        assert main(["ddc", "--family", "unicritical2", f"--box={box}",
                     "--res", "16", "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("box, size", [("0,0:-1x1", "-1x1"), ("0,0:1x-2", "1x-2"),
                                           ("0,0:0X1", "0X1")])
    def test_nonpositive_box_names_its_size(self, tmp_path, capsys, box, size):
        # the sizes were halved first, so the refusal named a half-width
        # or half-height the user never typed (-0.5, -1.0)
        out = tmp_path / "run"
        assert main(["scan", "--family", "unicritical2", f"--box={box}", "--res", "8",
                     "--out", str(out)]) == 2
        assert f"invalid input: --box sizes must be positive and finite, got {size!r}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_missing_certs_file(self, tmp_path):
        assert main(["certify", "--family", "unicritical2",
                     "--certs", str(tmp_path / "none.ndjson"),
                     "--out", str(tmp_path)]) == 2

    def test_usage_error(self):
        assert main(["lyap", "--family", "unicritical2"]) == 2

    @pytest.mark.parametrize("flags", [
        [],                                                  # neither --cloud nor --box
        ["--cloud", "cloud.csv"],                            # --cloud without --scales
        ["--box", FULL_BOX, "--res", "16"],                  # no --center, --radii
        ["--box", FULL_BOX, "--center", "0,0", "--radii", "0.5,0.25"],   # no --res
    ])
    def test_dimension_missing_flag(self, tmp_path, capsys, flags):
        assert main(["dimension", "--family", "unicritical2", "--out", str(tmp_path)]
                    + flags) == 2
        assert "missing --" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["misiurewicz", "--family", "bh3", "--seed", "-1.9,0",
          "--pattern", "k0=2,n=1,p=1"], "--seed"),
        (["misiurewicz", "--family", "bh3", "--tracked", "0,1",
          "--seed", "-0.375,0.8;1.3,0.5|1.125,0", "--pattern", "k0=2,n=1,p=1"], "--seed"),
        (["lyap", "--family", "unicritical2", "--param", "0,0;1,0", "--samples", "100"],
         "--param"),
        (["lyap", "--family", "bh3", "--param", "0.5,0.1", "--samples", "100"], "--param"),
        (["cantor", "--family", "unicritical2", "--param", "-6,0;1,0",
          "--anchors", "3,0;-2,0"], "--param"),
        (["linearize", "--family", "unicritical2", "--param", "-2,0",
          "--w", "2,0;3,0", "--n", "5"], "--w"),
        (["scaling", "--family", "unicritical2", "--box", "-2,0:0.6x0.6", "--res", "32",
          "--center", "-2,0;1,0", "--mplus", "0,0.5,1"], "--center"),
        (["dimension", "--family", "unicritical2", "--box", FULL_BOX, "--res", "16",
          "--center", "-2,0;1,0", "--radii", "1,0.5"], "--center"),
    ], ids=["bh3-seed", "bh3-second-seed", "two-params", "bh3-one-param", "cantor-param",
            "two-w", "scaling-center", "dimension-center"])
    def test_parameter_count(self, tmp_path, capsys, argv, flag):
        # a wrong count used to crash (IndexError) or silently drop points
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{flag} needs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["lyap", "--param", "0,0", "--samples", "100", "--depth", "-1"],
         "depth must be >= 1, got -1"),
        (["lyap", "--param", "0,0", "--samples", "100", "--depth", "0"],
         "depth must be >= 1, got 0"),
        (["cantor", "--param", "-6,0", "--anchors", "3,0;-2,0", "--depth", "-1"],
         "depth must be >= 0, got -1"),
    ], ids=["lyap-minus-1", "lyap-0", "cantor-minus-1"])
    def test_meaningless_depth(self, tmp_path, capsys, argv, message):
        # depth 0 used to report log|f'(1+i)| of the sampler's start point
        out = tmp_path / "run"
        assert main(argv + ["--family", "unicritical2", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["linearize", "--param", "-2,0", "--w", "2,0", "--n", "3", "--ntrunc", "0"],
         "N_trunc must be >= 1, got 0"),
        (["linearize", "--param", "-2,0", "--w", "2,0", "--n", "3", "--tail", "-1"],
         "tail must be >= 0, got -1"),
    ], ids=["ntrunc-0", "tail-minus-1"])
    def test_count_below_its_floor(self, tmp_path, capsys, argv, message):
        # --ntrunc 0 used to raise IndexError, --tail -1 a broadcast error
        out = tmp_path / "run"
        assert main(argv + ["--family", "unicritical2", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cantor_takes_no_period(self, tmp_path, capsys):
        # a Cantor cloud is built from the inverse branches of f at fixed points
        out = tmp_path / "run"
        assert main(["cantor", "--family", "unicritical2", "--param", "-6,0",
                     "--anchors", "3,0;-2,0", "--period", "1", "--out", str(out)]) == 2
        assert "unrecognized arguments: --period 1" in capsys.readouterr().err
        assert not out.exists()

    def test_cantor_refuses_coinciding_anchors(self, tmp_path, capsys):
        # this wrote eta = 0 and a 64-point cloud of the one anchor
        out = tmp_path / "run"
        assert main(["cantor", "--family", "unicritical2", "--param", "-6,0",
                     "--anchors", "3,0;3,0", "--depth", "6", "--out", str(out)]) == 2
        assert "Cantor anchors 0 and 1 coincide at (3+0j)" in capsys.readouterr().err
        assert not out.exists()

    def test_cantor_refuses_a_cloud_past_the_bound(self, tmp_path, capsys, monkeypatch):
        # a cloud has 2^depth points: building depth 20 peaked at 451 MB,
        # and nothing bounded the depth; the bound is checked before any
        # disk is sized
        def no_disks(*args):
            raise AssertionError("branch_radius ran before the cloud bound was checked")

        monkeypatch.setattr(hyperbolic, "branch_radius", no_disks)
        out = tmp_path / "run"
        assert main(["cantor", "--family", "unicritical2", "--param", "-6,0",
                     "--anchors", "3,0;-2,0", "--depth", "21", "--out", str(out)]) == 2
        assert ("invalid input: a Cantor cloud of depth 21 has 2^21 points, more than 1048576"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_linearize_past_the_normal_floats(self, tmp_path, capsys):
        # rho_n = (rho / 2) 4^-n underflows to 0 before n = 600, and the
        # residual on a test circle of radius 0 used to read 0 with exit 0
        out = tmp_path / "lin"
        assert main(["linearize", "--family", "unicritical2", "--param", "-2,0",
                     "--w", "2,0", "--n", "600", "--out", str(out)]) == 3
        assert "at depth n = 600 is below the normal floats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["lyap", "--param", "1"], "--param needs re,im point(s), got '1'"),
        (["cantor", "--param", "-6,0", "--anchors", "3,0;-2"],
         "--anchors needs re,im point(s), got '-2'"),
        (["scan", "--box", "0,0", "--res", "8"], "--box needs cx,cy:WxH box(es), got '0,0'"),
        (["scan", "--box", "0,0:1x1;0:1x1", "--res", "8"],
         "--box needs cx,cy:WxH box(es), got '0:1x1'"),
    ], ids=["param", "anchors", "box", "second-box"])
    def test_malformed_point_names_its_flag(self, tmp_path, capsys, argv, message):
        # used to print "not enough values to unpack (expected 2, got 1)"
        out = tmp_path / "run"
        assert main(argv + ["--family", "unicritical2", "--out", str(out)]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["misiurewicz", "--seed", "-1.9,0", "--pattern", "k0"],
         "--pattern needs key=integer items, got 'k0'"),
        (["misiurewicz", "--seed", "-1.9,0", "--pattern", "k0=x,n=1,p=1"],
         "--pattern needs key=integer items, got 'k0=x'"),
        (["misiurewicz", "--seed", "-1.9,0", "--pattern", "k0=2,n=1,p=1", "--tracked", "a"],
         "--tracked needs comma-separated critical indices, got 'a'"),
        (["dimension", "--cloud", "{cloud}", "--scales", "0.1,x"],
         "--scales needs a comma list of numbers, got '0.1,x'"),
        (["dimension", "--box", "0,0:1x1", "--res", "8", "--center", "0,0", "--radii", "0.5,x"],
         "--radii needs a comma list of numbers, got '0.5,x'"),
        (["scaling", "--box", "-2,0:0.5x0.5", "--res", "8", "--center", "-2,0",
          "--mplus", "1,x"], "--mplus needs a comma list of numbers, got '1,x'"),
    ], ids=["pattern-item", "pattern-value", "tracked", "scales", "radii", "mplus"])
    def test_malformed_list_names_its_flag(self, tmp_path, capsys, argv, message):
        # --pattern and --tracked used to print "not enough values to unpack"
        # or "invalid literal for int() with base 10", and the number lists
        # "could not convert string to float: 'x'"
        cloud = tmp_path / "cloud.csv"
        bio.write_cloud_csv(cloud, np.exp(2j * np.pi * np.arange(1000) / 1000))
        out = tmp_path / "run"
        argv = [a.replace("{cloud}", str(cloud)) for a in argv]
        assert main(argv + ["--family", "unicritical2", "--out", str(out)]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family, box, count", [
        ("bh3", "-0.5,0:1x1", 1), ("unicritical2", "-0.5,0:1x1;0,0:1x1", 2)])
    def test_box_plane_count(self, tmp_path, capsys, family, box, count):
        # one plane for bh3 used to crash with IndexError, and a second
        # plane for unicritical2 wrote an 8^4 field that ignored it
        out = tmp_path / "run"
        assert main(["scan", "--family", family, "--box", box, "--res", "8",
                     "--out", str(out)]) == 2
        assert f"--box needs {3 - count} cx,cy:WxH box(es), got {count}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["dimension", "--box", TIP_BOX, "--res", "32", "--field", "G0", "--center", "-2,0",
          "--radii", "inf,0.06,0.05,0.04"], "--radii needs finite numbers"),
        (["dimension", "--cloud", "{cloud}", "--scales", "0.1,nan"], "--scales needs finite"),
        (["ma2", "--family", "bh3", "--box", BH3_BOX, "--res", "8", "--mollify", "inf"],
         "mollify_radius must be finite, got inf"),
        (["ma2", "--family", "bh3", "--box", BH3_BOX, "--res", "8", "--mollify", "nan"],
         "mollify_radius must be finite, got nan"),
        (["scaling", "--box", "-2,0:0.6x0.6", "--res", "32", "--center", "-2,0",
          "--mplus", "0,0.5,1", "--eps", "-1"], "eps must be positive and finite, got -1.0"),
        (["scaling", "--box", "-2,0:0.6x0.6", "--res", "32", "--center", "-2,0",
          "--mplus", "0,0.5,1", "--eps", "nan"], "eps must be positive and finite, got nan"),
        (["scaling", "--box", "-2,0:0.6x0.6", "--res", "32", "--center", "-2,0",
          "--mplus", "nan,0.5,1"], "--mplus needs finite numbers"),
        (["scaling", "--box", "-2,0:0.6x0.6", "--res", "32", "--center", "nan,0",
          "--mplus", "0,0.5,1"], "--center needs finite re,im point(s), got 'nan,0'"),
        (["lyap", "--param", "nan,0", "--samples", "100"],
         "--param needs finite re,im point(s), got 'nan,0'"),
    ], ids=["radii-inf", "scales-nan", "mollify-inf", "mollify-nan", "eps-negative",
            "eps-nan", "mplus-nan", "center-nan", "param-nan"])
    def test_nonfinite_number_refused(self, tmp_path, capsys, argv, message):
        # --radii inf used to write "slope": NaN, --mollify inf crashed with
        # OverflowError, and the scaling inputs were reported as
        # numerical failures (exit 3)
        cloud = tmp_path / "cloud.csv"
        bio.write_cloud_csv(cloud, np.exp(2j * np.pi * np.arange(1000) / 1000))
        out = tmp_path / "run"
        argv = [a.replace("{cloud}", str(cloud)) for a in argv]
        if "--family" not in argv:
            argv += ["--family", "unicritical2"]
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--family", "bh3", "--box", BH3_BOX, "--res", "3000"],
         "resolution 3000 gives 81000000000000 cells, above the 16777216 of MAX_GRID_CELLS"),
        (["ddc", "--box", FULL_BOX, "--res", "20000000"],
         "resolution 20000000 gives 400000000000000 cells, above the 16777216"),
        (["dimension", "--cloud", "{cloud}", "--scales", "0,0.25,0.125,0.0625,0.03125"],
         "box-counting scales must be positive, got [0.25, 0.125, 0.0625, 0.03125, 0.0]"),
        *((["scaling", "--box", "-2,0:0.6x0.6", "--res", res, "--field", "G0",
            "--center", "-2,0", "--mplus", "2.772589,1.386294,4.158883,5.545177"],
           "m_plus must be strictly increasing, got [2.772589, 1.386294, ")
          for res in ("128", "512")),
        (["scan", "--box", "0,0:1x0", "--res", "8"],
         "--box sizes must be positive and finite, got '1x0'"),
    ], ids=["scan-grid", "ddc-grid", "scales-zero", "mplus-128", "mplus-512", "box-height"])
    def test_refused_input(self, tmp_path, capsys, argv, message):
        # the grids exited 1 with an uncaught "Unable to allocate 589. TiB";
        # the zero scale, on a cloud whose median spacing is 0, wrote
        # "slope": NaN with exit 0; the unordered ladder exited 3 with
        # "only 2 usable scales" at 128^2 and 2 with "radii must be
        # strictly decreasing" at 512^2; a zero height was reported as
        # "half-widths must be positive"
        th = 2 * np.pi * np.arange(1500) / 1500
        cloud = tmp_path / "cloud.csv"
        bio.write_cloud_csv(cloud, np.exp(1j * np.concatenate([th, th[:600]])))
        out = tmp_path / "run"
        argv = [a.replace("{cloud}", str(cloud)) for a in argv]
        if "--family" not in argv:
            argv += ["--family", "unicritical2"]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_single_anchor(self, tmp_path, capsys):
        # used to exit 2 with "min() arg is an empty sequence"
        out = tmp_path / "run"
        assert main(["cantor", "--family", "unicritical2", "--param", "-6,0",
                     "--anchors", "3,0", "--depth", "2", "--out", str(out)]) == 2
        assert "a Cantor cloud needs at least two anchors, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ({"degree": 2}, "missing kind"),
        ({"kind": "unicritical"}, "missing degree"),
        # these crashed with a traceback, or ran as degree 2 and 1
        ({"kind": "unicritical", "degree": None}, "family JSON.degree must be a JSON integer"),
        ({"kind": 5, "degree": 2}, "family JSON.kind must be a JSON string"),
        ({"kind": "rational", "degree": 2, "num": 5, "den": [[[1, 0]]]}, "family JSON.num must"),
        ({"kind": "unicritical", "degree": 2.7}, "family JSON.degree must be a JSON integer"),
        ({"kind": "unicritical", "degree": True}, "family JSON.degree must be a JSON integer"),
        # "too many values to unpack", naming no field
        ({"kind": "rational", "degree": 2, "num": [[[-6, 0]], [[0, 0]], [[1, 0]]],
          "den": [[[1, 0, 0]]]}, "family JSON.den[0][0] must be a list of 2 entries"),
        ({"kind": "rational", "degree": 2, "num": [[[-6, 0]], [], [[1, 0]]], "den": [[[1, 0]]]},
         "rational num/den rows need one or more finite coefficients"),
    ], ids=["doc0-kind", "doc1-degree", "degree-null", "kind-number", "num-number",
            "degree-float", "degree-bool", "den-triple", "empty-row"])
    def test_malformed_family_file(self, tmp_path, capsys, doc, message):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["lyap", "--family", str(fam), "--param", "0,0", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tampered_family_file_is_an_exit_code(self, tmp_path_factory, data):
        # a family file with one value replaced by any JSON value is read
        # (0) or refused (2); "degree": null, "kind": 5 and a rational
        # "num": 5 used to crash with a traceback.  certify of no records
        # reads the family and writes its resolved form into the manifest,
        # and computes nothing with it
        doc = copy.deepcopy(data.draw(st.sampled_from(TAMPER_FAMILIES)))
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_VALUES)
        run = tmp_path_factory.mktemp("family")
        (run / "family.json").write_text(json.dumps(doc))
        (run / "certs.ndjson").write_text("")
        assert main(["certify", "--family", str(run / "family.json"),
                     "--certs", str(run / "certs.ndjson"), "--out", str(run / "out")]) in (0, 2)

    def test_certificate_without_pattern(self, tmp_path, capsys):
        main(["misiurewicz", "--family", "unicritical2", "--seed", "-1.9,0",
              "--pattern", "k0=2,n=1,p=1", "--out", str(tmp_path / "mis")])
        docs = bio.read_ndjson(tmp_path / "mis" / "certificates.ndjson")
        del docs[0]["pattern"]
        bad = tmp_path / "bad.ndjson"
        bio.write_ndjson(bad, docs)
        assert main(["certify", "--family", "unicritical2", "--certs", str(bad),
                     "--out", str(tmp_path / "cert")]) == 2
        assert "missing pattern" in capsys.readouterr().err
        assert not (tmp_path / "cert").exists()

    def test_numerical_failure(self, tmp_path):
        # the superattracting fixed point 0 of z^2 has no repelling
        # preimage to extend the chain by: a numerical failure, not a
        # usage error
        assert main(["linearize", "--family", "unicritical2", "--param", "0,0",
                     "--w", "0,0", "--n", "5", "--out", str(tmp_path)]) == 3

    def test_overflowed_resultant_is_a_numerical_failure(self, tmp_path, capsys):
        # num[0] = 8.9e101 overflows the resultant of the Lattes file to
        # inf + nan i; lyap warned and reported an exponent with exit 0
        doc = copy.deepcopy(TAMPER_FAMILIES[2])
        doc["num"][0][0][0] = 8.9e101
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["lyap", "--family", str(fam), "--param", "0,0", "--samples", "200",
                     "--depth", "5", "--out", str(out)]) == 3
        assert "numerical failure: resultant (inf+nanj) is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_profile_names_its_stage(self, tmp_path, capsys):
        # the G0 field of z^2 + c vanishes on this box inside the Mandelbrot
        # set, so no ball around 0 carries mass
        out = tmp_path / "dim"
        assert main(["dimension", "--family", "unicritical2", "--box", "0,0:0.4x0.4",
                     "--res", "64", "--field", "G0", "--center", "0,0",
                     "--radii", "0.15,0.1,0.05,0.03", "--out", str(out)]) == 3
        assert "numerical failure: pointwise dimension: only 0 radii with positive mass" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["dimension", "--radii", "0.0625,0.03125,0.015625,0.0078125"],
         "pointwise dimension: only 0 radii with positive mass"),
        (["scaling", "--mplus", "1.386294,2.772589,4.158883,5.545177"],
         "mass scaling: fewer than 3 positive masses"),
    ], ids=["dimension", "scaling"])
    def test_center_out_of_reach_scans_no_cell(self, tmp_path, capsys, monkeypatch, argv,
                                               message):
        # no ball about a centre far outside the box meets a cell, so the
        # scan window is empty; the failure is the one a whole-box scan
        # gives, found without scanning a cell
        scans = []

        def scan(*args, **kwargs):
            scans.append(bifgrid.scan_field(*args, **kwargs))
            return scans[-1]

        monkeypatch.setattr(cli, "scan_field", scan)
        out = tmp_path / "run"
        assert main(argv + ["--family", "unicritical2", "--box", "-2,0:0.6x0.6", "--res", "512",
                            "--field", "G0", "--center", "5,0", "--out", str(out)]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err
        assert not out.exists()
        assert [f.values.size for f in scans] == [0]

    def test_window_refusals_use_the_whole_grid(self, tmp_path, capsys):
        # the window of these radii holds a few cells of each grid, but
        # the grid bounds and the 3-cell-width floor are the whole grid's
        for res, message in (("5000", "invalid input: resolution 5000 gives 25000000 cells"),
                             ("4", "invalid input: resolution must be >= 8"),
                             ("16", "numerical failure: r_min = 0.02 below 3 cell widths")):
            assert main(["dimension", "--family", "unicritical2", "--box", FULL_BOX,
                         "--res", res, "--field", "G0", "--center", "-2,0",
                         "--radii", "0.04,0.03,0.02", "--out", str(tmp_path / res)]) in (2, 3)
            assert message in capsys.readouterr().err


UNI2 = {"degree": 2, "kind": "unicritical"}
BH3 = {"degree": 3, "kind": "branner_hubbard"}

# (argv without --out, the manifest's exact config without "out", the
# exact file names in --out); "{tmp}" is the test's directory
MANIFEST_CASES = {
    "lyap": (
        ["lyap", "--family", "unicritical2", "--param", "-2,0", "--samples", "200",
         "--depth", "5"],
        {"command": "lyap", "family": "unicritical2", "param": "-2,0", "samples": 200,
         "depth": 5, "seed": 0, "family_resolved": UNI2},
        {"lyap.json"}),
    "scan": (
        ["scan", "--family", "unicritical2", "--box", FULL_BOX, "--res", "8"],
        {"command": "scan", "family": "unicritical2", "box": FULL_BOX, "res": 8,
         "field": "L", "maxiter": 512, "family_resolved": UNI2},
        {"L.pgm", "L.pgm.json", "L.csv"}),
    "ddc": (
        ["ddc", "--family", "unicritical2", "--box", FULL_BOX, "--res", "16",
         "--field", "G0", "--maxiter", "64"],
        {"command": "ddc", "family": "unicritical2", "box": FULL_BOX, "res": 16,
         "field": "G0", "maxiter": 64, "family_resolved": UNI2},
        {"ddc.pgm", "ddc.pgm.json", "ddc.csv", "ddc.json"}),
    "ma2": (
        ["ma2", "--family", "bh3", "--box", BH3_BOX, "--res", "8", "--field", "G0",
         "--maxiter", "32"],
        {"command": "ma2", "family": "bh3", "box": BH3_BOX, "res": 8, "field": "G0",
         "maxiter": 32, "family_resolved": BH3},
        {"ma2_G0.pgm", "ma2_G0.pgm.json", "ma2_G0.csv", "ma2_G0.json"}),
    "ma2-wedge": (
        ["ma2", "--family", "bh3", "--box", BH3_BOX, "--res", "8", "--field", "G0",
         "--field2", "G1", "--mollify", "0.2", "--maxiter", "32"],
        {"command": "ma2", "family": "bh3", "box": BH3_BOX, "res": 8, "field": "G0",
         "field2": "G1", "mollify": 0.2, "maxiter": 32, "family_resolved": BH3},
        {"wedge_G0_G1.pgm", "wedge_G0_G1.pgm.json", "wedge_G0_G1.csv",
         "wedge_G0_G1.json"}),
    "misiurewicz": (
        ["misiurewicz", "--family", "unicritical2", "--seed", "-1.9,0",
         "--pattern", "k0=2,n=1,p=1"],
        {"command": "misiurewicz", "family": "unicritical2", "seed": "-1.9,0",
         "pattern": "k0=2,n=1,p=1", "tracked": "0", "family_resolved": UNI2},
        {"certificates.ndjson"}),
    "certify": (
        ["certify", "--family", "unicritical2", "--certs", "{tmp}/certs.ndjson"],
        {"command": "certify", "family": "unicritical2", "certs": "{tmp}/certs.ndjson",
         "family_resolved": UNI2},
        {"certify_report.json"}),
    "dimension-cloud": (
        ["dimension", "--family", "unicritical2", "--cloud", "{tmp}/cloud.csv",
         "--scales", "0.25,0.125,0.0625,0.03125"],
        {"command": "dimension", "family": "unicritical2", "cloud": "{tmp}/cloud.csv",
         "scales": "0.25,0.125,0.0625,0.03125", "field": "L", "maxiter": 512,
         "family_resolved": None},
        {"dimension.json"}),
    "dimension-pointwise": (
        ["dimension", "--family", "unicritical2", "--box", TIP_BOX, "--res", "32",
         "--field", "G0", "--center", "-2,0", "--radii", "0.08,0.06,0.04,0.03,0.02"],
        {"command": "dimension", "family": "unicritical2", "box": TIP_BOX, "res": 32,
         "field": "G0", "maxiter": 512, "center": "-2,0",
         "radii": "0.08,0.06,0.04,0.03,0.02", "family_resolved": UNI2},
        {"dimension.json"}),
    "scaling": (
        ["scaling", "--family", "unicritical2", "--box", "-2,0:0.6x0.6", "--res", "32",
         "--field", "G0", "--center", "-2,0", "--mplus", "0,0.5,1"],
        {"command": "scaling", "family": "unicritical2", "box": "-2,0:0.6x0.6",
         "res": 32, "field": "G0", "maxiter": 512, "center": "-2,0", "mplus": "0,0.5,1",
         "q": 1, "eps": 0.25, "family_resolved": UNI2},
        {"scaling.json"}),
    "cantor": (
        ["cantor", "--family", "unicritical2", "--param", "-6,0",
         "--anchors", "3,0;-2,0", "--depth", "2"],
        {"command": "cantor", "family": "unicritical2", "param": "-6,0",
         "anchors": "3,0;-2,0", "depth": 2, "family_resolved": UNI2},
        {"cloud.csv", "cantor.json"}),
    "linearize": (
        ["linearize", "--family", "unicritical2", "--param", "-2,0", "--w", "2,0",
         "--n", "5"],
        {"command": "linearize", "family": "unicritical2", "param": "-2,0", "w": "2,0",
         "n": 5, "tail": 30, "ntrunc": 12, "family_resolved": UNI2},
        {"linearize.json"}),
}


class TestManifest:
    """Every argparse dest and default of each subcommand reaches the
    manifest's config unchanged, and each run writes exactly its files."""

    def test_cases_cover_every_command(self):
        assert {argv[0] for argv, _, _ in MANIFEST_CASES.values()} \
            == {c.name for c in cli.COMMANDS}

    @pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
    def test_config_and_outputs(self, tmp_path, case):
        argv, config, names = MANIFEST_CASES[case]
        fill = lambda v: v.replace("{tmp}", str(tmp_path)) if isinstance(v, str) else v
        bio.write_ndjson(tmp_path / "certs.ndjson",
                         [certificate_to_json(C05_CERT, MapFamily("unicritical", 2))])
        bio.write_cloud_csv(tmp_path / "cloud.csv",
                            np.exp(2j * np.pi * np.arange(2000) / 2000))
        out = tmp_path / "run"
        # the 8^4 wedge clamps 59% of its absolute mass
        with (pytest.warns(NotPlurisubharmonic) if case == "ma2-wedge"
              else contextlib.nullcontext()):
            assert main([fill(a) for a in argv] + ["--out", str(out)]) == 0
        man = read_json(out / "manifest.json")
        assert man["config"] == {"out": str(out), **{k: fill(v) for k, v in config.items()}}
        assert {p.name for p in out.iterdir()} == names | {"manifest.json"}
        assert set(man["outputs"]) == {str(out / name) for name in names}


# every integer flag of every command, on the first manifest case of its
# command; a flag added to COMMANDS is covered with no edit here
def first_case(name):
    return next(argv for argv, _, _ in MANIFEST_CASES.values() if argv[0] == name)


INT_FLAGS = [(first_case(cmd.name), flag) for cmd in cli.COMMANDS for flag, kw in cmd.flags
             if kw.get("type") is int]


# every flag that holds other numbers, with the slot of its text that a
# test value fills: the float flags read whole, the points, boxes and
# comma lists in one place each
FLOAT_FLAGS = [(first_case(cmd.name), flag, "{}") for cmd in cli.COMMANDS
               for flag, kw in cmd.flags if kw.get("type") is float] + [
    (MANIFEST_CASES[case][0], flag, slot) for case, flag, slot in (
    ("lyap", "--param", "{},0"), ("misiurewicz", "--seed", "-1.9,{}"),
    ("scan", "--box", "-0.5,0:{}x4"), ("ddc", "--box", "{},0:5x4"),
    ("dimension-cloud", "--scales", "0.25,{}"), ("dimension-pointwise", "--center", "-2,{}"),
    ("dimension-pointwise", "--radii", "0.08,{}"), ("scaling", "--mplus", "0,0.5,{}"),
    ("cantor", "--param", "{},0"), ("cantor", "--anchors", "3,0;{},0"),
    ("linearize", "--param", "-2,{}"), ("linearize", "--w", "{},0"))]


class TestFloatFlags:
    @pytest.mark.parametrize("value", ["1_0", "\u0663", " 3", "+3", "\uff13"])
    @pytest.mark.parametrize("argv, flag, slot", FLOAT_FLAGS,
                             ids=[f"{argv[0]}{flag}-{slot}" for argv, flag, slot in FLOAT_FLAGS])
    def test_only_ascii_numbers(self, tmp_path, capsys, argv, flag, slot, value):
        # float() reads 1_0 as 10 and the Arabic-Indic and full-width
        # digits as 3: lyap --param \u0661,0 ran and recorded "\u0661,0"
        out = tmp_path / "run"
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if flag in argv:
            i = argv.index(flag)
            argv = argv[:i] + argv[i + 2:]
        assert main(argv + [f"{flag}={slot.format(value)}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"invalid input: {flag} needs" in err and value in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["3", "-0.5", ".5", "2.", "1e-3", "2E+4", "-inf", "NaN"])
    def test_decimal_spellings(self, text):
        assert repr(cli._float(text, "--x")) == repr(float(text))


class TestIntegerFlags:
    @pytest.mark.parametrize("value", ["1_0", "\u0663", " 3", "+3", "3.0"])
    @pytest.mark.parametrize("argv, flag", INT_FLAGS,
                             ids=[f"{argv[0]}{flag}" for argv, flag in INT_FLAGS])
    def test_only_ascii_digits(self, tmp_path, capsys, argv, flag, value):
        # int() reads 1_0 as 10 and the Arabic-Indic digit as 3, and a
        # --depth 1_0 run recorded "depth": 10
        out = tmp_path / "run"
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert main(argv + [f"{flag}={value}", "--out", str(out)]) == 2
        assert f"invalid input: {flag} needs an integer, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["lyap", "--family", "unicritical\u00b2", "--param", "0,0"],
         "unknown --family 'unicritical\u00b2'"),
        (["lyap", "--family", "bh\u0663", "--param", "0,0;0,0", "--samples", "200"],
         "unknown --family 'bh\u0663'"),
        (["misiurewicz", "--family", "unicritical2", "--seed", "-1.9,0",
          "--pattern", "k0=0_2,n=1,p=1"], "--pattern needs key=integer items, got 'k0=0_2'"),
        (["misiurewicz", "--family", "unicritical2", "--seed", "-1.9,0",
          "--pattern", "k0=2,n=1,p=1", "--tracked", " +0"],
         "--tracked needs comma-separated critical indices, got ' +0'"),
        (["misiurewicz", "--family", "unicritical2", "--seed", "-1.9,0",
          "--pattern", "k0=1,k0=2,n=1,p=1"], "--pattern gives k0 twice"),
    ], ids=["unicritical-superscript", "bh-arabic-indic", "pattern-underscore",
            "tracked-plus", "pattern-repeated-k0"])
    def test_integers_inside_a_flag(self, tmp_path, capsys, argv, message):
        # the superscript exited with a bare "invalid literal for int()",
        # bh3 in Arabic-Indic digits ran as bh3, and the other three ran
        # (a repeated k0 as its last value)
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err
        assert not out.exists()


def readme_commands():
    """Every `biflab ...` line of the README's command block, continuation
    lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line for line in re.sub(r"\\\n\s*", " ", block).splitlines()
            if line.startswith("biflab ")]


class TestReadme:
    @pytest.mark.parametrize("line", readme_commands())
    def test_example_parses(self, line):
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        # an unquoted ; | or & would make a shell run part of the line as
        # a second command
        assert not {";", "|", "&"} & set(tokens), tokens
        args = cli._build_parser().parse_args(tokens[1:])
        assert args.command == tokens[1]

    def test_every_command_shown(self):
        assert {line.split()[1] for line in readme_commands()} \
            == {c.name for c in cli.COMMANDS}
