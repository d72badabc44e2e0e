import json
import math

import numpy as np
import pytest

from biflab import io as bio
from biflab.cli import main
from biflab.families import MapFamily
from biflab.misiurewicz import (
    ActivitySpec,
    MotionTarget,
    certificate_to_json,
    solve_misiurewicz,
)

FULL_BOX = "-0.5,0:5x4"


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

    def test_certify_motion_pattern(self, tmp_path):
        # the motion form at c = -2 must read back with its base parameter
        # and base point, not as an algebraic pattern
        spec = ActivitySpec((0,), 2, (MotionTarget((-2.0 + 0j,), 2.0 + 0j, 1),))
        quad = MapFamily("unicritical", 2)
        cert = solve_misiurewicz(quad, [-1.99 + 0j], spec)
        certs = tmp_path / "motion.ndjson"
        bio.write_ndjson(certs, [certificate_to_json(cert, quad)])
        rc = main(["certify", "--family", "unicritical2", "--certs", str(certs),
                   "--out", str(tmp_path / "cert")])
        assert rc == 0
        report = read_json(tmp_path / "cert" / "certify_report.json")
        assert report["reports"][0]["passed"]

    def test_multiple_seeds(self, tmp_path):
        out = tmp_path / "mis2"
        rc = main(["misiurewicz", "--family", "unicritical2",
                   "--seed", "0.1,1.05|0.1,-1.05",
                   "--pattern", "k0=2,n=2,p=2", "--out", str(out)])
        assert rc == 0
        docs = bio.read_ndjson(out / "certificates.ndjson")
        lams = [complex(*d["lambda"][0]) for d in docs]
        assert abs(lams[0] - 1j) < 1e-10 and abs(lams[1] + 1j) < 1e-10


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
                   "--center", "-2,0", "--mplus", mplus, "--q", "1", "--d", "2",
                   "--eps", "0.25", "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "scaling.json")
        assert abs(doc["expected"] - (-math.log(2))) < 1e-12
        assert abs(doc["deviation"]) < 0.05


class TestWedgeCommand:
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


class TestExitCodes:
    def test_unknown_family(self, tmp_path):
        assert main(["lyap", "--family", "nope", "--param", "0,0",
                     "--out", str(tmp_path)]) == 2

    def test_out_of_range_critical_index(self, tmp_path):
        assert main(["scan", "--family", "unicritical2", "--box", FULL_BOX,
                     "--res", "8", "--field", "G1", "--out", str(tmp_path)]) == 2

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

    def test_numerical_failure(self, tmp_path):
        # continuation from a non-repelling base orbit is a numerical
        # failure, not a usage error
        assert main(["linearize", "--family", "unicritical2", "--param", "0,0",
                     "--w", "0,0", "--n", "5", "--out", str(tmp_path)]) == 3
