import contextlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from biflab import cli, io as bio
from biflab.cli import main
from biflab.errors import NotPlurisubharmonic
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


class TestExitCodes:
    def test_unknown_family(self, tmp_path):
        assert main(["lyap", "--family", "nope", "--param", "0,0",
                     "--out", str(tmp_path)]) == 2

    def test_out_of_range_critical_index(self, tmp_path):
        assert main(["scan", "--family", "unicritical2", "--box", FULL_BOX,
                     "--res", "8", "--field", "G1", "--out", str(tmp_path)]) == 2

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

    def test_single_anchor(self, tmp_path, capsys):
        # used to exit 2 with "min() arg is an empty sequence"
        out = tmp_path / "run"
        assert main(["cantor", "--family", "unicritical2", "--param", "-6,0",
                     "--anchors", "3,0", "--depth", "2", "--out", str(out)]) == 2
        assert "a Cantor cloud needs at least two anchors, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ({"degree": 2}, "kind"),
        ({"kind": "unicritical"}, "degree"),
    ])
    def test_malformed_family_file(self, tmp_path, capsys, doc, key):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(doc))
        assert main(["lyap", "--family", str(fam), "--param", "0,0",
                     "--out", str(tmp_path / "run")]) == 2
        assert f"missing {key}" in capsys.readouterr().err

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
        # continuation from a non-repelling base orbit is a numerical
        # failure, not a usage error
        assert main(["linearize", "--family", "unicritical2", "--param", "0,0",
                     "--w", "0,0", "--n", "5", "--out", str(tmp_path)]) == 3


UNI2 = {"degree": 2, "kind": "unicritical"}
BH3 = {"degree": 3, "kind": "branner_hubbard"}
BH3_BOX = "1.7,0.4:0.8x0.8;1.6,0.5:0.8x0.8"
TIP_BOX = "-2,0:0.16x0.16"

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
         "q": 1, "d": 2, "eps": 0.25, "family_resolved": UNI2},
        {"scaling.json"}),
    "cantor": (
        ["cantor", "--family", "unicritical2", "--param", "-6,0",
         "--anchors", "3,0;-2,0", "--depth", "2"],
        {"command": "cantor", "family": "unicritical2", "param": "-6,0",
         "anchors": "3,0;-2,0", "depth": 2, "period": 1, "family_resolved": UNI2},
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
        cert = solve_misiurewicz(MapFamily("unicritical", 2), [-1.9 + 0j],
                                 ActivitySpec((0,), 2, (MotionTarget((-2.0 + 0j,), 2.0 + 0j, 1),)))
        bio.write_ndjson(tmp_path / "certs.ndjson",
                         [certificate_to_json(cert, MapFamily("unicritical", 2))])
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
