"""Peak numpy allocation of the stages that once stored a per-point array
that is a function of its index: the words of a Cantor cloud, the
coordinate mesh of radial masses, and the parameter grid and critical
values of a scan; and of the stages that once held a whole-array
temporary they need only a chunk of: the sub-cell offsets of radial
masses in C^2, the formatted values of a field CSV and the scaled
pixels of a PGM, and the differences, distances and masks of the
``ddc`` and wedge stencils and of radial masses, which run by row
blocks; and of ``dimension --box``, which scans and measures only the
cells its radii reach, and of ``radial_window``, which finds them on the
1-d axes; and of the CLI's measure files, which hold one clamped array,
and the companion kinds' ``preimages``, which form no stack of companion
matrices.  tracemalloc counts numpy's buffers, so a peak far above the
result's own size means such an array is back.  One more test bounds
the peak RSS of a process that runs ``dimension --box`` and then
``ma2``, which also counts the heap that the first command leaves
behind."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from biflab import bifgrid, cli, hyperbolic, io as bio, potential
from biflab.bifgrid import (
    Box,
    GridField,
    MeasureField,
    ddc,
    radial_masses,
    radial_window,
    scan_field,
    wedge_pair,
)
from biflab.cli import main
from biflab.families import MapFamily


def peak_bytes(call):
    """(result, peak bytes allocated while call() ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cantor_cloud_stores_no_words():
    # 2^18 points; an int64 word of 18 symbols per point alone is 9x the cloud
    cs, peak = peak_bytes(lambda: hyperbolic.build_cantor(
        MapFamily("unicritical", 2), [-6.0 + 0j], [3.0 + 0j, -2.0 + 0j], 18))
    assert len(cs.cloud) == 2 ** 18
    assert peak < 8 * cs.cloud.nbytes


def test_radial_masses_form_no_coordinate_mesh():
    # a 1024^2 measure; a mesh of the two real axes alone is 2x a cell
    # array, and the clamped masses with the distances were 2x; the
    # gathers of these radii are 0.84x, and the run peaks at 0.99x
    box = Box((-0.5 + 0j,), (2.5,), (2.0,))
    rng = np.random.default_rng(23)
    mass = rng.random((1024, 1024))
    mu = MeasureField(box=box, resolution=1024, raw_mass=mass)
    prof, peak = peak_bytes(lambda: radial_masses(mu, -0.75 + 0.1j, [2.0, 1.0, 0.5, 0.25, 0.1]))
    assert np.all(prof.masses > 0)
    assert peak < 1.25 * mass.nbytes


# the bytes of a few temporaries of one row block and of one chunk of
# band cells' sub-cell offsets
BLOCK_BYTES = 4 * 8 * (bifgrid.ROW_BLOCK + bifgrid._BAND_FLOATS)


@pytest.mark.parametrize("box, res, center, radii", [
    (Box((-0.5 + 0j,), (2.5,), (2.0,)), 1024, [-0.75 + 0.1j], [2.0, 1.0, 0.5, 0.25, 0.1]),
    (Box((-0.5 + 0j,), (2.5,), (2.0,)), 1024, [-0.75 + 0.1j], [0.5, 0.25, 0.1]),
    (Box((1.7 + 0.4j, 1.6 + 0.5j), (0.4, 0.4)), 24, [1.7 + 0.4j, 1.6 + 0.5j],
     [0.4, 0.3, 0.2, 0.16])])
def test_radial_masses_hold_their_gathers_and_a_block(box, res, center, radii):
    # each radius gathers the masses of the cells within r + half a cell
    # diagonal; beyond those the run holds one block's distances and
    # indices and one chunk of band cells (0.8-1.7 MB on these, below the
    # bound's 3 MB), where whole-grid distances or clamped masses would
    # add 2.7 to 8 MB
    mass = np.random.default_rng(res).random((res,) * (2 * box.m))
    mu = MeasureField(box=box, resolution=res, raw_mass=mass)
    offsets = np.ix_(*(a - c for a, c in zip(box.axes(res), bifgrid._real_center(box, center))))
    dist = np.sqrt(sum(o ** 2 for o in offsets))
    half_diag = 0.5 * float(np.linalg.norm(box.cell_sizes(res)))
    gathered = 8 * sum(int(np.sum(dist < r + half_diag)) for r in radii)
    del dist
    prof, peak = peak_bytes(lambda: radial_masses(mu, center, radii))
    assert np.all(prof.masses > 0)
    assert peak < gathered + BLOCK_BYTES


def test_ddc_holds_its_output_and_a_block():
    # a 1024^2 field; the stencil's whole-grid sum and differences were
    # 2x the output more; a block of rows takes 1 MB, below the bound's 3 MB
    values = np.random.default_rng(1024).standard_normal((1024, 1024))
    mu, peak = peak_bytes(lambda: ddc(GridField(Box((-0.5 + 0j,), (2.5,), (2.0,)), 1024, values)))
    assert peak < mu.raw_mass.nbytes + BLOCK_BYTES


def test_wedge_pair_forms_hessians_by_row_blocks():
    # the benchmark's ma2 wedge, bh3 G0 and G1 at 24^4: the six Hessian
    # entries of the two fields and the determinant's products over the
    # whole grid peaked at 15x a field; the mollified fields, the output
    # and the clamped mass of the output, with a block of rows, at 6.1x
    box = Box((1.7 + 0.4j, 1.6 + 0.5j), (0.4, 0.4))
    g0, g1 = (scan_field(MapFamily("branner_hubbard", 3), box, 24, f, maxiter=256)
              for f in ("G0", "G1"))
    mu, peak = peak_bytes(lambda: wedge_pair(g0, g1, mollify_radius=0.2))
    assert mu.total_mass > 0
    assert peak < 7 * g0.values.nbytes


def test_measure_files_hold_one_clamped_array():
    # a 1024^2 measure; the files' clamped masses and their two sums, with
    # the clamped total taken before the held array, peak at 1.0x the
    # measure, and reading the sums off the held array peaked at 2.0x
    raw = np.random.default_rng(1024).standard_normal((1024, 1024))
    mu = MeasureField(box=Box((-0.5 + 0j,), (2.5,), (2.0,)), resolution=1024, raw_mass=raw)
    (files, total, clamped), peak = peak_bytes(lambda: cli._measure_files("ddc", mu))
    assert len(files) == 3 and (total, clamped) == (mu.total_mass, mu.clamp_total)
    assert peak < 1.25 * raw.nbytes


def test_companion_preimages_form_no_matrix_stack():
    # one sampler block of the Lattes family's targets; the batched
    # companion matrices alone were N d^2 complex values, and the
    # eigenvalue path peaked at 8.9 arrays of N d; the Aberth solve, its
    # output and the sort's order and result peak at 2.7 of them
    fam = MapFamily("rational", 4, num=[[1], [0], [2], [0], [1]],
                    den=[[0], [-4], [0], [4], [0]])
    w = np.resize(potential.sample_mu_f(fam, [0j], 4096, 25, 7), potential._BLOCK)
    roots, peak = peak_bytes(lambda: fam.preimages([0j], w))
    assert roots.shape == (4, w.size)
    assert peak < 3 * roots.nbytes < w.size * 4 * 4 * 16


def test_scan_forms_no_parameter_grid(monkeypatch):
    # the README's 1024^2 G0 scan on 2 workers, each holding one block's
    # temporaries; a complex grid of parameters or of critical values
    # alone is 2x the field
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    field, peak = peak_bytes(lambda: scan_field(
        MapFamily("unicritical", 2), Box((-0.5 + 0j,), (2.5,), (2.0,)), 1024, "G0"))
    assert field.values.shape == (1024, 1024)
    assert peak < 3 * field.values.nbytes


def test_radial_masses_in_c2_test_band_cells_by_chunks():
    # a 16^4 measure; one (band cells x 4^4) array of sub-cell offsets
    # per radius alone was over 100x the cell array
    box = Box((1.7 + 0.4j, 1.6 + 0.5j), (0.4, 0.4))
    rng = np.random.default_rng(16)
    mass = rng.random((16,) * 4)
    mu = MeasureField(box=box, resolution=16, raw_mass=mass)
    prof, peak = peak_bytes(lambda: radial_masses(mu, (1.7 + 0.4j, 1.6 + 0.5j),
                                                  [0.4, 0.3, 0.2, 0.16]))
    assert np.all(prof.masses > 0)
    assert peak < 8 * mass.nbytes


def plane_field():
    """A 1024^2 field with 30% zeros and about 70% distinct values."""
    rng = np.random.default_rng(1024)
    values = rng.standard_normal((1024, 1024))
    values[rng.random(values.shape) < 0.3] = 0.0
    return values


def test_field_csv_formats_values_by_chunks(tmp_path):
    # a lookup of every cell's distinct value and the strings of all
    # distinct values alone were several times the value array
    values = plane_field()
    path = tmp_path / "field.csv"
    _, peak = peak_bytes(lambda: bio.write_field_csv(
        path, Box((-0.5 + 0j,), (2.5,), (2.0,)), 1024, values, "mass"))
    assert path.stat().st_size > 0
    assert peak < values.nbytes


def test_pgm_scales_by_row_blocks(tmp_path):
    # the finite pixels copied out and the scaled image in float64
    # temporaries were each the size of the value array
    values = plane_field()
    path = tmp_path / "field.pgm"
    _, peak = peak_bytes(lambda: bio.write_pgm(path, values))
    assert path.stat().st_size > 2 * values.size
    assert peak < 1.5 * values.nbytes


def test_radial_window_searches_the_axes():
    # each end of a range is a search of one 1-d axis of 4096 cells; one
    # plane of cell offsets alone would be 128 MB
    for box, center in [(Box((-2 + 0j,), (0.08,)), [-2 + 0j]),
                        (Box((-2 + 0j, 0j), (0.08, 0.5), (0.08, 0.3)), [-2 + 0j, 0.1j])]:
        window, peak = peak_bytes(lambda: radial_window(box, 4096, center, 2.0 ** -4))
        assert len(window) == 2 * box.m and all(lo < hi for lo, hi in window)
        assert peak < 2 ** 20


def test_pointwise_dimension_scans_only_the_window(tmp_path, monkeypatch):
    # the README scaling box at 512^2 with radii 2^-4..2^-8 reaches 110^2
    # cells, 4.6% of the grid; a scan and ddc of the whole box peaked at
    # 6.6x the grid's value array, and the window peaks at 15-17x its own,
    # most of it a scan block's and a band chunk's fixed-size temporaries
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    radii = [2.0 ** -k for k in range(4, 9)]
    argv = ["dimension", "--family", "unicritical2", "--box", "-2,0:0.6x0.6", "--res", "512",
            "--field", "G0", "--center", "-2,0", "--radii", ",".join(map(repr, radii)),
            "--out", str(tmp_path / "dim")]
    rc, peak = peak_bytes(lambda: main(argv))
    assert rc == 0
    window = radial_window(Box((-2 + 0j,), (0.3,)), 512, [-2 + 0j], radii[0])
    assert window == ((201, 311), (201, 311))
    assert peak < 19 * 110 ** 2 * 8 < 512 ** 2 * 8


RSS_CHILD = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from biflab.cli import main


def status_kib(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))


start = status_kib("VmRSS")
out = sys.argv[1]
radii = ",".join(repr(2.0 ** -k) for k in range(4, 9))
assert main(["dimension", "--family", "unicritical2", "--box", "-2,0:0.16x0.16",
             "--res", "1536", "--maxiter", "256", "--field", "G0", "--center", "-2,0",
             "--radii", radii, "--out", out + "/tip"]) == 0
assert main(["ma2", "--family", "bh3", "--box", "1.7,0.4:0.8x0.8;1.6,0.5:0.8x0.8",
             "--res", "16", "--field", "G0", "--field2", "G1", "--maxiter", "256",
             "--mollify", "0.2", "--out", out + "/ma2"]) == 0
print(status_kib("VmHWM") - start)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_tip_then_ma2_peak_rss(tmp_path):
    """The RSS that one process running a small ``dimension --box`` (the
    benchmark's tip at 1536^2, radii 2^-4..2^-8) and then ``ma2 --res
    16`` adds to its RSS after import, on 2 workers.  A 2-core Xeon
    (Python 3.11, numpy 2.4, glibc malloc) read 32-35 MB with the
    stencils and radial masses by row blocks, and 52-56 MB with their
    whole-grid temporaries.  The peak counts the heap that the first
    command leaves resident too, which tracemalloc does not see.  It is
    the process's VmHWM: ``ru_maxrss`` keeps the peak of the process that
    spawned it across exec, which for a child of pytest can be above the
    whole run's."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    run = subprocess.run([sys.executable, "-c", RSS_CHILD, str(tmp_path)], capture_output=True,
                         text=True, check=True, cwd=root, env={**os.environ, "PYTHONPATH": path})
    assert int(run.stdout.split()[-1]) < 42 * 1024
