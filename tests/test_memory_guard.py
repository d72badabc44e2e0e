"""Peak numpy allocation of the stages that once stored a per-point array
that is a function of its index: the words of a Cantor cloud, the
coordinate mesh of radial masses, and the parameter grid and critical
values of a scan; and of the stages that once held a whole-array
temporary they need only a chunk of: the sub-cell offsets of radial
masses in C^2, the formatted values of a field CSV and the scaled
pixels of a PGM; and of ``dimension --box``, which scans and measures
only the cells its radii reach, and of ``radial_window``, which finds
them on the 1-d axes.  tracemalloc counts numpy's buffers, so
a peak far above the result's own size means such an array is back."""

import os
import tracemalloc

import numpy as np

from biflab import hyperbolic, io as bio
from biflab.bifgrid import Box, MeasureField, radial_masses, radial_window, scan_field
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
    # a 1024^2 measure; a mesh of the two real axes alone is 2x a cell array
    box = Box((-0.5 + 0j,), (2.5,), (2.0,))
    rng = np.random.default_rng(23)
    mass = rng.random((1024, 1024))
    mu = MeasureField(box=box, resolution=1024, raw_mass=mass)
    prof, peak = peak_bytes(lambda: radial_masses(mu, -0.75 + 0.1j, [2.0, 1.0, 0.5, 0.25, 0.1]))
    assert np.all(prof.masses > 0)
    assert peak < 3 * mass.nbytes


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
    # 6.6x the grid's value array, and the window peaks near 12x its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    radii = [2.0 ** -k for k in range(4, 9)]
    argv = ["dimension", "--family", "unicritical2", "--box", "-2,0:0.6x0.6", "--res", "512",
            "--field", "G0", "--center", "-2,0", "--radii", ",".join(map(repr, radii)),
            "--out", str(tmp_path / "dim")]
    rc, peak = peak_bytes(lambda: main(argv))
    assert rc == 0
    window = radial_window(Box((-2 + 0j,), (0.3,)), 512, [-2 + 0j], radii[0])
    assert window == ((201, 311), (201, 311))
    assert peak < 20 * 110 ** 2 * 8 < 512 ** 2 * 8
