"""Tracing for the benchmark's traced run, from the benchmark's own files.

``Tracer.install`` wraps the public functions of each biflab module (the
layers), and ``MapFamily.preimages``, so each call records a span: name,
start, end and parent span, kept in memory until ``dump``.  Scalar
``MapFamily.eval``/``deriv`` and ``misiurewicz.activity_chi`` are called
hundreds of thousands of times by the scalar Newton paths, so they are
counted, not spanned.  Meters read work counts off the arguments and
results at the same boundaries (cells scanned, points, bytes written).

``layer_metrics`` turns one dump into the per-layer metrics: busy time
per function (outermost calls only), self time per layer (a span's
duration minus the part its child spans cover), rates, counts, and how
much of the traced wall time the layers' self times cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import time

LAYERS = ("cli", "bifgrid", "potential", "families", "rng", "misiurewicz",
          "hyperbolic", "io")
COUNTED = {"misiurewicz.activity_chi"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _wedge_meter(a, k, res):
    inner = res.raw_mass[tuple(slice(s, -s) for s in res.meta["boundary_shell"])]
    return {"clamped": int((inner < 0).sum()), "interior": int(inner.size)}


# work counted at a span's boundary: (args, kwargs, result) -> increments;
# a G field is 0 exactly on the cells whose critical orbit stays bounded
METERS = {
    "bifgrid.scan_field": lambda a, k, res: {
        "cells": int(res.values.size), "bounded": int((res.values == 0).sum())},
    "bifgrid.wedge_pair": _wedge_meter,
    "families.preimages": lambda a, k, res: {"points": int(res.size) // a[0].degree},
    "rng.counter_choice": lambda a, k, res: {"draws": int(res.size)},
    "potential.sample_mu_f": lambda a, k, res: {
        "steps": _arg(a, k, 2, "n_points") * _arg(a, k, 3, "depth")},
    "potential.lyapunov_mc": lambda a, k, res: {"redrawn": res.flagged},
    "misiurewicz.solve_misiurewicz": lambda a, k, res: {"certified": 1},
    "misiurewicz.verify_certificate": lambda a, k, res: {"passed": int(bool(res["passed"]))},
    "hyperbolic.build_cantor": lambda a, k, res: {"points": len(res.cloud)},
    "io.write_field_csv": lambda a, k, res: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "io.write_manifest": lambda a, k, res: {
        "bytes_hashed": sum(os.path.getsize(p) for p in _arg(a, k, 2, "output_paths"))},
}


class Tracer:
    """Spans and counters of one traced workload iteration."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.spans = []          # [name index, parent index or -1, start, end]
        self.counts = {}
        self.meters = {}
        self._index = {}
        self._stack = [-1]

    def _name(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _meter(self, key, increments):
        m = self.meters.setdefault(key, {})
        for field, v in increments.items():
            m[field] = m.get(field, 0) + v

    def _spanned(self, fn, name, name_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fixed = self._name(name)
        meter = METERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fixed if name_of is None else self._name(name_of(args)),
                    stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if meter is not None:
                self._meter(name, meter(args, kwargs, result))
            return result
        return traced

    def _counted(self, fn, name):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every public function of the biflab layers, and rebind
        each module's aliases of it (``from .x import f``) to the wrapper."""
        modules = [importlib.import_module(f"biflab.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = (self._counted(obj, name) if name in COUNTED
                                else self._spanned(obj, name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        from biflab.families import MapFamily
        MapFamily.eval = self._counted(MapFamily.eval, "families.eval")
        MapFamily.deriv = self._counted(MapFamily.deriv, "families.deriv")
        MapFamily.preimages = self._spanned(
            MapFamily.preimages, "families.preimages",
            name_of=lambda a: ("families.preimages.root" if a[0].kind == "unicritical"
                               else "families.preimages.eig"))

    @contextlib.contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code."""
        span = [self._name(name), self._stack[-1], time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def dump(self):
        return {"run_id": self.run_id, "names": self.names, "spans": self.spans,
                "counts": self.counts, "meters": self.meters}


# ----------------------------------------------------------------------
# aggregation (run by the parent, outside the timed region)

# busy-time metric -> span name
BUSY = {
    "bifgrid.scan_field.busy_s": "bifgrid.scan_field",
    "bifgrid.ddc.busy_s": "bifgrid.ddc",
    "bifgrid.wedge_pair.busy_s": "bifgrid.wedge_pair",
    "bifgrid.radial_masses.busy_s": "bifgrid.radial_masses",
    "bifgrid.box_dimension.busy_s": "bifgrid.box_dimension",
    "potential.sample_mu_f.busy_s": "potential.sample_mu_f",
    "families.preimages.eig.busy_s": "families.preimages.eig",
    "families.preimages.root.busy_s": "families.preimages.root",
    "rng.counter_choice.busy_s": "rng.counter_choice",
    "misiurewicz.solve.busy_s": "misiurewicz.solve_misiurewicz",
    "misiurewicz.verify.busy_s": "misiurewicz.verify_certificate",
    "hyperbolic.build_cantor.busy_s": "hyperbolic.build_cantor",
    "hyperbolic.linearize_orbit.busy_s": "hyperbolic.linearize_orbit",
    "io.write_field_csv.busy_s": "io.write_field_csv",
    "io.write_pgm.busy_s": "io.write_pgm",
    "io.write_manifest.busy_s": "io.write_manifest",
    "io.write_cloud_csv.busy_s": "io.write_cloud_csv",
    "io.read_cloud_csv.busy_s": "io.read_cloud_csv",
}

# accuracy fields, measured from the outputs (workloads.accuracy)
ACCURACY = ("bifgrid.ddc.mass_err", "bifgrid.pointwise_dimension.slope_err",
            "potential.lyapunov_mc.err_sigma", "misiurewicz.solve.max_residual",
            "hyperbolic.linearize_orbit.residual_ratio")

# every per-layer metric and its unit, in report order
UNITS = {
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in BUSY},
    "bifgrid.scan_field.cells_per_s": "cells/s",
    "bifgrid.scan_field.bounded_frac": "ratio",
    "bifgrid.wedge_pair.clamped_frac": "ratio",
    "potential.sample_mu_f.steps_per_s": "steps/s",
    "potential.lyapunov_mc.redrawn": "count",
    "families.preimages.calls": "count",
    "families.preimages.points": "count",
    "families.eval.calls": "count",
    "families.deriv.calls": "count",
    "rng.counter_choice.draws": "count",
    "misiurewicz.solve.attempts": "count",
    "misiurewicz.solve.certified": "count",
    "misiurewicz.solve.yield": "ratio",
    "misiurewicz.solve.p50_ms": "ms",
    "misiurewicz.solve.p95_ms": "ms",
    "misiurewicz.activity_chi.calls": "count",
    "misiurewicz.verify.passed": "count",
    "hyperbolic.build_cantor.points_per_s": "points/s",
    "io.write_field_csv.mb_per_s": "MB/s",
    "io.write_manifest.bytes_hashed": "bytes",
    **{name: "error" for name in ACCURACY},
    "bench.warnings": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.covered_frac": "ratio",
}


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(a, b):
    return a / b if b else 0.0


def span_stats(dump):
    """Per span name: calls, busy seconds (outermost calls), self
    seconds, and the list of durations."""
    names, spans = dump["names"], dump["spans"]
    covered = [0.0] * len(spans)
    for k, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = {}
    for i, (k, parent, start, end) in enumerate(spans):
        s = stats.setdefault(names[k], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "durations": []})
        s["calls"] += 1
        s["self_s"] += (end - start) - covered[i]
        s["durations"].append(end - start)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != k:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            s["busy_s"] += end - start
    return stats


def layer_metrics(dump, wall_s, import_s, accuracy, warnings_total):
    """All per-layer metrics (UNITS) of one traced iteration."""
    stats = span_stats(dump)
    meters, counts = dump["meters"], dump["counts"]

    def busy(span):
        return stats.get(span, {}).get("busy_s", 0.0)

    def meter(key, field):
        return meters.get(key, {}).get(field, 0)

    out = {"cli.import_s": import_s}
    covered = 0.0
    for layer in LAYERS:
        self_s = sum(s["self_s"] for name, s in stats.items()
                     if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = self_s
        covered += self_s
    for metric, span in BUSY.items():
        out[metric] = busy(span)
    cells = meter("bifgrid.scan_field", "cells")
    out["bifgrid.scan_field.cells_per_s"] = _ratio(cells, busy("bifgrid.scan_field"))
    out["bifgrid.scan_field.bounded_frac"] = _ratio(meter("bifgrid.scan_field", "bounded"), cells)
    out["bifgrid.wedge_pair.clamped_frac"] = _ratio(
        meter("bifgrid.wedge_pair", "clamped"), meter("bifgrid.wedge_pair", "interior"))
    out["potential.sample_mu_f.steps_per_s"] = _ratio(
        meter("potential.sample_mu_f", "steps"), busy("potential.sample_mu_f"))
    out["potential.lyapunov_mc.redrawn"] = meter("potential.lyapunov_mc", "redrawn")
    out["families.preimages.calls"] = sum(
        stats.get(n, {}).get("calls", 0)
        for n in ("families.preimages.root", "families.preimages.eig"))
    out["families.preimages.points"] = meter("families.preimages", "points")
    out["families.eval.calls"] = counts.get("families.eval", 0)
    out["families.deriv.calls"] = counts.get("families.deriv", 0)
    out["rng.counter_choice.draws"] = meter("rng.counter_choice", "draws")
    solve = stats.get("misiurewicz.solve_misiurewicz", {"calls": 0, "durations": []})
    certified = meter("misiurewicz.solve_misiurewicz", "certified")
    out["misiurewicz.solve.attempts"] = solve["calls"]
    out["misiurewicz.solve.certified"] = certified
    out["misiurewicz.solve.yield"] = _ratio(certified, solve["calls"])
    out["misiurewicz.solve.p50_ms"] = 1e3 * _percentile(solve["durations"], 0.50)
    out["misiurewicz.solve.p95_ms"] = 1e3 * _percentile(solve["durations"], 0.95)
    out["misiurewicz.activity_chi.calls"] = counts.get("misiurewicz.activity_chi", 0)
    out["misiurewicz.verify.passed"] = meter("misiurewicz.verify_certificate", "passed")
    out["hyperbolic.build_cantor.points_per_s"] = _ratio(
        meter("hyperbolic.build_cantor", "points"), busy("hyperbolic.build_cantor"))
    out["io.write_field_csv.mb_per_s"] = _ratio(
        meter("io.write_field_csv", "bytes") / 1e6, busy("io.write_field_csv"))
    out["io.write_manifest.bytes_hashed"] = meter("io.write_manifest", "bytes_hashed")
    for name in ACCURACY:
        out[name] = accuracy.get(name, 0.0)
    out["bench.warnings"] = warnings_total
    out["trace.spans"] = len(dump["spans"])
    out["trace.uncovered_s"] = wall_s - covered
    out["trace.covered_frac"] = _ratio(covered, wall_s)
    return out
