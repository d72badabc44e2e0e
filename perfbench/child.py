"""One benchmark child process: set up, signal ready, run the steps.

Usage: python3 perfbench/child.py SPEC_FILE

The spec (JSON, written by run.py) names the mode, the steps, the
iteration directory, the file descriptor to signal ready on and the
report file.  Set-up is interpreter start, ``import biflab.cli`` and
writing the generated inputs; the child writes one line to the ready
descriptor when it is done, so the parent can time set-up and the steps
from outside.  Modes: ``facts`` reports library versions after the ready
point, ``run`` runs the steps, traced when the spec says so.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
import warnings


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


def _library_facts():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _hunt(hunt, out):
    """Solve and re-verify a Misiurewicz certificate from every seed."""
    from biflab import io, misiurewicz
    from biflab.errors import BiflabError
    from biflab.families import MapFamily
    family = MapFamily(*hunt["family"])
    spec = misiurewicz.ActivitySpec(
        tuple(hunt["tracked"]), hunt["k0"],
        tuple(misiurewicz.Preperiodic(n, p) for n, p in hunt["patterns"]))
    certs, reports = [], []
    for re1, im1, rea, ima in hunt["seeds"]:
        try:
            cert = misiurewicz.solve_misiurewicz(
                family, [complex(re1, im1), complex(rea, ima)], spec)
        except (BiflabError, ValueError):
            continue
        reports.append(misiurewicz.verify_certificate(cert, family))
        certs.append(misiurewicz.certificate_to_json(cert, family))
    os.makedirs(out, exist_ok=True)
    io.write_ndjson(os.path.join(out, "certificates.ndjson"), certs)
    io.write_json(os.path.join(out, "verify.json"),
                  {"attempts": len(hunt["seeds"]), "reports": reports})
    return 0


def _run_step(step, spec, cli):
    root = spec["dir"]
    rec = {"name": step["name"], "exit": None, "error": None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            if "argv" in step:
                argv = [a.replace("{dir}", root).replace("{lattes}", spec["lattes"])
                        for a in step["argv"]]
                rec["exit"] = cli.main(argv)
            else:
                rec["exit"] = _hunt(step["hunt"], os.path.join(root, step["name"]))
        except Exception:  # a crashing step is reported as failed, the rest still run
            rec["error"] = traceback.format_exc()
        rec["seconds"] = time.perf_counter() - t0
    counts = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    rec["warnings"] = counts
    rec["warning_messages"] = sorted({str(w.message) for w in caught})[:5]
    return rec


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    t0 = time.perf_counter()
    import biflab.cli as cli
    import_s = time.perf_counter() - t0
    _write_json(spec["lattes"], spec["lattes_doc"])
    os.write(spec["ready_fd"], b"ready\n")
    os.close(spec["ready_fd"])
    report = {"import_s": import_s}
    if spec["mode"] == "facts":
        report["facts"] = _library_facts()
        _write_json(spec["report"], report)
        return 0
    tracer = None
    if spec["trace"]:
        import spans  # next to this script, so on sys.path
        tracer = spans.Tracer(spec["run_id"])
        tracer.install()
    records = []
    for step in spec["steps"]:
        if tracer is None:
            records.append(_run_step(step, spec, cli))
        else:
            with tracer.region(f"bench.{step['name']}"):
                records.append(_run_step(step, spec, cli))
    report["steps"] = records
    if tracer is not None:
        report["trace"] = tracer.dump()
    _write_json(spec["report"], report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
