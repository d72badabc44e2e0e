"""Benchmark of the biflab commands, end to end and per layer.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload plane-io --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Load shape: a closed loop with one client.  Each iteration of a workload
is one child process (perfbench/child.py) that runs the workload's
`biflab` commands in order through ``biflab.cli.main(argv)``, the console
entry point; the Misiurewicz hunt, which has no command, calls the
library directly.  One child runs at a time and each step waits for the
previous one.  The child keeps numpy's default threading.

This process times each child from outside: ``setup_s`` runs from spawn
to the child's ready signal (interpreter start, ``import biflab.cli``,
writing the Lattès family JSON), ``wall_s`` from ready to exit, and
``peak_rss_mb`` is the child's ``ru_maxrss`` from ``os.wait4``.  After
each iteration it hashes every output file (not ``manifest.json``, whose
config holds the output path and the machine's core count), checks the
oracles of workloads.py and deletes the outputs.  A step fails on a
nonzero exit, a crash, an oracle outside its tolerance, or outputs whose
digests differ from an earlier run of the same invocation.

With ``--trace 1`` each iteration is an untraced child followed by a
traced one (spans.py); the traced run reports the per-layer metrics and
the tracing overhead (traced minus untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit.  A record with the machine
facts, per-step checks, warnings and digests goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CHILD = HERE / "child.py"
SETUP_PROBES = 3        # set-up-only children per run, besides the iterations
MIN_ITERATIONS = 2      # untraced iterations per run, even past --seconds
CHILD_LIMIT_S = 170.0   # a child running longer is killed; its steps count as failed
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "throughput": "work/s"}


class BenchError(Exception):
    """The benchmark cannot measure: the program is missing or a child
    died before its ready signal."""


# ----------------------------------------------------------------------
# machine facts

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(library):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **library,
        **{var: os.environ.get(var) for var in
           ("BIFLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# children

def _child_env():
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(spec, workdir):
    """Run one child; returns (setup_s, wall_s, rss_mb, exit code, report)."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, lattes=str(workdir / "lattes.json"), lattes_doc=workloads.LATTES,
                report=str(workdir / "report.json"), dir=str(workdir))
    read_fd, write_fd = os.pipe()
    spec["ready_fd"] = write_fd
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(workdir / "child.log", "wb") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)],
                                cwd=REPO, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT, pass_fds=(write_fd,))
    os.close(write_fd)
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    try:
        with os.fdopen(read_fd, "rb") as ready:
            ready_line = ready.readline()
        t_ready = time.perf_counter()
        _, status, usage = os.wait4(proc.pid, 0)
        t_exit = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if not ready_line:
        tail = (workdir / "child.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited with {proc.returncode} before set-up finished:\n{tail}")
    report = None
    if os.path.exists(spec["report"]):
        with open(spec["report"]) as f:
            report = json.load(f)
    return t_ready - t_spawn, t_exit - t_ready, usage.ru_maxrss / 1024.0, proc.returncode, report


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_doc(path):
    with open(path) as f:
        if path.suffix == ".ndjson":
            return [json.loads(line) for line in f if line.strip()]
        return json.load(f)


# ----------------------------------------------------------------------
# one workload

class Run:
    """The iterations of one workload run and their results."""

    def __init__(self, workload, seed, size, out_root, refs):
        self.workload, self.seed, self.size = workload, seed, size
        self.steps = workloads.steps(workload, seed, size)
        self.checks = workloads.checks(workload)
        self.refs = refs or {}
        self.out_root = Path(out_root)
        self.tag = f"{workload}-s{seed}-{size}-{os.getpid()}"
        self.dir = self.out_root / f"run-{self.tag}"
        self.digest_path = self.out_root / "digests.json"
        self.digests = (json.loads(self.digest_path.read_text())
                        if self.digest_path.exists() else {})
        self.iterations = []

    def _digest_key(self, step):
        spec = hashlib.sha256(json.dumps(step, sort_keys=True).encode()).hexdigest()[:16]
        return f"{self.workload}/{self.size}/{step['name']}/{spec}"

    def _evaluate(self, report, exit_code, workdir):
        """Per-step results of one iteration: exit, warnings, digests,
        oracle checks, pass or fail."""
        records = {r["name"]: r for r in (report or {}).get("steps", [])}
        docs, results = {}, []
        for step in self.steps:
            rec = records.get(step["name"], {"exit": None, "error": "no report",
                                             "warnings": {}, "seconds": 0.0})
            sdir = workdir / step["name"]
            files = sorted(p for p in sdir.iterdir() if p.is_file()) if sdir.is_dir() else []
            digest = {p.name: _sha256(p) for p in files if p.name != "manifest.json"}
            for p in files:
                if p.suffix in (".json", ".ndjson"):
                    docs[f"{step['name']}/{p.name}"] = _read_doc(p)
            key = self._digest_key(step)
            known = self.digests.setdefault(key, digest)
            results.append({"name": step["name"], "exit": rec["exit"], "error": rec["error"],
                            "seconds": rec["seconds"], "warnings": rec["warnings"],
                            "warning_messages": rec.get("warning_messages", []),
                            "digests": digest, "digest_mismatch": known != digest,
                            "checks": []})
        by_name = {r["name"]: r for r in results}
        for c in self.checks:
            ref = self.refs.get(f"{c.source}:{c.name}", c.ref)
            try:
                err = float(c.error(docs, ref))
            except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
                err = math.inf     # the output the check reads is missing or malformed
            by_name[c.step]["checks"].append({
                "name": c.name, "source": c.source, "ref": ref, "tol": c.tol,
                "error": err, "passed": math.isfinite(err) and err <= c.tol})
        for r in results:
            r["failed"] = (exit_code != 0 or r["exit"] != 0 or r["error"] is not None
                           or r["digest_mismatch"]
                           or not all(c["passed"] for c in r["checks"]))
        try:
            accuracy = workloads.accuracy(self.workload, docs)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
            accuracy = {}
        return results, accuracy

    def iterate(self, traced):
        k = len(self.iterations)
        workdir = self.dir / f"i{k}"
        spec = {"mode": "run", "steps": self.steps, "trace": traced,
                "run_id": f"{self.tag}-i{k}"}
        setup_s, wall_s, rss_mb, exit_code, report = spawn(spec, workdir)
        steps, accuracy = self._evaluate(report, exit_code, workdir)
        it = {"traced": traced, "setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb,
              "exit": exit_code, "steps": steps, "accuracy": accuracy,
              "import_s": (report or {}).get("import_s")}
        if traced and report and "trace" in report:
            dump = report["trace"]
            it["layers"] = spans.layer_metrics(
                dump, wall_s, report["import_s"], accuracy,
                sum(sum(s["warnings"].values()) for s in steps))
            (self.out_root / f"spans-{self.tag}.json").write_text(json.dumps(dump))
        shutil.rmtree(workdir)
        self.iterations.append(it)

    def setup_probe(self, k):
        """A child that only sets up, then reports the machine facts."""
        setup_s, _, _, exit_code, report = spawn({"mode": "facts"}, self.dir / f"setup{k}")
        shutil.rmtree(self.dir / f"setup{k}")
        if exit_code != 0 or report is None:
            raise BenchError(f"set-up child exited with {exit_code}")
        return setup_s, machine_facts(report["facts"])

    def save_digests(self):
        tmp = self.digest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
        os.replace(tmp, self.digest_path)


def run_workload(workload, seed, seconds, trace, size="full", out_root=None, refs=None,
                 probes=SETUP_PROBES, min_iterations=MIN_ITERATIONS):
    """Measure one workload for about ``seconds``; returns the result
    line (dict) and the full record.  ``refs`` overrides oracle
    references by "<source>:<name>"; ``probes`` (at least 1) is the
    number of set-up-only children."""
    if not (REPO / "src" / "biflab" / "cli.py").is_file():
        raise BenchError(f"no biflab sources under {REPO / 'src'}")
    out_root = Path(out_root) if out_root else HERE / "out"
    out_root.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, size, out_root, refs)
    start = time.perf_counter()
    try:
        # the probes also warm the bytecode and file caches
        setups, facts = zip(*(run.setup_probe(k) for k in range(probes)))
        while True:
            t0 = time.perf_counter()
            run.iterate(traced=False)
            if trace:
                run.iterate(traced=True)
            cost = time.perf_counter() - t0
            done = len(run.iterations) >= (1 if trace else min_iterations)
            if done and time.perf_counter() - start + cost > seconds:
                break
        setups = list(setups) + [it["setup_s"] for it in run.iterations]
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    run.save_digests()

    plain = [it for it in run.iterations if not it["traced"]]
    traced = [it for it in run.iterations if it["traced"]]
    amount, unit = workloads.work(workload, size)
    wall = statistics.median(it["wall_s"] for it in plain)
    all_steps = [s for it in run.iterations for s in it["steps"]]
    failed = sum(s["failed"] for s in all_steps)
    if trace:
        if not all("layers" in it for it in traced):
            raise BenchError("a traced child wrote no spans")
        layers = {name: statistics.median(it["layers"][name] for it in traced)
                  for name in spans.UNITS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = statistics.median(it["wall_s"] for it in traced) - wall
        metrics = {name: {"value": layers[name], "unit": spans.UNITS[name]}
                   for name in spans.UNITS}
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(it["rss_mb"] for it in plain),
                  "throughput": amount / wall}
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END_UNITS}
    line = {"correct": failed == 0, "attempted": len(all_steps), "failed": failed,
            "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "facts": facts[-1], "work": {"amount": amount, "unit": unit},
              "setup_samples": setups, "fail_frac": failed / len(all_steps),
              "iterations": run.iterations, "result": line}
    record_path = out_root / f"record-{run.tag}-t{int(bool(trace))}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    record["path"] = str(record_path)
    return line, record


# ----------------------------------------------------------------------
# report

def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def summary(record):
    """Human-readable lines: every metric by name and unit, fail_frac,
    warnings, failed checks and digests."""
    its = record["iterations"]
    plain = [it for it in its if not it["traced"]]
    res = record["result"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  size {record['size']}  "
             f"iterations {len(plain)} untraced, {len(its) - len(plain)} traced  "
             f"(closed loop, one client)"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:44s} {_fmt(m['value']):>14s} {m['unit']}")
    if not record["trace"]:
        walls = sorted(it["wall_s"] for it in plain)
        lines.append(f"  wall_s samples: {', '.join(f'{w:.3f}' for w in walls)} s")
        lines.append(f"  throughput in {record['work']['unit']}/s over "
                     f"{record['work']['amount']} {record['work']['unit']} per iteration")
    lines.append(f"  {'fail_frac':44s} {_fmt(record['fail_frac']):>14s} ratio "
                 f"({res['failed']} of {res['attempted']} steps)")
    for step in its[0]["steps"]:
        warn = ", ".join(f"{k} x{v}" for k, v in sorted(step["warnings"].items())) or "none"
        lines.append(f"  step {step['name']}: exit {step['exit']}, {step['seconds']:.3f} s, "
                     f"warnings: {warn}")
        lines += [f"    warning: {msg}" for msg in step["warning_messages"]]
        for c in step["checks"]:
            lines.append(f"    {'ok  ' if c['passed'] else 'FAIL'} {c['source']} {c['name']}: "
                         f"error {_fmt(c['error'])} (tol {_fmt(c['tol'])}, ref {_fmt(c['ref'])})")
        for name, digest in sorted(step["digests"].items()):
            lines.append(f"    sha256 {name} {digest}")
    for k, it in enumerate(its):
        for s in it["steps"]:
            if not s["failed"]:
                continue
            why = [f"exit {s['exit']}"] if s["exit"] != 0 else []
            why += [s["error"].strip().splitlines()[-1]] if s["error"] else []
            why += ["digests differ from an earlier run"] if s["digest_mismatch"] else []
            why += [f"check {c['name']}" for c in s["checks"] if not c["passed"]]
            lines.append(f"  FAILED iteration {k} step {s['name']}: {'; '.join(why)}")
    facts = record["facts"]
    lines.append("  machine: " + ", ".join(f"{k}={facts[k]}" for k in sorted(facts)))
    lines.append(f"  record: {record['path']}")
    return lines


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)      # unwinds through spawn, which kills the child


def main(argv=None):
    signal.signal(signal.SIGTERM, _on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            line, record = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(summary(record)))
            print(json.dumps(line), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
