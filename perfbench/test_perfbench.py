"""The benchmark's own fast test: every workload at smoke size.

Run with: python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def smoke(workload, out_root, trace=0, refs=None):
    return run.run_workload(workload, seed=0, seconds=0, trace=trace, size="smoke",
                            out_root=out_root, refs=refs, probes=1,
                            min_iterations=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, tmp_path):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        line, record = smoke(workload, tmp_path, trace=trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert {k: m["unit"] for k, m in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
        text = "\n".join(run.summary(record))
        for m in declared:
            assert f" {m['name']} " in text
        assert "fail_frac" in text


def test_wrong_reference_counts_as_failure(tmp_path):
    line, _ = smoke("plane-io", tmp_path)
    assert line["correct"] and line["failed"] == 0
    line, record = smoke("plane-io", tmp_path, refs={"c04:total_mass": 2.0})
    assert not line["correct"] and line["failed"] == line["attempted"]
    check = record["iterations"][0]["steps"][0]["checks"][0]
    assert (check["source"], check["ref"], check["passed"]) == ("c04", 2.0, False)


def test_changed_digests_count_as_failure(tmp_path):
    smoke("plane-io", tmp_path)
    store = tmp_path / "digests.json"
    digests = json.loads(store.read_text())
    for files in digests.values():
        files["ddc.csv"] = "0" * 64
    store.write_text(json.dumps(digests))
    line, record = smoke("plane-io", tmp_path)
    assert line["failed"] == line["attempted"]
    assert record["iterations"][0]["steps"][0]["digest_mismatch"]
