"""Each workload end to end at a tiny config, traced, with every metric present."""

import json
import math

import pytest

import harness
from conftest import BENCH
from workloads import TINY_SCALE

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_tiny_traced_run_reports_every_metric(workload, tmp_path):
    record = harness.run(workload, seed=3, seconds=0, trace=True, workdir=tmp_path / "w", scale=TINY_SCALE)
    assert record["failures"] == [] and record["errors"] == []
    assert record["failed"] == 0 and record["attempted"] == 2 * harness.MIN_PASSES
    metrics = record["metrics"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert math.isfinite(metrics[metric["name"]]), metric["name"]
    assert metrics["error_rate"] == 0
    assert (tmp_path / "w" / "spans.npz").exists()
