"""The paired-run claim rule of `tools/bench_pairs.py`."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def paired_runs(bench_pairs, broken: dict[str, list[int]] | None = None) -> dict:
    """Ten pairs per workload, the change 10 MB lower in each; the pairs of
    `broken` (workload -> seeds) differ in their digests."""
    broken = broken or {}
    runs = {}
    for workload in bench_pairs.PAIRS:
        pairs = [{"seed": seed, "both_correct": True, "digest_equal": seed not in broken.get(workload, []),
                  "parent_peak_rss_mb": 70.0 + seed % 3, "change_peak_rss_mb": 60.0 + seed % 3}
                 for seed in range(11, 21)]
        parent = bench_pairs.quartiles([p["parent_peak_rss_mb"] for p in pairs])
        change = bench_pairs.quartiles([p["change_peak_rss_mb"] for p in pairs])
        runs[workload] = {"pairs": pairs, "summary": {
            "parent": {"peak_rss_mb": parent}, "change": {"peak_rss_mb": change},
            "change_wins": {"peak_rss_mb": 10}}}
    return runs


def test_claim_met_when_every_pair_is_sound(bench_pairs):
    claim = bench_pairs.claim_of(paired_runs(bench_pairs), "peak_rss_mb", "train_moe")
    assert claim["met"] and claim["pairs_incorrect_or_digest_differs"] == 0


@pytest.mark.parametrize("fault", ["digest_equal", "both_correct"])
def test_claim_not_met_when_any_pair_is_faulty(bench_pairs, fault):
    runs = paired_runs(bench_pairs)
    runs["analyze"]["pairs"][3][fault] = False  # another workload than the claim's
    claim = bench_pairs.claim_of(runs, "peak_rss_mb", "train_moe")
    assert not claim["met"] and claim["pairs_incorrect_or_digest_differs"] == 1
    runs = paired_runs(bench_pairs, {"train_moe": [11, 12]})
    claim = bench_pairs.claim_of(runs, "peak_rss_mb", "train_moe")
    assert not claim["met"] and claim["pairs_incorrect_or_digest_differs"] == 2
