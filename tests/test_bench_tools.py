"""The paired-run claim and no-regression rules of `tools/bench_pairs.py`,
and the pair summary of `tools/suite_pairs.py`."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return load_tool(BENCH_PAIRS)


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


def one_metric_runs(bench_pairs, name: str, parent: list[float], change: list[float]) -> dict:
    """One workload's pairs of `name`, the parent's and the change's runs."""
    pairs = [{f"parent_{name}": p, f"change_{name}": c} for p, c in zip(parent, change)]
    return {"train_moe": {"pairs": pairs, "summary": {
        "parent": {name: bench_pairs.quartiles(parent)}, "change": {name: bench_pairs.quartiles(change)}}}}


TIGHT = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]  # spread 0.0125
WIDE = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]  # spread 0.45


@pytest.mark.parametrize("better,parent,change,verdict", [
    ("lower", TIGHT, [v * 1.3 for v in TIGHT], "worse"),  # 30% slower, bound 25%
    ("lower", TIGHT, [v * 1.2 for v in TIGHT], "ok"),  # within the bound
    ("lower", WIDE, WIDE, "unresolved"),  # the parent's own spread exceeds the bound
    ("lower", WIDE, [v * 0.2 for v in WIDE], "ok"),  # every change run beats every parent run
    ("lower", WIDE, [v * 1.4 for v in WIDE], "worse"),  # worse by more than the bound, however noisy
    ("higher", TIGHT, [v * 0.7 for v in TIGHT], "worse"),
    ("higher", TIGHT, [v * 1.3 for v in TIGHT], "ok"),
])
def test_no_regression_verdicts(bench_pairs, better, parent, change, verdict):
    end_to_end = [{"name": "wall_s", "better": better, "bound": 0.25}]
    (row,) = bench_pairs.no_regression(one_metric_runs(bench_pairs, "wall_s", parent, change), end_to_end)
    assert row["verdict"] == verdict, row
    assert row["bound"] == 0.25 and row["workload"] == "train_moe" and row["metric"] == "wall_s"


def test_claim_none_is_no_claim(bench_pairs):
    assert bench_pairs.parse_claim("none") is None
    assert bench_pairs.parse_claim("wall_s:ablate_beta") == ("wall_s", "ablate_beta")


def test_ledger_summary_leaves_out_absolute_times(bench_pairs):
    """Each side and seed of the ledger runs in its own process, so only
    counts, bytes and the within-process ratio are summarized."""
    assert not {"overhead_s", "mj_s", "peft_s", "moe_s"} & set(bench_pairs.LEDGER_KEYS)
    assert "mj_speedup_over_moe" in bench_pairs.LEDGER_KEYS and "moe_nodes_per_backward" in bench_pairs.LEDGER_KEYS


def test_ledger_summary_keeps_the_backward_peaks(bench_pairs):
    """The memory a step's backward adds above its tape is in the ledger, for
    every method and for pretraining."""
    for name in ("mj", "peft", "moe", "pretrain"):
        assert f"{name}_peak_backward_bytes" in bench_pairs.LEDGER_KEYS


def test_src_lines_is_the_wc_total(bench_pairs):
    root = BENCH_PAIRS.parent.parent
    wc = subprocess.run(["wc", "-l", *sorted(str(p) for p in (root / "src" / "mjlab").glob("*.py"))],
                        capture_output=True, text=True, check=True)
    assert bench_pairs.src_lines(root) == int(wc.stdout.splitlines()[-1].split()[0])


def test_suite_pairs_summary():
    suite_pairs = load_tool(BENCH_PAIRS.parent / "suite_pairs.py")
    first, second, third = suite_pairs.TESTS

    def side(a, b, c):
        return {first: {"s": a}, second: {"s": b}, third: {"s": c}, "total": {"s": a + b + c}}

    pairs = [{"parent": side(10.0, 4.0, 6.0), "change": side(9.0, 4.0, 7.0)},
             {"parent": side(12.0, 5.0, 6.0), "change": side(8.0, 5.0, 5.0)},
             {"parent": side(11.0, 3.0, 6.0), "change": side(13.0, 2.0, 6.0)}]
    got = suite_pairs.summary(pairs)
    assert set(got) == {first, second, third, "total"}
    assert got[first] == {"parent_median_s": 11.0, "change_median_s": 9.0, "change_wins": 2,
                          "relative_change": -2.0 / 11.0}
    assert got[second]["change_wins"] == 1  # a tie counts for neither side
    assert got[third]["change_median_s"] == 6.0 and got[third]["change_wins"] == 1
    assert got["total"]["parent_median_s"] == 20.0 and got["total"]["change_median_s"] == 20.0
    assert got["total"]["change_wins"] == 1 and got["total"]["relative_change"] == 0.0


def test_tape_margins_summary():
    """One row per tape bound of the tests, each measured value against its
    bound; a value above its bound does not hold."""
    tape_margins = load_tool(BENCH_PAIRS.parent / "tape_margins.py")
    stream = 16 * 24 * 32 * 8
    measured = {"moe_nodes": 58, "moe_tape": 1150, "moe_peak": 1300, "peft_tape": 1000,
                "mj_tape": 1000 + 3 * 4 * stream, "pretrain_entry": 1000, "pretrain_peak": 1100,
                "mj_nodes": 41, "pretrain_nodes": 38, "routed_layers": 4, "stream_bytes": stream}
    rows = {row["bound_of"]: row for row in tape_margins.summary(measured)}
    assert len(rows) == 7
    assert rows["moe tape / peft tape"]["value"] == 1.15 and rows["moe tape / peft tape"]["holds"]
    moe_peak = rows["moe backward peak / moe tape"]
    assert moe_peak["value"] == 1300 / 1150 and moe_peak["bound"] == 1.20 and moe_peak["holds"]
    assert rows["pretraining backward peak / tape at entry"]["margin"] == pytest.approx(0.02)
    mj = rows["(mj tape - peft tape) / routed layers x B*T*d*8"]
    assert mj["value"] == 3.0 and mj["bound"] == 2.5 and not mj["holds"]
    assert [rows[name]["bound"] for name in ("moe step nodes", "mj step nodes", "pretraining step nodes")] \
        == [120, 60, 40]
    assert rows["pretraining step nodes"]["margin"] == 2
