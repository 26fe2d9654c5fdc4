import json
from pathlib import Path

import numpy as np
import pytest

from mjlab.data import (
    Dataset,
    Example,
    TaskSpec,
    default_task_specs,
    generate,
    length_buckets,
    batch_arrays,
    sample_init_tokens,
)


def evaluate_rule(spec: TaskSpec, tokens: np.ndarray) -> int:
    """Label of a token sequence under the task's rule.

    majority: class of the most frequent marker (lowest class wins ties);
    last_marker: class of the final marker occurrence; count_threshold:
    whether markers[0] occurs at least `threshold` times.
    """
    tokens = np.asarray(tokens)
    if spec.rule == "majority":
        counts = [(tokens == m).sum() for m in spec.markers]
        return int(np.argmax(counts))
    if spec.rule == "last_marker":
        marker_pos = [(tokens == m).nonzero()[0] for m in spec.markers]
        last = [(pos[-1] if len(pos) else -1) for pos in marker_pos]
        if max(last) < 0:
            raise ValueError("sequence contains no marker")
        return int(np.argmax(last))
    return int((tokens == spec.markers[0]).sum() >= spec.threshold)


def load_jsonl(path, specs: list[TaskSpec]) -> Dataset:
    examples = []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        examples.append(
            Example(tokens=np.asarray(rec["tokens"], dtype=np.int64), label=rec["label"], task=rec["task"])
        )
    return Dataset(examples=examples, specs=specs)


def reference_label(spec: TaskSpec, tokens: np.ndarray) -> int:
    """Independent rule-follower: plain counting on raw symbols."""
    counts = {m: int((tokens == m).sum()) for m in spec.markers}
    if spec.rule == "majority":
        best, best_count = None, -1
        for c, m in enumerate(spec.markers):
            if counts[m] > best_count:
                best, best_count = c, counts[m]
        return best
    if spec.rule == "last_marker":
        for pos in range(len(tokens) - 1, -1, -1):
            if tokens[pos] in spec.markers:
                return spec.markers.index(int(tokens[pos]))
        raise AssertionError("no marker found")
    return 1 if counts[spec.markers[0]] >= spec.threshold else 0


class TestRules:
    def test_all_one_symbol_majority(self):
        spec = default_task_specs()[0]
        seq = np.full(20, spec.markers[1])
        assert evaluate_rule(spec, seq) == 1

    def test_last_marker_definition(self):
        spec = default_task_specs()[1]
        seq = np.array([1, spec.markers[2], 5, spec.markers[0], 9])
        assert evaluate_rule(spec, seq) == 0

    def test_count_threshold_definition(self):
        spec = default_task_specs()[2]
        below = np.array([spec.markers[0]] * (spec.threshold - 1) + [1] * 10)
        at = np.array([spec.markers[0]] * spec.threshold + [1] * 10)
        assert evaluate_rule(spec, below) == 0
        assert evaluate_rule(spec, at) == 1


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        specs = default_task_specs()
        a = generate(specs, 50, seed=42)
        b = generate(specs, 50, seed=42)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.save_jsonl(pa)
        b.save_jsonl(pb)
        assert pa.read_bytes() == pb.read_bytes()
        c = generate(specs, 50, seed=43)
        pc = tmp_path / "c.jsonl"
        c.save_jsonl(pc)
        assert pa.read_bytes() != pc.read_bytes()

    def test_labels_are_information_complete(self):
        specs = default_task_specs()
        ds = generate(specs, 500, seed=7)
        by_task = {s.task_id: s for s in specs}
        hits = 0
        for ex in ds.examples:
            if reference_label(by_task[ex.task], ex.tokens) == ex.label:
                hits += 1
        assert hits == len(ds.examples)  # 100%

    def test_task_recoverable_from_marker_slices(self):
        specs = default_task_specs()
        ds = generate(specs, 100, seed=8)
        slices = {s.task_id: set(s.markers) for s in specs}
        for ex in ds.examples:
            present = {tid for tid, markers in slices.items() if np.isin(ex.tokens, list(markers)).any()}
            assert present <= {ex.task}  # only own-task markers ever appear

    def test_stratified_within_one(self):
        specs = default_task_specs()
        ds = generate(specs, 100, seed=9)
        for spec in specs:
            labels = [ex.label for ex in ds.examples if ex.task == spec.task_id]
            counts = np.bincount(labels, minlength=spec.n_classes)
            assert counts.max() - counts.min() <= 1

    def test_overlapping_markers_rejected(self):
        specs = [
            TaskSpec(task_id=0, rule="majority", markers=(32, 33, 34), n_classes=3),
            TaskSpec(task_id=1, rule="last_marker", markers=(34, 35, 36), n_classes=3),
        ]
        with pytest.raises(ValueError, match="overlap"):
            generate(specs, 10, seed=0)

    def test_vocab_overflow_rejected(self):
        spec = TaskSpec(task_id=0, rule="majority", markers=(70, 71, 72), n_classes=3)
        with pytest.raises(ValueError, match="vocabulary"):
            generate([spec], 10, seed=0, vocab=64)

    def test_n_per_task_positive(self):
        with pytest.raises(ValueError, match="n_per_task"):
            generate(default_task_specs(), 0, seed=0)

    def test_jsonl_round_trip(self, tmp_path):
        specs = default_task_specs()
        ds = generate(specs, 20, seed=10)
        ds.save_jsonl(tmp_path / "d.jsonl")
        back = load_jsonl(tmp_path / "d.jsonl", specs)
        assert len(back) == len(ds)
        for a, b in zip(ds.examples, back.examples):
            assert np.array_equal(a.tokens, b.tokens)
            assert (a.label, a.task) == (b.label, b.task)

    def test_global_labels_offset_by_task(self):
        specs = default_task_specs()
        ds = generate(specs, 10, seed=11)
        offsets = ds.label_offsets()
        assert offsets == {0: 0, 1: 3, 2: 6}
        assert ds.n_global_classes == 8
        for ex in ds.examples:
            g = ds.global_label(ex)
            assert offsets[ex.task] <= g < offsets[ex.task] + 3


class TestBatching:
    def test_same_length_batches(self):
        ds = generate(default_task_specs(), 60, seed=12)
        for idx in length_buckets(ds, batch_size=8):
            lengths = {len(ds.examples[i].tokens) for i in idx}
            assert len(lengths) == 1
            assert len(idx) <= 8
        covered = sorted(i for idx in length_buckets(ds, 8) for i in idx)
        assert covered == list(range(len(ds)))

    def test_batch_arrays_shapes(self):
        ds = generate(default_task_specs(), 30, seed=13)
        idx = length_buckets(ds, 4)[0]
        tokens, labels, tasks = batch_arrays(ds, idx)
        assert tokens.shape[0] == labels.shape[0] == tasks.shape[0] == len(idx)


class TestSampleInitTokens:
    def test_budget_equals_total_is_a_permutation(self, tiny_frozen):
        specs = [TaskSpec(task_id=0, rule="majority", markers=(8, 9, 10), n_classes=3,
                          min_len=6, max_len=10, filler_hi=7)]
        ds = generate(specs, 8, seed=14, vocab=16)
        total = ds.total_tokens()
        out = sample_init_tokens(ds, total, seed=0, model=tiny_frozen)
        pairs = {(int(r[0]), int(r[1])) for r in out["meta"]}
        assert len(pairs) == total  # every (sequence, position) exactly once

    def test_budget_bounds(self, tiny_frozen):
        specs = [TaskSpec(task_id=0, rule="majority", markers=(8, 9, 10), n_classes=3,
                          min_len=6, max_len=10, filler_hi=7)]
        ds = generate(specs, 4, seed=15, vocab=16)
        with pytest.raises(ValueError, match=">= 1"):
            sample_init_tokens(ds, 0, seed=0, model=tiny_frozen)
        with pytest.raises(ValueError, match="exceeds"):
            sample_init_tokens(ds, ds.total_tokens() + 1, seed=0, model=tiny_frozen)

    def test_features_match_direct_forward(self, tiny_frozen):
        specs = [TaskSpec(task_id=0, rule="majority", markers=(8, 9, 10), n_classes=3,
                          min_len=6, max_len=6, filler_hi=7)]
        ds = generate(specs, 5, seed=16, vocab=16)
        out = sample_init_tokens(ds, 10, seed=1, model=tiny_frozen)
        for row, (si, pos, _task) in enumerate(out["meta"]):
            hidden = tiny_frozen.hidden_states(ds.examples[si].tokens[None, :])
            for layer in range(tiny_frozen.cfg.n_layers):
                assert np.array_equal(out["features"][layer][row], hidden[layer].data[0, pos])

    def test_rows_match_per_token_reference(self, tiny_frozen):
        # the same draw indexes a per-token (sequence, position) list, with mixed lengths
        specs = [TaskSpec(task_id=0, rule="majority", markers=(8, 9, 10), n_classes=3, min_len=6, max_len=10,
                          filler_hi=7),
                 TaskSpec(task_id=1, rule="last_marker", markers=(12, 13), n_classes=2, min_len=5, max_len=9,
                          filler_hi=7)]
        ds = generate(specs, 40, seed=18, vocab=16)
        out = sample_init_tokens(ds, 150, seed=3, model=tiny_frozen)
        pairs = [(si, pos) for si, ex in enumerate(ds.examples) for pos in range(len(ex.tokens))]
        chosen = [pairs[int(c)] for c in np.random.default_rng(3).choice(len(pairs), size=150, replace=False)]
        assert out["meta"].tolist() == [[si, pos, ds.examples[si].task] for si, pos in chosen]
        for row, (si, pos) in enumerate(chosen):
            hidden = tiny_frozen.hidden_states(ds.examples[si].tokens[None, :])
            for layer in range(tiny_frozen.cfg.n_layers):
                assert np.array_equal(out["features"][layer][row], hidden[layer].data[0, pos])

    def test_task_shares_within_three_percent(self, tiny_frozen):
        specs = [
            TaskSpec(task_id=0, rule="majority", markers=(8, 9, 10), n_classes=3, min_len=6, max_len=10, filler_hi=7),
            TaskSpec(task_id=1, rule="count_threshold", markers=(12,), n_classes=2, min_len=6, max_len=10,
                     threshold=2, filler_hi=7),
        ]
        ds = generate(specs, 400, seed=17, vocab=16)
        out = sample_init_tokens(ds, 5000, seed=2, model=tiny_frozen)
        token_totals = np.zeros(2)
        for ex in ds.examples:
            token_totals[ex.task] += len(ex.tokens)
        corpus_share = token_totals / token_totals.sum()
        sampled = np.bincount(out["meta"][:, 2], minlength=2) / len(out["meta"])
        assert np.abs(sampled - corpus_share).max() < 0.03
