"""Synthetic multi-task sequence datasets with controllable cluster structure.

Each task owns a disjoint slice of marker symbols; filler symbols are shared.
Labels are forced during generation, so a rule-following classifier on raw
symbols recovers them exactly, and the task id itself is always recoverable
from which marker slice appears.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .tensor import shown

RULES = ("majority", "last_marker", "count_threshold")


@dataclass
class TaskSpec:
    task_id: int
    rule: str
    markers: tuple[int, ...]
    n_classes: int
    min_len: int = 16
    max_len: int = 48
    threshold: int = 6  # count_threshold only
    filler_lo: int = 1
    filler_hi: int = 31  # inclusive; markers must live above this

    def __post_init__(self):
        self.markers = tuple(int(m) for m in self.markers)
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {shown(self.rule)}")
        if self.rule == "count_threshold":
            if self.n_classes != 2:
                raise ValueError("count_threshold is a binary rule")
            if len(self.markers) < 1:
                raise ValueError("count_threshold needs one marker")
            if not 1 <= self.threshold < self.min_len:
                raise ValueError("threshold must fit in the shortest sequence")
        else:
            if len(self.markers) != self.n_classes:
                raise ValueError("need one marker per class")
        if self.rule == "majority" and self.min_len < self.n_classes + 2:
            raise ValueError("majority sequences too short for a clear winner")
        if self.min_len < 4 or self.max_len < self.min_len:
            raise ValueError("bad sequence length range")
        if not 0 <= self.filler_lo <= self.filler_hi:
            raise ValueError("bad filler range")
        if min(self.markers) <= self.filler_hi:
            raise ValueError("markers must not overlap the filler range")


def default_task_specs() -> list[TaskSpec]:
    """Three tasks with distinct rules and disjoint marker slices."""
    return [
        TaskSpec(task_id=0, rule="majority", markers=(32, 33, 34), n_classes=3, min_len=12, max_len=24),
        TaskSpec(task_id=1, rule="last_marker", markers=(40, 41, 42), n_classes=3, min_len=12, max_len=24),
        TaskSpec(task_id=2, rule="count_threshold", markers=(48,), n_classes=2, min_len=12, max_len=24,
                 threshold=4),
    ]


@dataclass
class Example:
    tokens: np.ndarray
    label: int
    task: int


@dataclass
class Dataset:
    examples: list[Example]
    specs: list[TaskSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    def total_tokens(self) -> int:
        return sum(len(ex.tokens) for ex in self.examples)

    def label_offsets(self) -> dict[int, int]:
        """Task id -> offset into the global (concatenated) label space."""
        offsets, acc = {}, 0
        for spec in self.specs:
            offsets[spec.task_id] = acc
            acc += spec.n_classes
        return offsets

    @property
    def n_global_classes(self) -> int:
        return sum(spec.n_classes for spec in self.specs)

    def global_label(self, ex: Example) -> int:
        return self.label_offsets()[ex.task] + ex.label

    def subset(self, task_id: int) -> "Dataset":
        return Dataset(
            examples=[ex for ex in self.examples if ex.task == task_id],
            specs=[s for s in self.specs if s.task_id == task_id],
        )

    def save_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for ex in self.examples:
                record = {"tokens": [int(t) for t in ex.tokens], "label": ex.label, "task": ex.task}
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def _gen_sequence(spec: TaskSpec, label: int, rng: np.random.Generator, vocab: int) -> np.ndarray:
    length = int(rng.integers(spec.min_len, spec.max_len + 1))
    seq = rng.integers(spec.filler_lo, spec.filler_hi + 1, size=length).astype(np.int64)

    if spec.rule == "majority":
        # winner beats every other marker by at least a factor of two so the
        # count gap is readable from mixed representations
        winner = spec.markers[label]
        cap = max(3, length // spec.n_classes)
        win_count = int(rng.integers(3, cap + 1))
        counts = [
            win_count if c == label else int(rng.integers(0, win_count // 2 + 1))
            for c in range(spec.n_classes)
        ]
        symbols = np.concatenate([np.full(counts[c], spec.markers[c], dtype=np.int64) for c in range(spec.n_classes)])
        symbols = rng.permutation(symbols)
        pos = rng.choice(length, size=len(symbols), replace=False)
        seq[pos] = symbols
        assert (seq == winner).sum() > max(
            ((seq == m).sum() for m in spec.markers if m != winner), default=0
        )
    elif spec.rule == "last_marker":
        # the label marker arrives as a short run ending in the final few
        # positions, keeping the deciding occurrence within reach of the
        # last-token readout; earlier sparse markers act as distractors
        run = int(rng.integers(2, 5))
        end = int(rng.integers(length - 3, length))
        start = max(0, end - run + 1)
        n_early = int(rng.integers(1, 4))
        if start > n_early:
            earlier = rng.choice(start, size=n_early, replace=False)
            seq[earlier] = rng.choice(spec.markers, size=n_early)
        seq[start : end + 1] = spec.markers[label]
    else:  # count_threshold
        marker = spec.markers[0]
        if label == 1:
            count = int(rng.integers(spec.threshold, min(spec.threshold + 4, length) + 1))
        else:
            count = int(rng.integers(0, spec.threshold))
        if count:
            pos = rng.choice(length, size=count, replace=False)
            seq[pos] = marker

    if seq.max() >= vocab:
        raise ValueError("marker symbol exceeds vocabulary size")
    return seq


def check_disjoint_markers(specs: list[TaskSpec]) -> None:
    """Raise ValueError if two tasks share a marker symbol."""
    used: set[int] = set()
    for spec in specs:
        overlap = used & set(spec.markers)
        if overlap:
            raise ValueError(f"marker slices overlap across tasks: {sorted(overlap)}")
        used.update(spec.markers)


def generate(specs: list[TaskSpec], n_per_task: int, seed: int, vocab: int = 64) -> Dataset:
    """Deterministic dataset; labels stratified (balanced within one sample)."""
    if n_per_task < 1:
        raise ValueError("n_per_task must be >= 1")
    check_disjoint_markers(specs)
    rng = np.random.default_rng(seed)
    examples = []
    for spec in specs:
        for i in range(n_per_task):
            label = i % spec.n_classes
            examples.append(Example(tokens=_gen_sequence(spec, label, rng, vocab), label=label, task=spec.task_id))
    return Dataset(examples=examples, specs=list(specs))


def length_buckets(dataset: Dataset, batch_size: int) -> list[np.ndarray]:
    """Example-index batches grouped by sequence length (no padding needed)."""
    return bucket_by_length(range(len(dataset)), [len(ex.tokens) for ex in dataset.examples], batch_size)


def bucket_by_length(indices, lengths, batch_size: int) -> list[np.ndarray]:
    """Batches of `indices` with equal `lengths[i]`, shortest first; each
    length keeps the order of `indices`."""
    by_len: dict[int, list[int]] = {}
    for i in indices:
        by_len.setdefault(lengths[i], []).append(int(i))
    batches = []
    for length in sorted(by_len):
        group = by_len[length]
        for j in range(0, len(group), batch_size):
            batches.append(np.asarray(group[j : j + batch_size], dtype=np.int64))
    return batches


def batch_arrays(dataset: Dataset, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tokens BxT, global labels B, task ids B) for one same-length batch."""
    tokens = np.stack([dataset.examples[i].tokens for i in idx])
    labels = np.asarray([dataset.global_label(dataset.examples[i]) for i in idx], dtype=np.int64)
    tasks = np.asarray([dataset.examples[i].task for i in idx], dtype=np.int64)
    return tokens, labels, tasks


def sample_init_tokens(dataset: Dataset, budget: int, seed: int, model) -> dict:
    """Uniform without-replacement (sequence, position) sample pushed through
    the frozen backbone; returns per-layer hidden vectors for center init.

    Output: {"features": {layer: (budget, d)}, "meta": (budget, 3) array of
    (sequence index, position, task id)} with layer l holding the block-l
    input representation.
    """
    total = dataset.total_tokens()
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > total:
        raise ValueError(f"budget {budget} exceeds corpus tokens {total}")
    rng = np.random.default_rng(seed)
    # token i of the concatenated corpus is position i - starts[s] of sequence s
    lengths = [len(ex.tokens) for ex in dataset.examples]
    starts = np.cumsum(lengths) - lengths
    chosen = rng.choice(total, size=budget, replace=False)
    seqs = np.searchsorted(starts, chosen, side="right") - 1
    positions = chosen - starts[seqs]
    tasks = np.asarray([ex.task for ex in dataset.examples], dtype=np.int64)
    meta = np.stack([seqs, positions, tasks[seqs]], axis=1).astype(np.int64)

    feats = {layer: np.empty((budget, model.cfg.d_model)) for layer in range(model.cfg.n_layers)}
    for chunk in bucket_by_length(np.unique(seqs), lengths, 32):
        tokens = np.stack([dataset.examples[si].tokens for si in chunk])
        hidden = model.hidden_states(tokens, n_blocks=model.cfg.n_layers - 1)
        rows = np.flatnonzero(np.isin(seqs, chunk))
        batch_rows = np.searchsorted(chunk, seqs[rows])  # chunk is ascending
        for layer in feats:
            feats[layer][rows] = hidden[layer].data[batch_rows, positions[rows]]
    return {"features": feats, "meta": meta}


def pretraining_corpus(dataset: Dataset) -> list[np.ndarray]:
    """Raw token sequences for the self-supervised backbone phase."""
    return [ex.tokens for ex in dataset.examples]
