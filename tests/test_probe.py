import numpy as np
import pytest

from mjlab.data import TaskSpec, generate
from mjlab.probe import (
    ProbeSpec,
    collect_states,
    position_sweep,
    run_probe,
    select_features,
    train_linear_probe,
    write_probe_csv,
)

from .conftest import snapshot


@pytest.fixture(scope="module")
def probe_dataset():
    spec = TaskSpec(task_id=0, rule="majority", markers=(8, 9, 10), n_classes=3,
                    min_len=8, max_len=12, filler_hi=7)
    return generate([spec], 120, seed=21, vocab=16)


class TestSelectors:
    def test_all_modes(self):
        states = [np.arange(12.0).reshape(4, 3), np.arange(6.0).reshape(2, 3) + 100]
        assert np.array_equal(select_features(states, ProbeSpec(0, "index", 1))[0], [3.0, 4.0, 5.0])
        assert np.array_equal(select_features(states, ProbeSpec(0, "offset", 1))[0], [6.0, 7.0, 8.0])
        assert np.array_equal(select_features(states, ProbeSpec(0, "last"))[1], [103.0, 104.0, 105.0])
        assert np.array_equal(select_features(states, ProbeSpec(0, "mean"))[0], [4.5, 5.5, 6.5])
        assert np.array_equal(select_features(states, ProbeSpec(0, "max"))[0], [9.0, 10.0, 11.0])

    def test_invalid_position_rejected(self):
        states = [np.zeros((4, 3)), np.zeros((2, 3))]
        with pytest.raises(ValueError, match="invalid"):
            select_features(states, ProbeSpec(0, "index", 2))
        with pytest.raises(ValueError, match="invalid"):
            select_features(states, ProbeSpec(0, "offset", 3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="selector"):
            ProbeSpec(0, "attention")


class TestLinearProbe:
    def test_separable_data_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(40, 4)) + 6 * np.eye(4)[c % 4] for c in range(3)])
        y = np.repeat([0, 1, 2], 40)
        w, b = train_linear_probe(x, y, 3, epochs=200)
        pred = np.argmax(x @ w.T + b, axis=1)
        assert (pred == y).mean() == 1.0

    def test_random_labels_stay_near_chance(self, tiny_frozen, probe_dataset):
        states, labels = collect_states(tiny_frozen, probe_dataset, layer=2)
        rng = np.random.default_rng(1)
        shuffled = rng.permutation(labels)  # break any token-label association
        x = select_features(states, ProbeSpec(2, "last"))
        n = len(shuffled)
        order = rng.permutation(n)
        train_idx, val_idx = order[36:], order[:36]
        w, b = train_linear_probe(x[train_idx], shuffled[train_idx], 3, epochs=100)
        val_acc = (np.argmax(x[val_idx] @ w.T + b, axis=1) == shuffled[val_idx]).mean()
        assert abs(val_acc - 1.0 / 3.0) <= 0.10

    def test_deterministic_given_seed(self, tiny_frozen, probe_dataset):
        spec = ProbeSpec(layer=1, mode="last")
        a = run_probe(tiny_frozen, spec, probe_dataset, epochs=30, seed=5)
        b = run_probe(tiny_frozen, spec, probe_dataset, epochs=30, seed=5)
        c = run_probe(tiny_frozen, spec, probe_dataset, epochs=30, seed=6)
        assert a == b
        assert a != c  # different split

    def test_backbone_bitwise_unchanged(self, tiny_frozen, probe_dataset):
        before = snapshot(tiny_frozen)
        run_probe(tiny_frozen, ProbeSpec(layer=2, mode="mean"), probe_dataset, epochs=20, seed=0)
        after = snapshot(tiny_frozen)
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_empty_split_rejected(self, tiny_frozen, probe_dataset):
        with pytest.raises(ValueError, match="empty split"):
            run_probe(tiny_frozen, ProbeSpec(layer=0, mode="last"), probe_dataset, val_fraction=0.0)


class TestSweep:
    def test_rows_and_csv(self, tiny_frozen, probe_dataset, tmp_path):
        specs = [ProbeSpec(2, "offset", 4), ProbeSpec(2, "last"), ProbeSpec(2, "mean")]
        rows = position_sweep(tiny_frozen, probe_dataset, 2, specs, seeds=[0, 1], epochs=20)
        assert len(rows) == 6
        write_probe_csv(rows, tmp_path / "probe.csv")
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert lines[0] == "layer,selector,seed,train_acc,val_acc"
        assert len(lines) == 7
        assert any("offset:4" in line for line in lines)
