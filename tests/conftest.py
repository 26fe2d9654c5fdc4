import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.config import ExperimentConfig
from mjlab.model import Backbone, ModelConfig
from mjlab.train import make_datasets, prepare_backbone


def finite_difference_check(build, params, rel_tol=1e-6, eps=1e-5):
    """Central-difference gradient oracle.

    `build()` must reconstruct the loss from the current param values; the
    analytic gradient comes from one taped backward, the reference from
    perturbing every scalar by +-eps.
    """
    with tz.Tape():
        loss = build()
        tz.backward(loss)
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    for p, g in zip(params, grads):
        fd = np.zeros_like(p.data)
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + eps
            up = float(build().data)
            p.data[idx] = orig - eps
            down = float(build().data)
            p.data[idx] = orig
            fd[idx] = (up - down) / (2.0 * eps)
        scale = max(np.abs(fd).max(), np.abs(g).max(), 1e-10)
        err = np.abs(g - fd).max() / scale
        assert err < rel_tol, f"finite-difference mismatch: rel err {err:.3e}"


def snapshot(model: Backbone) -> dict[str, np.ndarray]:
    """Bitwise copies of every parameter, for freeze-contract checks."""
    return {k: v.data.copy() for k, v in model.named_parameters().items()}


@pytest.fixture(scope="session")
def tiny_cfg():
    return ModelConfig(d_model=8, d_ff=16, n_layers=2, n_heads=2, vocab_size=16, max_seq_len=12)


@pytest.fixture(scope="session")
def tiny_frozen(tiny_cfg):
    model = Backbone(tiny_cfg, seed=7)
    model.freeze()
    return model


SMALL_RAW = {
    "method": "mj",
    "model": {"d_model": 16, "d_ff": 32, "n_layers": 2, "n_heads": 2, "vocab_size": 32, "max_seq_len": 24},
    "data": {
        "tasks": [
            {"task_id": 0, "rule": "majority", "markers": [16, 17, 18], "n_classes": 3,
             "min_len": 8, "max_len": 16, "filler_hi": 15},
            {"task_id": 1, "rule": "last_marker", "markers": [20, 21, 22], "n_classes": 3,
             "min_len": 8, "max_len": 16, "filler_hi": 15},
        ],
        "n_per_task": 48,
        "n_val_per_task": 24,
    },
    "train": {"epochs": 1, "batch_size": 8},
    "pretrain": {"steps": 40},
    "router": {"kmeans_samples": 400},
}


def small_config(**overrides) -> ExperimentConfig:
    raw = {k: (dict(v) if isinstance(v, dict) else v) for k, v in SMALL_RAW.items()}
    for key, value in overrides.items():
        if isinstance(value, dict) and key in raw:
            raw[key].update(value)
        else:
            raw[key] = value
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="session")
def small_cfg():
    return small_config()


@pytest.fixture(scope="session")
def small_world(small_cfg):
    """(backbone, train_ds, val_ds) shared by pipeline tests; seed 0."""
    train_ds, val_ds = make_datasets(small_cfg)
    from mjlab.data import pretraining_corpus

    backbone = prepare_backbone(small_cfg, 0, corpus=pretraining_corpus(train_ds))
    return backbone, train_ds, val_ds
