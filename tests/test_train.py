import concurrent.futures
import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.adapters import count_trainable
from mjlab.config import ConfigError, ExperimentConfig
import mjlab.train as train_module
from mjlab.data import batch_arrays, generate, length_buckets, pretraining_corpus
from mjlab.model import Backbone, ProjectionId
from mjlab.optim import AdamW, lr_at_step
from mjlab.router import UsageRecorder, route
from mjlab.train import (
    ABLATION_AXES,
    ClassifierHead,
    _derive,
    _task_expert_row,
    ablate,
    apply_axis,
    build_method,
    evaluate,
    init_router_states,
    init_usage,
    make_datasets,
    optimizer_steps,
    prepare_backbone,
    prepare_world,
    run_pipeline,
    shared_vs_specific,
    write_ablation_csv,
)

from .conftest import small_config, snapshot


def adapted_init_usage(seed: int):
    """The initial usage pass as it was before it routed frozen states only:
    a full evaluation of the fresh adapted model that run `seed` builds; the
    reference for `init_usage`, with its signature."""

    def adapted(cfg, model, states, dataset, usage):
        bank, hooks = build_method(cfg, seed, states)
        return evaluate(cfg, model, hooks, ClassifierHead(cfg.model.d_model, dataset.n_global_classes),
                        dataset, usage=usage)

    return adapted


class TestWorkers:
    def test_worker_count_env(self, monkeypatch):
        from mjlab.train import worker_count

        monkeypatch.delenv("MJLAB_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("MJLAB_THREADS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("MJLAB_THREADS", "junk")
        assert worker_count() == 1

    def test_sweep_asks_for_no_more_workers_than_runs(self, monkeypatch):
        # an in-process pool: a real one forks every worker it is asked for
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(train_module, "prepare_world", lambda cfg, seed: seed)
        monkeypatch.setattr(train_module, "_ablate_one", lambda payload: payload[2:])
        monkeypatch.setenv("MJLAB_THREADS", "1000")
        rows = ablate(small_config(seeds=[1, 2]), "beta", [0.2, 0.9])
        assert asked == [4]
        assert rows == [(0.2, 1, 1), (0.2, 2, 2), (0.9, 1, 1), (0.9, 2, 2)]

    def test_importing_mjlab_loads_no_multiprocessing(self):
        # the process pool is imported only by a sweep that asks for workers
        code = "import sys, mjlab.cli, mjlab.train; print('multiprocessing' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.stdout.strip() == "False", done.stdout + done.stderr


class TestOptim:
    def test_adamw_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        p = tz.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        start = p.data.copy()
        g = rng.normal(size=(3, 2))
        p.grad = g.copy()
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        opt.step()
        m = 0.1 * g
        v = 0.001 * g * g
        update = (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8) + 0.01 * start
        assert np.allclose(p.data, start - 0.1 * update, atol=1e-15)

    def test_zero_lr_freezes_parameters(self):
        p = tz.Tensor(np.ones(4), requires_grad=True)
        p.grad = np.full(4, 3.0)
        opt = AdamW([p], lr=0.0)
        opt.step()
        assert np.array_equal(p.data, np.ones(4))

    def test_schedule_warmup_then_cosine(self):
        lrs = [lr_at_step(s, 100, 1.0, 0.1) for s in range(100)]
        assert lrs[0] == pytest.approx(0.1)
        assert lrs[9] == pytest.approx(1.0)
        assert max(lrs) <= 1.0
        assert lrs[99] < 0.01
        assert all(b <= a + 1e-12 for a, b in zip(lrs[9:], lrs[10:]))


class TestBuildMethod:
    @pytest.mark.parametrize("method", ["mj", "peft", "moe", "frozen"])
    def test_every_method_has_a_bank_and_hooks(self, method):
        bank, hooks = build_method(small_config(method=method), 0)
        assert bank is not None and hooks.bank is bank

    def test_frozen_is_the_bank_without_adapters(self, tmp_path):
        """No tensors, no terms, a pass bitwise the hook-free one, and a
        checkpoint that writes and reads nothing."""
        cfg = small_config(method="frozen")
        bank, hooks = build_method(cfg, 0)
        assert bank.projections == () and bank.named_tensors() == {} and count_trainable(bank) == 0
        model = Backbone(cfg.model, seed=1)
        model.freeze()
        tokens = np.random.default_rng(2).integers(0, cfg.model.vocab_size, size=(3, 7))
        hooks.set_batch(np.zeros(3, dtype=np.int64))
        assert hooks.begin_block(0, tz.Tensor(np.ones((3, 7, cfg.model.d_model)))) == {}
        assert model.final_states(tokens, hooks).data.tobytes() == model.final_states(tokens).data.tobytes()
        bank.save(tmp_path / "adapters")
        assert not (tmp_path / "adapters").exists()
        bank.load_weights(tmp_path / "adapters")  # no manifest to read


class TestPipeline:
    def test_zero_lr_leaves_adapters_at_init_and_matches_frozen(self, small_world):
        backbone, train_ds, val_ds = small_world
        cfg = small_config(train={"epochs": 1, "batch_size": 8, "lr": 0.0})
        run = run_pipeline(cfg, 0, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        fresh, _ = build_method(cfg, 0)
        for name, t in run["bank"].named_tensors().items():
            assert np.array_equal(t.data, fresh.named_tensors()[name].data)
        frozen_cfg = small_config(method="frozen", train={"epochs": 1, "batch_size": 8, "lr": 0.0})
        frozen = run_pipeline(frozen_cfg, 0, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        assert run["per_task_accuracy"] == frozen["per_task_accuracy"]

    def test_grad_accum_applies_once_and_matches_manual_step(self, small_world):
        backbone, _train_ds, _val_ds = small_world
        fixed_task = [{"task_id": 0, "rule": "majority", "markers": [16, 17, 18], "n_classes": 3,
                       "min_len": 10, "max_len": 10, "filler_hi": 15}]
        cfg = small_config(method="peft",
                           data={"tasks": fixed_task, "n_per_task": 16, "n_val_per_task": 8},
                           train={"epochs": 1, "batch_size": 8, "grad_accum": 2, "lr": 1e-2},
                           adapter={"dropout": 0.0})
        sub, sub_val = make_datasets(cfg)  # fixed length: exactly two batches of 8
        run = run_pipeline(cfg, 3, backbone=backbone, train_ds=sub, val_ds=sub_val)
        assert len(run["metrics"]) == 1  # one optimizer step for two micro-batches

        # manual replication: same init, both micro-batch grads accumulated, one step
        from mjlab.data import length_buckets, batch_arrays
        from mjlab.train import ClassifierHead

        bank, hooks = build_method(cfg, 3)
        head = ClassifierHead(cfg.model.d_model, sub.n_global_classes)
        params = head.trainable_tensors() + bank.trainable_tensors()
        opt = AdamW(params, lr=1e-2, weight_decay=cfg.train.weight_decay)
        batches = length_buckets(sub, 8)
        order = np.random.default_rng(_derive(3, 6)).permutation(len(batches))
        for micro, bi in enumerate(order):
            tokens, labels, _tasks = batch_arrays(sub, batches[bi])
            hooks.set_batch(None, np.random.default_rng(_derive(3, 7, 0 * 10000 + micro)))
            with tz.Tape():
                final = backbone.final_states(tokens, hooks)
                loss = tz.mul(tz.cross_entropy(head.logits(final), labels), 0.5)
                tz.backward(loss)
        opt.lr = lr_at_step(0, 1, 1e-2, cfg.train.warmup_ratio)
        opt.step()
        for name, t in bank.named_tensors().items():
            assert np.array_equal(t.data, run["bank"].named_tensors()[name].data)

    @pytest.mark.parametrize("grad_accum", [1, 2, 1000])
    def test_one_metrics_row_per_optimizer_step(self, small_world, grad_accum):
        from mjlab.data import length_buckets

        backbone, train_ds, val_ds = small_world
        cfg = small_config(method="peft", train={"epochs": 2, "batch_size": 8, "grad_accum": grad_accum})
        assert 1000 > len(length_buckets(train_ds, 8)) > 2  # 1000: one step takes a whole epoch
        run = run_pipeline(cfg, 1, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        assert len(run["metrics"]) == run["steps"] == optimizer_steps(cfg, train_ds)
        assert [row["step"] for row in run["metrics"]] == list(range(run["steps"]))

    def test_optimizer_never_touches_backbone_or_centers(self, small_world):
        backbone, train_ds, val_ds = small_world
        before = snapshot(backbone)
        cfg = small_config(router={"kmeans_samples": 400, "beta": 1.0})  # EMA no-op isolates optimizer
        run = run_pipeline(cfg, 1, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        after = snapshot(backbone)
        assert all(np.array_equal(before[k], after[k]) for k in before)
        cfg2 = small_config(router={"kmeans_samples": 400, "beta": 1.0})
        from mjlab.train import init_router_states

        reference = init_router_states(cfg2, backbone, train_ds, 1, total_steps=run["steps"])
        for layer, state in run["router_states"].items():
            assert np.array_equal(state.centers, reference[layer].centers)

    def test_ema_updates_move_centers_on_schedule(self, small_world):
        backbone, train_ds, val_ds = small_world
        cfg = small_config(router={"kmeans_samples": 400, "beta": 0.5, "update_every": 2, "stop_frac": 0.5})
        run = run_pipeline(cfg, 2, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        stop = int(round(0.5 * run["steps"]))
        for row in run["metrics"]:
            expected = row["step"] % 2 == 0 and row["step"] < stop
            assert row["ema_fired"] == expected

    def test_task_experts_table_pins_each_sequence_to_its_expert(self, small_world, monkeypatch):
        import mjlab.router as router

        table = [2, 0]  # the default, tasks % n_slots, would pin tasks 0 and 1 to [0, 1]
        cfg = small_config(router={"granularity": "task", "task_experts": table})
        batch_tasks, checked = [], []
        real_batch, real_route = train_module.batch_arrays, router.route

        def recording_batch(dataset, idx):
            tokens, labels, tasks = real_batch(dataset, idx)
            batch_tasks.append(tasks)
            return tokens, labels, tasks

        def checking_route(state, h, task_expert=None):
            decision = real_route(state, h, task_expert)
            tasks = batch_tasks[-1]  # every routed pass runs on the batch read last
            expected = np.repeat(np.asarray(table)[tasks], h.shape[1])  # one row per token, sequence-major
            assert (decision.selected == expected[:, None]).all()
            checked.append(len(tasks))
            return decision

        monkeypatch.setattr(train_module, "batch_arrays", recording_batch)
        monkeypatch.setattr(train_module, "route", checking_route)  # the initial usage pass
        monkeypatch.setattr(router, "route", checking_route)  # the hooks' training and evaluation passes
        backbone, train_ds, val_ds = small_world
        run = run_pipeline(cfg, 5, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        n_routed = len(run["router_states"])
        assert sum(checked) == n_routed * (2 * len(val_ds) + cfg.train.epochs * len(train_ds))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step_diagnostic(self, small_world):
        _, train_ds, val_ds = small_world
        cfg = small_config(method="peft")
        poisoned = prepare_backbone(cfg, 9, corpus=pretraining_corpus(train_ds))
        poisoned.blocks[0].w[list(poisoned.blocks[0].w)[0]].data[:] = 1e308
        with pytest.raises(RuntimeError, match="diverged at step"):
            run_pipeline(cfg, 9, backbone=poisoned, train_ds=train_ds, val_ds=val_ds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mj_divergence_aborts_with_stage_diagnostic(self, small_world):
        _, train_ds, val_ds = small_world
        cfg = small_config(method="mj")
        poisoned = prepare_backbone(cfg, 9, corpus=pretraining_corpus(train_ds))
        poisoned.blocks[0].w[list(poisoned.blocks[0].w)[0]].data[:] = 1e308
        with pytest.raises(RuntimeError, match=r"diverged at router initialization \(k-means token sample\): "
                                               r"non-finite values produced by 'linear'"):
            run_pipeline(cfg, 9, backbone=poisoned, train_ds=train_ds, val_ds=val_ds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stage,name", [("init_usage", "the initial usage pass"),
                                            ("evaluate", "the final evaluation")])
    def test_divergence_in_a_later_stage_names_it(self, small_world, monkeypatch, stage, name):
        backbone, train_ds, val_ds = small_world
        poisoned = copy.deepcopy(backbone)
        real = getattr(train_module, stage)

        def poison_then_run(cfg, model, *args, **kwargs):
            model.blocks[0].w[ProjectionId.q].data[:] = 1e308
            return real(cfg, model, *args, **kwargs)

        monkeypatch.setattr(train_module, stage, poison_then_run)
        with pytest.raises(RuntimeError, match=f"diverged at {name}: non-finite values produced by 'linear'"):
            run_pipeline(small_config(method="mj"), 9, backbone=poisoned, train_ds=train_ds, val_ds=val_ds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["peft", "mj"])
    def test_divergence_names_the_layer_and_the_projection(self, small_world, method):
        _, train_ds, val_ds = small_world
        cfg = small_config(method=method, model={"n_layers": 3})
        poisoned = Backbone(cfg.model, seed=9)
        poisoned.freeze()
        poisoned.blocks[2].w[ProjectionId.v].data[:] = 1e308  # q and k of layer 2 stay finite
        with pytest.raises(RuntimeError, match=r"diverged at step 0: non-finite values produced by 'linear' "
                                               r"at layer 2, projection v$"):
            run_pipeline(cfg, 9, backbone=poisoned, train_ds=train_ds, val_ds=val_ds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_moe_router(self, small_world, monkeypatch):
        backbone, train_ds, val_ds = small_world
        real = train_module.build_method

        def poison_router(cfg, seed, states=None):
            bank, hooks = real(cfg, seed, states)
            bank.routers[1].data[:] = 1e308  # layer 0's router stays finite
            return bank, hooks

        monkeypatch.setattr(train_module, "build_method", poison_router)
        with pytest.raises(RuntimeError, match=r"diverged at step 0: non-finite values produced by 'linear' "
                                               r"at layer 1, router$"):
            run_pipeline(small_config(method="moe"), 9, backbone=backbone, train_ds=train_ds, val_ds=val_ds)

    @pytest.mark.parametrize("variant", ["lora", "lorafa", "propulsion"])
    def test_routing_only_init_pass_matches_the_adapted_pass(self, small_world, variant):
        backbone, train_ds, val_ds = small_world
        cfg = small_config(adapter={"variant": variant})
        states = init_router_states(cfg, backbone, train_ds, 4, total_steps=10)
        full, fast = UsageRecorder(), UsageRecorder()
        captured = adapted_init_usage(4)(cfg, backbone, states, val_ds, full)["embeddings"]
        init_usage(cfg, backbone, states, val_ds, fast)
        assert list(fast.counts) == list(full.counts) == sorted(states)
        for layer in full.counts:
            assert fast.counts[layer].tobytes() == full.counts[layer].tobytes()
            assert fast.tokens[layer] == full.tokens[layer]
        # the adapted pass's first batch: its hidden states and decisions, byte for byte
        tokens, _, tasks = batch_arrays(val_ds, length_buckets(val_ds, cfg.train.batch_size)[0])
        hidden = backbone.hidden_states(tokens)
        for layer, (flat, decision) in captured.items():
            assert hidden[layer].data.reshape(flat.shape).tobytes() == flat.tobytes()
            frozen = route(states[layer], hidden[layer], _task_expert_row(cfg, tasks))
            for name in ("z", "p", "m", "selected"):
                assert getattr(frozen, name).tobytes() == getattr(decision, name).tobytes(), name

    @pytest.mark.parametrize("variant", ["lora", "lorafa", "propulsion"])
    def test_routing_only_init_pass_writes_the_same_run(self, small_world, tmp_path, monkeypatch, variant):
        backbone, train_ds, val_ds = small_world
        cfg = small_config(adapter={"variant": variant})
        run_pipeline(cfg, 4, tmp_path / "routed", backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        monkeypatch.setattr(train_module, "init_usage", adapted_init_usage(4))
        run_pipeline(cfg, 4, tmp_path / "adapted", backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        for name in ("usage.csv", "embeddings.csv", "report.json", "metrics.jsonl"):
            assert (tmp_path / "routed" / name).read_bytes() == (tmp_path / "adapted" / name).read_bytes(), name
        assert "usage_rho" in json.loads((tmp_path / "routed" / "report.json").read_text())

    def test_moe_method_trains_router_end_to_end(self, small_world):
        backbone, train_ds, val_ds = small_world
        cfg = small_config(method="moe", moe={"n_experts": 2, "top_k": 1, "r": 1, "dropout": 0.0})
        run = run_pipeline(cfg, 8, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        fresh, _ = build_method(cfg, 8)
        moved = [
            not np.array_equal(run["bank"].routers[layer].data, fresh.routers[layer].data)
            for layer in run["bank"].routers
        ]
        assert all(moved)  # the learned router is on the tape and actually trains

    def test_unfrozen_backbone_rejected(self, small_world):
        from mjlab.model import Backbone

        _, train_ds, val_ds = small_world
        cfg = small_config()
        raw = Backbone(cfg.model, seed=0)
        with pytest.raises(ValueError, match="frozen"):
            run_pipeline(cfg, 0, backbone=raw, train_ds=train_ds, val_ds=val_ds)

    def test_determinism_bitwise_artifacts(self, tmp_path, small_world):
        backbone, train_ds, val_ds = small_world
        cfg = small_config(data={"n_per_task": 32, "n_val_per_task": 16})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(cfg, 5, out_dir=out_a, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        run_pipeline(cfg, 5, out_dir=out_b, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        for rel in sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


class TestRunOutput:
    def test_partial_world_rejected(self, small_world):
        backbone, train_ds, _ = small_world
        with pytest.raises(TypeError, match="val_ds"):
            run_pipeline(small_config(), 0, backbone=backbone, train_ds=train_ds)

    def test_backbone_of_another_model_rejected(self, small_world):
        # one layer of a two-layer config's adapters would never train, yet count as trainable
        _, train_ds, val_ds = small_world
        shallow = Backbone(small_config(model={"n_layers": 1}).model, seed=0)
        shallow.freeze()
        with pytest.raises(ValueError, match=r"n_layers=1.*n_layers=2"):
            run_pipeline(small_config(method="peft"), 0, backbone=shallow, train_ds=train_ds, val_ds=val_ds)

    def test_failed_write_leaves_no_run_dir(self, tmp_path, small_world, monkeypatch):
        from mjlab.adapters import BankCore

        def fail(self, directory):
            raise OSError("disk full")

        monkeypatch.setattr(BankCore, "save", fail)
        backbone, train_ds, val_ds = small_world
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(small_config(method="peft"), 0, out_dir=tmp_path / "run-x-s0",
                         backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        assert list(tmp_path.iterdir()) == []

    def test_rerun_replaces_run_dir(self, tmp_path, small_world):
        backbone, train_ds, val_ds = small_world
        out = tmp_path / "run-x-s0"
        out.mkdir()
        (out / "stale.txt").write_text("from an earlier run")
        run_pipeline(small_config(method="peft"), 0, out_dir=out, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        assert not (out / "stale.txt").exists()
        assert (out / "report.json").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["run-x-s0"]

    def test_failed_csv_write_keeps_the_previous_file(self, tmp_path):
        """A writer failing mid-file leaves the earlier file byte-identical
        and no hidden sibling behind."""
        row = {"axis": "beta", "value": 0.5, "seed": 0, "per_task_accuracy": {"0": 0.5, "1": 0.25},
               "usage_rho_mean": 1.0}
        path = tmp_path / "ablation_beta.csv"
        write_ablation_csv([row], path)
        before = path.read_bytes()
        broken = {k: v for k, v in row.items() if k != "usage_rho_mean"}
        with pytest.raises(KeyError, match="usage_rho_mean"):
            write_ablation_csv([dict(row, seed=1), broken], path)  # fails after the seed-1 rows
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ablation_beta.csv"]

    def test_ema_gets_one_row_per_token(self, small_world, monkeypatch):
        import mjlab.train as train

        seen = []
        real = train.ema_update

        def checking(state, selected, hidden, step):
            seen.append(selected.shape[0])
            assert selected.shape[0] == hidden.shape[0]
            return real(state, selected, hidden, step)

        monkeypatch.setattr(train, "ema_update", checking)
        backbone, train_ds, val_ds = small_world
        run_pipeline(small_config(), 3, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        assert seen


class TestSharedVsSpecific:
    def test_parity_and_structure(self, small_world):
        cfg = small_config(adapter={"r": 2})  # 2 tasks: rank splits evenly
        table = shared_vs_specific(cfg, [(0, small_world)])
        assert table["parity"]
        assert set(table["median_shared"]) == {0, 1}
        assert set(table["median_specific"]) == {0, 1}
        row = table["rows"][0]
        assert row["shared_params"] == row["specific_params"]

    @staticmethod
    def _no_worlds():
        """Worlds for a config that must be rejected before the first is taken."""
        raise AssertionError("took a world before the config checks")
        yield

    def test_indivisible_budget_rejected(self):
        cfg = small_config(adapter={"r": 3})  # 3 ranks over 2 tasks
        with pytest.raises(ConfigError, match="divisible"):
            shared_vs_specific(cfg, self._no_worlds())

    def test_rankless_variant_rejected(self):
        cfg = small_config(adapter={"variant": "propulsion"})
        with pytest.raises(ConfigError, match="LoRA-family"):
            shared_vs_specific(cfg, self._no_worlds())

    def test_identical_tasks_make_arms_indistinguishable(self):
        # three clones of one easy rule (own marker slices): both arms saturate,
        # so the median specific-vs-shared gap stays within one point
        tasks = [
            {"task_id": t, "rule": "last_marker", "markers": [32 + 8 * t, 33 + 8 * t, 34 + 8 * t],
             "n_classes": 3, "min_len": 8, "max_len": 14}
            for t in range(3)
        ]
        cfg = ExperimentConfig.from_dict({
            "adapter": {"variant": "lora", "r": 3, "alpha": 5.0, "dropout": 0.05},
            "router": {"routed": ["q", "k", "v"], "shared": []},
            "data": {"tasks": tasks, "n_per_task": 600, "n_val_per_task": 200},
            "train": {"epochs": 3},
        })
        table = shared_vs_specific(cfg, ((seed, prepare_world(cfg, seed)) for seed in (0, 1, 2)))
        for t in (0, 1, 2):
            gap = table["median_specific"][t] - table["median_shared"][t]
            assert abs(gap) <= 0.01 + 1e-9, f"task {t}: arm gap {gap:+.3f}"


class TestAblate:
    def test_unknown_axis_rejected(self, small_cfg):
        with pytest.raises(ValueError, match="unknown ablation axis"):
            ablate(small_cfg, "momentum", [0.1])

    def test_identity_permutation_matches_base_run(self, small_world):
        backbone, train_ds, val_ds = small_world
        base_cfg = small_config()
        ident_cfg = apply_axis(base_cfg, "permutation", [0, 1, 2])
        base = run_pipeline(base_cfg, 4, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        ident = run_pipeline(ident_cfg, 4, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        assert base["per_task_accuracy"] == ident["per_task_accuracy"]
        assert [m["loss"] for m in base["metrics"]] == [m["loss"] for m in ident["metrics"]]

    def test_topk_equals_expert_count_still_valid(self, small_world):
        from mjlab.data import batch_arrays, length_buckets
        from mjlab.router import MonkeyJumpHooks

        backbone, train_ds, val_ds = small_world
        cfg = apply_axis(small_config(), "topk", 3)
        n_routed = len(cfg.router.routed)
        assert cfg.router.top_k == n_routed
        run = run_pipeline(cfg, 6, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        assert run["metrics"]
        for row in run["metrics"]:
            assert sorted(row["usage"]) == [str(layer) for layer in sorted(run["router_states"])]
            for fractions in row["usage"].values():
                assert fractions == [1.0] * n_routed
        # the final router states route every token to every slot with m == p
        hooks = MonkeyJumpHooks(run["bank"], run["router_states"])
        hooks.set_batch(None)
        tokens, _, _ = batch_arrays(val_ds, length_buckets(val_ds, 8)[0])
        backbone.final_states(tokens, hooks)
        assert sorted(layer for layer, _, _ in hooks.collected) == sorted(run["router_states"])
        for _, decision, _ in hooks.collected:
            assert (decision.selected == np.arange(n_routed)).all()
            assert np.array_equal(decision.m, decision.p)

    def test_beta_sweep_produces_all_rows(self, monkeypatch):
        cfg = small_config(data={"n_per_task": 24, "n_val_per_task": 12},
                           pretrain={"steps": 10}, router={"kmeans_samples": 200}, seeds=[0, 1])
        rows = ablate(cfg, "beta", [0.2, 0.5, 0.7, 0.9, 0.99])
        assert len(rows) == 10
        assert {row["value"] for row in rows} == {0.2, 0.5, 0.7, 0.9, 0.99}

    @staticmethod
    def _sweep_cfg():
        return small_config(data={"n_per_task": 24, "n_val_per_task": 12},
                            pretrain={"steps": 10}, router={"kmeans_samples": 200}, seeds=[0, 1])

    def test_one_backbone_per_seed_and_rows_match_separate_runs(self, monkeypatch):
        import mjlab.train as train

        calls = []
        real = train.prepare_backbone

        def counting(cfg, seed, **kwargs):
            calls.append(seed)
            return real(cfg, seed, **kwargs)

        monkeypatch.setattr(train, "prepare_backbone", counting)
        monkeypatch.delenv("MJLAB_THREADS", raising=False)
        cfg = self._sweep_cfg()
        rows = ablate(cfg, "beta", [0.2, 0.9])
        assert sorted(calls) == [0, 1]
        monkeypatch.setattr(train, "prepare_backbone", real)
        for row in rows:
            backbone, train_ds, val_ds = prepare_world(cfg, row["seed"])
            run = run_pipeline(apply_axis(cfg, "beta", row["value"]), row["seed"],
                               backbone=backbone, train_ds=train_ds, val_ds=val_ds)
            assert row["per_task_accuracy"] == run["per_task_accuracy"]
            assert row["overall_accuracy"] == run["overall_accuracy"]
            assert row["usage_rho_mean"] == float(np.mean(run["usage_rho"]))

    def test_workers_give_sequential_rows(self, monkeypatch):
        cfg = self._sweep_cfg()
        monkeypatch.delenv("MJLAB_THREADS", raising=False)
        sequential = ablate(cfg, "beta", [0.2, 0.9])
        monkeypatch.setenv("MJLAB_THREADS", "2")
        parallel = ablate(cfg, "beta", [0.2, 0.9])
        assert json.dumps(parallel) == json.dumps(sequential)

    def test_no_axis_touches_what_a_world_is_built_from(self, small_cfg):
        # ablate builds one world per seed from the base config's model, pretrain and data sections
        representative = {"similarity": "l1", "tau": 0.5, "beta": 0.9, "topk": 1, "update_every": 3,
                          "stop_frac": 0.3, "kmeans_samples": 100, "rank": 4, "shared": "up",
                          "routed": "k,up,down", "permutation": [2, 0, 1], "routed_layers": 1}
        assert set(representative) == set(ABLATION_AXES)
        for axis, value in representative.items():
            swept = apply_axis(small_cfg, axis, value)
            for section in ("model", "pretrain", "data"):
                assert getattr(swept, section) == getattr(small_cfg, section), (axis, section)

    def test_routed_layers_count_above_n_layers_rejected_briefly(self, small_cfg):
        with pytest.raises(ConfigError, match="routed_layers") as err:
            apply_axis(small_cfg, "routed_layers", 10**5)
        assert len(str(err.value)) < 300

    def test_axis_setters(self, small_cfg):
        assert apply_axis(small_cfg, "similarity", "l1").router.similarity == "l1"
        assert apply_axis(small_cfg, "tau", 0.5).router.tau == 0.5
        assert apply_axis(small_cfg, "rank", 4).adapter.r == 4
        assert apply_axis(small_cfg, "routed_layers", 1).router.routed_layers == [0]
        shared_cfg = apply_axis(small_cfg, "shared", "up")
        assert shared_cfg.router.shared == ["up"]
        assert set(shared_cfg.router.routed) == {"q", "k", "v", "o", "gate"}
        routed_cfg = apply_axis(small_cfg, "routed", "k,up,down")
        assert set(routed_cfg.router.routed) == {"k", "up", "down"}
