import contextlib
import copy
import csv
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mjlab.cli import _parse_values, main
from mjlab.config import ConfigError, ExperimentConfig, config_hash

from conftest import SMALL_RAW, small_config


def small_raw(**overrides):
    raw = {k: (dict(v) if isinstance(v, dict) else v) for k, v in SMALL_RAW.items()}
    for key, value in overrides.items():
        if isinstance(value, dict) and key in raw:
            raw[key].update(value)
        else:
            raw[key] = value
    return raw


@pytest.fixture()
def fast_config_path(tmp_path):
    raw = small_raw(data={"n_per_task": 24, "n_val_per_task": 12},
                    pretrain={"steps": 15}, router={"kmeans_samples": 200})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"methodd": "mj"})
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"router": {"tua": 1.0}})

    def test_sub_invariants_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"router": {"tau": -1.0}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"train": {"warmup_ratio": 1.5}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"method": "hydra"})

    def test_dump_round_trip_is_identity(self):
        cfg = small_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again.to_json() == cfg.to_json()
        assert config_hash(again) == config_hash(cfg)


class TestExitCodes:
    def test_missing_config_names_path(self, capsys):
        code = main(["train", "--config", "missing.json"])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err

    def test_unknown_key_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_section": 1}')
        assert main(["train", "--config", str(bad)]) == 1

    def test_oracle_rank_defaults_to_builtin_example(self, capsys):
        code = main(["oracle", "rank"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank_mj=2 rank_peft=1" in out

    def test_oracle_soft_and_params(self, capsys):
        assert main(["oracle", "soft", "--quiet"]) == 0
        assert main(["oracle", "params", "--quiet"]) == 0

    @pytest.mark.parametrize("argv", [["oracle", "bogus"], ["train", "--seed", "x"], ["ablate"], []])
    def test_usage_error_is_validation_error(self, argv, capsys):
        assert main(argv) == 1  # not argparse's 2, the runtime-failure code
        assert capsys.readouterr().err.startswith("error: mjlab")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["train", "--help"])
        assert exited.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestRoutingConfigFailsFast:
    """Bad routing configs exit 1 at parse time, before any compute."""

    @staticmethod
    def _train_exit(tmp_path, raw, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["train", "--config", str(path), "--out", str(out), "--quiet"])
        assert not out.exists()  # nothing ran
        return code, capsys.readouterr().err

    def test_routed_layer_out_of_range(self, tmp_path, capsys):
        code, err = self._train_exit(tmp_path, small_raw(router={"routed_layers": [0, 9]}), capsys)
        assert code == 1 and "routed_layers" in err and "[9]" in err

    def test_mj_routing_no_layer(self, tmp_path, capsys):
        code, err = self._train_exit(tmp_path, small_raw(router={"routed_layers": []}), capsys)
        assert code == 1 and "routed_layers" in err
        # an empty routed set is fine for a method that does not route
        ExperimentConfig.from_dict(small_raw(method="peft", router={"routed_layers": []}))

    def test_task_experts_missing_task(self, tmp_path, capsys):
        code, err = self._train_exit(tmp_path, small_raw(router={"task_experts": [0]}), capsys)
        assert code == 1 and "task_experts" in err and "[1]" in err

    def test_task_experts_entry_out_of_range(self, tmp_path, capsys):
        code, err = self._train_exit(tmp_path, small_raw(router={"task_experts": [0, 3]}), capsys)
        assert code == 1 and "task_experts" in err and "[3]" in err
        ExperimentConfig.from_dict(small_raw(router={"task_experts": [0, 2]}))

    def test_duplicate_task_ids(self, tmp_path, capsys):
        raw = small_raw()
        raw["data"]["tasks"] = [dict(t, task_id=0) for t in raw["data"]["tasks"]]
        code, err = self._train_exit(tmp_path, raw, capsys)
        assert code == 1 and "duplicate task_id" in err


TASK_0, TASK_1 = SMALL_RAW["data"]["tasks"]
NAN, INF = float("nan"), float("inf")  # JSON parses NaN and Infinity, and json.dumps writes them
HUGE = 10**400  # a JSON integer no float can hold
LONG = "x" * 5000  # a string a section's own check rejects: its error must not echo it whole
# Per field of SMALL_RAW's config, values that make it invalid: out of range,
# of the wrong kind, or inconsistent with another section.
INVALID_VALUES = {
    ("method",): ["lora", "", 3],
    ("seeds",): [[], [1.5], ["0"], [-1]],
    ("out",): [7],
    ("model", "d_model"): [0, -16, 15, 2.5, "16"],
    ("model", "d_ff"): [0],
    ("model", "n_layers"): [0, 1.0],
    ("model", "n_heads"): [0, 3],
    ("model", "vocab_size"): [0, 16],  # the tasks' markers go up to 22
    ("model", "max_seq_len"): [0, 8],  # the tasks' sequences go up to 16
    ("adapter", "variant"): ["dora", None, LONG],
    ("adapter", "r"): [0, "2"],
    ("adapter", "alpha"): [0.0, -1.0, NAN, INF, HUGE],
    ("adapter", "dropout"): [1.0, -0.1],
    ("moe", "n_experts"): [0],
    ("moe", "top_k"): [0, 5],
    ("moe", "r"): [0],
    ("moe", "alpha"): [0.0, NAN, INF, HUGE],
    ("moe", "dropout"): [1.0],
    ("router", "tau"): [0.0, -1.0, "1", None, NAN, INF, HUGE],
    ("router", "top_k"): [0, 4],
    ("router", "beta"): [-0.1, 1.5],
    ("router", "update_every"): [0, True],
    ("router", "stop_frac"): [-0.1, 1.1],
    ("router", "similarity"): ["manhattan", LONG],
    ("router", "granularity"): ["batch", LONG],
    ("router", "routed"): [[], ["qq"], [LONG]],
    ("router", "shared"): [["q"], ["zz"]],
    ("router", "permutation"): [[0, 0, 1], [0, 1], [0, 1, 3], [0, 1, 2.0]],
    ("router", "routed_layers"): [[2], [-1], [], [0.5]],
    ("router", "kmeans_samples"): [0],
    ("router", "kmeans_iters"): [0],
    ("router", "task_experts"): [[0], [0, 3], [0.0, 1.0]],
    ("train", "lr"): [-1.0, NAN, INF, HUGE],
    ("train", "warmup_ratio"): [1.0, -0.1],
    ("train", "epochs"): [0, 2.5],
    ("train", "batch_size"): [0],
    ("train", "grad_accum"): [0],
    ("train", "weight_decay"): [-0.1, NAN, INF, HUGE],
    ("pretrain", "steps"): [-1],
    ("pretrain", "lr"): [0.0, NAN, INF, HUGE],
    ("pretrain", "holdout_fraction"): [-0.5, 1.0],
    ("data", "n_per_task"): [0],
    ("data", "n_val_per_task"): [0],
    ("data", "seed"): ["1", -1],
    ("data", "tasks"): [[], {"task_id": 0}, [{"task_id": 0}], [dict(TASK_0, markers=[16.5, 17, 18])], [dict(TASK_0, rule=LONG)],
                        [TASK_0, dict(TASK_1, markers=[18, 21, 22])]],  # marker 18 in both tasks
    ("router",): ["x", None],
}
SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)
            if dataclasses.is_dataclass(f.default_factory)}
SECTION_FIELDS = {None: {f.name for f in dataclasses.fields(ExperimentConfig)}}
SECTION_FIELDS.update({name: {f.name for f in dataclasses.fields(section)} for name, section in SECTIONS.items()})


def construct(raw: dict) -> ExperimentConfig:
    """Build `raw` in Python: each section through its own constructor, then
    ExperimentConfig(...), with no from_dict in between."""
    return ExperimentConfig(**{key: SECTIONS[key](**value) if key in SECTIONS and isinstance(value, dict) else value
                               for key, value in raw.items()})


def with_invalid_value(path, value) -> dict:
    raw = copy.deepcopy(SMALL_RAW)
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return raw


def table_examples(test):
    """`test` with every value of INVALID_VALUES as an explicit example."""
    for path, values in INVALID_VALUES.items():
        for value in values:
            test = example(raw=with_invalid_value(path, value))(test)
    return test


@st.composite
def invalid_configs(draw) -> dict:
    """SMALL_RAW with one field set to an invalid value, or one unknown key added."""
    if draw(st.booleans()):
        path = draw(st.sampled_from(sorted(INVALID_VALUES)))
        return with_invalid_value(path, draw(st.sampled_from(INVALID_VALUES[path])))
    section = draw(st.sampled_from(list(SECTION_FIELDS)))
    key = draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
               .filter(lambda k: k not in SECTION_FIELDS[section]))
    path = (key,) if section is None else (section, key)
    return with_invalid_value(path, draw(st.integers(-5, 5)))


class TestInvalidConfigProperty:
    def test_every_table_value_is_rejected(self):
        for path, values in INVALID_VALUES.items():
            for value in values:
                with pytest.raises(ConfigError):
                    ExperimentConfig.from_dict(with_invalid_value(path, value))

    def test_every_table_value_is_rejected_at_construction(self):
        assert construct(copy.deepcopy(SMALL_RAW)) == small_config()
        for path, values in INVALID_VALUES.items():
            for value in values:
                with pytest.raises((ValueError, TypeError)):
                    construct(with_invalid_value(path, value))
        with pytest.raises(ConfigError, match="seeds"):
            dataclasses.replace(small_config(), seeds=[1.5])
        with pytest.raises(ConfigError, match=r"config\.train"):
            ExperimentConfig(train={"epochs": 2})  # a section's JSON form, not the section

    @settings(max_examples=60, deadline=None)
    @given(raw=invalid_configs())
    @table_examples
    def test_train_exits_1_before_compute(self, raw):
        import mjlab.train as train

        def refuse(*args, **kwargs):
            raise AssertionError("pretrained a backbone")

        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch, \
                contextlib.redirect_stderr(err):
            patch.setattr(train, "prepare_backbone", refuse)
            path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            path.write_text(json.dumps(raw))
            assert main(["train", "--config", str(path), "--out", str(out), "--quiet"]) == 1
            assert not out.exists()
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1 and len(err.getvalue().encode()) <= 200, err.getvalue()


class TestDumpConfig:
    def test_dump_is_fully_defaulted_and_reproduces(self, tmp_path, capsys):
        assert main(["train", "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        effective = json.loads(dumped)
        assert effective["router"]["tau"] == 1.0
        assert effective["adapter"]["alpha"] == 5.0
        path = tmp_path / "dumped.json"
        path.write_text(dumped)
        assert main(["train", "--config", str(path), "--dump-config"]) == 0
        assert capsys.readouterr().out == dumped


class TestEndToEnd:
    def test_gen_data_idempotent(self, tmp_path, fast_config_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(fast_config_path), "--out", str(out), "--quiet"]) == 0
        first = (out / "train.jsonl").read_bytes()
        assert main(["gen-data", "--config", str(fast_config_path), "--out", str(out), "--quiet"]) == 0
        assert (out / "train.jsonl").read_bytes() == first

    def test_train_eval_report_round_trip(self, tmp_path, fast_config_path, capsys):
        out = tmp_path / "runs"
        code = main(["train", "--config", str(fast_config_path), "--seed", "0", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        run_dir = summary["0"]["run_dir"]

        assert main(["report", "--run-dir", run_dir]) == 0
        report_out = json.loads(capsys.readouterr().out)
        raw_report = json.loads((tmp_path / "runs" / run_dir.split("/")[-1] / "report.json").read_text())
        # accuracy fields propagate byte-for-byte (identical repr)
        assert json.dumps(report_out["per_task_accuracy"]) == json.dumps(raw_report["per_task_accuracy"])
        assert report_out["overall_accuracy"] == raw_report["overall_accuracy"]

        assert main(["eval", "--run-dir", run_dir]) == 0
        eval_out = json.loads(capsys.readouterr().out)
        assert eval_out["per_task_accuracy"] == raw_report["per_task_accuracy"]

    @pytest.mark.parametrize("method", ["moe", "peft", "frozen"])
    def test_eval_round_trip_of_baseline_runs(self, tmp_path, fast_config_path, capsys, method):
        raw = json.loads(fast_config_path.read_text())
        raw["method"] = method
        path = tmp_path / f"{method}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "runs"
        assert main(["train", "--config", str(path), "--seed", "0", "--out", str(out), "--quiet"]) == 0
        run_dir = next(out.glob("run-*-s0"))
        report = json.loads((run_dir / "report.json").read_text())
        assert main(["eval", "--run-dir", str(run_dir)]) == 0
        eval_out = json.loads(capsys.readouterr().out)
        # the same floats, not merely close ones
        assert json.dumps(eval_out["per_task_accuracy"]) == json.dumps(report["per_task_accuracy"])
        assert json.dumps(eval_out["overall_accuracy"]) == json.dumps(report["overall_accuracy"])

    def test_eval_rejects_wrong_shape_centers_before_any_forward(self, tmp_path, fast_config_path, capsys,
                                                                 monkeypatch):
        from mjlab.model import Backbone
        from mjlab.tensor import save_tensor

        out = tmp_path / "runs"
        assert main(["train", "--config", str(fast_config_path), "--seed", "0", "--out", str(out), "--quiet"]) == 0
        run_dir = next(out.glob("run-*-s0"))
        save_tensor(run_dir / "router" / "centers_layer1.bin", np.zeros((3, 5)))
        forwards = []
        monkeypatch.setattr(Backbone, "forward", lambda *args, **kwargs: forwards.append(args))
        assert main(["eval", "--run-dir", str(run_dir), "--quiet"]) == 2
        assert "centers_layer1.bin" in capsys.readouterr().err
        assert forwards == []

    def test_pretrain_then_init_centers_reuses_backbone(self, tmp_path, fast_config_path, capsys):
        out = tmp_path / "stages"
        assert main(["pretrain", "--config", str(fast_config_path), "--out", str(out), "--quiet"]) == 0
        manifest = (out / "backbone" / "manifest.json").read_bytes()
        assert main(["init-centers", "--config", str(fast_config_path), "--out", str(out), "--quiet"]) == 0
        assert (out / "backbone" / "manifest.json").read_bytes() == manifest  # loaded, not rebuilt
        assert (out / "router" / "manifest.json").exists()
        assert any(out.glob("router/centers_layer*.bin"))

    def test_compare_emits_table(self, tmp_path, fast_config_path, capsys):
        out = tmp_path / "compare"
        assert main(["compare", "--config", str(fast_config_path), "--out", str(out), "--quiet"]) == 0
        table = json.loads((out / "shared_vs_specific.json").read_text())
        assert table["parity"] is True
        assert set(table["median_shared"]) == {"0", "1"}

    def test_failed_compare_write_keeps_the_previous_table(self, tmp_path, fast_config_path, monkeypatch):
        """A write failing mid-file leaves the earlier table byte-identical
        and no hidden sibling behind."""
        import mjlab.cli as cli

        out = tmp_path / "compare"
        out.mkdir()
        (out / "shared_vs_specific.json").write_text("{}")
        monkeypatch.setattr(cli, "shared_vs_specific", lambda cfg, worlds: {"rows": []})
        write_text = Path.write_text

        def fail_midway(self, text, *args, **kwargs):
            write_text(self, text[:5], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", fail_midway)
        assert main(["compare", "--config", str(fast_config_path), "--out", str(out), "--quiet"]) == 2
        monkeypatch.undo()
        assert (out / "shared_vs_specific.json").read_text() == "{}"
        assert [p.name for p in out.iterdir()] == ["shared_vs_specific.json"]

    def test_probe_csv(self, tmp_path, fast_config_path, capsys):
        out = tmp_path / "probe"
        assert main(["probe", "--config", str(fast_config_path), "--out", str(out), "--quiet"]) == 0
        lines = (out / "probe.csv").read_text().splitlines()
        assert lines[0] == "layer,selector,seed,train_acc,val_acc"
        assert len(lines) > 1

    def test_probe_layer_out_of_range_exits_1_before_compute(self, tmp_path, fast_config_path, capsys,
                                                             monkeypatch):
        _no_pretraining(monkeypatch)
        out = tmp_path / "probe"
        assert main(["probe", "--layer", "99", "--config", str(fast_config_path), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--layer 99" in err
        assert not out.exists()

    def test_ablate_csv(self, tmp_path, fast_config_path, capsys):
        out = tmp_path / "ablate"
        code = main(["ablate", "tau", "--values", "0.5,1.0", "--config", str(fast_config_path),
                     "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "ablation_tau.csv").read_text().splitlines()
        assert lines[0] == "axis,value,seed,task,accuracy,usage_rho_mean"
        assert len(lines) == 1 + 2 * 2  # 2 values x 2 tasks (1 seed)

    def test_ablate_unknown_axis_is_validation_error(self, fast_config_path, capsys):
        errors = []
        for axis in ("momentum", LONG):
            assert main(["ablate", axis, "--values", "1", "--config", str(fast_config_path), "--quiet"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[1].count("\n") == 1 and len(errors[1]) <= len(errors[0]) + 40, errors[1]


def _no_pretraining(monkeypatch):
    """Make any pretraining fail the test: the command must stop before compute."""
    import mjlab.cli as cli
    import mjlab.train as train

    def refuse(*args, **kwargs):
        raise AssertionError("pretrained a backbone")

    monkeypatch.setattr(train, "prepare_backbone", refuse)
    monkeypatch.setattr(cli, "prepare_backbone", refuse)  # cli imports it by name (`mjlab probe`)


def _csv_values(path) -> list[str]:
    with open(path, newline="") as fh:
        return [row["value"] for row in csv.DictReader(fh)]


class TestRunDirectories:
    def test_eval_without_backbone_exits_1_naming_it(self, tmp_path, fast_config_path, capsys, monkeypatch):
        out = tmp_path / "runs"
        assert main(["train", "--config", str(fast_config_path), "--seed", "0", "--out", str(out), "--quiet"]) == 0
        run_dir = next(out.glob("run-*-s0"))
        shutil.rmtree(run_dir / "backbone")
        _no_pretraining(monkeypatch)
        assert main(["eval", "--run-dir", str(run_dir), "--quiet"]) == 1
        assert str(run_dir / "backbone") in capsys.readouterr().err

    def test_init_centers_stop_step_matches_train(self, tmp_path, capsys):
        # 2 epochs of grad_accum 3 over an odd number of buckets: the last step is short
        raw = small_raw(data={"n_per_task": 24, "n_val_per_task": 12}, pretrain={"steps": 5},
                        router={"kmeans_samples": 200}, train={"epochs": 2, "batch_size": 8, "grad_accum": 3})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        runs, stages = tmp_path / "runs", tmp_path / "stages"
        assert main(["train", "--config", str(path), "--seed", "0", "--out", str(runs), "--quiet"]) == 0
        assert main(["init-centers", "--config", str(path), "--seed", "0", "--out", str(stages), "--quiet"]) == 0
        trained = json.loads(next(runs.glob("run-*-s0/router/manifest.json")).read_text())
        initial = json.loads((stages / "router" / "manifest.json").read_text())
        report = json.loads(next(runs.glob("run-*-s0/report.json")).read_text())
        assert {layer: meta["stop_step"] for layer, meta in initial.items()} == \
            {layer: meta["stop_step"] for layer, meta in trained.items()}
        assert initial["0"]["stop_step"] == int(round(0.6 * report["steps"]))
        assert initial == trained

    def test_init_centers_rejects_a_backbone_of_another_model(self, tmp_path, capsys, monkeypatch):
        narrow, wide = tmp_path / "narrow.json", tmp_path / "wide.json"
        narrow.write_text(json.dumps(small_raw(pretrain={"steps": 2})))
        wide.write_text(json.dumps(small_raw(model={"d_model": 24})))
        out = tmp_path / "stages"
        assert main(["pretrain", "--config", str(narrow), "--out", str(out), "--quiet"]) == 0
        import mjlab.train as train

        def refuse(*args, **kwargs):
            raise AssertionError("ran k-means")

        monkeypatch.setattr(train, "kmeans_init", refuse)
        _no_pretraining(monkeypatch)
        assert main(["init-centers", "--config", str(wide), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out / "backbone") in err
        assert "d_model=16" in err and "d_model=24" in err
        assert not (out / "router").exists()


class TestAblateValues:
    def test_parse_values(self):
        assert _parse_values("0.2,0.9") == [0.2, 0.9]  # scalars, as the benchmark passes them
        assert _parse_values("0,1,2;2,1,0") == [[0, 1, 2], [2, 1, 0]]
        assert _parse_values("o;o,gate") == [["o"], ["o", "gate"]]
        assert _parse_values("0,1;") == [[0, 1]]

    def test_permutation_takes_list_values(self, tmp_path, fast_config_path, capsys):
        out = tmp_path / "ablate"
        assert main(["ablate", "permutation", "--values", "0,1,2;2,1,0", "--config", str(fast_config_path),
                     "--out", str(out), "--quiet"]) == 0
        assert _csv_values(out / "ablation_permutation.csv") == ["[0, 1, 2]"] * 2 + ["[2, 1, 0]"] * 2

    def test_shared_runs_one_value_per_semicolon(self, tmp_path, fast_config_path, capsys):
        out = tmp_path / "ablate"
        assert main(["ablate", "shared", "--values", "o;o,gate", "--config", str(fast_config_path),
                     "--out", str(out), "--quiet"]) == 0
        assert _csv_values(out / "ablation_shared.csv") == ['["o"]'] * 2 + ['["o", "gate"]'] * 2

    @pytest.mark.parametrize("axis, values", [
        ("permutation", "0,1,2"),  # three scalars, not one list
        ("permutation", "a,b;c"),
        ("routed_layers", "0;x"),
        ("beta", "0.2;0.9"),  # two lists
        ("rank", "x"),
        ("tau", "0,1;2"),
        ("topk", "1.5"),  # a fraction for an integer field is not rounded
        ("rank", "2.5"),
        ("update_every", "2.5"),
        ("permutation", "0,1,2.5;2,1,0"),
        ("routed_layers", "0.5;1"),
        ("tau", "nan"),
        ("tau", "1" + "0" * 400),
    ])
    def test_malformed_values_exit_1_before_compute(self, axis, values, tmp_path, fast_config_path, capsys,
                                                    monkeypatch):
        _no_pretraining(monkeypatch)
        out = tmp_path / "ablate"
        assert main(["ablate", axis, "--values", values, "--config", str(fast_config_path),
                     "--out", str(out), "--quiet"]) == 1
        assert repr(axis) in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_indivisible_or_rankless_exits_1_before_compute(self, tmp_path, capsys, monkeypatch):
        _no_pretraining(monkeypatch)
        out = tmp_path / "compare"
        assert main(["compare", "--out", str(out), "--quiet"]) == 1  # default: rank 2 over 3 tasks
        assert "divisible" in capsys.readouterr().err
        for adapter, message in (({"r": 3}, "divisible"), ({"variant": "propulsion"}, "LoRA-family")):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(small_raw(adapter=adapter)))
            assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == 1
            assert message in capsys.readouterr().err
        assert not out.exists()


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mjlab.cli", "oracle", "rank", "--quiet"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert "rank_mj=2" in proc.stdout
