import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sagad import chebyshev, cli, context, csbm, graph, model, training
from sagad.cli import dispatch, main, parse_config
from sagad.errors import CacheFormatError, ConfigError, DatasetFormatError


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_parse_identity(self, tmp_path):
        path = write_config(tmp_path, {"K": 4, "p_a": 0.1, "p_n": 0.9})
        cfg = parse_config(path)
        assert cfg.K == 4
        assert cfg.p_a == 0.1
        assert cfg.p_n == 0.9

    def test_constraint_violation_rejected(self, tmp_path):
        path = write_config(tmp_path, {"p_a": 0.9, "p_n": 0.1})
        with pytest.raises(ConfigError, match="p_a"):
            parse_config(path)

    def test_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path, {"lr": 0.001})
        cfg = parse_config(path, {"lr": "0.01"})
        assert cfg.lr == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"not_a_key": 1})
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    @pytest.mark.parametrize("key,value", [
        ("add_self_loops", "false"), ("clamp_eps", "1e-7"), ("beta_override", "2"),
    ])
    def test_deleted_keys_are_rejected(self, tmp_path, capsys, key, value):
        with pytest.raises(SystemExit) as err:
            main(["validate", f"--{key.replace('_', '-')}", value])
        assert err.value.code == 2
        capsys.readouterr()
        config = write_config(tmp_path, {key: value})
        for argv in (["--config", config], ["--set", f"{key}={value}"]):
            assert main(["validate", *argv]) == 1
            assert capsys.readouterr().err == f"error: unknown config key: {key}\n"

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"csbm": {"bogus": 1}})
        with pytest.raises(ConfigError, match="csbm.bogus"):
            parse_config(path)

    def test_nested_override(self):
        cfg = parse_config(None, {"csbm.n_a": "12", "csbm.n_n": "88"})
        assert cfg.csbm.n_a == 12
        assert cfg.csbm.n_n == 88

    def test_bool_flag_coercion(self):
        cfg = parse_config(None, {"use_fpg": "false"})
        assert cfg.use_fpg is False
        with pytest.raises(ConfigError, match="true/false"):
            parse_config(None, {"use_fpg": "maybe"})

    def test_defaults_are_valid(self):
        parse_config(None).validate()


class TestConfigDerivation:
    def test_defaults_match_the_sections(self):
        assert cli.RunConfig().model_config() == model.ModelConfig()
        assert cli.RunConfig().train_config() == training.TrainConfig()

    def test_every_section_field_is_a_run_config_key(self):
        keys = {f.name for f in dataclasses.fields(cli.RunConfig)}
        for section in (model.ModelConfig, training.TrainConfig):
            missing = {f.name for f in dataclasses.fields(section)} - keys
            assert not missing, f"{section.__name__} fields without a RunConfig key: {missing}"

    def test_section_fields_are_declared_once(self):
        own = set(cli.RunConfig.__annotations__)  # this class's declarations only
        for section in (model.ModelConfig, training.TrainConfig):
            assert not own & {f.name for f in dataclasses.fields(section)}

    def test_values_reach_the_sections(self):
        cfg = parse_config(None, {"hidden_dim": "8", "dropout": "0.25", "lr": "0.5",
                                  "patience": "7", "use_fpg": "false"})
        assert cfg.model_config() == model.ModelConfig(hidden_dim=8, dropout=0.25, use_fpg=False)
        assert cfg.train_config() == training.TrainConfig(lr=0.5, patience=7)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """A small synthetic dataset plus a finished preprocess+context+train run."""
    tmp = tmp_path_factory.mktemp("cli")
    data_dir = str(tmp / "data")
    run_dir = str(tmp / "run")
    cfg = parse_config(None, {
        "dataset": data_dir,
        "run_dir": run_dir,
        "max_epochs": "30",
        "patience": "30",
        "csbm.n_a": "40",
        "csbm.n_n": "360",
        "csbm.num_splits": "2",
        "csbm.labeled_anomalies": "10",
        "csbm.labeled_normals": "40",
        "csbm.p1": "0.08",
        "csbm.q1": "0.01",
        "csbm.p2": "0.01",
        "csbm.q2": "0.08",
    })
    assert dispatch("synth-csbm", cfg) == 0
    assert dispatch("preprocess", cfg) == 0
    assert dispatch("sample-context", cfg) == 0
    assert dispatch("train", cfg) == 0
    return cfg


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 300-node dataset with its own caches, to pair with the 400-node toy run."""
    tmp = tmp_path_factory.mktemp("small")
    cfg = parse_config(None, {
        "dataset": str(tmp / "data"),
        "run_dir": str(tmp / "run"),
        "csbm.n_a": "30",
        "csbm.n_n": "270",
        "csbm.num_splits": "1",
        "csbm.labeled_anomalies": "10",
        "csbm.labeled_normals": "40",
    })
    for command in ("synth-csbm", "preprocess", "sample-context"):
        assert dispatch(command, cfg) == 0
    return cfg


def _run_with_caches(run_dir, data_cfg, cheb_cfg, ctx_cfg):
    """A run of data_cfg's dataset on the basis cache of cheb_cfg's run and
    the context cache of ctx_cfg's run."""
    os.makedirs(run_dir)
    shutil.copy(os.path.join(cheb_cfg.run_dir, "cheb_cache.bin"), run_dir)
    shutil.copy(os.path.join(ctx_cfg.run_dir, "context_cache.bin"), run_dir)
    return dataclasses.replace(data_cfg, run_dir=str(run_dir))


class TestPipeline:
    def test_validate_command(self, toy_run, capsys):
        assert dispatch("validate", toy_run) == 0
        out = capsys.readouterr().out
        assert "400 nodes" in out

    def test_eval_writes_report(self, toy_run):
        assert dispatch("eval", toy_run) == 0
        report = os.path.join(toy_run.run_dir, "report.csv")
        assert os.path.exists(report)
        lines = read(report).strip().splitlines()
        assert lines[0] == "split,metric,value"
        metrics = {line.split(",")[1] for line in lines[1:]}
        assert {"auroc", "auprc", "rec_at_k"} <= metrics

    def test_eval_summary_aggregates_splits(self, toy_run, tmp_path):
        import dataclasses

        dispatch("eval", toy_run)
        dispatch("train", dataclasses.replace(toy_run, split_index=1))
        dispatch("eval", dataclasses.replace(toy_run, split_index=1))
        summary = os.path.join(toy_run.run_dir, "summary.csv")
        lines = read(summary).strip().splitlines()
        assert lines[0] == "metric,splits,mean,std"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["auroc"][1] == "2"  # aggregated over both splits
        report_lines = read(os.path.join(toy_run.run_dir, "report.csv")).splitlines()
        vals = [float(l.split(",")[2]) for l in report_lines[1:] if l.split(",")[1] == "auroc"]
        assert float(rows["auroc"][2]) == pytest.approx(np.mean(vals))
        assert float(rows["auroc"][3]) == pytest.approx(np.std(vals))

    def test_score_writes_all_nodes(self, toy_run):
        assert dispatch("score", toy_run) == 0
        path = os.path.join(toy_run.run_dir, "scores_0.csv")
        lines = read(path).strip().splitlines()
        assert len(lines) == 401  # header + one row per node

    def test_score_rows_are_exact_floats(self, toy_run):
        assert dispatch("score", toy_run) == 0
        state = model.load_checkpoint(os.path.join(toy_run.run_dir, "checkpoint_0.bin"))
        with chebyshev.read_cache(os.path.join(toy_run.run_dir, "cheb_cache.bin")) as cheb, \
                context.read_context_cache(os.path.join(toy_run.run_dir, "context_cache.bin")) as ctx:
            expected = training.score_all(state, cheb, ctx)
        lines = read(os.path.join(toy_run.run_dir, "scores_0.csv")).splitlines()
        assert lines[0] == "node_id,score"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in rows] == list(range(len(expected)))
        assert [float(v) for _, v in rows] == expected.tolist()

    def test_quartiles_written(self, toy_run):
        assert dispatch("quartiles", toy_run) == 0
        path = os.path.join(toy_run.run_dir, "quartiles.csv")
        lines = read(path).strip().splitlines()
        assert lines[0] == "group,auprc,auroc"
        assert len(lines) == 8  # 4 quartiles + 3 gap rows

    def test_homophily_command(self, toy_run, capsys):
        assert dispatch("homophily", toy_run) == 0
        out = capsys.readouterr().out
        assert "edge homophily" in out
        assert os.path.exists(os.path.join(toy_run.run_dir, "homophily.csv"))

    def test_config_persisted_next_to_outputs(self, toy_run):
        path = os.path.join(toy_run.run_dir, "config_train.json")
        payload = json.loads(read(path))
        assert payload["_command"] == "train"
        assert payload["dataset"] == toy_run.dataset

    def test_missing_prerequisite_names_file(self, toy_run, tmp_path):
        cfg = parse_config(None, {
            "dataset": toy_run.dataset,
            "run_dir": str(tmp_path / "fresh_run"),
        })
        with pytest.raises(ConfigError, match="cheb_cache.bin"):
            dispatch("train", cfg)

    def test_train_rerun_reproduces_history(self, toy_run, tmp_path):
        rerun_dir = str(tmp_path / "rerun")
        cfg_json = json.loads(read(os.path.join(toy_run.run_dir, "config_train.json")))
        cfg_json.pop("_command")
        cfg_json.pop("_tie_policy")
        cfg_json["run_dir"] = rerun_dir
        split = cfg_json["split_index"]
        first = read(os.path.join(toy_run.run_dir, f"history_{split}.csv"))
        cfg = parse_config(None, {})
        from sagad.cli import _apply_mapping

        _apply_mapping(cfg, cfg_json)
        dispatch("preprocess", cfg)
        dispatch("sample-context", cfg)
        dispatch("train", cfg)
        second = read(os.path.join(rerun_dir, f"history_{split}.csv"))
        assert first == second

    def test_split_index_out_of_range(self, toy_run):
        import dataclasses

        cfg = dataclasses.replace(toy_run, split_index=9)
        with pytest.raises(ConfigError, match="out of range"):
            dispatch("eval", cfg)


class TestTouchOnce:
    def test_train_eval_score_read_no_graph_file(self, toy_run, tmp_path):
        """After preprocess and sample-context, edges.tsv and the features
        are never read again: garbage there changes no output byte."""
        outputs = {}
        for name in ("intact", "garbage"):
            data_dir = tmp_path / f"data_{name}"
            shutil.copytree(toy_run.dataset, data_dir)
            if name == "garbage":
                (data_dir / "edges.tsv").write_text("not\tan\tedge\n")
                (data_dir / "features.bin").write_bytes(b"garbage")
            cfg = _run_with_caches(tmp_path / f"run_{name}", toy_run, toy_run, toy_run)
            cfg = dataclasses.replace(cfg, dataset=str(data_dir))
            for command in ("train", "eval", "score"):
                assert dispatch(command, cfg) == 0
            outputs[name] = {
                f: read(os.path.join(cfg.run_dir, f), "rb")
                for f in ("checkpoint_0.bin", "history_0.csv", "report.csv", "scores_0.csv")
            }
        assert outputs["garbage"] == outputs["intact"]
        with pytest.raises(DatasetFormatError):
            dispatch("validate", cfg)


class TestCacheMatchesDataset:
    def test_cache_larger_than_dataset_rejected(self, toy_run, small_run, tmp_path):
        cfg = _run_with_caches(tmp_path / "run", small_run, toy_run, toy_run)
        with pytest.raises(CacheFormatError, match="cheb_cache.bin n=400 .* num_nodes=300"):
            dispatch("train", cfg)

    def test_cache_smaller_than_dataset_rejected(self, toy_run, small_run, tmp_path):
        cfg = _run_with_caches(tmp_path / "run", toy_run, small_run, small_run)
        with pytest.raises(CacheFormatError, match="cheb_cache.bin n=300 .* num_nodes=400"):
            dispatch("train", cfg)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_context_cache_node_count_checked(self, toy_run, small_run, tmp_path, command):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, small_run)
        with pytest.raises(CacheFormatError, match="context_cache.bin n=300 .* num_nodes=400"):
            dispatch(command, cfg)

    def test_feature_dim_checked(self, toy_run, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(toy_run.dataset, data_dir)
        meta = json.loads((data_dir / "meta.json").read_text())
        meta["num_features"] = 7
        (data_dir / "meta.json").write_text(json.dumps(meta))
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        cfg = dataclasses.replace(cfg, dataset=str(data_dir))
        with pytest.raises(CacheFormatError, match="cheb_cache.bin d=16 .* num_features=7"):
            dispatch("eval", cfg)


class TestCacheOrder:
    def test_cache_order_must_match_K(self, toy_run, tmp_path, capsys):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        with pytest.raises(CacheFormatError, match="K=3 does not match the config's K=5"):
            dispatch("train", dataclasses.replace(cfg, K=5))
        rc = main(["train", "--dataset", cfg.dataset, "--run-dir", cfg.run_dir, "--K", "5"])
        assert rc == 1
        assert "error: cheb_cache.bin K=3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "score", "quartiles"])
    def test_checkpoint_order_must_match_cache(self, toy_run, tmp_path, command):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)
        cfg = dataclasses.replace(cfg, K=5)
        assert dispatch("preprocess", cfg) == 0
        with pytest.raises(CacheFormatError, match="trained with K=3, but cheb_cache.bin has K=5"):
            dispatch(command, cfg)

    @pytest.mark.parametrize("command", ["eval", "score", "quartiles"])
    def test_checkpoint_K_needs_no_flag(self, toy_run, tmp_path, command):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        cfg = dataclasses.replace(cfg, K=5, max_epochs=3, patience=3)
        for step in ("preprocess", "train", command):
            assert dispatch(step, cfg) == 0
        output = os.path.join(cfg.run_dir, {"eval": "report.csv", "score": "scores_0.csv",
                                            "quartiles": "quartiles.csv"}[command])
        with_flag = read(output)
        os.remove(output)
        assert main([command, "--dataset", cfg.dataset, "--run-dir", cfg.run_dir]) == 0
        assert read(output) == with_flag


class TestCheckpointConfigDecidesCaches:
    """eval, score and quartiles score with the checkpoint's model config,
    so it, not the flags, decides whether context_cache.bin is opened."""

    @pytest.mark.parametrize("command", ["eval", "score", "quartiles"])
    def test_features_only_flags_on_rq_checkpoint(self, toy_run, tmp_path, command):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)
        outputs = {"eval": "report.csv", "score": "scores_0.csv", "quartiles": "quartiles.csv"}
        written = []
        for mode in ("features_only", "rq"):
            assert dispatch(command, dataclasses.replace(cfg, context_mode=mode)) == 0
            written.append(read(os.path.join(cfg.run_dir, outputs[command])))
        assert written[0] == written[1]

    @pytest.mark.parametrize("command", ["eval", "score", "quartiles"])
    def test_features_only_checkpoint_needs_no_context_cache(self, toy_run, tmp_path, command):
        run_dir = tmp_path / "run"
        os.makedirs(run_dir)
        shutil.copy(os.path.join(toy_run.run_dir, "cheb_cache.bin"), run_dir)
        cfg = dataclasses.replace(toy_run, run_dir=str(run_dir), context_mode="features_only")
        assert dispatch("train", cfg) == 0
        assert not (run_dir / "context_cache.bin").exists()
        assert dispatch(command, dataclasses.replace(cfg, context_mode="rq")) == 0


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("content", [
        model.CHECKPOINT_MAGIC + b"\x00\x00",  # cut after the magic: a 10-byte file
        model.CHECKPOINT_MAGIC + (5).to_bytes(8, "little") + b"{bad}",
    ])
    def test_eval_exits_1(self, toy_run, tmp_path, capsys, content):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        with open(os.path.join(cfg.run_dir, "checkpoint_0.bin"), "wb") as f:
            f.write(content)
        rc = main(["eval", "--dataset", cfg.dataset, "--run-dir", cfg.run_dir])
        assert rc == 1
        assert "error: " in capsys.readouterr().err


class TestSplitErrors:
    """A split a command cannot use exits 1 with one error line, before any output
    and, for eval and quartiles, before any node is scored."""

    @pytest.mark.parametrize("command,split,message,outputs", [
        ("train", {"train": [*range(5), *range(40, 60)], "val": [], "test": [*range(100, 400)]},
         "train and val splits must be non-empty", ["checkpoint_0.bin", "history_0.csv"]),
        ("train", {"train": [*range(40, 60)], "val": [*range(60, 70)], "test": [*range(100, 400)]},
         "labeled set must contain both classes", ["checkpoint_0.bin", "history_0.csv"]),
        ("eval", {"train": [*range(5), *range(40, 60)], "val": [*range(5, 10), *range(60, 80)],
                  "test": [*range(100, 400)]},
         "auroc requires both classes present", ["report.csv", "summary.csv"]),
        ("eval", {"train": [*range(5), *range(40, 60)], "val": [*range(5, 10), *range(60, 80)],
                  "test": [10, 11, *range(100, 400)], "unlabeled": [150]},
         "test split contains unlabeled nodes", ["report.csv", "summary.csv"]),
        ("quartiles", {"train": [*range(5), *range(40, 60)], "val": [*range(5, 10), *range(60, 80)],
                       "test": [10, 11, 12, *range(100, 400)]},
         "need at least 4 test anomalies", ["quartiles.csv"]),
    ])
    def test_exits_1(self, toy_run, tmp_path, capsys, monkeypatch, command, split, message,
                     outputs):
        data_dir = tmp_path / "data"
        shutil.copytree(toy_run.dataset, data_dir)
        unlabeled = split.get("unlabeled", [])
        (data_dir / "splits.json").write_text(json.dumps([{
            part: split[part] for part in ("train", "val", "test")}]))
        labels = np.loadtxt(data_dir / "labels.csv", delimiter=",", dtype=np.int64)
        np.savetxt(data_dir / "labels.csv", labels[~np.isin(labels[:, 0], unlabeled)],
                   fmt="%d", delimiter=",")
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        if command != "train":
            shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)

            def no_scoring(*args, **kwargs):
                raise AssertionError("scored before the split was checked")

            monkeypatch.setattr(training, "score_all", no_scoring)
        rc = main([command, "--dataset", str(data_dir), "--run-dir", cfg.run_dir,
                   "--max-epochs", "3", "--patience", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        for name in outputs:
            assert not os.path.exists(os.path.join(cfg.run_dir, name)), name

    @pytest.mark.parametrize("key,value,message", [
        ("labeled_anomalies", 40, "csbm.labeled_anomalies must lie in [0, 30] (csbm.n_a), got 40"),
        ("labeled_anomalies", -1, "csbm.labeled_anomalies must lie in [0, 30] (csbm.n_a), got -1"),
        ("labeled_normals", 101, "csbm.labeled_normals must lie in [0, 100] (csbm.n_n), got 101"),
    ])
    def test_labeled_budget_outside_class_size_exits_1(self, tmp_path, capsys, key, value,
                                                        message):
        rc = main(["synth-csbm", "--dataset", str(tmp_path / "data"), "--set", "csbm.n_a=30",
                   "--set", "csbm.n_n=100", "--set", f"csbm.{key}={value}"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "data").exists()


class TestMissingRunDir:
    @pytest.mark.parametrize("command", ["preprocess", "sample-context", "train", "eval", "score",
                                         "quartiles", "csbm-sweep"])
    def test_exits_1(self, toy_run, capsys, command):
        assert main([command, "--dataset", toy_run.dataset]) == 1
        assert capsys.readouterr().err == "error: no run directory configured (set 'run_dir')\n"


class TestMalformedInputs:
    """A dataset file or report.csv that does not parse exits 1 with one
    error line naming the file, before any output is written."""

    @pytest.mark.parametrize("name,content,message", [
        ("meta.json", "{not json", "meta.json is not valid JSON"),
        ("meta.json", json.dumps({"name": "toy", "num_nodes": "4OO", "num_features": 16}),
         "meta.json: num_nodes must be an integer >= 0, got '4OO'"),
        ("meta.json", json.dumps({"name": "toy", "num_nodes": -1, "num_features": 16}),
         "meta.json: num_nodes must be an integer >= 0, got -1"),
        ("splits.json", "[{", "splits.json is not valid JSON"),
        ("splits.json", json.dumps([{"train": ["a"], "val": [], "test": []}]),
         "splits.json entry 0: invalid literal"),
        ("report.csv", "split,metric,value\nzero,auroc,0.5\n", "report.csv line 2: expected"),
    ], ids=["meta-not-json", "meta-text-num-nodes", "meta-negative-num-nodes",
            "splits-not-json", "splits-text-id", "report-text-split"])
    def test_eval_exits_1(self, toy_run, tmp_path, capsys, name, content, message):
        data_dir = tmp_path / "data"
        shutil.copytree(toy_run.dataset, data_dir)
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)
        directory = cfg.run_dir if name == "report.csv" else data_dir
        with open(os.path.join(directory, name), "w") as f:
            f.write(content)
        assert main(["eval", "--dataset", str(data_dir), "--run-dir", cfg.run_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not os.path.exists(os.path.join(cfg.run_dir, "summary.csv"))


class TestSynthCsbmFiles:
    def test_regimes_match_line_at_a_time_writer(self, toy_run):
        regimes = csbm.generate_csbm(toy_run.csbm.to_params()).regimes
        # the line-at-a-time writer regimes.csv came from before
        text = "node_id,regime\n" + "".join(f"{i},{int(r)}\n" for i, r in enumerate(regimes))
        assert read(os.path.join(toy_run.dataset, "regimes.csv"), "rb") == text.encode()


class TestBenchmarkSpans:
    """perfbench/spans.py wraps sagad functions by name; renaming or deleting
    one of them must fail here, not only in the traced benchmark run."""

    def test_every_wrapped_attribute_exists(self):
        # the benchmark's traced run wraps package functions by module
        # attribute; a renamed one would fail every traced command
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        driver = "import spans\nspans.install(spans.Recorder())\n"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "perfbench"), os.path.join(root, "src")]))
        proc = subprocess.run([sys.executable, "-c", driver], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_layers_are_recorded(self, toy_run, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        args = ["--dataset", cfg.dataset, "--run-dir", cfg.run_dir, "--max-epochs", "3",
                "--patience", "3"]
        argvs = [[command, *args] for command in ("preprocess", "train", "score")]
        driver = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import spans\n"
            "from sagad import cli\n"
            "rec = spans.Recorder()\n"
            "spans.install(rec)\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]\n"
            "print(json.dumps({'codes': codes, 'names': sorted({s['name'] for s in rec.spans})}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", driver, os.path.join(root, "perfbench"), json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["codes"] == [0, 0, 0]
        for name in ("model.forward_bundle", "training.loss_and_grads_bundle",
                     "model.mlp_forward", "graph.normalized_adjacency"):
            assert name in result["names"]


class TestConfigValues:
    @pytest.mark.parametrize("flag,value,key", [
        ("--cap", "abc", "cap"), ("--lr", "x", "lr"),
        ("--lr", "nan", "lr"), ("--weight-decay", "nan", "weight_decay"),
        ("--lr", "inf", "lr"),
    ])
    def test_non_numeric_flag_exits_1(self, flag, value, key, capsys):
        assert main(["validate", flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: expected")

    @pytest.mark.parametrize("argv,message", [
        (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["sample-context", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["synth-csbm", "--set", "csbm.seed=-1"], "csbm.seed must be >= 0, got -1"),
        (["csbm-sweep", "--set", "sweep.seeds=0,-2"], "sweep.seeds must be >= 0, got -2"),
        (["train", "--hidden-dim", "0"], "hidden_dim must be >= 1, got 0"),
        (["train", "--hidden-dim", "-3"], "hidden_dim must be >= 1, got -3"),
        (["train", "--patience", "0"], "patience must be >= 1, got 0"),
        (["train", "--patience", "-2"], "patience must be >= 1, got -2"),
        (["csbm-sweep", "--set", "sweep.dims=4,0", "--set", "sweep.n=200",
          "--set", "sweep.seeds=0"],
         "sweep.dims must be >= 1, got 0"),
        (["csbm-sweep", "--set", "sweep.prior_mode=foo", "--set", "sweep.n=200"],
         "sweep.prior_mode must be one of lda, quoted, none, got 'foo'"),
        (["csbm-sweep", "--set", "sweep.n=200", "--set", "sweep.anomaly_frac=0.001"],
         "sweep.anomaly_frac=0.001 gives round(sweep.n * sweep.anomaly_frac) outside [1, 199]; "
         "both classes need a node"),
        (["csbm-sweep", "--set", "sweep.n=200", "--set", "sweep.anomaly_frac=0.999"],
         "sweep.anomaly_frac=0.999 gives round(sweep.n * sweep.anomaly_frac) outside [1, 199]; "
         "both classes need a node"),
        (["csbm-sweep", "--set", "sweep.anomaly_frac=1e308"],
         "sweep.anomaly_frac=1e+308 gives round(sweep.n * sweep.anomaly_frac) outside [1, 3999]; "
         "both classes need a node"),
        (["synth-csbm", "--set", "csbm.dim=-1"], "csbm.dim must be >= 1, got -1"),
        (["synth-csbm", "--set", "csbm.dim=0"], "csbm.dim must be >= 1, got 0"),
    ])
    def test_out_of_range_value_exits_1(self, tmp_path, argv, message, capsys):
        rc = main([*argv, "--dataset", str(tmp_path / "data"), "--run-dir", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("payload", [
        {"K": "three"}, {"lr": [1]}, {"sweep": {"dims": "16,x"}},
        {"sweep": {"seeds": [1, "a"]}}, {"sweep": {"seeds": 3}},
    ])
    def test_non_numeric_file_value_rejected(self, tmp_path, payload):
        with pytest.raises(ConfigError, match="expected"):
            parse_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("command", ["train", "eval", "score"])
    def test_batch_size_below_one_rejected_before_reading(self, tmp_path, command, capsys,
                                                          monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("file read")

        monkeypatch.setattr(cli.graph, "load_supervision", no_read)
        monkeypatch.setattr(cli.chebyshev, "read_cache", no_read)
        rc = main([command, "--dataset", str(tmp_path / "data"),
                   "--run-dir", str(tmp_path / "run"), "--batch-size", "0"])
        assert rc == 1
        assert "batch_size must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestProcessMemory:
    """`train` and `score` read cache rows, not whole caches: their peak
    allocation barely grows when the caches grow tenfold."""

    D, K = 32, 3

    def _write_run(self, base, n):
        rng = np.random.default_rng(n)
        data, run = base / f"data{n}", base / f"run{n}"
        data.mkdir()
        run.mkdir()
        (data / "meta.json").write_text(
            json.dumps({"name": f"mem{n}", "num_nodes": n, "num_features": self.D}))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, n // 20, replace=False)] = 1
        (data / "labels.csv").write_text(
            "".join(f"{i},{y}\n" for i, y in enumerate(labels.tolist())))
        anom, norm = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
        rest = np.setdiff1d(np.arange(n), np.concatenate([anom[:20], norm[:80]]))
        split = {"train": anom[:10].tolist() + norm[:40].tolist(),
                 "val": anom[10:20].tolist() + norm[40:80].tolist(),
                 "test": np.sort(rng.choice(rest, 1000, replace=False)).tolist()}
        (data / "splits.json").write_text(json.dumps([split]))
        blocks = [rng.standard_normal((n, self.D), dtype=np.float32) for _ in range(self.K + 1)]
        chebyshev.write_cache(chebyshev.ChebBasisCache(self.K, n, self.D, blocks),
                              run / "cheb_cache.bin")
        del blocks
        ctx = context.ContextCache(n, self.D, rng.standard_normal((n, self.D), dtype=np.float32),
                                   np.ones(n, dtype=np.int64))
        context.write_context_cache(ctx, run / "context_cache.bin")
        cache_bytes = sum(os.path.getsize(run / f) for f in ("cheb_cache.bin", "context_cache.bin"))
        return ["--dataset", str(data), "--run-dir", str(run), "--K", str(self.K)], cache_bytes

    @staticmethod
    def _peak(argv) -> int:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_cache_size(self, tmp_path, capsys):
        peaks, cache_bytes = {}, {}
        for n in (20_000, 200_000):
            args, cache_bytes[n] = self._write_run(tmp_path, n)
            peaks[n] = {
                "train": self._peak(["train", *args, "--max-epochs", "3", "--patience", "3"]),
                "score": self._peak(["score", *args]),
            }
        capsys.readouterr()
        growth = cache_bytes[200_000] - cache_bytes[20_000]
        for command in ("train", "score"):
            extra = peaks[200_000][command] - peaks[20_000][command]
            assert extra < 0.1 * growth, (
                f"{command} peak grew {extra / 1e6:.1f} MB for {growth / 1e6:.1f} MB more cache")


class TestScoreFaults:
    """An eval-mode forward keeps no backward trace, so a batch's arrays do
    not pile up: the allocator reuses one batch's memory for the next
    instead of returning it to the kernel and faulting it back in. The
    minor page faults of a fresh `score` process then barely grow with n
    (a per-batch trace cost about 660 faults per 1,000 rows)."""

    MAX_FAULTS_PER_1000_ROWS = 50

    def test_faults_do_not_grow_with_rows(self, tmp_path, capsys):
        resource = pytest.importorskip("resource")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        faults = {}
        for n in (20_000, 200_000):
            args, _ = TestProcessMemory()._write_run(tmp_path, n)
            assert main(["train", *args, "--max-epochs", "3", "--patience", "3"]) == 0
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            # a fresh process: its heap has not been grown by earlier commands
            proc = subprocess.run([sys.executable, "-m", "sagad.cli", "score", *args],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            faults[n] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        capsys.readouterr()
        if faults[20_000] <= 0:
            pytest.skip("this platform does not count minor page faults")
        per_1000 = (faults[200_000] - faults[20_000]) / 180
        assert per_1000 < self.MAX_FAULTS_PER_1000_ROWS, (
            f"score took {faults[20_000]} minor faults at n=20k and {faults[200_000]} "
            f"at n=200k: {per_1000:.0f} per 1,000 extra rows")


class TestSetupMemory:
    """`preprocess` streams the basis and `sample-context` pools in row
    chunks: beyond the features and the graph, each holds two n*d f64
    buffers, whatever the size of the caches they write."""

    D, K, HEADROOM = 32, 3, 16e6  # headroom: parsing labels/splits, chunk buffers

    def _write_dataset(self, base, n):
        rng = np.random.default_rng(n)
        adj = graph.SparseAdjacency.from_edges(n, rng.integers(0, n, (4 * n, 2)))
        labels = (rng.random(n) < 0.05).astype(np.int8)
        ids = rng.permutation(n)
        split = graph.SplitSet(train=ids[:50], val=ids[50:100], test=ids[100:1100])
        ds = graph.GraphDataset(adj, rng.standard_normal((n, self.D), dtype=np.float32),
                                labels, [split], f"setup{n}")
        graph.write_dataset(ds, base / f"data{n}")
        csr = adj.csr
        # what the bound allows: features, the graph, two n*d f64 buffers
        allowed = (ds.features.nbytes + csr.data.nbytes + csr.indices.nbytes
                   + csr.indptr.nbytes + 2 * n * self.D * 8)
        return ["--dataset", str(base / f"data{n}"), "--run-dir", str(base / f"run{n}"),
                "--K", str(self.K), "--context-mode", "full_khop"], allowed

    def test_peak_grows_by_two_work_buffers_at_most(self, tmp_path, capsys):
        peaks, allowed = {}, {}
        for n in (20_000, 200_000):
            args, allowed[n] = self._write_dataset(tmp_path, n)
            peaks[n] = {command: TestProcessMemory._peak([command, *args])
                        for command in ("preprocess", "sample-context")}
        capsys.readouterr()
        bound = allowed[200_000] - allowed[20_000] + self.HEADROOM
        for command in ("preprocess", "sample-context"):
            extra = peaks[200_000][command] - peaks[20_000][command]
            assert extra < bound, (
                f"{command} peak grew {extra / 1e6:.1f} MB, allowed {bound / 1e6:.1f} MB")


class TestSamplerConfig:
    def test_hop_is_an_unknown_key(self, tmp_path):
        path = write_config(tmp_path, {"hop": 1})
        with pytest.raises(ConfigError, match="unknown config key: hop"):
            parse_config(path)

    def test_hop_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sample-context", "--hop", "2"])
        assert err.value.code != 0
        assert "--hop" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_rejected_before_reading(self, tmp_path, cap, capsys, monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("dataset read")

        monkeypatch.setattr(cli.graph, "load_dataset", no_read)
        rc = main(["sample-context", "--dataset", str(tmp_path / "data"),
                   "--run-dir", str(tmp_path / "run"), "--cap", cap])
        assert rc == 1
        assert f"cap must be >= 1, got {cap}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_cap_one_accepted(self):
        assert parse_config(None, {"cap": "1"}).cap == 1


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_example_lines():
    """Every `sagad ...` line of the README's end-to-end example block."""
    text = read(README)
    block = text.split("End-to-end example", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [line.split() for line in block.splitlines() if line.startswith("sagad ")]


class TestReadmeExample:
    def test_example_has_the_pipeline(self):
        commands = [argv[1] for argv in readme_example_lines()]
        for command in ("synth-csbm", "preprocess", "sample-context", "train", "eval"):
            assert command in commands

    @pytest.mark.parametrize("argv", readme_example_lines(), ids=lambda a: a[1])
    def test_example_line_parses(self, argv):
        args = cli._build_parser().parse_args(argv[1:])
        assert args.command == argv[1]
        assert args.dataset and args.run_dir


class TestReadmeConfigTable:
    def test_table_names_every_key(self):
        table = read(README).split("### Key config fields", 1)[1].split("\n## ", 1)[0]
        named = set()
        for row in table.splitlines():
            if row.startswith("| `"):
                named.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
        keys = {f.name for f in dataclasses.fields(cli.RunConfig)} - {"csbm", "sweep"}
        assert named == keys | {"csbm.*", "sweep.*"}


class TestCsbmSweep:
    def test_sweep_writes_csv(self, tmp_path):
        cfg = parse_config(None, {
            "run_dir": str(tmp_path / "sweep"),
            "sweep.dims": "8,16",
            "sweep.seeds": "0",
            "sweep.n": "300",
        })
        assert dispatch("csbm-sweep", cfg) == 0
        path = os.path.join(cfg.run_dir, "csbm_sweep.csv")
        lines = read(path).strip().splitlines()
        assert lines[0].startswith("seed,d,n,p1,q1,p2,q2,pi_a,regime_frac,kappa_eff")
        assert len(lines) == 3  # header + 2 dims x 1 seed
        for line in lines[1:]:
            fields = line.split(",")
            assert 0.0 <= float(fields[11]) <= 1.0  # accuracy column


class TestMainEntry:
    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code != 0

    def test_error_path_returns_one(self, tmp_path, capsys):
        rc = main(["validate", "--dataset", str(tmp_path / "nope")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_flag_override_wins(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"lr": 0.001, "dataset": str(tmp_path / "d")})
        rc = main(["validate", "--config", cfg_path, "--lr", "0.05",
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 1  # dataset directory does not exist; the config was still written
        assert json.loads(read(tmp_path / "run" / "config_validate.json"))["lr"] == 0.05
        assert capsys.readouterr().out == ""

    def test_set_flag_nested(self, capsys):
        rc = main(["csbm-sweep", "--set", "sweep.dims=16", "--set", "sweep.seeds=0"])
        # missing run_dir -> error, but the parse accepted nested keys
        assert rc == 1
