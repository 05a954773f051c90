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
        ("activation", "elu"), ("normalization", "layer"), ("dropout", "0.1"),
        ("share_gamma", "false"), ("sweep.R", "1"), ("sweep.prior_mode", "lda"),
    ])
    def test_deleted_keys_are_rejected(self, tmp_path, capsys, key, value):
        with pytest.raises(SystemExit) as err:
            main(["validate", f"--{key.replace('_', '-')}", value])
        assert err.value.code == 2
        capsys.readouterr()
        section, _, name = key.rpartition(".")
        config = write_config(tmp_path, {section: {name: value}} if section else {key: value})
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
        cfg = parse_config(None, {"hidden_dim": "8", "p_a": "0.25", "lr": "0.5",
                                  "patience": "7", "use_fpg": "false"})
        assert cfg.model_config() == model.ModelConfig(hidden_dim=8, p_a=0.25, use_fpg=False)
        assert cfg.train_config() == training.TrainConfig(lr=0.5, patience=7)


class TestReadmeConfigTable:
    """README's "Key config fields" table names exactly the config keys:
    its first column with `csbm.*` and `sweep.*` read as every key of their
    section, and every `csbm.<key>` or `sweep.<key>` it mentions exists."""

    def test_table_names_every_key(self):
        table = read(README).split("### Key config fields", 1)[1].split("\n## ", 1)[0]
        sections = {"csbm": cli.CsbmSection, "sweep": cli.SweepSection}
        section_keys = {name: {f"{name}.{f.name}" for f in dataclasses.fields(section)}
                        for name, section in sections.items()}
        keys = {f.name for f in dataclasses.fields(cli.RunConfig)} - set(sections)
        keys = keys.union(*section_keys.values())
        named, mentioned = set(), set()
        for row in table.splitlines():
            if row.startswith("| `"):
                for key in re.findall(r"`([^`]+)`", row.split("|")[1]):
                    named |= section_keys.get(key.removesuffix(".*"), {key})
                mentioned.update(re.findall(r"`((?:csbm|sweep)\.\w+)`", row))
        assert named == keys
        assert mentioned <= keys, mentioned - keys


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


def _run_with_caches(run_dir, data_cfg, cheb_cfg, ctx_cfg, dataset=None):
    """A run of data_cfg's dataset (or of the directory ``dataset``) on the
    basis cache of cheb_cfg's run and the context cache of ctx_cfg's run,
    with the dataset image `preprocess` would write for it."""
    os.makedirs(run_dir)
    shutil.copy(os.path.join(cheb_cfg.run_dir, "cheb_cache.bin"), run_dir)
    shutil.copy(os.path.join(ctx_cfg.run_dir, "context_cache.bin"), run_dir)
    cfg = dataclasses.replace(data_cfg, run_dir=str(run_dir), dataset=str(dataset or data_cfg.dataset))
    graph.ingest(cfg.dataset, os.path.join(run_dir, "dataset.bin"))
    return cfg


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
        with pytest.raises(ConfigError, match="dataset.bin"):
            dispatch("train", cfg)
        graph.ingest(cfg.dataset, os.path.join(cfg.run_dir, "dataset.bin"))
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
        ds = graph.load_dataset(toy_run.dataset)
        ds.features = ds.features[:, :7]
        graph.write_dataset(ds, data_dir)
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run, dataset=data_dir)
        with pytest.raises(CacheFormatError, match="cheb_cache.bin d=16 .* num_features=7"):
            dispatch("eval", cfg)


@pytest.fixture(scope="module")
def narrow_run(tmp_path_factory, toy_run):
    """The toy run's dataset regenerated with 8 features, not 16 (same
    nodes), with its own preprocess and sample-context."""
    tmp = tmp_path_factory.mktemp("narrow")
    cfg = dataclasses.replace(toy_run, dataset=str(tmp / "data"), run_dir=str(tmp / "run"),
                              csbm=dataclasses.replace(toy_run.csbm, dim=8))
    for command in ("synth-csbm", "preprocess", "sample-context"):
        assert dispatch(command, cfg) == 0
    return cfg


class TestMismatchedRunFiles:
    """A run directory whose files disagree exits 1 with one error line
    naming both files and what to rerun, and writes no output."""

    def _exits_1(self, cfg, command, capsys, message):
        before = {f: read(os.path.join(cfg.run_dir, f), "rb") for f in os.listdir(cfg.run_dir)}
        capsys.readouterr()
        assert main([command, "--dataset", cfg.dataset, "--run-dir", cfg.run_dir,
                     "--max-epochs", "3", "--patience", "3"]) == 1, command
        assert capsys.readouterr().err == f"error: {message}\n"
        after = {f: read(os.path.join(cfg.run_dir, f), "rb") for f in os.listdir(cfg.run_dir)}
        after.pop(f"config_{command}.json")
        assert after == before, command

    def test_checkpoint_of_another_feature_dimension(self, toy_run, narrow_run, tmp_path,
                                                     capsys):
        cfg = _run_with_caches(tmp_path / "run", narrow_run, narrow_run, narrow_run)
        shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)
        checkpoint = os.path.join(cfg.run_dir, "checkpoint_0.bin")
        for command in ("eval", "score", "quartiles"):
            self._exits_1(cfg, command, capsys, f"{checkpoint} was trained with d=16, but "
                          "cheb_cache.bin has d=8; rerun `train`")

    def test_context_of_another_node_count(self, toy_run, small_run, tmp_path, capsys):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, small_run)
        shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)
        for command in ("train", "eval", "score", "quartiles"):
            self._exits_1(cfg, command, capsys, "context_cache.bin n=300 does not match "
                          "cheb_cache.bin's num_nodes=400; rerun `sample-context`")

    def test_context_of_another_feature_dimension(self, toy_run, narrow_run, tmp_path, capsys):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, narrow_run)
        shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)
        for command in ("train", "eval", "score", "quartiles"):
            self._exits_1(cfg, command, capsys, "context_cache.bin d=8 does not match "
                          "cheb_cache.bin's num_features=16; rerun `sample-context`")


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
        for name in ("cheb_cache.bin", "dataset.bin"):
            shutil.copy(os.path.join(toy_run.run_dir, name), run_dir)
        cfg = dataclasses.replace(toy_run, run_dir=str(run_dir), context_mode="features_only")
        assert dispatch("train", cfg) == 0
        assert not (run_dir / "context_cache.bin").exists()
        assert dispatch(command, dataclasses.replace(cfg, context_mode="rq")) == 0


def _edit_header(raw, edit):
    """A checkpoint's bytes with its JSON header changed by ``edit``."""
    blob_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + blob_len])
    edit(header)
    blob = json.dumps(header).encode()
    return raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + blob_len :]


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("name,corrupt,message", [
        # cut after the magic: a 10-byte file
        ("checkpoint_0.bin", lambda raw: model.CHECKPOINT_MAGIC + b"\x00\x00",
         "truncated checkpoint header"),
        ("checkpoint_0.bin", lambda raw: model.CHECKPOINT_MAGIC + (5).to_bytes(8, "little") + b"{bad}",
         "malformed checkpoint header"),
        ("checkpoint_0.bin", lambda raw: b"XXXXXXXX" + raw[8:], "bad checkpoint magic"),
        ("checkpoint_0.bin", lambda raw: raw[:16] + b"{bad}", "truncated checkpoint header"),
        ("checkpoint_0.bin", lambda raw: _edit_header(raw, lambda header: header["layout"].reverse()),
         "checkpoint layout"),
        ("checkpoint_0.bin", lambda raw: raw[:-8], "checkpoint payload is"),
        ("cheb_cache.bin", lambda raw: raw + b"\0" * 7, "basis cache: payload is"),
        ("context_cache.bin", lambda raw: b"XXXXXXXX" + raw[8:], "bad context cache magic"),
        # header fields after the magic: dataset.bin's id width is byte 40,
        # cheb_cache.bin's u16 dtype code bytes 26-27
        ("dataset.bin", lambda raw: raw[:40] + b"\x03" + raw[41:], "unsupported id width 3"),
        ("cheb_cache.bin", lambda raw: raw[:26] + (1).to_bytes(2, "little") + raw[28:],
         "unsupported dtype code 1"),
    ], ids=["short-file", "bad-json", "magic", "short-json", "layout", "payload", "basis-payload",
            "context-magic", "image-id-width", "basis-dtype"])
    def test_eval_exits_1(self, toy_run, tmp_path, capsys, name, corrupt, message):
        """One error line, naming the file."""
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        path = os.path.join(cfg.run_dir, name)
        with open(path, "wb") as f:
            f.write(corrupt(read(os.path.join(toy_run.run_dir, name), "rb")))
        capsys.readouterr()
        assert main(["eval", "--dataset", cfg.dataset, "--run-dir", cfg.run_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err and f"(in {path})" in err, err

    @pytest.mark.parametrize("key,value", [
        ("activation", "elu"), ("normalization", "layer"), ("dropout", 0.2),
        ("share_gamma", False),
    ])
    def test_unknown_config_key_exits_1(self, toy_run, tmp_path, capsys, key, value):
        """A checkpoint whose config has a key the model lacks, such as one
        an earlier version wrote, is refused rather than scored without it."""
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        path = os.path.join(cfg.run_dir, "checkpoint_0.bin")
        raw = read(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), "rb")
        with open(path, "wb") as f:
            f.write(_edit_header(raw, lambda header: header["config"].update({key: value})))
        capsys.readouterr()
        assert main(["eval", "--dataset", cfg.dataset, "--run-dir", cfg.run_dir]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: [^\n]*\(unknown: {key}; missing: none\); "
                            r"rerun `train`[^\n]*\n", err), err
        assert f"(in {path})" in err, err
        assert not os.path.exists(os.path.join(cfg.run_dir, "report.csv"))


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
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run, dataset=data_dir)
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


class TestMissingRunDir:
    @pytest.mark.parametrize("command", ["preprocess", "sample-context", "train", "eval", "score",
                                         "quartiles", "csbm-sweep"])
    def test_exits_1(self, toy_run, capsys, command):
        assert main([command, "--dataset", toy_run.dataset]) == 1
        assert capsys.readouterr().err == "error: no run directory configured (set 'run_dir')\n"


class TestMalformedInputs:
    """A dataset file or report.csv that does not parse exits 1 with one
    error line naming the file, before any output is written.  Dataset
    files are parsed by `preprocess` only; later commands read its image."""

    @pytest.mark.parametrize("name,content,message", [
        ("meta.json", "{not json", "meta.json is not valid JSON"),
        ("meta.json", json.dumps({"name": "toy", "num_nodes": "4OO", "num_features": 16}),
         "meta.json: num_nodes must be an integer >= 0, got '4OO'"),
        ("meta.json", json.dumps({"name": "toy", "num_nodes": -1, "num_features": 16}),
         "meta.json: num_nodes must be an integer >= 0, got -1"),
        ("meta.json", "[]", "meta.json must hold a JSON object"),
        ("meta.json", json.dumps({"num_nodes": 400, "num_features": 16}),
         "meta.json missing key 'name'"),
        ("meta.json", json.dumps({"name": "toy", "num_nodes": 400, "num_features": 3}),
         "feature dim (16) != meta num_features (3) (in {data_dir}/features.bin)"),
        ("meta.json", json.dumps({"name": "toy", "num_nodes": 401, "num_features": 16}),
         "feature rows (400) != meta num_nodes (401) (in {data_dir}/features.bin)"),
        ("splits.json", "[{", "splits.json is not valid JSON"),
        ("splits.json", json.dumps([{"train": ["a"], "val": [], "test": []}]),
         "splits.json entry 0: invalid literal"),
        ("splits.json", "{}", "splits.json must hold an array of split objects"),
        ("features.csv", "1,2\nx,y\n", "features.csv: could not convert string 'x'"),
        # finite in the text, but beyond f32: no numpy overflow warning either
        pytest.param("features.csv",
                     "".join(",".join(["1e39" if i == 1 else "0.5"] * 16) + "\n"
                             for i in range(400)),
                     "features.csv: value outside the float32 range at node 1",
                     marks=pytest.mark.filterwarnings("error")),
    ], ids=["meta-not-json", "meta-text-num-nodes", "meta-negative-num-nodes", "meta-not-object",
            "meta-no-name", "meta-wrong-d", "meta-wrong-n", "splits-not-json", "splits-text-id",
            "splits-not-array", "features-csv-text", "features-csv-beyond-f32"])
    def test_preprocess_exits_1(self, toy_run, tmp_path, capsys, name, content, message):
        data_dir = tmp_path / "data"
        shutil.copytree(toy_run.dataset, data_dir)
        if name == "features.csv":
            os.remove(data_dir / "features.bin")  # read in preference to features.csv
        (data_dir / name).write_text(content)
        run_dir = tmp_path / "run"
        assert main(["preprocess", "--dataset", str(data_dir), "--run-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message.format(data_dir=data_dir) in err, err
        for output in ("dataset.bin", "cheb_cache.bin"):
            assert not (run_dir / output).exists()

    @pytest.mark.parametrize("name,content,message", [
        ("report.csv", "split,metric,value\nzero,auroc,0.5\n", "report.csv line 2: expected"),
    ], ids=["report-text-split"])
    def test_eval_exits_1(self, toy_run, tmp_path, capsys, name, content, message):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)
        with open(os.path.join(cfg.run_dir, name), "w") as f:
            f.write(content)
        assert main(["eval", "--dataset", cfg.dataset, "--run-dir", cfg.run_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not os.path.exists(os.path.join(cfg.run_dir, "summary.csv"))


class TestDatasetImage:
    """`preprocess` writes dataset.bin; every later command but `score` reads
    the dataset from it and parses no text file of the dataset directory."""

    READERS = {"train": graph.SUPERVISION_SOURCES, "eval": graph.SUPERVISION_SOURCES,
               "sample-context": graph.IMAGE_SOURCES, "quartiles": graph.IMAGE_SOURCES}

    def _run(self, toy_run, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(toy_run.dataset, data_dir)
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run, dataset=data_dir)
        shutil.copy(os.path.join(toy_run.run_dir, "checkpoint_0.bin"), cfg.run_dir)
        return cfg, ["--dataset", cfg.dataset, "--run-dir", cfg.run_dir,
                     "--max-epochs", "3", "--patience", "3"]

    @pytest.mark.parametrize("command,name", [
        (command, name) for command, sources in READERS.items() for name in sources])
    def test_edited_source_exits_1(self, toy_run, tmp_path, capsys, command, name):
        cfg, args = self._run(toy_run, tmp_path)
        with open(os.path.join(cfg.dataset, name), "ab") as f:
            f.write(b"\n")
        before = {f: read(os.path.join(cfg.run_dir, f), "rb") for f in os.listdir(cfg.run_dir)}
        assert main([command, *args]) == 1
        image = os.path.join(cfg.run_dir, "dataset.bin")
        assert capsys.readouterr().err == (
            f"error: {os.path.join(cfg.dataset, name)} has changed since {image} was written "
            "from it; rerun `preprocess`\n")
        after = {f: read(os.path.join(cfg.run_dir, f), "rb") for f in os.listdir(cfg.run_dir)}
        after.pop(f"config_{command.replace('-', '_')}.json")
        assert after == before

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unread_sources_are_not_checked(self, toy_run, tmp_path, command):
        cfg, args = self._run(toy_run, tmp_path)
        with open(os.path.join(cfg.dataset, "edges.tsv"), "ab") as f:
            f.write(b"\n")
        assert main([command, *args]) == 0

    def test_score_reads_no_dataset_file(self, toy_run, tmp_path):
        cfg, args = self._run(toy_run, tmp_path)
        shutil.rmtree(cfg.dataset)
        assert main(["score", *args]) == 0

    @pytest.mark.parametrize("command", list(READERS))
    def test_missing_image_exits_1(self, toy_run, tmp_path, capsys, command):
        cfg, args = self._run(toy_run, tmp_path)
        image = os.path.join(cfg.run_dir, "dataset.bin")
        os.remove(image)
        assert main([command, *args]) == 1
        assert capsys.readouterr().err == (
            f"error: missing prerequisite artifact: {image} (run `preprocess` first)\n")

    @pytest.mark.parametrize("command", list(READERS))
    def test_truncated_image_exits_1(self, toy_run, tmp_path, capsys, command):
        cfg, args = self._run(toy_run, tmp_path)
        image = os.path.join(cfg.run_dir, "dataset.bin")
        with open(image, "r+b") as f:
            f.truncate(os.path.getsize(image) - 4)
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset.bin: payload is ") and err.count("\n") == 1

    def test_no_command_parses_text(self, toy_run, tmp_path, monkeypatch):
        cfg, args = self._run(toy_run, tmp_path)

        def no_parse(*args, **kwargs):
            raise AssertionError("a dataset text file was parsed")

        for name in ("load_dataset", "_read_meta", "_read_int_pairs", "_read_json"):
            monkeypatch.setattr(graph, name, no_parse)
        for command in ("sample-context", "train", "eval", "score", "quartiles"):
            assert main([command, *args]) == 0, command

    def test_quartiles_reads_no_features(self, toy_run, tmp_path, monkeypatch):
        cfg, args = self._run(toy_run, tmp_path)
        assert main(["quartiles", *args]) == 0
        path = os.path.join(cfg.run_dir, "quartiles.csv")
        before = read(path, "rb")
        os.remove(path)

        def no_read(*args, **kwargs):
            raise AssertionError("the features were read")

        monkeypatch.setattr(graph.FeatureFile, "read", no_read)
        assert main(["quartiles", *args]) == 0
        assert read(path, "rb") == before

    def test_homophily_reads_no_features(self, toy_run, tmp_path, monkeypatch):
        cfg, args = self._run(toy_run, tmp_path)
        assert main(["homophily", *args]) == 0
        paths = [os.path.join(cfg.run_dir, f) for f in ("homophily.csv", "node_homophily.csv")]
        before = [read(path, "rb") for path in paths]
        for path in paths:
            os.remove(path)

        def no_read(*args, **kwargs):
            raise AssertionError("the features were read")

        monkeypatch.setattr(graph.FeatureFile, "read", no_read)
        assert main(["homophily", *args]) == 0
        assert [read(path, "rb") for path in paths] == before

    def test_commands_without_a_sparse_product_never_import_scipy(self, toy_run, tmp_path):
        """`train`, `eval`, `score`, `quartiles` and an `rq` `sample-context`
        form no sparse product; scipy costs about 0.2 s to import."""
        cfg, args = self._run(toy_run, tmp_path)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        driver = (
            "import json, sys\n"
            "from sagad import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        assert toy_run.context_mode == "rq"
        for command in ("train", "eval", "score", "quartiles", "sample-context"):
            proc = subprocess.run([sys.executable, "-c", driver, command, *args],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, []], command


class TestSynthCsbmFiles:
    def test_regimes_match_line_at_a_time_writer(self, toy_run):
        regimes = csbm.generate_csbm(toy_run.csbm.to_params()).regimes
        # the line-at-a-time writer regimes.csv came from before
        text = "node_id,regime\n" + "".join(f"{i},{int(r)}\n" for i, r in enumerate(regimes))
        assert read(os.path.join(toy_run.dataset, "regimes.csv"), "rb") == text.encode()

    @pytest.mark.parametrize("sets,message", [
        (["labeled_anomalies=40"], "csbm.labeled_anomalies must lie in [0, 30] (csbm.n_a), got 40"),
        (["labeled_anomalies=-1"], "csbm.labeled_anomalies must lie in [0, 30] (csbm.n_a), got -1"),
        (["labeled_normals=101"], "csbm.labeled_normals must lie in [0, 100] (csbm.n_n), got 101"),
    ])
    def test_bad_section_exits_1(self, tmp_path, capsys, sets, message):
        rc = main(["synth-csbm", "--dataset", str(tmp_path / "data"), "--set", "csbm.n_a=30",
                   "--set", "csbm.n_n=100", *(f"--set=csbm.{item}" for item in sets)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "data").exists()


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
        (["csbm-sweep", "--set", "sweep.n=200", "--set", "sweep.anomaly_frac=0.001"],
         "sweep.anomaly_frac=0.001 gives round(sweep.n * sweep.anomaly_frac) outside [1, 199]; "
         "both classes need a node"),
        (["csbm-sweep", "--set", "sweep.n=200", "--set", "sweep.anomaly_frac=0.999"],
         "sweep.anomaly_frac=0.999 gives round(sweep.n * sweep.anomaly_frac) outside [1, 199]; "
         "both classes need a node"),
        (["csbm-sweep", "--set", "sweep.anomaly_frac=1e308"],
         "sweep.anomaly_frac=1e+308 gives round(sweep.n * sweep.anomaly_frac) outside [1, 3999]; "
         "both classes need a node"),
        (["train", "--max-epochs", "0"], "max_epochs must be >= 1, got 0"),
        (["train", "--max-epochs", "10", "--patience", "11"],
         "patience (11) must not exceed max_epochs (10)"),
        (["train", "--lr", "0"], "lr must be > 0, got 0.0"),
        (["train", "--weight-decay", "-1"], "weight_decay must be >= 0, got -1.0"),
        (["train", "--fusion-mode", "x"],
         "fusion_mode must be one of adaptive, mean, concat, got 'x'"),
        (["train", "--context-mode", "x"],
         "context_mode must be one of rq, full_khop, features_only, got 'x'"),
        (["train", "--filter-mode", "x"],
         "filter_mode must be one of dual, low_only, high_only, got 'x'"),
        (["synth-csbm", "--set", "csbm.dim=-1"], "csbm.dim must be >= 1, got -1"),
        (["synth-csbm", "--set", "csbm.dim=0"], "csbm.dim must be >= 1, got 0"),
        (["synth-csbm", "--set", "csbm.p1=2"], "csbm.p1 must lie in [0, 1], got 2.0"),
        (["synth-csbm", "--set", "csbm.regime_frac=2"],
         "csbm.regime_frac must lie in [0, 1], got 2.0"),
        (["synth-csbm", "--set", "csbm.theta_min=0"],
         "need 0 < csbm.theta_min <= csbm.theta_max, got 0.0 and 1.0"),
        (["synth-csbm", "--set", "csbm.p1=0.001"],
         "homophilic regime requires csbm.p1 > csbm.q1, got 0.001 and 0.002"),
        (["synth-csbm", "--set", "csbm.n_a=0"],
         "both classes need at least one node: csbm.n_a and csbm.n_n must be >= 1, "
         "got 0 and 2910"),
        (["synth-csbm", "--set", "csbm.mean_gap=2.5"],
         "csbm.mean_gap must lie in [-2, 2] (mean vectors of norm <= 1), got 2.5"),
        (["csbm-sweep", "--set", "sweep.p1=2"], "sweep.p1 must lie in [0, 1], got 2.0"),
        (["csbm-sweep", "--set", "sweep.q2=0.001"],
         "heterophilic regime requires sweep.p2 < sweep.q2, got 0.004 and 0.001"),
        (["csbm-sweep", "--set", "sweep.mean_gap=-3"],
         "sweep.mean_gap must lie in [-2, 2] (mean vectors of norm <= 1), got -3.0"),
    ])
    def test_out_of_range_value_exits_1(self, tmp_path, argv, message, capsys):
        rc = main([*argv, "--dataset", str(tmp_path / "data"), "--run-dir", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text,message", [
        ('{"K": "three"}', "K: expected an integer, got 'three'"),
        ('{"lr": [1]}', "lr: expected a finite number, got [1]"),
        ('{"sweep": {"dims": "16,x"}}', "sweep.dims: expected an integer, got 'x'"),
        ('{"sweep": {"seeds": [1, "a"]}}', "sweep.seeds: expected an integer, got 'a'"),
        ('{"sweep": {"seeds": 3}}', "sweep.seeds: expected a list of integers, got 3"),
        ('{"csbm": 3}', "csbm must be an object"),
        ("[1]", "config file must hold a JSON object"),
        ("{not json", "config file is not valid JSON: Expecting property name"),
        (None, "config file not found: {path}"),
    ])
    def test_bad_config_file_exits_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(path=path)}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["train", "eval", "score"])
    def test_batch_size_below_one_rejected_before_reading(self, tmp_path, command, capsys,
                                                          monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("file read")

        monkeypatch.setattr(cli.graph, "open_image", no_read)
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
        """A dataset with no edges and its run: the dataset image and random
        caches.  As in the benchmark, every node is labeled and the test
        split holds every node outside train and val."""
        rng = np.random.default_rng(n)
        data, run = base / f"data{n}", base / f"run{n}"
        run.mkdir()
        labels = np.zeros(n, dtype=np.int8)
        labels[rng.choice(n, n // 20, replace=False)] = 1
        anom, norm = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
        train = np.concatenate([anom[:10], norm[:40]])
        val = np.concatenate([anom[10:20], norm[40:80]])
        test = np.setdiff1d(np.arange(n), np.concatenate([train, val]))
        graph.write_dataset(graph.GraphDataset(
            graph.SparseAdjacency.from_edges(n, np.zeros((0, 2))),
            np.zeros((n, self.D), dtype=np.float32), labels,
            [graph.SplitSet(train, val, test)], f"mem{n}"), data)
        graph.ingest(data, run / "dataset.bin")
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

    # what train holds per node: the int8 label and the context cache's
    # subgraph size (a u32, as read); the labeled cache rows and the model
    # do not depend on n
    TRAIN_BYTES_PER_NODE = 8

    def test_train_peak_does_not_grow_with_nodes(self, tmp_path, capsys):
        """The test split holds 180,000 more ids at n=200k: `train` reads
        only the train and val ids of the dataset image, so its peak stays
        flat (parsing splits.json and labels.csv grew it by megabytes)."""
        peaks = {}
        for n in (20_000, 200_000):
            args, _ = self._write_run(tmp_path, n)
            peaks[n] = self._peak(["train", *args, "--max-epochs", "3", "--patience", "3"])
        capsys.readouterr()
        extra = peaks[200_000] - peaks[20_000]
        assert extra < self.TRAIN_BYTES_PER_NODE * 180_000, (
            f"train peak grew {extra / 1e6:.2f} MB from n=20k to n=200k")


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
    chunks, and both read the features straight into f64.  Beyond the
    graph, `preprocess` holds two n*d f64 buffers and `sample-context` the
    f64 features and the f32 context, whatever the size of the caches they
    write: no f32 copy of the features and, in `preprocess`, nothing of the
    text parse."""

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
        # what the bounds allow
        graph_bytes = adj.row_offsets.nbytes + adj.col_indices.nbytes
        allowed = {"preprocess": graph_bytes + 2 * n * self.D * 8,
                   "sample-context": graph_bytes + n * self.D * (8 + 4)}
        return ["--dataset", str(base / f"data{n}"), "--run-dir", str(base / f"run{n}"),
                "--K", str(self.K), "--context-mode", "full_khop"], allowed

    def test_peak_grows_by_two_work_buffers_at_most(self, tmp_path, capsys):
        peaks, allowed = {}, {}
        for n in (20_000, 200_000):
            args, allowed[n] = self._write_dataset(tmp_path, n)
            peaks[n] = {command: TestProcessMemory._peak([command, *args])
                        for command in ("preprocess", "sample-context")}
        capsys.readouterr()
        for command in ("preprocess", "sample-context"):
            bound = allowed[200_000][command] - allowed[20_000][command] + self.HEADROOM
            extra = peaks[200_000][command] - peaks[20_000][command]
            assert extra < bound, (
                f"{command} peak grew {extra / 1e6:.1f} MB, allowed {bound / 1e6:.1f} MB")

    def test_preprocess_resident_size_grows_by_the_work_buffers_at_most(self, tmp_path):
        """The same bound on the peak resident size of a fresh process, which
        tracemalloc does not see: the parse's freed buffers must not stay
        resident under the basis.  A graph kept from the parse pins them
        (the heap cannot shrink below it), so `preprocess` reads the graph
        back from the image."""
        if not sys.platform.startswith("linux"):
            pytest.skip("ru_maxrss is in kB on Linux only")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        # Linux carries the peak RSS across exec, so the command is started
        # by a small launcher, not by this large test process
        launcher = (
            "import os, sys\n"
            "argv = [sys.executable, '-m', 'sagad.cli', *sys.argv[1:]]\n"
            "_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        peaks, allowed = {}, {}
        for n in (20_000, 200_000):
            args, allowed[n] = self._write_dataset(tmp_path, n)
            proc = subprocess.run([sys.executable, "-c", launcher, "preprocess", *args],
                                  capture_output=True, text=True, env=env, timeout=300)
            code, maxrss_kb = (int(v) for v in proc.stdout.splitlines()[-1].split())
            assert code == 0, proc.stderr
            peaks[n] = maxrss_kb * 1024
        bound = allowed[200_000]["preprocess"] - allowed[20_000]["preprocess"] + self.HEADROOM
        extra = peaks[200_000] - peaks[20_000]
        assert extra < bound, (
            f"preprocess peak RSS grew {extra / 1e6:.1f} MB, allowed {bound / 1e6:.1f} MB")


class TestFeatureStream:
    """The basis and the context read the features a row chunk at a time
    into f64: the same values and the same checks as reading them whole."""

    D = 3

    def _dataset(self, base, features):
        n = len(features)
        rng = np.random.default_rng(0)
        adj = graph.SparseAdjacency.from_edges(n, rng.integers(0, n, (3 * n, 2)))
        labels = np.zeros(n, dtype=np.int8)
        labels[: n // 10] = 1
        split = graph.SplitSet(np.arange(0, 40), np.arange(40, 80), np.arange(80, n))
        graph.write_dataset(graph.GraphDataset(adj, features, labels, [split], "stream"), base)
        return ["--dataset", str(base), "--run-dir", str(base / "run"), "--K", "2"]

    @pytest.mark.parametrize("node", [graph.FEATURE_CHUNK_ROWS - 1, graph.FEATURE_CHUNK_ROWS])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_at_a_chunk_boundary_exits_1(self, tmp_path, capsys, node, value):
        n = graph.FEATURE_CHUNK_ROWS + 100
        features = np.random.default_rng(1).standard_normal((n, self.D), dtype=np.float32)
        args = self._dataset(tmp_path / "data", features)
        run_dir = tmp_path / "data" / "run"
        features[node, 1] = value
        graph.FEATURES_FORMAT.write(tmp_path / "data" / "features.bin", features.shape,
                                    [(features, "<f4")])
        message = f"error: features.bin: non-finite value at node {node}\n"
        assert main(["preprocess", *args]) == 1
        assert capsys.readouterr().err == message
        for output in ("dataset.bin", "cheb_cache.bin"):
            assert not (run_dir / output).exists()

    @pytest.mark.parametrize("source", ["features.bin", "features.csv"])
    def test_basis_and_context_equal_the_whole_read(self, tmp_path, source):
        """Both caches equal those built from ``load_dataset``'s features,
        byte for byte; features.csv values are rounded to f32 first."""
        n = graph.FEATURE_CHUNK_ROWS + 100
        features = np.random.default_rng(2).standard_normal((n, self.D))
        data = tmp_path / "data"
        args = self._dataset(data, features.astype(np.float32))
        if source == "features.csv":
            os.remove(data / "features.bin")
            with open(data / "features.csv", "w") as f:
                f.writelines(",".join(repr(v) for v in row) + "\n" for row in features.tolist())
        for command in ("preprocess", "sample-context"):
            assert main([command, *args, "--context-mode", "full_khop"]) == 0
        ds = graph.load_dataset(data)
        assert ds.features.dtype == np.float32
        if source == "features.csv":
            assert not np.array_equal(ds.features, features)  # rounded
        chebyshev.write_cache(chebyshev.build_cheb_basis(ds, 2), tmp_path / "cheb.bin")
        context.write_context_cache(context.build_context_cache(ds, mode="full_khop"),
                                    tmp_path / "ctx.bin")
        assert read(data / "run" / "cheb_cache.bin", "rb") == read(tmp_path / "cheb.bin", "rb")
        assert read(data / "run" / "context_cache.bin", "rb") == read(tmp_path / "ctx.bin", "rb")


class TestContextFromBasis:
    """`sample-context` pools the features the basis was built from, block 0
    of cheb_cache.bin (T_0 X = X), not the dataset's feature file."""

    @pytest.mark.parametrize("mode", ["rq", "full_khop"])
    def test_edited_features_change_no_context_byte(self, toy_run, tmp_path, mode):
        data = tmp_path / "data"
        shutil.copytree(toy_run.dataset, data)
        args = ["--dataset", str(data), "--run-dir", str(tmp_path / "run"), "--context-mode", mode]
        path = tmp_path / "run" / "context_cache.bin"
        assert main(["preprocess", *args]) == 0
        assert main(["sample-context", *args]) == 0
        before = read(path, "rb")
        os.remove(path)
        features = graph.load_dataset(data).features
        graph.FEATURES_FORMAT.write(data / "features.bin", features.shape, [(2 * features, "<f4")])
        assert main(["sample-context", *args]) == 0
        assert read(path, "rb") == before

    def test_missing_basis_exits_1(self, toy_run, tmp_path, capsys):
        cfg = _run_with_caches(tmp_path / "run", toy_run, toy_run, toy_run)
        for name in ("cheb_cache.bin", "context_cache.bin"):
            os.remove(os.path.join(cfg.run_dir, name))
        assert main(["sample-context", "--dataset", cfg.dataset, "--run-dir", cfg.run_dir]) == 1
        basis = os.path.join(cfg.run_dir, "cheb_cache.bin")
        assert capsys.readouterr().err == (
            f"error: missing prerequisite artifact: {basis} (run `preprocess` first)\n")
        assert not os.path.exists(os.path.join(cfg.run_dir, "context_cache.bin"))

    def test_basis_of_another_dataset_exits_1(self, toy_run, small_run, tmp_path, capsys):
        cfg = _run_with_caches(tmp_path / "run", toy_run, small_run, small_run)
        os.remove(os.path.join(cfg.run_dir, "context_cache.bin"))
        assert main(["sample-context", "--dataset", cfg.dataset, "--run-dir", cfg.run_dir]) == 1
        assert capsys.readouterr().err == (
            "error: cheb_cache.bin n=300 does not match the dataset's num_nodes=400; "
            "rerun `preprocess` and `sample-context` on this dataset\n")
        assert not os.path.exists(os.path.join(cfg.run_dir, "context_cache.bin"))


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

        monkeypatch.setattr(cli.graph, "open_image", no_read)
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
            assert len(fields) == len(lines[0].split(","))
            for value in fields:
                float(value)  # every field is a number, never a numpy repr
            assert 0.0 <= float(fields[11]) <= 1.0  # accuracy column


class TestNoInertSectionKey:
    """Every `csbm.*` and `sweep.*` key changes its command's output: a key
    whose other legal value leaves every output byte as it was is inert."""

    # a small base run of each command, and one other legal value per key
    BASE = {"csbm": {"n_a": "20", "n_n": "180", "num_splits": "2", "labeled_anomalies": "10",
                     "labeled_normals": "40"},
            "sweep": {"n": "200", "dims": "4", "seeds": "0"}}
    OTHER = {
        "csbm": {"n_a": "21", "n_n": "181", "dim": "8", "mean_gap": "0.5", "p1": "0.05",
                 "q1": "0.015", "p2": "0.015", "q2": "0.05", "regime_frac": "0.6",
                 "theta_min": "0.5", "theta_max": "2", "seed": "1", "num_splits": "3",
                 "labeled_anomalies": "8", "labeled_normals": "30"},
        "sweep": {"dims": "5", "seeds": "1", "n": "220", "anomaly_frac": "0.2", "p1": "0.2",
                  "q1": "0.01", "p2": "0.01", "q2": "0.2", "regime_frac": "0.4",
                  "mean_gap": "0.8"},
    }
    SECTIONS = {"csbm": cli.CsbmSection, "sweep": cli.SweepSection}

    @staticmethod
    def _outputs(tmp_path, section, overrides):
        """The bytes of every file a synth-csbm dataset directory or a
        csbm-sweep's csbm_sweep.csv holds, for the base run plus ``overrides``."""
        out = tmp_path / "out"
        sets = {**TestNoInertSectionKey.BASE[section], **overrides}
        argv = [f"--set={section}.{key}={value}" for key, value in sets.items()]
        if section == "csbm":
            assert main(["synth-csbm", "--dataset", str(out), *argv]) == 0
            return {name: read(out / name, "rb") for name in sorted(os.listdir(out))}
        assert main(["csbm-sweep", "--run-dir", str(out), *argv]) == 0
        return read(out / "csbm_sweep.csv", "rb")

    def test_every_key_has_another_value(self):
        for name, section in self.SECTIONS.items():
            assert set(self.OTHER[name]) == {f.name for f in dataclasses.fields(section)}

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, others in OTHER.items() for key in others])
    def test_key_changes_output(self, tmp_path_factory, section, key):
        base = self._outputs(tmp_path_factory.mktemp("base"), section, {})
        other = self._outputs(tmp_path_factory.mktemp("other"), section,
                              {key: self.OTHER[section][key]})
        assert other != base, f"{section}.{key}={self.OTHER[section][key]} changed no output"


class TestMainEntry:
    @pytest.mark.parametrize("argv,message", [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["validate", "--set", "foo"], "--set expects KEY=VALUE, got 'foo'"),
    ])
    def test_bad_command_line_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"sagad: error: {message}")

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
