"""Command-line surface for the full pipeline.

One declarative JSON config drives every command; flags override file
values and the fully resolved config is persisted next to the outputs, so
a run directory is self-describing and reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

import numpy as np

from . import cachefile, chebyshev, context, csbm, graph, metrics, model, training
from .errors import CacheFormatError, ConfigError, SagadError

@dataclass
class CsbmSection:
    n_a: int = 90
    n_n: int = 2910
    dim: int = 16
    mean_gap: float = 1.0
    p1: float = 0.02
    q1: float = 0.002
    p2: float = 0.002
    q2: float = 0.02
    regime_frac: float = 0.3
    theta_min: float = 1.0
    theta_max: float = 1.0
    seed: int = 0
    num_splits: int = 10
    labeled_anomalies: int = 20
    labeled_normals: int = 80

    def to_params(self) -> csbm.CsbmParams:
        direction = np.ones(self.dim) / np.sqrt(self.dim)
        return csbm.CsbmParams(
            n_a=self.n_a,
            n_n=self.n_n,
            mu=-0.5 * self.mean_gap * direction,
            nu=0.5 * self.mean_gap * direction,
            p1=self.p1,
            q1=self.q1,
            p2=self.p2,
            q2=self.q2,
            regime_frac=self.regime_frac,
            theta_min=self.theta_min,
            theta_max=self.theta_max,
            seed=self.seed,
        )


@dataclass
class SweepSection:
    dims: list[int] = field(default_factory=lambda: [16, 32, 64, 128])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    n: int = 4000
    anomaly_frac: float = 0.1
    p1: float = 0.15
    q1: float = 0.004
    p2: float = 0.004
    q2: float = 0.15
    regime_frac: float = 0.5
    mean_gap: float = 1.0

    def section(self, dim: int, seed: int) -> CsbmSection:
        """The generator section of the experiment at ``dim`` and ``seed``."""
        n_a = round(self.n * self.anomaly_frac)
        return CsbmSection(n_a=n_a, n_n=self.n - n_a, dim=dim, mean_gap=self.mean_gap,
                           p1=self.p1, q1=self.q1, p2=self.p2, q2=self.q2,
                           regime_frac=self.regime_frac, seed=seed)


@dataclass
class RunConfig(model.ModelConfig, training.TrainConfig):
    """Every config key: the model and training sections' fields, which it
    inherits, and the keys of the commands themselves, declared here."""

    dataset: str = ""
    run_dir: str = ""
    split_index: int = 0
    # scoring batch in rows: bounds the memory of eval, score and quartiles
    batch_size: int = 1024
    # context sampler: candidate cap per node
    cap: int = 64
    # nested sections
    csbm: CsbmSection = field(default_factory=CsbmSection)
    sweep: SweepSection = field(default_factory=SweepSection)

    def model_config(self) -> model.ModelConfig:
        return model.ModelConfig(**self._keys_of(model.ModelConfig))

    def train_config(self) -> training.TrainConfig:
        return training.TrainConfig(**self._keys_of(training.TrainConfig))

    def _keys_of(self, section) -> dict:
        """This config's values for every field of ``section``."""
        return {f.name: getattr(self, f.name) for f in fields(section)}

    def validate(self) -> None:
        model.ModelConfig.validate(self)
        training.TrainConfig.validate(self)
        if self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        c, sw = self.csbm, self.sweep
        minimums = [("csbm.seed", c.seed, 0), ("csbm.dim", c.dim, 1)]
        minimums += [("sweep.seeds", s, 0) for s in sw.seeds]
        minimums += [("sweep.dims", d, 1) for d in sw.dims]
        for key, value, low in minimums:
            if value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        if not 0 < sw.anomaly_frac < 1 or not 1 <= round(sw.n * sw.anomaly_frac) < sw.n:
            raise ConfigError(f"sweep.anomaly_frac={sw.anomaly_frac!r} gives round(sweep.n * "
                              f"sweep.anomaly_frac) outside [1, {sw.n - 1}]; both classes need a node")
        for key, gap in (("csbm.mean_gap", c.mean_gap), ("sweep.mean_gap", sw.mean_gap)):
            if not -2.0 <= gap <= 2.0:
                raise ConfigError(f"{key} must lie in [-2, 2] (mean vectors of norm <= 1), "
                                  f"got {gap}")
        c.to_params().validate("csbm.")
        # no check depends on the experiment's dim or seed
        sw.section(1, 0).to_params().validate("sweep.")


def _number(value, kind, key: str):
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    return number


def _coerce(value, target_type, key: str):
    if target_type is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"{key}: expected true/false, got {value!r}")
    if target_type in (int, float):
        return _number(value, target_type, key)
    if target_type is str:
        return str(value)
    return value


_LIST_KEYS = {"dims", "seeds"}


def _apply_mapping(cfg, mapping: dict, prefix: str = "") -> None:
    known = {f.name: f for f in fields(cfg)}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        current = getattr(cfg, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key} must be an object")
            _apply_mapping(current, value, prefix=f"{key}.")
        elif key in _LIST_KEYS:
            if isinstance(value, str):
                value = [v for v in value.split(",") if v]
            if not isinstance(value, list):
                raise ConfigError(f"{prefix}{key}: expected a list of integers, got {value!r}")
            setattr(cfg, key, [_number(v, int, f"{prefix}{key}") for v in value])
        else:
            setattr(cfg, key, _coerce(value, type(current), f"{prefix}{key}"))


def parse_config(config_path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults <- JSON file <- flag overrides; unknown keys are rejected."""
    cfg = RunConfig()
    if config_path:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        with open(config_path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        _apply_mapping(cfg, data)
    if overrides:
        nested: dict = {}
        for dotted, value in overrides.items():
            parts = dotted.split(".")
            target = nested
            for part in parts[:-1]:
                target = target.setdefault(part, {})
            target[parts[-1]] = value
        _apply_mapping(cfg, nested)
    cfg.validate()
    return cfg


def _persist_config(cfg: RunConfig, command: str) -> None:
    if not cfg.run_dir:
        return
    os.makedirs(cfg.run_dir, exist_ok=True)
    payload = dataclasses.asdict(cfg)
    payload["_command"] = command
    payload["_tie_policy"] = metrics.TIE_POLICY
    cachefile.write_text(os.path.join(cfg.run_dir, f"config_{command}.json"),
                         [json.dumps(payload, indent=2, sort_keys=True)])


def _require_file(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"missing prerequisite artifact: {path} ({hint})")
    return path


def _image_path(cfg: RunConfig) -> str:
    return os.path.join(_run_dir(cfg), "dataset.bin")


def _cheb_path(cfg: RunConfig) -> str:
    return os.path.join(_run_dir(cfg), "cheb_cache.bin")


def _context_path(cfg: RunConfig) -> str:
    return os.path.join(_run_dir(cfg), "context_cache.bin")


def _checkpoint_path(cfg: RunConfig) -> str:
    return os.path.join(_run_dir(cfg), f"checkpoint_{cfg.split_index}.bin")


def _dataset_dir(cfg: RunConfig) -> str:
    if not cfg.dataset:
        raise ConfigError("no dataset path configured (set 'dataset')")
    return cfg.dataset


def _run_dir(cfg: RunConfig) -> str:
    if not cfg.run_dir:
        raise ConfigError("no run directory configured (set 'run_dir')")
    return cfg.run_dir


def _open_image(cfg: RunConfig, sources: tuple[str, ...]) -> graph.DatasetImage:
    """The run's dataset image, with the fingerprints of ``sources`` checked."""
    path = _require_file(_image_path(cfg), "run `preprocess` first")
    return graph.open_image(path, _dataset_dir(cfg), sources)


def _open_basis(cfg: RunConfig) -> chebyshev.ChebBasisCache:
    return chebyshev.read_cache(_require_file(_cheb_path(cfg), "run `preprocess` first"))


def _require_match(found, hint: str) -> None:
    """Raise a CacheFormatError for the first ``(what, got, whose, want)``
    of ``found`` with got != want, ending in ``hint``: what to rerun."""
    for what, got, whose, want in found:
        if got != want:
            raise CacheFormatError(f"{what}={got} does not match {whose}={want}; {hint}")


def _check_basis(cheb: chebyshev.ChebBasisCache, data) -> None:
    """The basis cache against the dataset (a DatasetImage or GraphDataset)
    it stands in for: the same node count and feature dimension."""
    _require_match([("cheb_cache.bin n", cheb.num_nodes, "the dataset's num_nodes", data.num_nodes),
                    ("cheb_cache.bin d", cheb.dim, "the dataset's num_features", data.num_features)],
                   "rerun `preprocess` and `sample-context` on this dataset")


@contextlib.contextmanager
def _load_caches(cfg: RunConfig, data=None, state: model.ModelState | None = None):
    """Open the basis cache and, if the model config uses one, the context
    cache, and check every pairing of what they stand for.

    A context manager: the caches are read by row while the block runs
    and their files are closed when it ends.  The model config is that of
    ``state``, the split's checkpoint, if given, else the flags'.  The
    basis cache's order must equal its K, and its feature dimension the
    checkpoint's.  ``data`` (a DatasetImage or GraphDataset) is the
    dataset the caches stand in for; when given, the basis must match its
    node count and feature dimension.  The context cache must match the
    basis in both, for every command.
    """
    model_config = cfg.model_config() if state is None else state.config
    checkpoint = _checkpoint_path(cfg)
    with contextlib.ExitStack() as stack:
        cheb = stack.enter_context(_open_basis(cfg))
        ctx = None
        if model_config.needs_context():
            ctx = stack.enter_context(context.read_context_cache(
                _require_file(_context_path(cfg), "run `sample-context` first")
            ))
        if cheb.order != model_config.K:
            raise CacheFormatError(
                f"{checkpoint} was trained with K={model_config.K}, but "
                f"cheb_cache.bin has K={cheb.order}" if state is not None else
                f"cheb_cache.bin K={cheb.order} does not match the config's "
                f"K={model_config.K}; rerun `preprocess` with this K"
            )
        if data is not None:
            _check_basis(cheb, data)
        if ctx is not None:
            _require_match([("context_cache.bin n", ctx.num_nodes, "cheb_cache.bin's num_nodes",
                             cheb.num_nodes),
                            ("context_cache.bin d", ctx.dim, "cheb_cache.bin's num_features",
                             cheb.dim)], "rerun `sample-context`")
        if state is not None and cheb.dim != state.dim:
            raise CacheFormatError(f"{checkpoint} was trained with d={state.dim}, but "
                                   f"cheb_cache.bin has d={cheb.dim}; rerun `train`")
        yield cheb, ctx


def _score_nodes(cfg: RunConfig, data=None) -> np.ndarray:
    """Every node's score under the split's checkpoint (eval, score, quartiles).

    The checkpoint's model config, not the flags, decides whether the
    context cache is opened: it is the config the scores are computed
    with.  Without a checkpoint, the caches the flags name are still
    checked against the dataset, so a mismatched cache is reported before
    the missing checkpoint.
    """
    path = _checkpoint_path(cfg)
    state = model.load_checkpoint(path) if os.path.exists(path) else None
    with _load_caches(cfg, data, state) as (cheb, ctx):
        if state is None:
            _require_file(path, "run `train` first")
        return training.score_all(state, cheb, ctx, batch_size=cfg.batch_size)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(cfg: RunConfig) -> int:
    dataset = graph.load_dataset(_dataset_dir(cfg))
    print(
        f"dataset '{dataset.name}': {dataset.num_nodes} nodes, "
        f"{dataset.adjacency.num_edges} edges, {dataset.num_features} features, "
        f"{len(dataset.splits)} splits"
    )
    labeled = int(np.sum(dataset.labels != graph.UNKNOWN_LABEL))
    anomalies = int(np.sum(dataset.labels == 1))
    print(f"labels: {labeled} known, {anomalies} anomalies")
    return 0


def _cmd_preprocess(cfg: RunConfig) -> int:
    directory, image_path, path = _dataset_dir(cfg), _image_path(cfg), _cheb_path(cfg)
    # Two phases: the parse is released before the basis allocates, and the
    # basis reads the graph back from the image and the features from
    # their file.  A failure of the second phase (say, a non-finite
    # feature) removes the image, so a failed run leaves no output.
    graph.ingest(directory, image_path)
    try:
        # written from these sources just now: not fingerprinted again
        with graph.open_image(image_path, directory, ()) as image:
            dataset = image.dataset(directory)
        with chebyshev.build_cheb_basis(dataset, cfg.K, path=path) as cache:
            print(f"wrote {path} (K={cfg.K}, n={cache.num_nodes}, d={cache.dim})")
    except BaseException:
        os.unlink(image_path)
        raise
    return 0


def _cmd_sample_context(cfg: RunConfig) -> int:
    if cfg.context_mode == "features_only":
        raise ConfigError("context_mode features_only does not use a context cache")
    path = _context_path(cfg)
    with _open_image(cfg, graph.IMAGE_SOURCES) as image, _open_basis(cfg) as cheb:
        _check_basis(cheb, image)
        # the features the basis was built from: its block 0, T_0 X, is X
        dataset = graph.GraphDataset(image.adjacency(), cheb.blocks[0], image.labels())
        cache = context.build_context_cache(dataset, cap=cfg.cap, seed=cfg.seed,
                                            mode=cfg.context_mode)
    context.write_context_cache(cache, path)
    print(f"wrote {path} (mode={cfg.context_mode}, n={cache.num_nodes})")
    return 0


def _cmd_train(cfg: RunConfig) -> int:
    with _open_image(cfg, graph.SUPERVISION_SOURCES) as image:
        labels = image.labels()
        split = image.split(cfg.split_index, ("train", "val"))
    with _load_caches(cfg, image) as (cheb, ctx):
        state, history = training.train(
            labels, cheb, ctx, cfg.model_config(), cfg.train_config(), split
        )
    model.save_checkpoint(state, _checkpoint_path(cfg))
    cachefile.write_text(os.path.join(_run_dir(cfg), f"history_{cfg.split_index}.csv"), [
        "epoch,train_loss,val_auprc\n",
        *(f"{rec.epoch},{rec.train_loss!r},{rec.val_auprc!r}\n" for rec in history),
    ])
    best = max(history, key=lambda r: r.val_auprc)
    print(
        f"trained split {cfg.split_index}: {len(history)} epochs, "
        f"best val AUPRC {best.val_auprc:.4f} at epoch {best.epoch}"
    )
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    with _open_image(cfg, graph.SUPERVISION_SOURCES) as image:
        test_ids = image.split(cfg.split_index, ("test",)).test
        y_test = image.labels()[test_ids]
    # an unusable test split fails before any node is scored
    if np.any(y_test == graph.UNKNOWN_LABEL):
        raise ConfigError("test split contains unlabeled nodes; cannot evaluate")
    metrics.class_counts(y_test)
    report = metrics.evaluate(_score_nodes(cfg, image)[test_ids], y_test)
    # one row per EvalReport field: auroc, auprc, rec_at_k, k_used
    rows = _update_report_csv(os.path.join(_run_dir(cfg), "report.csv"), cfg.split_index,
                              dataclasses.asdict(report).items())
    _write_summary_csv(rows, os.path.join(_run_dir(cfg), "summary.csv"))
    print(
        f"split {cfg.split_index}: AUROC {report.auroc:.4f}  AUPRC {report.auprc:.4f}  "
        f"Rec@{report.k_used} {report.rec_at_k:.4f}"
    )
    return 0


def _write_summary_csv(rows: list[tuple[int, str, str]], summary_path: str) -> None:
    """Aggregate report.csv's per-split metric rows into mean and std across splits."""
    by_metric: dict[str, list[float]] = {}
    for _, name, value in rows:
        by_metric.setdefault(name, []).append(float(value))
    cachefile.write_text(summary_path, ["metric,splits,mean,std\n", *(
        f"{name},{len(v)},{float(np.mean(v))!r},{float(np.std(v))!r}\n"
        for name, v in sorted(by_metric.items())
    )])


def _update_report_csv(path: str, split_index: int,
                       rows: Iterable[tuple[str, float]]) -> list[tuple[int, str, str]]:
    """Replace ``split_index``'s rows of report.csv; return all its rows."""
    existing: list[tuple[int, str, str]] = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            next(f, None)
            for number, line in enumerate(f, 2):
                try:
                    split_i, name, value = line.rstrip("\n").split(",")
                    split_i, _ = int(split_i), float(value)
                except ValueError:
                    raise CacheFormatError(
                        f"{path} line {number}: expected 'split,metric,value' with an integer "
                        f"split and a number, got {line!r}") from None
                if split_i != split_index:
                    existing.append((split_i, name, value))
    for name, value in rows:
        existing.append((split_index, name, repr(float(value))))
    existing.sort(key=lambda r: (r[0], r[1]))
    cachefile.write_text(path, ["split,metric,value\n", *(
        f"{split_i},{name},{value}\n" for split_i, name, value in existing
    )])
    return existing


def _cmd_score(cfg: RunConfig) -> int:
    scores = _score_nodes(cfg)
    out_path = os.path.join(_run_dir(cfg), f"scores_{cfg.split_index}.csv")
    # Python floats: repr is the shortest round-trip form.  Rows are
    # formatted one batch at a time, so the text never holds all n rows.
    cachefile.write_text(out_path, itertools.chain(["node_id,score\n"], (
        "".join(f"{i},{s!r}\n" for i, s in enumerate(scores[lo : lo + cfg.batch_size].tolist(), lo))
        for lo in range(0, len(scores), cfg.batch_size)
    )))
    print(f"wrote {out_path} ({len(scores)} nodes)")
    return 0


def _cmd_homophily(cfg: RunConfig) -> int:
    dataset = graph.parse_dataset(_dataset_dir(cfg))  # the features are not read
    report = graph.homophily_report(dataset.adjacency, dataset.labels)
    print(f"edge homophily: {report.edge_homophily:.6f}")
    print(f"class homophily (abnormal): {report.class_homophily_abnormal:.6f}")
    print(f"class homophily (normal):   {report.class_homophily_normal:.6f}")
    if cfg.run_dir:
        cachefile.write_text(os.path.join(cfg.run_dir, "homophily.csv"), [
            "metric,value\n",
            f"edge_homophily,{report.edge_homophily!r}\n",
            f"class_homophily_abnormal,{report.class_homophily_abnormal!r}\n",
            f"class_homophily_normal,{report.class_homophily_normal!r}\n",
        ])
        cachefile.write_text(os.path.join(cfg.run_dir, "node_homophily.csv"), itertools.chain(
            ["node_id,node_homophily\n"],
            (f"{i},{'' if np.isnan(h) else repr(float(h))}\n"
             for i, h in enumerate(report.node_homophily)),
        ))
    return 0


def _cmd_quartiles(cfg: RunConfig) -> int:
    with _open_image(cfg, graph.IMAGE_SOURCES) as image:
        test_ids = image.split(cfg.split_index, ("test",)).test
        labels = image.labels()
        node_h = graph.node_homophily(image.adjacency(), labels)
    # an unusable test split fails before any node is scored
    metrics.quartile_groups(labels, node_h, test_ids)
    report = metrics.quartile_report(_score_nodes(cfg, image), labels, node_h, test_ids)
    path = os.path.join(_run_dir(cfg), "quartiles.csv")
    cachefile.write_text(path, [
        "group,auprc,auroc\n",
        *(f"Q{q + 1},{report.auprc[q]!r},{report.auroc[q]!r}\n" for q in range(4)),
        *(f"Q1-Q{q},{report.auprc_gaps[i]!r},{report.auroc_gaps[i]!r}\n"
          for i, q in enumerate((2, 3, 4))),
    ])
    print(f"wrote {path}")
    for q in range(4):
        print(f"  Q{q + 1}: AUPRC {report.auprc[q]:.4f}  AUROC {report.auroc[q]:.4f}")
    return 0


def _cmd_synth_csbm(cfg: RunConfig) -> int:
    if not cfg.dataset:
        raise ConfigError("synth-csbm writes to the 'dataset' path; none configured")
    section = cfg.csbm
    for labeled, pool in (("labeled_anomalies", "n_a"), ("labeled_normals", "n_n")):
        value, limit = getattr(section, labeled), getattr(section, pool)
        if not 0 <= value <= limit:
            raise ConfigError(f"csbm.{labeled} must lie in [0, {limit}] (csbm.{pool}), got {value}")
    sample = csbm.generate_csbm(section.to_params(), include_ego=False)
    dataset = sample.dataset
    dataset.splits = csbm.standard_splits(
        dataset.labels,
        num_splits=section.num_splits,
        labeled_anomalies=section.labeled_anomalies,
        labeled_normals=section.labeled_normals,
        seed=section.seed,
    )
    dataset.name = f"csbm-n{dataset.num_nodes}-seed{section.seed}"
    graph.write_dataset(dataset, cfg.dataset)
    with cachefile.atomic_file(os.path.join(cfg.dataset, "regimes.csv")) as f:
        np.savetxt(f, np.column_stack([np.arange(dataset.num_nodes), sample.regimes]),
                   fmt="%d", delimiter=",", header="node_id,regime", comments="")
    print(
        f"wrote dataset to {cfg.dataset}: {dataset.num_nodes} nodes, "
        f"{dataset.adjacency.num_edges} edges, {sample.clipped_pairs} clipped pairs"
    )
    return 0


def _cmd_csbm_sweep(cfg: RunConfig) -> int:
    path = os.path.join(_run_dir(cfg), "csbm_sweep.csv")
    sw = cfg.sweep
    rows = ["seed,d,n,p1,q1,p2,q2,pi_a,regime_frac,kappa_eff,margin_value,"
            "accuracy,acc_anomaly,acc_normal\n"]
    for dim in sw.dims:
        for seed in sw.seeds:
            params = sw.section(dim, seed).to_params()
            res = csbm.separability_experiment(params)
            rows.append(
                f"{seed},{dim},{sw.n},{sw.p1!r},{sw.q1!r},{sw.p2!r},{sw.q2!r},"
                f"{params.pi_a!r},{sw.regime_frac!r},{res.kappa_eff!r},"
                f"{res.margin_value!r},{res.accuracy!r},{res.acc_anomaly!r},"
                f"{res.acc_normal!r}\n"
            )
    cachefile.write_text(path, rows)
    print(f"wrote {path}")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "preprocess": _cmd_preprocess,
    "sample-context": _cmd_sample_context,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "score": _cmd_score,
    "homophily": _cmd_homophily,
    "quartiles": _cmd_quartiles,
    "synth-csbm": _cmd_synth_csbm,
    "csbm-sweep": _cmd_csbm_sweep,
}


def dispatch(command: str, cfg: RunConfig) -> int:
    """Run one pipeline command; persist the resolved config first."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command: {command}")
    _persist_config(cfg, command.replace("-", "_"))
    return _HANDLERS[command](cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagad",
        description="Spectral graph anomaly detection pipeline",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (dotted for nested sections)",
    )
    skip = {"csbm", "sweep"}
    for f in fields(RunConfig):
        if f.name in skip:
            continue
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides: dict = {}
    for f in fields(RunConfig):
        if f.name in ("csbm", "sweep"):
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    for item in args.set:
        if "=" not in item:
            parser.error(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    try:
        cfg = parse_config(args.config, overrides)
        return dispatch(args.command, cfg)
    except SagadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
