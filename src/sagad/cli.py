"""Command-line surface for the full pipeline.

One declarative JSON config drives every command; flags override file
values and the fully resolved config is echoed and persisted next to the
outputs, so a run directory is self-describing and reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import chebyshev, context, csbm, graph, metrics, model, training
from .errors import CacheFormatError, ConfigError, SagadError

COMMANDS = (
    "validate",
    "preprocess",
    "sample-context",
    "train",
    "eval",
    "score",
    "synth-csbm",
    "csbm-sweep",
    "homophily",
    "quartiles",
)


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
    R: float = 1.0
    prior_mode: str = "lda"


@dataclass
class RunConfig:
    dataset: str = ""
    run_dir: str = ""
    split_index: int = 0
    add_self_loops: bool = False
    # model
    K: int = 3
    p_a: float = 0.1
    p_n: float = 0.9
    fusion_mode: str = "adaptive"
    context_mode: str = "rq"
    filter_mode: str = "dual"
    use_fpg: bool = True
    seed: int = 0
    hidden_dim: int = 64
    mlp_depth: int = 2
    activation: str = "relu"
    normalization: str = "none"
    dropout: float = 0.0
    share_gamma: bool = True
    # training
    lr: float = 0.01
    weight_decay: float = 0.0
    max_epochs: int = 1000
    patience: int = 50
    # scoring batch in rows: bounds the memory of eval, score and quartiles
    batch_size: int = 1024
    clamp_eps: float = 1e-7
    beta_override: float | None = None
    # context sampler: candidate cap per node
    cap: int = 64
    # nested sections
    csbm: CsbmSection = field(default_factory=CsbmSection)
    sweep: SweepSection = field(default_factory=SweepSection)

    def model_config(self) -> model.ModelConfig:
        return model.ModelConfig(
            K=self.K,
            p_a=self.p_a,
            p_n=self.p_n,
            fusion_mode=self.fusion_mode,
            context_mode=self.context_mode,
            filter_mode=self.filter_mode,
            use_fpg=self.use_fpg,
            seed=self.seed,
            hidden_dim=self.hidden_dim,
            mlp_depth=self.mlp_depth,
            activation=self.activation,
            normalization=self.normalization,
            dropout=self.dropout,
            share_gamma=self.share_gamma,
        )

    def train_config(self) -> training.TrainConfig:
        return training.TrainConfig(
            lr=self.lr,
            weight_decay=self.weight_decay,
            max_epochs=self.max_epochs,
            patience=self.patience,
            clamp_eps=self.clamp_eps,
            beta_override=self.beta_override,
        )

    def validate(self) -> None:
        self.model_config().validate()
        self.train_config().validate()
        if self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


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


_OPTIONAL_FLOAT_KEYS = {"beta_override"}
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
        elif key in _OPTIONAL_FLOAT_KEYS:
            if value is None or (isinstance(value, str) and value.lower() == "none"):
                setattr(cfg, key, None)
            else:
                setattr(cfg, key, _number(value, float, f"{prefix}{key}"))
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


def _resolved_json(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


def _persist_config(cfg: RunConfig, command: str) -> None:
    if not cfg.run_dir:
        return
    os.makedirs(cfg.run_dir, exist_ok=True)
    payload = dataclasses.asdict(cfg)
    payload["_command"] = command
    payload["_tie_policy"] = metrics.TIE_POLICY
    with open(os.path.join(cfg.run_dir, f"config_{command}.json"), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def _require_file(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"missing prerequisite artifact: {path} ({hint})")
    return path


def _cheb_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.run_dir, "cheb_cache.bin")


def _context_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.run_dir, "context_cache.bin")


def _checkpoint_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.run_dir, f"checkpoint_{cfg.split_index}.bin")


def _dataset_dir(cfg: RunConfig) -> str:
    if not cfg.dataset:
        raise ConfigError("no dataset path configured (set 'dataset')")
    return cfg.dataset


def _load_dataset(cfg: RunConfig) -> graph.GraphDataset:
    return graph.load_dataset(_dataset_dir(cfg))


def _get_split(data, index: int) -> graph.SplitSet:
    if index < 0 or index >= len(data.splits):
        raise ConfigError(
            f"split index {index} out of range; dataset has {len(data.splits)} splits"
        )
    return data.splits[index]


@contextlib.contextmanager
def _load_caches(cfg: RunConfig, data=None):
    """Open the basis cache and, if the model uses one, the context cache.

    A context manager: the caches are read by row while the block runs
    and their files are closed when it ends.  The basis cache's order
    must equal ``cfg.K``.  ``data`` (a Supervision or GraphDataset) is the
    dataset the caches stand in for; when given, the caches must match
    its node count and feature dimension.
    """
    with contextlib.ExitStack() as stack:
        cheb = stack.enter_context(
            chebyshev.read_cache(_require_file(_cheb_path(cfg), "run `preprocess` first"))
        )
        ctx = None
        if cfg.model_config().needs_context():
            ctx = stack.enter_context(context.read_context_cache(
                _require_file(_context_path(cfg), "run `sample-context` first")
            ))
        if cheb.order != cfg.K:
            raise CacheFormatError(
                f"cheb_cache.bin K={cheb.order} does not match the config's K={cfg.K}; "
                "rerun `preprocess` with this K"
            )
        if data is not None:
            found = [("cheb_cache.bin n", cheb.num_nodes, "num_nodes", data.num_nodes),
                     ("cheb_cache.bin d", cheb.dim, "num_features", data.num_features)]
            if ctx is not None:
                found.append(("context_cache.bin n", ctx.num_nodes, "num_nodes", data.num_nodes))
            for what, got, key, want in found:
                if got != want:
                    raise CacheFormatError(
                        f"{what}={got} does not match the dataset's {key}={want}; "
                        "rerun `preprocess` and `sample-context` on this dataset"
                    )
        yield cheb, ctx


def _score_nodes(cfg: RunConfig, data=None) -> np.ndarray:
    """Every node's score under the split's checkpoint (eval, score, quartiles)."""
    with _load_caches(cfg, data) as (cheb, ctx):
        state = model.load_checkpoint(
            _require_file(_checkpoint_path(cfg), "run `train` first")
        )
        if state.config.K != cheb.order:
            raise CacheFormatError(
                f"{_checkpoint_path(cfg)} was trained with K={state.config.K}, but "
                f"cheb_cache.bin has K={cheb.order}"
            )
        return training.score_all(state, cheb, ctx, batch_size=cfg.batch_size)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
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
    dataset = _load_dataset(cfg)
    cache = chebyshev.build_cheb_basis(dataset, cfg.K, add_self_loops=cfg.add_self_loops)
    os.makedirs(cfg.run_dir, exist_ok=True)
    chebyshev.write_cache(cache, _cheb_path(cfg))
    print(f"wrote {_cheb_path(cfg)} (K={cfg.K}, n={cache.num_nodes}, d={cache.dim})")
    return 0


def _cmd_sample_context(cfg: RunConfig) -> int:
    if cfg.context_mode == "features_only":
        raise ConfigError("context_mode features_only does not use a context cache")
    dataset = _load_dataset(cfg)
    cache = context.build_context_cache(dataset, cap=cfg.cap, seed=cfg.seed, mode=cfg.context_mode)
    os.makedirs(cfg.run_dir, exist_ok=True)
    context.write_context_cache(cache, _context_path(cfg))
    print(f"wrote {_context_path(cfg)} (mode={cfg.context_mode}, n={cache.num_nodes})")
    return 0


def _cmd_train(cfg: RunConfig) -> int:
    sup = graph.load_supervision(_dataset_dir(cfg))
    split = _get_split(sup, cfg.split_index)
    with _load_caches(cfg, sup) as (cheb, ctx):
        state, history = training.train(
            sup.labels, cheb, ctx, cfg.model_config(), cfg.train_config(), split
        )
    model.save_checkpoint(state, _checkpoint_path(cfg))
    hist_path = os.path.join(cfg.run_dir, f"history_{cfg.split_index}.csv")
    with open(hist_path, "w", encoding="utf-8") as f:
        f.write("epoch,train_loss,val_auprc\n")
        for rec in history:
            f.write(f"{rec.epoch},{rec.train_loss!r},{rec.val_auprc!r}\n")
    best = max(history, key=lambda r: r.val_auprc)
    print(
        f"trained split {cfg.split_index}: {len(history)} epochs, "
        f"best val AUPRC {best.val_auprc:.4f} at epoch {best.epoch}"
    )
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    sup = graph.load_supervision(_dataset_dir(cfg))
    split = _get_split(sup, cfg.split_index)
    scores = _score_nodes(cfg, sup)
    test_ids = np.asarray(split.test, dtype=np.int64)
    y_test = sup.labels[test_ids]
    if np.any(y_test == graph.UNKNOWN_LABEL):
        raise ConfigError("test split contains unlabeled nodes; cannot evaluate")
    report = metrics.evaluate(scores[test_ids], y_test)
    report_path = os.path.join(cfg.run_dir, "report.csv")
    _update_report_csv(
        report_path,
        cfg.split_index,
        [
            ("auroc", report.auroc),
            ("auprc", report.auprc),
            ("rec_at_k", report.rec_at_k),
            ("k_used", float(report.k_used)),
        ],
    )
    _write_summary_csv(report_path, os.path.join(cfg.run_dir, "summary.csv"))
    print(
        f"split {cfg.split_index}: AUROC {report.auroc:.4f}  AUPRC {report.auprc:.4f}  "
        f"Rec@{report.k_used} {report.rec_at_k:.4f}"
    )
    return 0


def _write_summary_csv(report_path: str, summary_path: str) -> None:
    """Aggregate per-split metric rows into mean and std across splits."""
    by_metric: dict[str, list[float]] = {}
    with open(report_path, "r", encoding="utf-8") as f:
        next(f, None)
        for line in f:
            _, name, value = line.rstrip("\n").split(",")
            by_metric.setdefault(name, []).append(float(value))
    with open(summary_path, "w", encoding="utf-8") as f:
        f.write("metric,splits,mean,std\n")
        for name in sorted(by_metric):
            vals = np.asarray(by_metric[name])
            f.write(f"{name},{len(vals)},{float(vals.mean())!r},{float(vals.std())!r}\n")


def _update_report_csv(path: str, split_index: int, rows: list[tuple[str, float]]) -> None:
    existing: list[tuple[int, str, str]] = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            next(f, None)
            for line in f:
                parts = line.rstrip("\n").split(",")
                if len(parts) == 3 and int(parts[0]) != split_index:
                    existing.append((int(parts[0]), parts[1], parts[2]))
    for name, value in rows:
        existing.append((split_index, name, repr(float(value))))
    existing.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as f:
        f.write("split,metric,value\n")
        for split_i, name, value in existing:
            f.write(f"{split_i},{name},{value}\n")


def _cmd_score(cfg: RunConfig) -> int:
    scores = _score_nodes(cfg)
    out_path = os.path.join(cfg.run_dir, f"scores_{cfg.split_index}.csv")
    with open(out_path, "w", encoding="utf-8") as f:
        # Python floats: repr is the shortest round-trip form.  Rows are
        # formatted one batch at a time, so the text never holds all n rows.
        f.write("node_id,score\n")
        for lo in range(0, len(scores), cfg.batch_size):
            rows = scores[lo : lo + cfg.batch_size].tolist()
            f.write("".join(f"{i},{s!r}\n" for i, s in enumerate(rows, lo)))
    print(f"wrote {out_path} ({len(scores)} nodes)")
    return 0


def _cmd_homophily(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    report = graph.homophily_report(dataset)
    print(f"edge homophily: {report.edge_homophily:.6f}")
    print(f"class homophily (abnormal): {report.class_homophily_abnormal:.6f}")
    print(f"class homophily (normal):   {report.class_homophily_normal:.6f}")
    if cfg.run_dir:
        os.makedirs(cfg.run_dir, exist_ok=True)
        path = os.path.join(cfg.run_dir, "homophily.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("metric,value\n")
            f.write(f"edge_homophily,{report.edge_homophily!r}\n")
            f.write(f"class_homophily_abnormal,{report.class_homophily_abnormal!r}\n")
            f.write(f"class_homophily_normal,{report.class_homophily_normal!r}\n")
        node_path = os.path.join(cfg.run_dir, "node_homophily.csv")
        with open(node_path, "w", encoding="utf-8") as f:
            f.write("node_id,node_homophily\n")
            for i, h in enumerate(report.node_homophily):
                f.write(f"{i},{'' if np.isnan(h) else repr(float(h))}\n")
    return 0


def _cmd_quartiles(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    split = _get_split(dataset, cfg.split_index)
    scores = _score_nodes(cfg, dataset)
    node_h = graph.node_homophily(dataset)
    report = metrics.quartile_report(scores, dataset.labels, node_h, np.asarray(split.test))
    path = os.path.join(cfg.run_dir, "quartiles.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("group,auprc,auroc\n")
        for q in range(4):
            f.write(f"Q{q + 1},{report.auprc[q]!r},{report.auroc[q]!r}\n")
        for i, q in enumerate((2, 3, 4)):
            f.write(f"Q1-Q{q},{report.auprc_gaps[i]!r},{report.auroc_gaps[i]!r}\n")
    print(f"wrote {path}")
    for q in range(4):
        print(f"  Q{q + 1}: AUPRC {report.auprc[q]:.4f}  AUROC {report.auroc[q]:.4f}")
    return 0


def _cmd_synth_csbm(cfg: RunConfig) -> int:
    if not cfg.dataset:
        raise ConfigError("synth-csbm writes to the 'dataset' path; none configured")
    section = cfg.csbm
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
    with open(os.path.join(cfg.dataset, "regimes.csv"), "w", encoding="utf-8") as f:
        f.write("node_id,regime\n")
        for i, r in enumerate(sample.regimes):
            f.write(f"{i},{int(r)}\n")
    print(
        f"wrote dataset to {cfg.dataset}: {dataset.num_nodes} nodes, "
        f"{dataset.adjacency.num_edges} edges, {sample.clipped_pairs} clipped pairs"
    )
    return 0


def _cmd_csbm_sweep(cfg: RunConfig) -> int:
    if not cfg.run_dir:
        raise ConfigError("csbm-sweep requires run_dir for its output CSV")
    sw = cfg.sweep
    os.makedirs(cfg.run_dir, exist_ok=True)
    path = os.path.join(cfg.run_dir, "csbm_sweep.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write(
            "seed,d,n,p1,q1,p2,q2,pi_a,regime_frac,kappa_eff,margin_value,"
            "accuracy,acc_anomaly,acc_normal\n"
        )
        for dim in sw.dims:
            direction = np.ones(dim) / np.sqrt(dim)
            n_a = int(round(sw.n * sw.anomaly_frac))
            for seed in sw.seeds:
                params = csbm.CsbmParams(
                    n_a=n_a,
                    n_n=sw.n - n_a,
                    mu=-0.5 * sw.mean_gap * direction,
                    nu=0.5 * sw.mean_gap * direction,
                    p1=sw.p1,
                    q1=sw.q1,
                    p2=sw.p2,
                    q2=sw.q2,
                    regime_frac=sw.regime_frac,
                    seed=seed,
                )
                res = csbm.separability_experiment(params, R=sw.R, prior_mode=sw.prior_mode)
                f.write(
                    f"{seed},{dim},{sw.n},{sw.p1!r},{sw.q1!r},{sw.p2!r},{sw.q2!r},"
                    f"{params.pi_a!r},{sw.regime_frac!r},{res.kappa_eff!r},"
                    f"{res.margin_value!r},{res.accuracy!r},{res.acc_anomaly!r},"
                    f"{res.acc_normal!r}\n"
                )
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
    """Run one pipeline command; echo and persist the resolved config."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command: {command}")
    print(_resolved_json(cfg))
    _persist_config(cfg, command.replace("-", "_"))
    return _HANDLERS[command](cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagad",
        description="Spectral graph anomaly detection pipeline",
    )
    parser.add_argument("command", choices=COMMANDS)
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
