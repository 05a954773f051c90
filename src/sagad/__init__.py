"""Scalable graph anomaly detection with dual-pass Chebyshev filters,
Rayleigh-Quotient-guided context, and adaptive frequency fusion."""

from .chebyshev import (
    ChebBasisCache,
    build_cheb_basis,
    read_cache,
    write_cache,
)
from .context import (
    ContextCache,
    build_context_cache,
    read_context_cache,
    write_context_cache,
)
from .csbm import (
    CsbmParams,
    SeparatorSpec,
    generate_csbm,
    random_walk_filter,
    separability_experiment,
    theoretical_separator,
)
from .errors import CacheFormatError, ConfigError, DatasetFormatError, SagadError, SplitError
from .graph import (
    DatasetImage,
    FeatureFile,
    GraphDataset,
    HomophilyReport,
    SparseAdjacency,
    SplitSet,
    edge_homophily,
    homophily_report,
    ingest,
    load_dataset,
    node_homophily,
    normalized_adjacency,
    open_image,
    write_dataset,
)
from .metrics import (
    EvalReport,
    QuartileReport,
    auroc,
    average_precision,
    evaluate,
    quartile_report,
    rec_at_k,
)
from .model import (
    MlpParams,
    ModelConfig,
    ModelState,
    cheb_weights,
    filter_response,
    init_model,
    load_checkpoint,
    reparam_filter_values,
    save_checkpoint,
)
from .training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    compute_beta,
    score_all,
    train,
)

__version__ = "0.1.0"
