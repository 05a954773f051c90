"""Graph and dataset representation, validation, and homophily metrics.

The structural source of truth is a symmetric CSR adjacency without
self-loops.  Datasets live on disk as a small directory of neutral files
(meta.json, edges.tsv, features.bin or features.csv, labels.csv,
splits.json) so they can be produced and consumed by external tools.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cachefile import BinaryFormat, CacheFile, atomic_file, write_text
from .errors import DatasetFormatError

UNKNOWN_LABEL = -1

# header: u64 n, u64 d; then the (n, d) f32 features, row-major
FEATURES_FORMAT = BinaryFormat(b"SGFEAT01", "<QQ", "features.bin", DatasetFormatError)
FEATURES_MAGIC = FEATURES_FORMAT.magic


@dataclass
class SparseAdjacency:
    """Symmetric adjacency held as one scipy CSR (``csr``): one-byte unit
    values, no self-loops, sorted columns, no duplicates.

    Each undirected edge is stored twice (once per direction), so
    ``col_indices`` has length 2m for m undirected edges.  scipy picks the
    index dtype: int32 while 2m < 2^31.  scipy is imported on first use, so
    the commands that never build a graph do not pay for importing it.
    """

    csr: "scipy.sparse.csr_matrix"

    @classmethod
    def from_edges(cls, num_nodes: int, edges: np.ndarray) -> "SparseAdjacency":
        """Build from an (m, 2) array of node-id pairs.

        Direction is ignored, duplicates are merged, self-loops dropped.
        This is the one place the class invariants are established, each by
        one step below, so nothing checks them again:

        - ids in [0, num_nodes): the range check, which raises
          DatasetFormatError (the only check; edges come from outside);
        - no self-loops: the ``keep`` mask;
        - unique columns: scipy's COO->CSR conversion sums duplicates;
        - symmetric: ``half + half.T``;
        - sorted columns: ``sort_indices``;
        - unit values: the int8 ones written last.
        """
        import scipy.sparse as sp

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise DatasetFormatError(
                f"edge endpoint out of range [0, {num_nodes}): "
                f"min={edges.min()}, max={edges.max()}"
            )
        keep = edges[:, 0] != edges[:, 1]
        # Duplicates are summed as f32 counts, which saturate but never reach
        # 0 (a narrow integer count could wrap to 0 and be dropped as an
        # explicit zero); f32 halves the transient of the sum below.  The
        # stored values are int8 ones: no consumer reads them but as 1.
        half = sp.coo_matrix(
            (np.ones(int(keep.sum()), dtype=np.float32), (edges[keep, 0], edges[keep, 1])),
            shape=(num_nodes, num_nodes),
        ).tocsr()
        csr = half + half.T
        del half
        csr.sort_indices()
        csr.data = np.ones(csr.nnz, dtype=np.int8)
        return cls(csr)

    @property
    def num_nodes(self) -> int:
        return self.csr.shape[0]

    @property
    def row_offsets(self) -> np.ndarray:
        return self.csr.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self.csr.indices

    @property
    def num_edges(self) -> int:
        """Number of unordered edges."""
        return len(self.col_indices) // 2

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry (aligned with ``col_indices``)."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.row_offsets))

    def neighbors(self, node: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[node] : self.row_offsets[node + 1]]


@dataclass
class SplitSet:
    """One train/val/test partition of node ids."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def validate(self, num_nodes: int, labels: np.ndarray) -> None:
        parts = {"train": self.train, "val": self.val, "test": self.test}
        seen = np.zeros(num_nodes, dtype=bool)
        for name, ids in parts.items():
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
                raise DatasetFormatError(f"{name} split contains node id >= {num_nodes}")
            if np.any(np.bincount(ids, minlength=num_nodes) > 1):
                raise DatasetFormatError(f"{name} split contains duplicate ids")
            if np.any(seen[ids]):
                raise DatasetFormatError("splits are not pairwise disjoint")
            seen[ids] = True
        for name in ("train", "val"):
            ids = parts[name]
            if ids.size and np.any(labels[np.asarray(ids)] == UNKNOWN_LABEL):
                raise DatasetFormatError(f"{name} split contains unlabeled nodes")


@dataclass
class Supervision:
    """The part of a dataset directory that training and evaluation read:
    meta.json, labels.csv and splits.json.  Never the graph or features."""

    name: str
    num_nodes: int
    num_features: int
    labels: np.ndarray
    splits: list[SplitSet]


@dataclass
class GraphDataset:
    """Adjacency + features + labels + evaluation splits.

    Labels are 1 for anomalies (positive class), 0 for normal nodes and
    UNKNOWN_LABEL (-1) where no ground truth is available.
    """

    adjacency: SparseAdjacency
    features: np.ndarray
    labels: np.ndarray
    splits: list[SplitSet] = field(default_factory=list)
    name: str = "unnamed"

    @property
    def num_nodes(self) -> int:
        return self.adjacency.num_nodes

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass
class HomophilyReport:
    edge_homophily: float
    node_homophily: np.ndarray
    class_homophily_abnormal: float
    class_homophily_normal: float


# ---------------------------------------------------------------------------
# Normalized operators
# ---------------------------------------------------------------------------


def degree_scaling(adj: SparseAdjacency) -> np.ndarray:
    """D^{-1/2} of A: one f64 per node, 0 for an isolated node."""
    # the values are all 1, so a degree is an entry count
    deg = np.diff(adj.row_offsets).astype(np.float64)
    with np.errstate(divide="ignore"):
        return np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)


def normalized_adjacency(adj: SparseAdjacency, rows: tuple[int, int] | None = None,
                         scaling: np.ndarray | None = None):
    """Symmetric normalization D^{-1/2} A D^{-1/2}, as a CSR over the same
    index arrays as its operand.

    ``rows=(lo, hi)`` gives rows lo:hi only, as a (hi - lo, n) CSR whose
    values are formed for those rows alone, over the graph's index slices.
    ``scaling`` is ``degree_scaling(adj)``, passed by a caller that asks
    for many row chunks so it is computed once.  Rows and columns of
    isolated nodes stay all-zero (they have no entries).
    """
    import scipy.sparse as sp

    csr, n = adj.csr, adj.num_nodes
    lo, hi = (0, n) if rows is None else rows
    if scaling is None:
        scaling = degree_scaling(adj)
    start, stop = csr.indptr[lo], csr.indptr[hi]
    indices, indptr = csr.indices[start:stop], csr.indptr[lo : hi + 1]
    if start:
        indptr = indptr - start
    vals = np.repeat(scaling[lo:hi], np.diff(indptr)) * scaling[indices]
    return sp.csr_matrix((vals, indices, indptr), shape=(hi - lo, n), copy=False)


# ---------------------------------------------------------------------------
# Homophily metrics
# ---------------------------------------------------------------------------


def _agreement(dataset: GraphDataset, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node, the neighbors sharing its label, the degree (both f64) and
    their ratio, the node homophily (NaN for an isolated node): the one pass
    over the edges every homophily value is derived from.

    An edge endpoint without a label raises, naming ``what``; the graph is
    symmetric, so the endpoints are the nodes of nonzero degree.
    """
    adj, labels = dataset.adjacency, dataset.labels
    counts = np.diff(adj.row_offsets).astype(np.float64)
    bad = np.flatnonzero((counts > 0) & (labels == UNKNOWN_LABEL))
    if bad.size:
        raise DatasetFormatError(f"{what}: node {bad[0]} has no label")
    rows = adj.row_ids()
    same = (labels[rows] == labels[adj.col_indices]).astype(np.float64)
    agree = np.bincount(rows, weights=same, minlength=adj.num_nodes)
    with np.errstate(invalid="ignore", divide="ignore"):
        return agree, counts, np.where(counts > 0, agree / counts, np.nan)


def edge_homophily(dataset: GraphDataset) -> float:
    """Fraction of unordered edges whose endpoints share a label."""
    if dataset.adjacency.num_edges == 0:
        return 0.0
    agree, counts, _ = _agreement(dataset, "edge_homophily")
    # Each undirected edge appears twice, so the fraction over directed
    # entries (two exact integer sums) equals the unordered-edge fraction.
    return float(agree.sum() / counts.sum())


def node_homophily(dataset: GraphDataset) -> np.ndarray:
    """Per-node fraction of neighbors sharing the node's label.

    Isolated nodes get NaN and are excluded from downstream averages.
    """
    return _agreement(dataset, "node_homophily")[2]


def class_homophily(dataset: GraphDataset) -> tuple[float, float]:
    """Mean node homophily over anomalies and over normal nodes."""
    report = homophily_report(dataset)
    return report.class_homophily_abnormal, report.class_homophily_normal


def homophily_report(dataset: GraphDataset) -> HomophilyReport:
    """Edge, node and class homophily from one pass over the edges."""
    agree, counts, h = _agreement(dataset, "node_homophily")
    means = []
    for cls, name in ((1, "abnormal"), (0, "normal")):
        mask = (dataset.labels == cls) & ~np.isnan(h)
        if not np.any(mask):
            raise DatasetFormatError(
                f"class_homophily: no {name} node has a defined node homophily"
            )
        means.append(float(np.mean(h[mask])))
    return HomophilyReport(
        edge_homophily=float(agree.sum() / counts.sum()) if dataset.adjacency.num_edges else 0.0,
        node_homophily=h,
        class_homophily_abnormal=means[0],
        class_homophily_normal=means[1],
    )


# ---------------------------------------------------------------------------
# Dataset directory I/O
# ---------------------------------------------------------------------------


def _dataset_file(directory: str, name: str) -> str:
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        raise DatasetFormatError(f"missing dataset file: {path}")
    return path


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
            raise DatasetFormatError(f"{path} is not valid JSON: {exc}") from exc


def _read_meta(directory: str) -> dict:
    meta = _read_json(_dataset_file(directory, "meta.json"))
    if not isinstance(meta, dict):
        raise DatasetFormatError("meta.json must hold a JSON object")
    for key in ("name", "num_nodes", "num_features"):
        if key not in meta:
            raise DatasetFormatError(f"meta.json missing key '{key}'")
    for key, low in (("num_nodes", 0), ("num_features", 1)):
        value = meta[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise DatasetFormatError(f"meta.json: {key} must be an integer >= {low}, got {value!r}")
    return meta


def _read_supervision(directory: str, meta: dict) -> Supervision:
    n = meta["num_nodes"]
    labels = _read_labels_csv(_dataset_file(directory, "labels.csv"), n)
    splits = _read_splits_json(_dataset_file(directory, "splits.json"))
    for s in splits:
        s.validate(n, labels)
    return Supervision(
        name=str(meta["name"]),
        num_nodes=n,
        num_features=meta["num_features"],
        labels=labels,
        splits=splits,
    )


def load_supervision(directory: str | os.PathLike) -> Supervision:
    """Load and validate meta.json, labels.csv and splits.json.

    This is all that training and evaluation need of a dataset: the graph
    and the features reach them only through the precomputed caches, so
    edges.tsv and the feature file are not opened.
    """
    directory = os.fspath(directory)
    return _read_supervision(directory, _read_meta(directory))


def load_dataset(directory: str | os.PathLike) -> GraphDataset:
    """Load and validate a dataset directory.

    The directory must contain meta.json, edges.tsv, labels.csv,
    splits.json and either features.bin or features.csv.  Edges are
    symmetrized and deduplicated; self-loops are dropped.  Features must
    be finite.
    """
    directory = os.fspath(directory)
    meta = _read_meta(directory)
    n, d = meta["num_nodes"], meta["num_features"]

    edges = _read_edges_tsv(_dataset_file(directory, "edges.tsv"))
    adjacency = SparseAdjacency.from_edges(n, edges)

    path = os.path.join(directory, "features.bin")
    if os.path.exists(path):
        features = FEATURES_FORMAT.read(path, _features_from_file)
    else:
        path = _dataset_file(directory, "features.csv")
        features = _read_features_csv(path)
    if features.shape[0] != n:
        raise DatasetFormatError(
            f"feature rows ({features.shape[0]}) != num_nodes ({n})"
        )
    if features.shape[1] != d:
        raise DatasetFormatError(
            f"feature dim ({features.shape[1]}) != meta num_features ({d})"
        )
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise DatasetFormatError(
            f"{os.path.basename(path)}: non-finite value at node {int(np.argmin(finite))}"
        )

    sup = _read_supervision(directory, meta)
    return GraphDataset(
        adjacency=adjacency,
        features=features,
        labels=sup.labels,
        splits=sup.splits,
        name=sup.name,
    )


def write_dataset(dataset: GraphDataset, directory: str | os.PathLike) -> None:
    """Serialize a dataset into the directory format understood by load_dataset."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    meta = {
        "name": dataset.name,
        "num_nodes": dataset.num_nodes,
        "num_features": dataset.num_features,
    }
    write_text(os.path.join(directory, "meta.json"), [json.dumps(meta, sort_keys=True, indent=2)])

    adj = dataset.adjacency
    rows = adj.row_ids()
    mask = rows < adj.col_indices  # each unordered edge once
    with atomic_file(os.path.join(directory, "edges.tsv")) as f:
        np.savetxt(f, np.column_stack([rows[mask], adj.col_indices[mask]]), fmt="%d",
                   delimiter="\t")

    FEATURES_FORMAT.write(os.path.join(directory, "features.bin"), dataset.features.shape,
                          [(dataset.features, "<f4")])

    labeled = np.flatnonzero(dataset.labels != UNKNOWN_LABEL)
    with atomic_file(os.path.join(directory, "labels.csv")) as f:
        np.savetxt(f, np.column_stack([labeled, dataset.labels[labeled]]), fmt="%d",
                   delimiter=",")

    payload = [{part: np.asarray(getattr(s, part)).tolist() for part in ("train", "val", "test")}
               for s in dataset.splits]
    write_text(os.path.join(directory, "splits.json"), [json.dumps(payload)])


def _read_int_pairs(path: str, delimiter: str | None, layout: str) -> np.ndarray:
    """Parse a text file of two integer columns in one vectorized pass.

    Blank lines are skipped; an empty file gives a (0, 2) array.
    """
    name = os.path.basename(path)
    try:
        with warnings.catch_warnings():
            # an empty file is valid: a graph without edges, or no labels
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=np.int64, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError as exc:
        raise DatasetFormatError(f"{name}: {exc}") from exc
    if table.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if table.shape[1] != 2:
        raise DatasetFormatError(
            f"{name}: expected '{layout}' on every line, got {table.shape[1]} columns"
        )
    return table


def _read_edges_tsv(path: str) -> np.ndarray:
    return _read_int_pairs(path, None, "u<TAB>v")


def _features_from_file(file: CacheFile) -> np.ndarray:
    n, d = file.fields
    file.expect_payload(n * d * 4)
    features = np.empty((n, d), dtype="<f4")
    file.read_into(features, file.payload_offset)
    return features


def _read_features_csv(path: str) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DatasetFormatError(f"features.csv: {exc}") from exc
    return data.astype(np.float32)


def _read_labels_csv(path: str, num_nodes: int) -> np.ndarray:
    table = _read_int_pairs(path, ",", "node_id,label")
    nodes, values = table[:, 0], table[:, 1]
    out = (nodes < 0) | (nodes >= num_nodes)
    if np.any(out):
        node = nodes[out][0]
        bound = "< 0" if node < 0 else f">= {num_nodes}"
        raise DatasetFormatError(f"labels.csv: node id {node} {bound}")
    bad = (values != 0) & (values != 1)
    if np.any(bad):
        raise DatasetFormatError(
            f"labels.csv: non-binary label {values[bad][0]} for node {nodes[bad][0]}"
        )
    labels = np.full(num_nodes, UNKNOWN_LABEL, dtype=np.int8)
    labels[nodes] = values
    # fewer labeled nodes than lines: a node is listed twice
    if np.count_nonzero(labels != UNKNOWN_LABEL) != len(nodes):
        node = np.flatnonzero(np.bincount(nodes) > 1)[0]
        raise DatasetFormatError(f"labels.csv: node {node} is listed more than once")
    return labels


def _read_splits_json(path: str) -> list[SplitSet]:
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise DatasetFormatError("splits.json must hold an array of split objects")
    splits = []
    for i, entry in enumerate(raw):
        try:
            splits.append(
                SplitSet(
                    train=np.asarray(entry["train"], dtype=np.int64),
                    val=np.asarray(entry["val"], dtype=np.int64),
                    test=np.asarray(entry["test"], dtype=np.int64),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"splits.json entry {i}: {exc}") from exc
    return splits
