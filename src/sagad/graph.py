"""Graph and dataset representation, validation, and homophily metrics.

The structural source of truth is a symmetric CSR adjacency without
self-loops.  Datasets live on disk as a small directory of neutral files
(meta.json, edges.tsv, features.bin or features.csv, labels.csv,
splits.json) so they can be produced and consumed by external tools.
``ingest`` parses them once and writes the parsed graph, labels and
splits as one binary image (``dataset.bin``); ``open_image`` reads its
parts back without parsing text.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cachefile import (BinaryFormat, CacheFile, CacheRows, FileBacked, atomic_file, fingerprint,
                        write_text)
from .errors import CacheFormatError, ConfigError, DatasetFormatError

UNKNOWN_LABEL = -1

# header: u64 n, u64 d; then the (n, d) f32 features, row-major
FEATURES_FORMAT = BinaryFormat(b"SGFEAT01", "<QQ", "features.bin", DatasetFormatError)
FEATURES_MAGIC = FEATURES_FORMAT.magic

# header: u64 n, u64 d, u64 nnz (stored CSR entries), u64 split count, u8 id
# width in bytes (4 or 8), then u64 size and u32 crc32 of each IMAGE_SOURCES
# file; then the CSR's indptr (n+1 ids) and indices (nnz ids), the n int8
# labels, the split offsets (3 * splits + 1 u64: part p of split i is ids
# offsets[3i+p]:offsets[3i+p+1]) and the split ids.  Ids are little-endian
# signed integers of the width the CSR's index dtype has.
IMAGE_FORMAT = BinaryFormat(b"SGIMG001", "<QQQQB" + "QI" * 4, "dataset.bin")
IMAGE_SOURCES = ("meta.json", "edges.tsv", "labels.csv", "splits.json")
# the files the labels and splits come from: all that train and eval check
SUPERVISION_SOURCES = ("meta.json", "labels.csv", "splits.json")
SPLIT_PARTS = ("train", "val", "test")


@dataclass
class SparseAdjacency:
    """Symmetric adjacency held as the two index arrays of a CSR with unit
    values: ``row_offsets`` (its ``indptr``, n+1 entries) and
    ``col_indices`` (its ``indices``), sorted within each row, without
    duplicates or self-loops.

    Each undirected edge is stored twice (once per direction), so
    ``col_indices`` has length 2m for m undirected edges.  scipy picks the
    index dtype: int32 while 2m < 2^31.  Only ``from_edges`` and
    ``to_csr`` import scipy, so a command that builds no graph and forms
    no sparse product never pays for importing it.
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray

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
        - sorted columns: ``sort_indices``.
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
        # explicit zero); f32 halves the transient of the sum below.  Only
        # the index arrays are kept: every entry stands for a 1.
        half = sp.coo_matrix(
            (np.ones(int(keep.sum()), dtype=np.float32), (edges[keep, 0], edges[keep, 1])),
            shape=(num_nodes, num_nodes),
        ).tocsr()
        csr = half + half.T
        del half
        csr.sort_indices()
        return cls(csr.indptr, csr.indices)

    @property
    def num_nodes(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of unordered edges."""
        return len(self.col_indices) // 2

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry (aligned with ``col_indices``)."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.row_offsets))

    def neighbors(self, node: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[node] : self.row_offsets[node + 1]]

    def to_csr(self, rows: tuple[int, int] | None = None, values: np.ndarray | None = None):
        """Rows lo:hi (``rows``; all rows by default) as a (hi - lo, n) scipy
        CSR over slices of the index arrays, not copies.  Its values are
        ``values``, one per stored entry of those rows, or int8 ones: the
        operator to multiply by, ``to_csr() @ x`` sums each node's
        neighbors."""
        import scipy.sparse as sp

        n = self.num_nodes
        lo, hi = (0, n) if rows is None else rows
        start, stop = self.row_offsets[lo], self.row_offsets[hi]
        indptr = self.row_offsets[lo : hi + 1]
        if start:
            indptr = indptr - start
        if values is None:
            values = np.ones(stop - start, dtype=np.int8)
        return sp.csr_matrix((values, self.col_indices[start:stop], indptr), shape=(hi - lo, n),
                             copy=False)


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
            outside = (ids < 0) | (ids >= num_nodes)
            if np.any(outside):
                raise DatasetFormatError(
                    f"{name} split contains node id {ids[outside][0]} outside [0, {num_nodes})"
                )
            if np.any(np.bincount(ids, minlength=num_nodes) > 1):
                raise DatasetFormatError(f"{name} split contains duplicate ids")
            if np.any(seen[ids]):
                raise DatasetFormatError("splits are not pairwise disjoint")
            seen[ids] = True
        for name in ("train", "val"):
            ids = parts[name]
            if ids.size and np.any(labels[np.asarray(ids)] == UNKNOWN_LABEL):
                raise DatasetFormatError(f"{name} split contains unlabeled nodes")


# Rows per chunk of a features.bin read, or of a cast into a
# ``feature_matrix``: a chunk's buffer stays small next to the whole matrix.
FEATURE_CHUNK_ROWS = 1 << 13


@dataclass
class FeatureFile:
    """The features of the dataset ``directory``, not yet read: its
    features.bin, or else its features.csv, which must hold a
    (num_nodes, num_features) matrix of finite values."""

    directory: str
    num_nodes: int
    num_features: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.num_nodes, self.num_features

    def read(self, dtype=np.float32) -> np.ndarray:
        """The features as a new C-order array of ``dtype``, checked.

        features.bin is read FEATURE_CHUNK_ROWS rows at a time, each chunk
        checked finite and then cast into the result, so an f64 result is
        filled without an f32 copy of the matrix.  features.csv is parsed
        whole as f64 and rounded to f32, as features.bin stores them; a
        finite value beyond the f32 range is rejected.
        """
        path = os.path.join(self.directory, "features.bin")
        if os.path.exists(path):
            return FEATURES_FORMAT.read(path, lambda file: self._read_bin(file, dtype))
        path = _dataset_file(self.directory, "features.csv")
        features = _read_features_csv(path)
        self._check_shape(path, *features.shape)
        _check_finite(path, features, 0)
        with np.errstate(over="ignore"):
            features = features.astype(np.float32)
        _check_finite(path, features, 0, "value outside the float32 range")
        return features.astype(dtype, copy=False)

    def _read_bin(self, file: CacheFile, dtype) -> np.ndarray:
        rows, dim = file.fields
        file.expect_payload(rows * dim * 4)
        self._check_shape(file.path, rows, dim)
        out = np.empty(self.shape, dtype=dtype)
        # f32 rows are read in place; other dtypes through one chunk buffer
        buffer = None if out.dtype == np.dtype("<f4") else np.empty(
            (min(FEATURE_CHUNK_ROWS, rows), dim), "<f4")
        for lo in range(0, rows, FEATURE_CHUNK_ROWS):
            hi = min(lo + FEATURE_CHUNK_ROWS, rows)
            chunk = out[lo:hi] if buffer is None else buffer[: hi - lo]
            file.read_into(chunk, file.payload_offset + lo * dim * 4)
            _check_finite(file.path, chunk, lo)
            if buffer is not None:
                out[lo:hi] = chunk
        return out

    def _check_shape(self, path: str, rows: int, dim: int) -> None:
        for what, got, key, want in (("rows", rows, "num_nodes", self.num_nodes),
                                     ("dim", dim, "num_features", self.num_features)):
            if got != want:
                raise DatasetFormatError(f"feature {what} ({got}) != meta {key} ({want}) "
                                         f"(in {path})")


def _check_finite(path: str, rows: np.ndarray, first: int,
                  what: str = "non-finite value") -> None:
    """Raise naming the first node of ``rows`` (node ``first`` onward) that
    holds a non-finite value, as ``what``."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise DatasetFormatError(
            f"{os.path.basename(path)}: {what} at node {first + int(np.argmin(finite))}"
        )


@dataclass
class GraphDataset:
    """Adjacency + features + labels + evaluation splits.

    Labels are 1 for anomalies (positive class), 0 for normal nodes and
    UNKNOWN_LABEL (-1) where no ground truth is available.  ``features`` is
    an (n, d) array, or what they are read from when used: the FeatureFile
    of a dataset directory, or the ``CacheRows`` of a basis cache's block 0.
    """

    adjacency: SparseAdjacency
    features: np.ndarray | FeatureFile | CacheRows
    labels: np.ndarray
    splits: list[SplitSet] = field(default_factory=list)
    name: str = "unnamed"

    @property
    def num_nodes(self) -> int:
        return self.adjacency.num_nodes

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def feature_matrix(self, dtype=np.float64) -> np.ndarray:
        """The features as a new C-order ``dtype`` array, which the caller
        may overwrite: a FeatureFile is read straight into it (f32 rows in
        place, other dtypes through one chunk buffer), and other features
        are cast FEATURE_CHUNK_ROWS rows at a time, so rows read from a
        file are never all held at once."""
        if isinstance(self.features, FeatureFile):
            return self.features.read(dtype)
        out = np.empty(self.features.shape, dtype=dtype)
        for lo in range(0, len(out), FEATURE_CHUNK_ROWS):
            out[lo : lo + FEATURE_CHUNK_ROWS] = self.features[lo : lo + FEATURE_CHUNK_ROWS]
        return out


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
                         scaling: np.ndarray | None = None, dtype=np.float64):
    """Symmetric normalization D^{-1/2} A D^{-1/2}, as a CSR over the same
    index arrays as its operand.

    ``rows=(lo, hi)`` gives rows lo:hi only, as a (hi - lo, n) CSR whose
    values are formed for those rows alone, over the graph's index slices.
    ``scaling`` is ``degree_scaling(adj)``, passed by a caller that asks
    for many row chunks so it is computed once.  Each value is formed in
    f64 as ``s_i * s_j`` and then rounded once to ``dtype``.  Rows and
    columns of isolated nodes stay all-zero (they have no entries).
    """
    offsets = adj.row_offsets
    lo, hi = (0, adj.num_nodes) if rows is None else rows
    if scaling is None:
        scaling = degree_scaling(adj)
    columns = adj.col_indices[offsets[lo] : offsets[hi]]
    vals = np.repeat(scaling[lo:hi], np.diff(offsets[lo : hi + 1])) * scaling[columns]
    return adj.to_csr((lo, hi), vals.astype(dtype, copy=False))


# ---------------------------------------------------------------------------
# Homophily metrics
# ---------------------------------------------------------------------------


def _agreement(adj: SparseAdjacency, labels: np.ndarray,
               what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node, the neighbors sharing its label, the degree (both f64) and
    their ratio, the node homophily (NaN for an isolated node): the one pass
    over the edges every homophily value is derived from.

    An edge endpoint without a label raises, naming ``what``; the graph is
    symmetric, so the endpoints are the nodes of nonzero degree.
    """
    counts = np.diff(adj.row_offsets).astype(np.float64)
    bad = np.flatnonzero((counts > 0) & (labels == UNKNOWN_LABEL))
    if bad.size:
        raise DatasetFormatError(f"{what}: node {bad[0]} has no label")
    rows = adj.row_ids()
    same = (labels[rows] == labels[adj.col_indices]).astype(np.float64)
    agree = np.bincount(rows, weights=same, minlength=adj.num_nodes)
    with np.errstate(invalid="ignore", divide="ignore"):
        return agree, counts, np.where(counts > 0, agree / counts, np.nan)


def edge_homophily(adj: SparseAdjacency, labels: np.ndarray) -> float:
    """Fraction of unordered edges whose endpoints share a label."""
    if adj.num_edges == 0:
        return 0.0
    agree, counts, _ = _agreement(adj, labels, "edge_homophily")
    # Each undirected edge appears twice, so the fraction over directed
    # entries (two exact integer sums) equals the unordered-edge fraction.
    return float(agree.sum() / counts.sum())


def node_homophily(adj: SparseAdjacency, labels: np.ndarray) -> np.ndarray:
    """Per-node fraction of neighbors sharing the node's label.

    Isolated nodes get NaN and are excluded from downstream averages.
    """
    return _agreement(adj, labels, "node_homophily")[2]


def homophily_report(adj: SparseAdjacency, labels: np.ndarray) -> HomophilyReport:
    """Edge, node and class homophily from one pass over the edges."""
    agree, counts, h = _agreement(adj, labels, "node_homophily")
    means = []
    for cls, name in ((1, "abnormal"), (0, "normal")):
        mask = (labels == cls) & ~np.isnan(h)
        if not np.any(mask):
            raise DatasetFormatError(
                f"class homophily: no {name} node has a defined node homophily"
            )
        means.append(float(np.mean(h[mask])))
    return HomophilyReport(
        edge_homophily=float(agree.sum() / counts.sum()) if adj.num_edges else 0.0,
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


def load_dataset(directory: str | os.PathLike) -> GraphDataset:
    """Load and validate a dataset directory.

    The directory must contain meta.json, edges.tsv, labels.csv,
    splits.json and either features.bin or features.csv.  Edges are
    symmetrized and deduplicated; self-loops are dropped.  Features must
    be finite.
    """
    dataset = parse_dataset(directory)
    dataset.features = dataset.features.read()
    return dataset


def parse_dataset(directory: str | os.PathLike) -> GraphDataset:
    """The text files of ``directory`` parsed and checked: the graph, the
    labels and the splits, with the features as the FeatureFile they are
    read from, not read yet (nor checked)."""
    directory = os.fspath(directory)
    meta = _read_meta(directory)
    n, d = meta["num_nodes"], meta["num_features"]
    edges = _read_edges_tsv(_dataset_file(directory, "edges.tsv"))
    adjacency = SparseAdjacency.from_edges(n, edges)
    del edges
    labels = _read_labels_csv(_dataset_file(directory, "labels.csv"), n)
    splits = _read_splits_json(_dataset_file(directory, "splits.json"))
    for s in splits:
        s.validate(n, labels)
    return GraphDataset(adjacency, FeatureFile(directory, n, d), labels, splits,
                        name=str(meta["name"]))


# ---------------------------------------------------------------------------
# Dataset image
# ---------------------------------------------------------------------------


def ingest(directory: str | os.PathLike, path: str | os.PathLike) -> None:
    """Parse and check the text files of ``directory`` as ``load_dataset``
    does, all but the feature file, and write their image to ``path``.

    The image holds the CSR, the labels and the splits, and the size and
    crc32 of each ``IMAGE_SOURCES`` file.  The files are fingerprinted
    before they are parsed, so one edited meanwhile leaves an image that
    fails its check, never one that passes with the old content.  Nothing
    parsed outlives the call: a command reads back the parts it needs
    (``open_image``), so what it allocates next does not sit above the
    parse's freed buffers.
    """
    directory = os.fspath(directory)
    sources = [fingerprint(_dataset_file(directory, name)) for name in IMAGE_SOURCES]
    dataset = parse_dataset(directory)
    adj = dataset.adjacency
    ids = np.dtype(f"<i{adj.col_indices.dtype.itemsize}")
    parts = [getattr(s, part) for s in dataset.splits for part in SPLIT_PARTS]
    offsets = np.cumsum([0] + [len(p) for p in parts], dtype=np.uint64)
    fields = (dataset.num_nodes, dataset.num_features, len(adj.col_indices), len(dataset.splits),
              ids.itemsize, *itertools.chain.from_iterable(sources))
    IMAGE_FORMAT.write(path, fields, [
        (adj.row_offsets, ids), (adj.col_indices, ids), (dataset.labels, "<i1"), (offsets, "<u8"),
        *((p, ids) for p in parts),
    ])


def open_image(path: str | os.PathLike, directory: str | os.PathLike,
               sources: tuple[str, ...] = IMAGE_SOURCES) -> "DatasetImage":
    """Open the image ``ingest`` wrote to ``path`` for the dataset ``directory``.

    The magic, header and payload size are checked, and so is each of
    ``sources`` in ``directory``: a file whose size or crc32 differs from
    the one recorded is a CacheFormatError naming it.  The file stays open
    for the parts to be read: close the image, or use it in a ``with``
    block.
    """
    directory = os.fspath(directory)

    def build(file: CacheFile) -> DatasetImage:
        image = DatasetImage(file)
        recorded = dict(zip(IMAGE_SOURCES, zip(file.fields[5::2], file.fields[6::2])))
        for name in sources:
            source = _dataset_file(directory, name)
            if fingerprint(source) != recorded[name]:
                raise CacheFormatError(
                    f"{source} has changed since {file.path} was written from it; "
                    "rerun `preprocess`"
                )
        return image

    return IMAGE_FORMAT.open(path, build)


class DatasetImage(FileBacked):
    """An open ``dataset.bin`` (see ``open_image``): the sizes from its
    header, and readers of its parts.  Each part is read when asked for,
    with positioned reads, so a command holds only the parts it uses."""

    def __init__(self, file: CacheFile):
        n, d, nnz, num_splits, width = file.fields[:5]
        if width not in (4, 8):
            raise file.fail(f"dataset.bin: unsupported id width {width}")
        self.file = file
        self.num_nodes, self.num_features, self.num_splits = n, d, num_splits
        self._nnz = nnz
        self._ids = np.dtype(f"<i{width}")
        self._labels_at = (n + 1 + nnz) * width
        table_at = self._labels_at + n
        self._split_ids_at = table_at + (3 * num_splits + 1) * 8
        if file.payload_bytes < self._split_ids_at:  # the offsets are not all there
            file.expect_payload(self._split_ids_at)
        self._offsets = self._read(table_at, 3 * num_splits + 1, "<u8")
        if self._offsets[0] != 0 or np.any(self._offsets[1:] < self._offsets[:-1]):
            raise file.fail("dataset.bin: split offsets do not increase from 0")
        file.expect_payload(self._split_ids_at + int(self._offsets[-1]) * width)

    def _read(self, offset: int, count: int, dtype) -> np.ndarray:
        out = np.empty(count, dtype=dtype)
        self.file.read_into(out, self.file.payload_offset + offset)
        return out

    def adjacency(self) -> SparseAdjacency:
        """The graph ``from_edges`` built: the same index arrays."""
        n, width = self.num_nodes, self._ids.itemsize
        return SparseAdjacency(self._read(0, n + 1, self._ids),
                               self._read((n + 1) * width, self._nnz, self._ids))

    def labels(self) -> np.ndarray:
        """One int8 per node: 1, 0 or UNKNOWN_LABEL."""
        return self._read(self._labels_at, self.num_nodes, np.int8)

    def split(self, index: int, parts: tuple[str, ...] = SPLIT_PARTS) -> SplitSet:
        """Split ``index`` as int64 id arrays, one read per part; a part not
        in ``parts`` is not read and comes back empty."""
        if not 0 <= index < self.num_splits:
            raise ConfigError(
                f"split index {index} out of range; dataset has {self.num_splits} splits")
        ids = {}
        for p, part in enumerate(SPLIT_PARTS):
            lo, hi = (int(v) for v in self._offsets[3 * index + p : 3 * index + p + 2])
            count = hi - lo if part in parts else 0
            at = self._split_ids_at + lo * self._ids.itemsize
            ids[part] = self._read(at, count, self._ids).astype(np.int64)
        return SplitSet(**ids)

    def dataset(self, directory: str | os.PathLike) -> GraphDataset:
        """The graph and labels, with the FeatureFile of ``directory``, read
        when the features are used: ``load_dataset``'s result without the
        splits and the name, and with no text file parsed but a
        features.csv."""
        features = FeatureFile(os.fspath(directory), self.num_nodes, self.num_features)
        return GraphDataset(self.adjacency(), features, self.labels())


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


def _read_features_csv(path: str) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DatasetFormatError(f"features.csv: {exc}") from exc
    return data


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
