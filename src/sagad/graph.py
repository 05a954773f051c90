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

import functools
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


# The largest node count whose edge keys u * n + v fit in an int64.
MAX_NODES = 3_037_000_499  # isqrt(2^63 - 1)
# Entries per chunk of the CSR build's key fill, compaction and column
# split: each chunk's temporaries stay small next to the key array.
_EDGE_CHUNK = 1 << 16
_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(num_nodes: int, nnz: int) -> np.dtype:
    """The CSR index dtype: int32 while the node count and the stored-entry
    count fit in it, else int64, as scipy's ``get_index_dtype`` picks for
    a CSR with these contents."""
    return np.dtype(np.int32 if max(num_nodes, nnz) <= _INT32_MAX else np.int64)


@dataclass
class SparseAdjacency:
    """Symmetric adjacency held as the two index arrays of a CSR with unit
    values: ``row_offsets`` (its ``indptr``, n+1 entries) and
    ``col_indices`` (its ``indices``), sorted within each row, without
    duplicates or self-loops.

    Each undirected edge is stored twice (once per direction), so
    ``col_indices`` has length 2m for m undirected edges.  Both arrays
    have the dtype ``_index_dtype`` picks: int32 while n and 2m fit in it.
    ``operator`` and ``normalized_adjacency`` turn rows of it into a
    ``RowOperator``, so every sparse product runs in numpy.

    The row offsets are always in memory.  The columns are an ndarray, or
    the ``CacheRows`` reader of an open dataset image (``DatasetImage
    .adjacency``), which reads each slice ``col_indices[a:b]`` with one
    positioned read; ``col_indices[:]`` is the whole array either way,
    read once by a caller that indexes the columns at random.
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray | CacheRows

    @classmethod
    def from_edges(cls, num_nodes: int, edges: np.ndarray, *,
                   overwrite_edges: bool = False) -> "SparseAdjacency":
        """Build from an (m, 2) array of node-id pairs.

        Direction is ignored, duplicates are merged, self-loops dropped.
        This is the one place the class invariants are established, each by
        one step below, so nothing checks them again:

        - ids in [0, num_nodes): the range check, which raises
          DatasetFormatError (the only check; edges come from outside);
        - symmetric: each pair gives both keys ``u*n + v`` and ``v*n + u``;
        - no self-loops: a self-loop's keys are set past every edge's and
          cut off after the sort;
        - sorted columns: the keys are sorted, row-major;
        - unique columns: only the first of equal sorted keys is kept.

        The keys take an (m, 2) int64 buffer, one per pair.  With
        ``overwrite_edges`` a C-order int64 ``edges`` is that buffer, and
        its content is lost, so a caller that parsed the edges for this
        build holds no second array of their size.
        """
        if not 0 <= num_nodes <= MAX_NODES:
            raise DatasetFormatError(f"num_nodes must lie in [0, {MAX_NODES}] (edge keys "
                                     f"u*n + v are int64), got {num_nodes}")
        n = num_nodes
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise DatasetFormatError(
                f"edge endpoint out of range [0, {n}): "
                f"min={edges.min()}, max={edges.max()}"
            )
        own = overwrite_edges and edges.flags.c_contiguous
        keys = edges if own else np.empty_like(edges, order="C")
        past = np.iinfo(np.int64).max  # the key of a self-loop
        for lo in range(0, len(edges), _EDGE_CHUNK):
            u, v = edges[lo : lo + _EDGE_CHUNK].T
            forward, backward = u * n + v, v * n + u
            loops = u == v
            forward[loops] = backward[loops] = past
            keys[lo : lo + _EDGE_CHUNK, 0], keys[lo : lo + _EDGE_CHUNK, 1] = forward, backward
        del edges
        keys = keys.reshape(-1)
        keys.sort()
        keys = keys[: np.searchsorted(keys, past)]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        # compact the unique keys to the front, in place: a chunk's keys
        # never land past where they were read
        nnz = 0
        for lo in range(0, len(keys), _EDGE_CHUNK):
            unique = keys[lo : lo + _EDGE_CHUNK][first[lo : lo + _EDGE_CHUNK]]
            keys[nnz : nnz + len(unique)] = unique
            nnz += len(unique)
        del first
        keys = keys[:nnz]
        ids = _index_dtype(n, nnz)
        col_indices = np.empty(nnz, dtype=ids)
        for lo in range(0, nnz, _EDGE_CHUNK):
            col_indices[lo : lo + _EDGE_CHUNK] = keys[lo : lo + _EDGE_CHUNK] % n
        # row i's entries are the keys in [i*n, (i+1)*n)
        row_offsets = np.empty(n + 1, dtype=ids)
        for lo in range(0, n + 1, _EDGE_CHUNK):
            bounds = np.arange(lo, min(lo + _EDGE_CHUNK, n + 1), dtype=np.int64) * n
            row_offsets[lo : lo + len(bounds)] = np.searchsorted(keys, bounds)
        return cls(row_offsets, col_indices)

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

    def operator(self, rows: tuple[int, int] | None = None) -> "RowOperator":
        """Rows lo:hi (``rows``; all rows by default) with unit values:
        ``adj.operator() @ x`` sums each node's neighbors in f64.  The
        rows' columns are read once (one positioned read for an image's)."""
        lo, hi = (0, self.num_nodes) if rows is None else rows
        offsets = self.row_offsets[lo : hi + 1]
        return RowOperator(offsets, self.col_indices[offsets[0] : offsets[-1]], self.num_nodes)


class RowOperator:
    """Rows of a sparse matrix as the left operand of a product with a
    dense matrix, ``op @ x``, computed in numpy one neighbor rank at a time.

    ``offsets`` are the rows' h+1 offsets into a CSR's columns (the first
    need not be 0) and ``columns`` those rows' columns, each below
    ``num_cols``; ``values`` holds one value per entry, or is None for
    unit values.  At construction the rows are ordered by descending
    degree, so the rows with a j-th entry are a prefix, and the columns
    and values are copied once into rank-major order (``op.columns`` and
    ``op.values``), so the j-th entries of those rows are one contiguous
    slice.  With ``ranked`` the given columns and values are in that
    order already, as another operator over the same offsets holds them.
    A product gathers the rows of ``x`` that a run of whole ranks names,
    about as many as the rows with a first entry, multiplies them by their
    values (not for unit values) and adds each rank's slice into the
    prefix of the output.

    Each output row is summed from +0.0 in column order, one rounded
    product and one rounded add per entry, as scipy's CSR product sums
    it, so a row's value depends neither on the other rows nor on how the
    rows are chunked.  The product runs in the result dtype of ``x`` and
    ``values``, in f64 for unit values.
    """

    def __init__(self, offsets: np.ndarray, columns: np.ndarray, num_cols: int,
                 values: np.ndarray | None = None, *, ranked: bool = False):
        degree = np.diff(offsets)
        self.shape = (len(degree), num_cols)
        self.degree = degree
        order = np.argsort(-degree, kind="stable")
        sorted_degree = degree[order]
        # each row's position in that order: the output is taken back by it
        self._rank = np.empty(len(order), dtype=np.intp)
        self._rank[order] = np.arange(len(order))
        # rows with a rank-j entry, for each rank j below the top degree
        counts = np.searchsorted(-sorted_degree, -np.arange(sorted_degree[:1].sum())).tolist()
        if ranked:
            self.columns, self.values = columns, values
        else:
            self.columns = np.empty_like(columns)
            self.values = None if values is None else np.empty_like(values)
            # rank j is taken through a cursor on each row's j-th entry
            cursor = (offsets[:-1] - offsets[0])[order].astype(np.intp)
            start = 0
            for c in counts:
                np.take(columns, cursor[:c], out=self.columns[start : start + c])
                if values is not None:
                    np.take(values, cursor[:c], out=self.values[start : start + c])
                cursor[:c] += 1
                start += c
        # runs of whole ranks whose entries fit a buffer of the first
        # rank's rows: [start, stop, [(rows, offset in the run), ...]]
        self._width = counts[0] if counts else 0
        self._runs = []
        stop = 0
        for c in counts:
            if not self._runs or stop + c - self._runs[-1][0] > self._width:
                self._runs.append([stop, stop, []])
            run = self._runs[-1]
            run[2].append((c, stop - run[0]))
            stop += c
            run[1] = stop

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The (h, d) product with an (num_cols, d) ndarray ``x``."""
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} operator by shape {x.shape}")
        h, d = self.shape[0], x.shape[1]
        unit = self.values is None
        dtype = np.result_type(x.dtype, np.float64 if unit else self.values.dtype)
        out = np.zeros((h, d), dtype=dtype)
        taken = np.empty((self._width, d), dtype=x.dtype)
        product = taken if unit or dtype == x.dtype else np.empty_like(taken, dtype=dtype)
        for start, stop, ranks in self._runs:
            # mode="clip": the columns are in range, and "raise" with
            # ``out`` gathers into a temporary copy first
            np.take(x, self.columns[start:stop], axis=0, out=taken[: stop - start], mode="clip")
            if not unit:
                np.multiply(taken[: stop - start], self.values[start:stop, None],
                            out=product[: stop - start])
            for rows, offset in ranks:
                out[:rows] += product[offset : offset + rows]
        del taken, product  # freed before the output is put back in row order
        return np.take(out, self._rank, axis=0)


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


# Rows per chunk of a features.bin read, each checked finite as it
# arrives, or of a cast into a ``feature_matrix`` from other features.
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

    def read(self) -> np.ndarray:
        """The features as a new C-order f32 array, checked.

        features.bin is read FEATURE_CHUNK_ROWS rows at a time straight
        into the result, each chunk checked finite.  features.csv is parsed
        whole as f64 and rounded to f32, as features.bin stores them; a
        finite value beyond the f32 range is rejected.
        """
        path = os.path.join(self.directory, "features.bin")
        if os.path.exists(path):
            return FEATURES_FORMAT.read(path, self._read_bin)
        path = _dataset_file(self.directory, "features.csv")
        features = _read_features_csv(path, self.num_features)
        self._check_shape(path, *features.shape)
        _check_finite(path, features, 0)
        with np.errstate(over="ignore"):
            features = features.astype(np.float32)
        _check_finite(path, features, 0, "value outside the float32 range")
        return features

    def check(self) -> None:
        """Check the features as ``read`` does, and keep none of them:
        features.bin is read into one reused buffer of FEATURE_CHUNK_ROWS
        rows (features.csv is parsed whole, as ``read`` parses it)."""
        path = os.path.join(self.directory, "features.bin")
        if os.path.exists(path):
            FEATURES_FORMAT.read(path, functools.partial(self._read_bin, keep=False))
        else:
            self.read()

    def _read_bin(self, file: CacheFile, keep: bool = True) -> np.ndarray | None:
        """features.bin a chunk at a time, each checked finite: into the
        returned array if ``keep``, else into one chunk buffer."""
        rows, dim = file.fields
        file.expect_payload(rows * dim * 4)
        self._check_shape(file.path, rows, dim)
        out = np.empty((rows if keep else min(rows, FEATURE_CHUNK_ROWS), dim), dtype=np.float32)
        for lo in range(0, rows, FEATURE_CHUNK_ROWS):
            chunk = out[lo if keep else 0 :][: min(FEATURE_CHUNK_ROWS, rows - lo)]
            file.read_into(chunk, file.payload_offset + lo * dim * 4)
            _check_finite(file.path, chunk, lo)
        return out if keep else None

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

    def feature_matrix(self) -> np.ndarray:
        """The features as a new C-order f32 array, which the caller may
        overwrite: a FeatureFile's read as it is, other features cast
        FEATURE_CHUNK_ROWS rows at a time, so rows read from a file are
        never all held at once."""
        if isinstance(self.features, FeatureFile):
            return self.features.read()
        out = np.empty(self.features.shape, dtype=np.float32)
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
                         scaling: np.ndarray | None = None, dtype=np.float64) -> RowOperator:
    """Symmetric normalization D^{-1/2} A D^{-1/2}, as a ``RowOperator``.

    ``rows=(lo, hi)`` gives rows lo:hi only, an (hi - lo, n) operator
    whose values are formed for those rows alone; the rows' columns are
    read once (one positioned read for an image's).  ``scaling`` is
    ``degree_scaling(adj)``, passed by a caller that asks for many row
    chunks so it is computed once.  Each value is formed in f64 as
    ``s_i * s_j`` and then rounded once to ``dtype``.  Rows and columns of
    isolated nodes stay all-zero (they have no entries).
    """
    lo, hi = (0, adj.num_nodes) if rows is None else rows
    if scaling is None:
        scaling = degree_scaling(adj)
    offsets = adj.row_offsets[lo : hi + 1]
    columns = adj.col_indices[offsets[0] : offsets[-1]]
    vals = np.repeat(scaling[lo:hi], np.diff(offsets)) * scaling[columns]
    return RowOperator(offsets, columns, adj.num_nodes, vals.astype(dtype, copy=False))


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
    same = (labels[rows] == labels[adj.col_indices[:]]).astype(np.float64)
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
    # the parsed text array becomes the build's key buffer
    adjacency = SparseAdjacency.from_edges(
        n, _read_edges_tsv(_dataset_file(directory, "edges.tsv")), overwrite_edges=True)
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
        """The graph ``from_edges`` built: its row offsets read now, and its
        columns as a ``CacheRows`` reader over this image, valid while the
        image is open; ``col_indices[:]`` reads them whole."""
        n, width = self.num_nodes, self._ids.itemsize
        columns = CacheRows(self.file, self.file.payload_offset + (n + 1) * width, (self._nnz,),
                            self._ids)
        return SparseAdjacency(self._read(0, n + 1, self._ids), columns)

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
    rows, columns = adj.row_ids(), adj.col_indices[:]
    mask = rows < columns  # each unordered edge once
    with atomic_file(os.path.join(directory, "edges.tsv")) as f:
        np.savetxt(f, np.column_stack([rows[mask], columns[mask]]), fmt="%d", delimiter="\t")

    FEATURES_FORMAT.write(os.path.join(directory, "features.bin"), dataset.features.shape,
                          [(dataset.features, "<f4")])

    labeled = np.flatnonzero(dataset.labels != UNKNOWN_LABEL)
    with atomic_file(os.path.join(directory, "labels.csv")) as f:
        np.savetxt(f, np.column_stack([labeled, dataset.labels[labeled]]), fmt="%d",
                   delimiter=",")

    payload = [{part: np.asarray(getattr(s, part)).tolist() for part in ("train", "val", "test")}
               for s in dataset.splits]
    write_text(os.path.join(directory, "splits.json"), [json.dumps(payload)])


def _loadtxt(path: str, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of a table (at least 2-D), its errors raised naming
    the file.  An empty file is valid: a graph without edges or without
    nodes, or no labels.  Its empty table comes without numpy's warning."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            return np.loadtxt(path, ndmin=2, **kwargs)
    except ValueError as exc:
        raise DatasetFormatError(f"{os.path.basename(path)}: {exc}") from exc


def _read_int_pairs(path: str, delimiter: str | None, layout: str) -> np.ndarray:
    """Parse a text file of two integer columns in one vectorized pass.

    Blank lines are skipped; an empty file gives a (0, 2) array.
    """
    table = _loadtxt(path, dtype=np.int64, delimiter=delimiter, comments=None)
    if table.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if table.shape[1] != 2:
        raise DatasetFormatError(f"{os.path.basename(path)}: expected '{layout}' on every "
                                 f"line, got {table.shape[1]} columns")
    return table


def _read_edges_tsv(path: str) -> np.ndarray:
    return _read_int_pairs(path, None, "u<TAB>v")


def _read_features_csv(path: str, num_features: int) -> np.ndarray:
    """The f64 table of features.csv; an empty file gives no rows of
    ``num_features`` values."""
    data = _loadtxt(path, delimiter=",", dtype=np.float64)
    return data if data.size else np.zeros((0, num_features))


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


def _split_ids(entry, part: str) -> np.ndarray:
    """``entry[part]`` as int64 ids: a list of JSON integers within int64."""
    ids = entry[part]
    if isinstance(ids, list) and set(map(type, ids)) <= {int}:  # bool is not int here
        try:
            return np.asarray(ids, dtype=np.int64)
        except OverflowError:
            raise DatasetFormatError(f"{part} holds a node id beyond int64") from None
    bad = next(v for v in ids if type(v) is not int) if isinstance(ids, list) else ids
    raise DatasetFormatError(f"{part} must be a list of integer node ids, got {bad!r}")


def _read_splits_json(path: str) -> list[SplitSet]:
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise DatasetFormatError("splits.json must hold an array of split objects")
    splits = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise DatasetFormatError(f"splits.json entry {i} must be an object with "
                                     f"{', '.join(SPLIT_PARTS)} lists, got {type(entry).__name__}")
        missing = [part for part in SPLIT_PARTS if part not in entry]
        if missing:
            raise DatasetFormatError(f"splits.json entry {i} is missing {', '.join(missing)}")
        try:
            splits.append(SplitSet(*(_split_ids(entry, part) for part in SPLIT_PARTS)))
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"splits.json entry {i}: {exc}") from exc
    return splits
