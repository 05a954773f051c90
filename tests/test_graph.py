import json
import math
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from sagad import cachefile, graph
from sagad.cachefile import CacheFile
from sagad.errors import DatasetFormatError
from sagad.graph import (
    FEATURES_MAGIC,
    UNKNOWN_LABEL,
    SparseAdjacency,
    SplitSet,
    class_homophily,
    edge_homophily,
    homophily_report,
    load_dataset,
    load_supervision,
    node_homophily,
    normalized_adjacency,
    write_dataset,
)

from adjacency_contract import assert_adjacency_contract
from conftest import er_dataset, make_dataset


def write_raw_dataset(directory, num_nodes, num_features, edge_lines, feature_rows, label_lines, splits=None):
    os.makedirs(directory, exist_ok=True)
    with open(directory / "meta.json", "w") as f:
        json.dump({"name": "raw", "num_nodes": num_nodes, "num_features": num_features}, f)
    with open(directory / "edges.tsv", "w") as f:
        f.write("\n".join(edge_lines) + ("\n" if edge_lines else ""))
    with open(directory / "features.csv", "w") as f:
        for row in feature_rows:
            f.write(",".join(str(v) for v in row) + "\n")
    with open(directory / "labels.csv", "w") as f:
        f.write("\n".join(label_lines) + ("\n" if label_lines else ""))
    with open(directory / "splits.json", "w") as f:
        json.dump(splits if splits is not None else [], f)


class TestLoader:
    def test_valid_three_node_directory(self, tmp_path):
        write_raw_dataset(
            tmp_path, 3, 2,
            ["0\t1", "1\t2"],
            [[0.5, 1.0], [1.5, 2.0], [2.5, 3.0]],
            ["0,1", "1,0", "2,0"],
        )
        ds = load_dataset(tmp_path)
        assert ds.num_nodes == 3
        assert ds.num_features == 2
        assert ds.adjacency.num_edges == 2
        assert list(ds.labels) == [1, 0, 0]

    def test_duplicate_directions_collapse_to_one_edge(self, tmp_path):
        write_raw_dataset(
            tmp_path, 2, 1,
            ["0\t1", "1\t0"],
            [[1.0], [2.0]],
            ["0,0", "1,0"],
        )
        ds = load_dataset(tmp_path)
        assert ds.adjacency.num_edges == 1
        assert len(ds.adjacency.col_indices) == 2  # stored once per direction

    def test_feature_row_mismatch_rejected(self, tmp_path):
        write_raw_dataset(
            tmp_path, 3, 1,
            ["0\t1"],
            [[1.0], [2.0]],  # only 2 rows for 3 nodes
            ["0,0", "1,0", "2,0"],
        )
        with pytest.raises(DatasetFormatError, match="feature rows"):
            load_dataset(tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        write_raw_dataset(tmp_path, 2, 1, ["0\t1"], [[1.0], [2.0]], ["0,0", "1,0"])
        os.remove(tmp_path / "labels.csv")
        with pytest.raises(DatasetFormatError, match="missing dataset file"):
            load_dataset(tmp_path)

    def test_out_of_range_node_rejected(self, tmp_path):
        write_raw_dataset(tmp_path, 2, 1, ["0\t5"], [[1.0], [2.0]], ["0,0", "1,0"])
        with pytest.raises(DatasetFormatError, match="out of range"):
            load_dataset(tmp_path)

    def test_non_binary_label_rejected(self, tmp_path):
        write_raw_dataset(tmp_path, 2, 1, ["0\t1"], [[1.0], [2.0]], ["0,2", "1,0"])
        with pytest.raises(DatasetFormatError, match="non-binary"):
            load_dataset(tmp_path)

    def test_unknown_label_value_in_file_rejected(self, tmp_path):
        # -1 marks "unlabeled" in memory; in labels.csv it is not a label
        write_raw_dataset(tmp_path, 2, 1, ["0\t1"], [[1.0], [2.0]], ["0,-1", "1,0"])
        with pytest.raises(DatasetFormatError, match="non-binary"):
            load_dataset(tmp_path)

    def test_label_node_out_of_range_rejected(self, tmp_path):
        write_raw_dataset(tmp_path, 2, 1, ["0\t1"], [[1.0], [2.0]], ["0,0", "5,1"])
        with pytest.raises(DatasetFormatError, match="labels.csv: node id 5 >= 2"):
            load_dataset(tmp_path)

    def test_node_labeled_twice_rejected(self, tmp_path):
        # the last line does not silently win
        write_raw_dataset(tmp_path, 3, 1, ["0\t1"], [[1.0], [2.0], [3.0]], ["2,0", "1,0", "2,1"])
        for load in (load_supervision, load_dataset):
            with pytest.raises(DatasetFormatError, match="labels.csv: node 2 is listed more than once"):
                load(tmp_path)

    def test_zero_features_rejected(self, tmp_path):
        write_raw_dataset(tmp_path, 2, 0, ["0\t1"], [[1.0], [2.0]], ["0,0"])
        for load in (load_supervision, load_dataset):
            with pytest.raises(DatasetFormatError,
                               match="meta.json: num_features must be an integer >= 1, got 0"):
                load(tmp_path)

    @pytest.mark.parametrize("lines", [["0\tx"], ["0\t1\t2"], ["0\t1", "1\t2\t0"], ["0"]])
    def test_malformed_edge_lines_rejected(self, tmp_path, lines):
        write_raw_dataset(tmp_path, 3, 1, lines, [[1.0], [2.0], [3.0]], ["0,0"])
        with pytest.raises(DatasetFormatError, match="edges.tsv"):
            load_dataset(tmp_path)

    def test_empty_edge_file_loads_without_warning(self, tmp_path):
        write_raw_dataset(tmp_path, 2, 1, [], [[1.0], [2.0]], [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_dataset(tmp_path)
        assert ds.adjacency.num_edges == 0
        assert list(ds.labels) == [UNKNOWN_LABEL, UNKNOWN_LABEL]

    def test_non_finite_csv_feature_rejected(self, tmp_path):
        write_raw_dataset(tmp_path, 3, 1, ["0\t1"], [[1.0], ["nan"], ["inf"]], ["0,0"])
        with pytest.raises(DatasetFormatError, match="features.csv: non-finite value at node 1"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_bin_feature_rejected(self, tmp_path, value):
        ds = er_dataset(10, 0.3, 4, seed=2)
        ds.features[7, 2] = value
        write_dataset(ds, tmp_path / "d")
        with pytest.raises(DatasetFormatError, match="features.bin: non-finite value at node 7"):
            load_dataset(tmp_path / "d")

    def test_vectorized_readers_match_line_parser(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 50
        pairs = rng.integers(0, n, size=(300, 2))  # with self-loops and duplicates
        edge_lines = [f"{u}\t{v}" if i % 3 else f" {u}  {v} " for i, (u, v) in enumerate(pairs)]
        edge_lines.insert(40, "")
        labeled = rng.permutation(n)[:30]
        label_lines = [f"{i},{int(rng.random() < 0.3)}" for i in labeled]
        write_raw_dataset(tmp_path, n, 1, edge_lines, [[float(i)] for i in range(n)], label_lines)
        ds = load_dataset(tmp_path)

        # the line-at-a-time parser and two-key sort the loaders replaced
        ref_pairs = [tuple(int(t) for t in line.split()) for line in edge_lines if line.strip()]
        ref_labels = np.full(n, UNKNOWN_LABEL, dtype=np.int8)
        for line in label_lines:
            node, value = line.split(",")
            ref_labels[int(node)] = int(value)
        entries = {(u, v) for u, v in ref_pairs if u != v} | {(v, u) for u, v in ref_pairs if u != v}
        rows, cols = (np.asarray(c, dtype=np.int64) for c in zip(*entries))
        order = np.lexsort((cols, rows))
        np.testing.assert_array_equal(ds.adjacency.col_indices, cols[order])
        np.testing.assert_array_equal(
            ds.adjacency.row_offsets, np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        )
        np.testing.assert_array_equal(ds.labels, ref_labels)

    def test_supervision_opens_no_graph_file(self, tmp_path):
        splits = [{"train": [0], "val": [1], "test": [2]}]
        write_raw_dataset(tmp_path, 3, 2, ["not an edge"], [[1.0]], ["0,1", "1,0", "2,0"], splits)
        os.remove(tmp_path / "features.csv")
        sup = load_supervision(tmp_path)
        assert (sup.name, sup.num_nodes, sup.num_features) == ("raw", 3, 2)
        assert list(sup.labels) == [1, 0, 0]
        assert list(sup.splits[0].test) == [2]
        with pytest.raises(DatasetFormatError, match="edges.tsv"):
            load_dataset(tmp_path)

    def test_self_loops_dropped(self, tmp_path):
        write_raw_dataset(tmp_path, 2, 1, ["0\t0", "0\t1"], [[1.0], [2.0]], ["0,0", "1,0"])
        ds = load_dataset(tmp_path)
        assert ds.adjacency.num_edges == 1

    def test_roundtrip_is_idempotent(self, tmp_path):
        ds = er_dataset(25, 0.2, 3, seed=5)
        ds.splits = [SplitSet(
            train=np.asarray([0, 1]), val=np.asarray([2, 3]), test=np.asarray([4, 5]),
        )]
        first = tmp_path / "first"
        second = tmp_path / "second"
        write_dataset(ds, first)
        loaded = load_dataset(first)
        write_dataset(loaded, second)
        reloaded = load_dataset(second)
        np.testing.assert_array_equal(loaded.adjacency.row_offsets, reloaded.adjacency.row_offsets)
        np.testing.assert_array_equal(loaded.adjacency.col_indices, reloaded.adjacency.col_indices)
        np.testing.assert_array_equal(loaded.features, reloaded.features)
        np.testing.assert_array_equal(loaded.labels, reloaded.labels)

    def test_features_bin_roundtrip(self, tmp_path):
        ds = er_dataset(10, 0.3, 4, seed=2)
        write_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        np.testing.assert_array_equal(
            loaded.features, np.asarray(ds.features, dtype=np.float32)
        )

    @pytest.mark.parametrize(("content", "message"), [
        (b"NOTFEATS" + struct.pack("<QQ", 10, 4), "bad features.bin magic"),
        (FEATURES_MAGIC + b"\x00" * 10, "truncated features.bin header"),
        (FEATURES_MAGIC + struct.pack("<QQ", 10, 4) + b"\x00" * 156,
         "features.bin: payload is 156 bytes, expected 160"),
        (FEATURES_MAGIC + struct.pack("<QQ", 10, 4) + b"\x00" * 164,
         "features.bin: payload is 164 bytes, expected 160"),
    ])
    def test_malformed_features_bin_rejected(self, tmp_path, monkeypatch, content, message):
        opened = []

        class RecordingFile(CacheFile):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cachefile, "CacheFile", RecordingFile)
        write_dataset(er_dataset(10, 0.3, 4, seed=2), tmp_path)
        (tmp_path / "features.bin").write_bytes(content)
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(tmp_path)
        assert len(opened) == 1 and opened[0].closed

    def test_writers_match_line_at_a_time_writer(self, tmp_path):
        ds = er_dataset(300, 0.05, 2, seed=8)
        ds.labels[::7] = UNKNOWN_LABEL
        write_dataset(ds, tmp_path)
        # the line-at-a-time writer write_dataset replaced
        adj = ds.adjacency
        rows = adj.row_ids()
        mask = rows < adj.col_indices
        edges = "".join(f"{u}\t{v}\n" for u, v in zip(rows[mask], adj.col_indices[mask]))
        labels = "".join(f"{i},{int(y)}\n" for i, y in enumerate(ds.labels) if y != UNKNOWN_LABEL)
        assert (tmp_path / "edges.tsv").read_bytes() == edges.encode()
        assert (tmp_path / "labels.csv").read_bytes() == labels.encode()

    def test_empty_graph_and_labels_write_empty_files(self, tmp_path):
        ds = make_dataset(np.zeros((0, 2)), [[1.0], [2.0]], [UNKNOWN_LABEL] * 2)
        write_dataset(ds, tmp_path)
        assert (tmp_path / "edges.tsv").read_bytes() == b""
        assert (tmp_path / "labels.csv").read_bytes() == b""


class TestSplitValidation:
    @pytest.mark.parametrize(("train", "message"), [
        ([0, 3], "train split contains node id >= 3"),
        ([-1], "train split contains node id >= 3"),
        ([0, 0], "train split contains duplicate ids"),
    ])
    def test_malformed_split_rejected(self, train, message):
        split = SplitSet(train=np.asarray(train), val=np.asarray([1]), test=np.asarray([2]))
        with pytest.raises(DatasetFormatError, match=message):
            split.validate(3, np.asarray([0, 1, 0], dtype=np.int8))

    def test_split_errors_reported_by_loaders(self, tmp_path):
        splits = [{"train": [0], "val": [1], "test": [1, 2]}]
        write_raw_dataset(tmp_path, 3, 1, ["0\t1"], [[1.0], [2.0], [3.0]], ["0,1", "1,0"], splits)
        for load in (load_supervision, load_dataset):
            with pytest.raises(DatasetFormatError, match="disjoint"):
                load(tmp_path)

    def test_overlapping_splits_rejected(self):
        split = SplitSet(train=np.asarray([0]), val=np.asarray([0]), test=np.asarray([1]))
        with pytest.raises(DatasetFormatError, match="disjoint"):
            split.validate(2, np.asarray([0, 1], dtype=np.int8))

    def test_unlabeled_train_node_rejected(self):
        split = SplitSet(train=np.asarray([2]), val=np.asarray([0]), test=np.asarray([1]))
        with pytest.raises(DatasetFormatError, match="unlabeled"):
            split.validate(3, np.asarray([0, 1, UNKNOWN_LABEL], dtype=np.int8))


class TestRowIds:
    def test_row_of_every_entry(self):
        adj = make_dataset([[0, 1], [0, 3], [1, 3]], [[0.0]] * 5, [0] * 5).adjacency
        rows = adj.row_ids()
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows, [0, 0, 1, 1, 3, 3])
        for i in range(adj.num_nodes):
            np.testing.assert_array_equal(adj.col_indices[rows == i], adj.neighbors(i))


class TestNormalizedAdjacency:
    def test_shares_the_index_arrays(self):
        adj = er_dataset(30, 0.2, 2, seed=1).adjacency
        norm = normalized_adjacency(adj)
        assert np.shares_memory(norm.indices, adj.csr.indices)
        assert np.shares_memory(norm.indptr, adj.csr.indptr)
        np.testing.assert_array_equal(adj.csr.data, 1.0)  # the graph is not rescaled
        assert adj.csr.data.dtype == np.int8

    def test_single_edge(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 0])
        norm = normalized_adjacency(ds.adjacency)
        dense = norm.toarray()
        np.testing.assert_allclose(dense, [[0.0, 1.0], [1.0, 0.0]])

    def test_isolated_node_row_is_zero(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0], [1.0]], [0, 0, 0], num_nodes=3)
        dense = normalized_adjacency(ds.adjacency).toarray()
        np.testing.assert_array_equal(dense[2], 0.0)
        np.testing.assert_array_equal(dense[:, 2], 0.0)

    def test_path_value(self, path3):
        dense = normalized_adjacency(path3.adjacency).toarray()
        assert dense[0][1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_row_chunks_stack_to_the_whole_matrix(self):
        # isolated nodes 30..34; chunks of 7 rows do not divide 35
        adj = make_dataset(np.argwhere(np.triu(np.random.default_rng(2).random((30, 30)) < 0.2, 1)),
                           [[0.0]] * 35, [0] * 35).adjacency
        whole = normalized_adjacency(adj)
        scaling = graph.degree_scaling(adj)
        for given in (None, scaling):
            chunks = [normalized_adjacency(adj, (lo, min(lo + 7, 35)), given)
                      for lo in range(0, 35, 7)]
            stacked = sp.vstack(chunks, format="csr")
            np.testing.assert_array_equal(stacked.indptr, whole.indptr)
            np.testing.assert_array_equal(stacked.indices, whole.indices)
            assert stacked.data.tobytes() == whole.data.tobytes()

    def test_symmetry_is_exact(self):
        ds = er_dataset(40, 0.15, 2, seed=9)
        norm = normalized_adjacency(ds.adjacency)
        dense = norm.toarray()
        # same value stored twice, so equality is bitwise
        assert np.array_equal(dense, dense.T)


class TestHomophily:
    def test_triangle_all_same(self):
        ds = make_dataset([[0, 1], [1, 2], [0, 2]], [[1.0]] * 3, [0, 0, 0])
        assert edge_homophily(ds) == 1.0

    def test_single_cross_edge(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 1])
        assert edge_homophily(ds) == 0.0

    def test_path_half(self, path3):
        assert edge_homophily(path3) == 0.5

    def test_node_homophily_path(self, path3):
        np.testing.assert_allclose(node_homophily(path3), [1.0, 0.5, 0.0])

    def test_isolated_node_gets_nan(self):
        ds = make_dataset([[0, 1]], [[1.0]] * 3, [0, 0, 0], num_nodes=3)
        h = node_homophily(ds)
        assert np.isnan(h[2])

    def test_clique_identical_labels(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        ds = make_dataset(edges, [[1.0]] * 4, [1, 1, 1, 1])
        np.testing.assert_allclose(node_homophily(ds), 1.0)

    def test_class_homophily_path(self, path3):
        h_a, h_n = class_homophily(path3)
        assert h_a == pytest.approx(0.75)
        assert h_n == pytest.approx(0.0)

    def test_empty_class_rejected(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 0])
        with pytest.raises(DatasetFormatError, match="abnormal"):
            class_homophily(ds)

    def test_unlabeled_endpoint_rejected(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, -1])
        with pytest.raises(DatasetFormatError, match="no label"):
            edge_homophily(ds)

    def test_edge_homophily_matches_enumeration(self):
        ds = er_dataset(60, 0.12, 2, seed=3)
        adj = ds.adjacency
        total = same = 0
        for u in range(adj.num_nodes):
            for v in adj.neighbors(u):
                if v > u:
                    total += 1
                    same += int(ds.labels[u] == ds.labels[v])
        assert edge_homophily(ds) == pytest.approx(same / total, abs=1e-12)

    def test_class_homophily_matches_bruteforce(self):
        ds = er_dataset(50, 0.15, 2, seed=4)
        h = node_homophily(ds)
        for cls, got in zip((1, 0), class_homophily(ds)):
            vals = [
                h[i]
                for i in range(ds.num_nodes)
                if ds.labels[i] == cls and not np.isnan(h[i])
            ]
            assert got == pytest.approx(float(np.mean(vals)), abs=1e-12)

    def test_report_is_one_pass_over_the_edges(self, monkeypatch):
        ds = er_dataset(60, 0.12, 2, seed=3)
        real, calls = SparseAdjacency.row_ids, []
        monkeypatch.setattr(SparseAdjacency, "row_ids", lambda adj: calls.append(1) or real(adj))
        report = homophily_report(ds)
        assert len(calls) == 1
        monkeypatch.undo()
        assert report.edge_homophily == edge_homophily(ds)
        np.testing.assert_array_equal(report.node_homophily, node_homophily(ds))
        assert (report.class_homophily_abnormal,
                report.class_homophily_normal) == class_homophily(ds)

    def test_values_in_unit_interval(self):
        ds = er_dataset(80, 0.1, 2, seed=6)
        assert 0.0 <= edge_homophily(ds) <= 1.0
        h = node_homophily(ds)
        defined = h[~np.isnan(h)]
        assert np.all((defined >= 0) & (defined <= 1))


def _raw_adjacency(n, offsets, cols):
    """A SparseAdjacency over CSR arrays taken as given, as from_edges
    never builds them."""
    csr = sp.csr_matrix((n, n))
    csr.indptr = np.asarray(offsets, dtype=np.int32)
    csr.indices = np.asarray(cols, dtype=np.int32)
    csr.data = np.ones(len(csr.indices), dtype=np.int8)
    return SparseAdjacency(csr)


def _messy_edges(seed):
    """A random edge list with duplicates, reversed pairs and self-loops;
    the top quarter of the ids is left isolated."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    base = rng.integers(0, n - n // 4, size=(int(rng.integers(0, 3 * n)), 2))
    loops = np.repeat(rng.integers(0, n, size=(3, 1)), 2, axis=1)
    return n, rng.permutation(np.concatenate([base, base[::2, ::-1], base[::3], loops]))


class TestFromEdgesContract:
    @pytest.mark.parametrize("seed", range(12))
    def test_messy_edge_lists(self, seed):
        n, edges = _messy_edges(seed)
        assert_adjacency_contract(SparseAdjacency.from_edges(n, edges), n, edges)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_empty_edge_list(self, n):
        edges = np.zeros((0, 2), dtype=np.int64)
        adj = SparseAdjacency.from_edges(n, edges)
        assert_adjacency_contract(adj, n, edges)
        assert adj.num_edges == 0

    def test_int32_ids_above_46341_nodes(self):
        # 65536 * 65537 wraps an int32; scipy keeps int32 indices here
        n = 65537
        adj = SparseAdjacency.from_edges(n, np.asarray([[0, 65536], [46342, 50000]]))
        assert adj.col_indices.dtype == np.int32
        assert_adjacency_contract(adj, n)
        assert [list(adj.neighbors(i)) for i in (0, 65536, 46342, 50000)] == \
            [[65536], [0], [50000], [46342]]

    @pytest.mark.parametrize(("n", "offsets", "cols"), [
        (3, [0, 1, 2, 2], [0, 0]),  # self-loop
        (3, [0, 2, 3, 4], [2, 1, 0, 0]),  # unsorted row
        (3, [0, 2, 3, 3], [1, 1, 0]),  # duplicate column
        (3, [0, 1, 1, 1], [1]),  # not symmetric
        # an int32 key 65536 * 65537 would wrap to 65536, the forward key
        (65537, [0] + [1] * 65537, [65536]),
    ])
    def test_checker_rejects_malformed_csr(self, n, offsets, cols):
        with pytest.raises(AssertionError):
            assert_adjacency_contract(_raw_adjacency(n, offsets, cols), n)

    def test_checker_rejects_values_other_than_int8_ones(self):
        adj = er_dataset(20, 0.3, 1, seed=1).adjacency
        assert_adjacency_contract(adj, 20)
        adj.csr.data = adj.csr.data.astype(np.float32)
        with pytest.raises(AssertionError):
            assert_adjacency_contract(adj, 20)


class TestFromEdges:
    def test_many_duplicates_keep_the_edge(self):
        # 256 copies would wrap a uint8 count to 0, which scipy drops
        edges = np.asarray([[0, 1]] * 256 + [[1, 0]] * 44 + [[1, 2]])
        adj = SparseAdjacency.from_edges(3, edges)
        assert_adjacency_contract(adj, 3, edges)
        np.testing.assert_array_equal(adj.csr.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_peak_memory_bounded_by_input(self):
        # 1.6M edges at n = 200k: a 25.6 MB input may not take 4x that to build
        n = 200_000
        edges = np.random.default_rng(0).integers(0, n, size=(1_600_000, 2))
        tracemalloc.start()
        try:
            adj = SparseAdjacency.from_edges(n, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert adj.num_edges > 1_500_000
        assert peak < 4 * edges.nbytes, f"from_edges peaked at {peak / 1e6:.1f} MB"
