import json
import math
import os
import re
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sagad import cachefile, csbm, graph
from sagad.cachefile import CacheFile
from sagad.errors import CacheFormatError, ConfigError, DatasetFormatError
from sagad.graph import (
    FEATURES_MAGIC,
    IMAGE_FORMAT,
    IMAGE_SOURCES,
    SUPERVISION_SOURCES,
    UNKNOWN_LABEL,
    GraphDataset,
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

from adjacency_contract import assert_adjacency_contract
from conftest import er_dataset, make_dataset, messy_edges
from oracles import csr, csr_from_edges, normalized_csr


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
        with pytest.raises(DatasetFormatError, match="labels.csv: node 2 is listed more than once"):
            load_dataset(tmp_path)

    def test_zero_features_rejected(self, tmp_path):
        write_raw_dataset(tmp_path, 2, 0, ["0\t1"], [[1.0], [2.0]], ["0,0"])
        with pytest.raises(DatasetFormatError,
                           match="meta.json: num_features must be an integer >= 1, got 0"):
            load_dataset(tmp_path)

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

    def test_empty_features_csv_of_an_empty_graph_loads_without_warning(self, tmp_path):
        write_raw_dataset(tmp_path, 0, 2, [], [], [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_dataset(tmp_path)
        assert ds.num_nodes == 0
        assert ds.features.shape == (0, 2) and ds.features.dtype == np.float32

    def test_empty_features_csv_with_nodes_fails_on_its_rows(self, tmp_path):
        write_raw_dataset(tmp_path, 3, 2, [], [], [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError,
                               match=r"feature rows \(0\) != meta num_nodes \(3\)"):
                load_dataset(tmp_path)

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
        ([0, 3], "train split contains node id 3 outside [0, 3)"),
        ([-1], "train split contains node id -1 outside [0, 3)"),
        ([0, 0], "train split contains duplicate ids"),
    ])
    def test_malformed_split_rejected(self, train, message):
        split = SplitSet(train=np.asarray(train), val=np.asarray([1]), test=np.asarray([2]))
        with pytest.raises(DatasetFormatError, match=re.escape(message)):
            split.validate(3, np.asarray([0, 1, 0], dtype=np.int8))

    def test_split_errors_reported_by_loaders(self, tmp_path):
        splits = [{"train": [0], "val": [1], "test": [1, 2]}]
        write_raw_dataset(tmp_path, 3, 1, ["0\t1"], [[1.0], [2.0], [3.0]], ["0,1", "1,0"], splits)
        for load in (load_dataset, lambda d: ingest(d, d / "dataset.bin")):
            with pytest.raises(DatasetFormatError, match="disjoint"):
                load(tmp_path)
        assert not (tmp_path / "dataset.bin").exists()

    def test_overlapping_splits_rejected(self):
        split = SplitSet(train=np.asarray([0]), val=np.asarray([0]), test=np.asarray([1]))
        with pytest.raises(DatasetFormatError, match="disjoint"):
            split.validate(2, np.asarray([0, 1], dtype=np.int8))

    def test_unlabeled_train_node_rejected(self):
        split = SplitSet(train=np.asarray([2]), val=np.asarray([0]), test=np.asarray([1]))
        with pytest.raises(DatasetFormatError, match="unlabeled"):
            split.validate(3, np.asarray([0, 1, UNKNOWN_LABEL], dtype=np.int8))


def _image_cases(tmp_path, case):
    """A dataset directory for one image round-trip case."""
    directory = tmp_path / case
    if case == "csbm":
        params = csbm.CsbmParams(n_a=20, n_n=180, mu=-0.5 * np.ones(4), nu=0.5 * np.ones(4),
                                 p1=0.05, q1=0.01, p2=0.01, q2=0.05, seed=3)
        ds = csbm.generate_csbm(params).dataset
        ds.splits = csbm.standard_splits(ds.labels, num_splits=3, labeled_anomalies=10,
                                         labeled_normals=40, seed=3)
        write_dataset(ds, directory)
    elif case == "isolated-nodes":
        splits = [{"train": [0, 5], "val": [1, 6], "test": [2, 3, 4]}]
        write_raw_dataset(directory, 7, 2, ["0\t1", "1\t2", "2\t0"], [[float(i), 1.0] for i in range(7)],
                          [f"{i},{int(i in (0, 1))}" for i in range(7)], splits)
        ds = load_dataset(directory)
        (directory / "features.csv").unlink()
        write_dataset(ds, directory)  # features.bin in place of features.csv
    elif case == "no-edges":
        write_raw_dataset(directory, 4, 1, [], [[1.0], [2.0], [3.0], [4.0]],
                          ["0,1", "1,0", "2,0", "3,1"], [{"train": [0, 1], "val": [2, 3], "test": []}])
    elif case == "unlabeled-nodes":
        write_raw_dataset(directory, 6, 1, ["0\t1", "2\t3", "4\t5", "1\t4"],
                          [[float(i)] for i in range(6)], ["0,1", "1,0", "4,0"],
                          [{"train": [0], "val": [1], "test": [2, 3, 5]},
                           {"train": [1, 4], "val": [0], "test": []}])
    else:  # "features-csv": write_raw_dataset writes features.csv
        write_raw_dataset(directory, 5, 3, ["0\t1", "3\t4", "4\t3", "2\t2"],
                          [[0.5 * i, -1.0, 2.0 + i] for i in range(5)],
                          [f"{i},{i % 2}" for i in range(5)], [{"train": [1], "val": [0], "test": [2, 3, 4]}])
    return directory


class TestDatasetImage:
    CASES = ["csbm", "isolated-nodes", "no-edges", "unlabeled-nodes", "features-csv"]

    @pytest.mark.parametrize("case", CASES)
    def test_roundtrip_equals_load_dataset(self, tmp_path, case):
        directory = _image_cases(tmp_path, case)
        ds = load_dataset(directory)
        assert ingest(directory, tmp_path / "dataset.bin") is None
        with open_image(tmp_path / "dataset.bin", directory) as image:
            assert (image.num_nodes, image.num_features, image.num_splits) == (
                ds.num_nodes, ds.num_features, len(ds.splits))
            adj = image.adjacency()
            # the columns stay in the image, read by slice
            assert isinstance(adj.col_indices, cachefile.CacheRows)
            assert len(adj.col_indices) == len(ds.adjacency.col_indices)
            for got, want in ((adj.row_offsets, ds.adjacency.row_offsets),
                              (adj.col_indices[:], ds.adjacency.col_indices)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert adj.num_nodes == ds.num_nodes
            assert_adjacency_contract(adj, ds.num_nodes)
            labels = image.labels()
            assert labels.dtype == np.int8 and labels.tobytes() == ds.labels.tobytes()
            for i, want in enumerate(ds.splits):
                got = image.split(i)
                for part in graph.SPLIT_PARTS:
                    assert getattr(got, part).dtype == np.int64
                    np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
            feature_file = graph.FeatureFile(str(directory), image.num_nodes, image.num_features)
            assert feature_file.shape == ds.features.shape
            features = feature_file.read()
            np.testing.assert_array_equal(features, ds.features)
            assert features.dtype == ds.features.dtype
            # the image's graph, columns read by slice, writes the same edges
            write_dataset(GraphDataset(adj, features, labels, ds.splits), tmp_path / "again")
        assert image.file.closed
        again = load_dataset(tmp_path / "again").adjacency
        for got, want in ((again.row_offsets, ds.adjacency.row_offsets),
                          (again.col_indices, ds.adjacency.col_indices)):
            assert got.tobytes() == want.tobytes()

    def test_split_reads_only_the_parts_asked_for(self, tmp_path):
        directory = _image_cases(tmp_path, "unlabeled-nodes")
        ingest(directory, tmp_path / "dataset.bin")
        with open_image(tmp_path / "dataset.bin", directory) as image:
            split = image.split(1, ("train", "val"))
            assert split.train.tolist() == [1, 4] and split.val.tolist() == [0]
            assert split.test.size == 0 and split.test.dtype == np.int64
            assert image.split(0, ("test",)).test.tolist() == [2, 3, 5]
            with pytest.raises(ConfigError, match="split index 2 out of range; dataset has 2 splits"):
                image.split(2)

    def test_supervision_opens_no_graph_file(self, tmp_path):
        """Opened for labels and splits, the image checks meta.json,
        labels.csv and splits.json only: edges.tsv and the features may
        hold anything."""
        directory = _image_cases(tmp_path, "features-csv")
        ingest(directory, tmp_path / "dataset.bin")
        (directory / "edges.tsv").write_text("not an edge\n")
        (directory / "features.csv").unlink()
        with open_image(tmp_path / "dataset.bin", directory, SUPERVISION_SOURCES) as image:
            assert image.labels().tolist() == [0, 1, 0, 1, 0]
            assert image.split(0).test.tolist() == [2, 3, 4]
        with pytest.raises(CacheFormatError, match="edges.tsv has changed"):
            open_image(tmp_path / "dataset.bin", directory)

    @pytest.mark.parametrize("name", IMAGE_SOURCES)
    @pytest.mark.parametrize("edit", ["same-size", "appended"])
    def test_edited_source_rejected(self, tmp_path, name, edit):
        directory = _image_cases(tmp_path, "csbm")
        ingest(directory, tmp_path / "dataset.bin")
        path = directory / name
        content = path.read_bytes()
        if edit == "same-size":
            at = next(i for i, c in enumerate(content) if chr(c).isdigit())
            content = content[:at] + (b"7" if content[at:at + 1] != b"7" else b"8") + content[at + 1:]
        else:
            content += b"\n"
        path.write_bytes(content)
        with pytest.raises(CacheFormatError) as err:
            open_image(tmp_path / "dataset.bin", directory)
        assert str(err.value) == (f"{path} has changed since {tmp_path / 'dataset.bin'} was "
                                  "written from it; rerun `preprocess`")
        others = tuple(s for s in IMAGE_SOURCES if s != name)
        open_image(tmp_path / "dataset.bin", directory, others).close()

    def test_missing_source_rejected(self, tmp_path):
        directory = _image_cases(tmp_path, "no-edges")
        ingest(directory, tmp_path / "dataset.bin")
        (directory / "labels.csv").unlink()
        with pytest.raises(DatasetFormatError, match="missing dataset file: .*labels.csv"):
            open_image(tmp_path / "dataset.bin", directory, SUPERVISION_SOURCES)

    def test_malformed_image_rejected(self, tmp_path, monkeypatch):
        opened = []

        class RecordingFile(CacheFile):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cachefile, "CacheFile", RecordingFile)
        directory = _image_cases(tmp_path, "csbm")
        path = tmp_path / "dataset.bin"
        ingest(directory, path)
        opened.clear()  # ingest's read of features.bin
        good = path.read_bytes()
        header = IMAGE_FORMAT.header_bytes
        cases = [
            (b"NOTIMAGE" + good[8:], "bad dataset.bin magic"),
            (good[: header - 1], "truncated dataset.bin header"),
            (good[:-1], f"dataset.bin: payload is {len(good) - header - 1} bytes, expected "
                        f"{len(good) - header}"),
            (good + b"\0", f"dataset.bin: payload is {len(good) - header + 1} bytes, expected "
                           f"{len(good) - header}"),
            (good[:header + 100], f"dataset.bin: payload is 100 bytes, expected "),
        ]
        for content, message in cases:
            path.write_bytes(content)
            with pytest.raises(CacheFormatError, match=message):
                open_image(path, directory)
        assert len(opened) == len(cases) and all(f.closed for f in opened)
        path.unlink()
        with pytest.raises(CacheFormatError, match="dataset.bin not found"):
            open_image(path, directory)

    def test_split_offsets_must_increase(self, tmp_path):
        directory = _image_cases(tmp_path, "unlabeled-nodes")
        path = tmp_path / "dataset.bin"
        ingest(directory, path)
        with open_image(path, directory) as image:
            table_at = image.file.payload_offset + image._labels_at + image.num_nodes
        content = bytearray(path.read_bytes())
        content[table_at + 8 : table_at + 16] = struct.pack("<Q", 5)  # offsets 0, 5, 1, ...
        path.write_bytes(bytes(content))
        with pytest.raises(CacheFormatError, match="split offsets do not increase from 0"):
            open_image(path, directory)


class TestRowIds:
    def test_row_of_every_entry(self):
        adj = make_dataset([[0, 1], [0, 3], [1, 3]], [[0.0]] * 5, [0] * 5).adjacency
        rows = adj.row_ids()
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows, [0, 0, 1, 1, 3, 3])
        for i in range(adj.num_nodes):
            np.testing.assert_array_equal(adj.col_indices[rows == i], adj.neighbors(i))


def _dense(op):
    """An operator's matrix, as its product with the identity: each entry
    is summed as 0 + v * 1.0 (+ 0 ...), which is v exactly."""
    return op @ np.eye(op.shape[1])


class TestNormalizedAdjacency:
    def test_leaves_the_index_arrays_unchanged(self):
        adj = er_dataset(30, 0.2, 2, seed=1).adjacency
        offsets, columns = adj.row_offsets.copy(), adj.col_indices.copy()
        norm, unit = normalized_adjacency(adj), adj.operator()
        # the operators permute copies of the columns, not the graph's
        assert adj.row_offsets.tobytes() == offsets.tobytes()
        assert adj.col_indices.tobytes() == columns.tobytes()
        assert norm.shape == unit.shape == (30, 30)
        np.testing.assert_array_equal(_dense(unit), csr(adj).toarray())  # not rescaled

    def test_single_edge(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 0])
        dense = _dense(normalized_adjacency(ds.adjacency))
        np.testing.assert_allclose(dense, [[0.0, 1.0], [1.0, 0.0]])

    def test_isolated_node_row_is_zero(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0], [1.0]], [0, 0, 0], num_nodes=3)
        dense = _dense(normalized_adjacency(ds.adjacency))
        np.testing.assert_array_equal(dense[2], 0.0)
        np.testing.assert_array_equal(dense[:, 2], 0.0)

    def test_path_value(self, path3):
        dense = _dense(normalized_adjacency(path3.adjacency))
        assert dense[0][1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_row_chunks_stack_to_the_whole_matrix(self):
        # isolated nodes 30..34; chunks of 7 rows do not divide 35
        adj = make_dataset(np.argwhere(np.triu(np.random.default_rng(2).random((30, 30)) < 0.2, 1)),
                           [[0.0]] * 35, [0] * 35).adjacency
        whole = _dense(normalized_adjacency(adj))
        assert whole.tobytes() == normalized_csr(adj).toarray().tobytes()
        scaling = graph.degree_scaling(adj)
        for given in (None, scaling):
            chunks = [_dense(normalized_adjacency(adj, (lo, min(lo + 7, 35)), given))
                      for lo in range(0, 35, 7)]
            assert np.vstack(chunks).tobytes() == whole.tobytes()

    def test_symmetry_is_exact(self):
        ds = er_dataset(40, 0.15, 2, seed=9)
        dense = _dense(normalized_adjacency(ds.adjacency))
        # same value stored twice, so equality is bitwise
        assert np.array_equal(dense, dense.T)


class TestRowOperator:
    """The numpy row operator against scipy's CSR product
    (``oracles.csr`` and ``oracles.normalized_csr``), byte for byte, for
    normalized values in f32 and f64 and for unit values, which sum in f64
    as scipy does over features widened to f64."""

    @staticmethod
    def _check(adj, x, rows, normalized):
        if normalized:
            got = normalized_adjacency(adj, rows, graph.degree_scaling(adj), x.dtype) @ x
            want = normalized_csr(adj, rows, x.dtype) @ x
        else:
            got = adj.operator(rows) @ x
            want = csr(adj, rows) @ x.astype(np.float64)
        assert got.dtype == want.dtype
        bits = np.uint32 if got.dtype == np.float32 else np.uint64
        assert got.view(bits).tobytes() == want.view(bits).tobytes(), rows

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=9),
           st.sampled_from([np.float32, np.float64]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_scipy_product(self, seed, rows_per_chunk, dtype, normalized):
        """Isolated nodes (the top quarter of the ids), one hub joined to
        every other connected node, features of both signs of zero, and
        every (lo, hi) chunk of the rows down to a one-row final chunk."""
        n, edges = messy_edges(seed)
        rng = np.random.default_rng(seed)
        hub = int(rng.integers(0, n - n // 4))
        spokes = np.arange(n - n // 4)
        edges = np.concatenate([edges, np.stack([np.full_like(spokes, hub), spokes], axis=1)])
        adj = SparseAdjacency.from_edges(n, edges)
        x = rng.standard_normal((n, 3))
        x[rng.random((n, 3)) < 0.2] = -0.0
        x = x.astype(dtype)
        bounds = [(lo, min(lo + rows_per_chunk, n)) for lo in range(0, n, rows_per_chunk)]
        for rows in [None, *bounds, (n - 1, n), (n, n)]:
            self._check(adj, x, rows, normalized)

    def test_edgeless_rows(self):
        adj = SparseAdjacency.from_edges(4, np.zeros((0, 2), dtype=np.int64))
        x = np.full((4, 2), -0.0)
        for normalized in (False, True):
            self._check(adj, x, None, normalized)
        assert not np.signbit(adj.operator() @ x).any()  # summed from +0.0

    def test_shape_mismatch_rejected(self):
        op = er_dataset(10, 0.3, 2, seed=1).adjacency.operator()
        for x in (np.zeros((9, 2)), np.zeros(10)):
            with pytest.raises(ValueError, match="cannot multiply"):
                op @ x


class TestHomophily:
    def test_triangle_all_same(self):
        ds = make_dataset([[0, 1], [1, 2], [0, 2]], [[1.0]] * 3, [0, 0, 0])
        assert edge_homophily(ds.adjacency, ds.labels) == 1.0

    def test_single_cross_edge(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 1])
        assert edge_homophily(ds.adjacency, ds.labels) == 0.0

    def test_path_half(self, path3):
        assert edge_homophily(path3.adjacency, path3.labels) == 0.5

    def test_node_homophily_path(self, path3):
        np.testing.assert_allclose(node_homophily(path3.adjacency, path3.labels), [1.0, 0.5, 0.0])

    def test_isolated_node_gets_nan(self):
        ds = make_dataset([[0, 1]], [[1.0]] * 3, [0, 0, 0], num_nodes=3)
        h = node_homophily(ds.adjacency, ds.labels)
        assert np.isnan(h[2])

    def test_clique_identical_labels(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        ds = make_dataset(edges, [[1.0]] * 4, [1, 1, 1, 1])
        np.testing.assert_allclose(node_homophily(ds.adjacency, ds.labels), 1.0)

    def test_class_homophily_path(self, path3):
        report = homophily_report(path3.adjacency, path3.labels)
        assert report.class_homophily_abnormal == pytest.approx(0.75)
        assert report.class_homophily_normal == pytest.approx(0.0)

    def test_empty_class_rejected(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 0])
        with pytest.raises(DatasetFormatError, match="abnormal"):
            homophily_report(ds.adjacency, ds.labels)

    def test_unlabeled_endpoint_rejected(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, -1])
        with pytest.raises(DatasetFormatError, match="no label"):
            edge_homophily(ds.adjacency, ds.labels)

    def test_edge_homophily_matches_enumeration(self):
        ds = er_dataset(60, 0.12, 2, seed=3)
        adj = ds.adjacency
        total = same = 0
        for u in range(adj.num_nodes):
            for v in adj.neighbors(u):
                if v > u:
                    total += 1
                    same += int(ds.labels[u] == ds.labels[v])
        assert edge_homophily(ds.adjacency, ds.labels) == pytest.approx(same / total, abs=1e-12)

    def test_class_homophily_matches_bruteforce(self):
        ds = er_dataset(50, 0.15, 2, seed=4)
        h = node_homophily(ds.adjacency, ds.labels)
        report = homophily_report(ds.adjacency, ds.labels)
        for cls, got in zip((1, 0), (report.class_homophily_abnormal,
                                     report.class_homophily_normal)):
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
        report = homophily_report(ds.adjacency, ds.labels)
        assert len(calls) == 1
        monkeypatch.undo()
        assert report.edge_homophily == edge_homophily(ds.adjacency, ds.labels)
        h = node_homophily(ds.adjacency, ds.labels)
        np.testing.assert_array_equal(report.node_homophily, h)
        assert (report.class_homophily_abnormal, report.class_homophily_normal) == tuple(
            float(np.mean(h[(ds.labels == cls) & ~np.isnan(h)])) for cls in (1, 0))

    def test_values_in_unit_interval(self):
        ds = er_dataset(80, 0.1, 2, seed=6)
        assert 0.0 <= edge_homophily(ds.adjacency, ds.labels) <= 1.0
        h = node_homophily(ds.adjacency, ds.labels)
        defined = h[~np.isnan(h)]
        assert np.all((defined >= 0) & (defined <= 1))


def _raw_adjacency(n, offsets, cols):
    """A SparseAdjacency over CSR arrays taken as given, as from_edges
    never builds them."""
    return SparseAdjacency(np.asarray(offsets, dtype=np.int32), np.asarray(cols, dtype=np.int32))


class TestFromEdgesContract:
    @pytest.mark.parametrize("seed", range(12))
    def test_messy_edge_lists(self, seed):
        n, edges = messy_edges(seed)
        assert_adjacency_contract(SparseAdjacency.from_edges(n, edges), n, edges)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_empty_edge_list(self, n):
        edges = np.zeros((0, 2), dtype=np.int64)
        adj = SparseAdjacency.from_edges(n, edges)
        assert_adjacency_contract(adj, n, edges)
        assert adj.num_edges == 0

    def test_int32_ids_above_46341_nodes(self):
        # the key 65536 * 65537 wraps an int32; the indices stay int32 here
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


class TestFromEdges:
    def test_many_duplicates_keep_the_edge(self):
        # 256 copies: a uint8 count of them would wrap to 0
        edges = np.asarray([[0, 1]] * 256 + [[1, 0]] * 44 + [[1, 2]])
        adj = SparseAdjacency.from_edges(3, edges)
        assert_adjacency_contract(adj, 3, edges)
        np.testing.assert_array_equal(csr(adj).toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

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


class TestFromEdgesMatchesScipy:
    """The sort-based build against scipy's COO->CSR build
    (``oracles.csr_from_edges``): the same index arrays, byte for byte, in
    the same dtype, whatever the chunking."""

    @staticmethod
    def _check(n, edges, chunk=None):
        with mock.patch.object(graph, "_EDGE_CHUNK", chunk or graph._EDGE_CHUNK):
            adj = SparseAdjacency.from_edges(n, edges)
        indptr, indices = csr_from_edges(n, edges)
        assert (adj.row_offsets.dtype, adj.col_indices.dtype) == (indptr.dtype, indices.dtype)
        assert adj.row_offsets.tobytes() == indptr.tobytes()
        assert adj.col_indices.tobytes() == indices.tobytes()
        return adj

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=9))
    @settings(max_examples=80, deadline=None)
    def test_messy_edge_lists(self, seed, chunk):
        # duplicates, reversed pairs, self-loops and isolated nodes, with
        # chunks of a few entries
        self._check(*messy_edges(seed), chunk)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_empty_edge_list(self, n):
        self._check(n, np.zeros((0, 2), dtype=np.int64))

    def test_only_self_loops(self):
        assert self._check(4, [[2, 2], [0, 0], [2, 2]]).num_edges == 0

    def test_ids_above_46341_nodes(self):
        self._check(65537, [[0, 65536], [46342, 50000], [65536, 65536], [65536, 0]])

    @pytest.mark.parametrize(("n", "nnz"), [
        (2**31 - 1, 0), (2**31, 0), (10, 2**31 - 1), (10, 2**31), (0, 0),
    ])
    def test_index_dtype_is_scipys(self, n, nnz):
        assert graph._index_dtype(n, nnz) == sp.get_index_dtype(maxval=max(n, nnz))

    @pytest.mark.parametrize("empty", [False, True])
    def test_parsed_edge_file_matches(self, tmp_path, empty):
        """The parse hands its text array over as the key buffer."""
        n, edges = messy_edges(5)
        edges = edges[:0] if empty else edges
        write_raw_dataset(tmp_path, n, 1, [f"{u}\t{v}" for u, v in edges], [[1.0]] * n, [])
        adj = graph.parse_dataset(tmp_path).adjacency
        indptr, indices = csr_from_edges(n, edges)
        assert adj.row_offsets.tobytes() == indptr.tobytes()
        assert adj.col_indices.tobytes() == indices.tobytes()

    def test_edges_kept_unless_overwritten(self):
        n, edges = messy_edges(3)
        before = edges.copy()
        kept = SparseAdjacency.from_edges(n, edges)
        np.testing.assert_array_equal(edges, before)
        overwritten = SparseAdjacency.from_edges(n, edges, overwrite_edges=True)
        assert overwritten.col_indices.tobytes() == kept.col_indices.tobytes()
        assert overwritten.row_offsets.tobytes() == kept.row_offsets.tobytes()

    def test_node_count_beyond_int64_keys_rejected(self):
        top = graph.MAX_NODES
        assert (top - 1) * top + (top - 1) <= np.iinfo(np.int64).max < top * (top + 1) + top
        with pytest.raises(DatasetFormatError, match="num_nodes must lie in"):
            SparseAdjacency.from_edges(top + 1, np.zeros((0, 2), dtype=np.int64))
