"""Tests of the benchmark itself (generator, span arithmetic, output checks).

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SMALL = gen.GraphSpec(n=3_000, num_splits=2)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    for sub in ("a", "b"):
        gen.write_dataset(gen.generate(SMALL, 7), str(tmp_path / sub), "g")
    gen.write_dataset(gen.generate(SMALL, 8), str(tmp_path / "c"), "g")
    a, b, c = (_files(tmp_path / sub) for sub in "abc")
    assert sorted(a) == ["edges.tsv", "features.bin", "labels.csv", "meta.json", "splits.json"]
    assert a == b
    assert a["edges.tsv"] != c["edges.tsv"]


def test_generator_output_loads_in_sagad(tmp_path):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
    from sagad.graph import load_dataset

    graph = gen.generate(SMALL, 3)
    gen.write_dataset(graph, str(tmp_path), "g")
    ds = load_dataset(str(tmp_path))
    assert ds.adjacency.num_edges == len(graph.edges)
    np.testing.assert_array_equal(ds.labels, graph.labels)
    np.testing.assert_array_equal(ds.features, graph.features)
    np.testing.assert_array_equal(np.diff(ds.adjacency.row_offsets), gen.degrees(graph))
    assert len(ds.splits) == 2
    np.testing.assert_array_equal(ds.splits[1].test, graph.splits[1]["test"])


def test_generator_shape_matches_the_workload_design():
    spec = gen.GraphSpec(n=20_000)
    stats = gen.input_stats(spec, gen.generate(spec, 1))
    assert 15.0 < stats["mean_degree"] < 17.0
    assert 0.35 < stats["exhaustive_share"] < 0.5
    assert 0.01 < stats["capped_share"] < 0.04
    assert stats["anomalies"] == 1000 and stats["heterophilic_nodes"] == 6000
    assert stats["class_homophily_anomaly"] < 0.5 < stats["class_homophily_normal"]


def test_ascii_rows_matches_python_formatting():
    a = np.array([0, 7, 10, 99, 100, 123456, 9, 1_000_000])
    b = np.array([5, 0, 1, 31, 77, 2, 100, 3])
    expected = "".join(f"{x}\t{y}\n" for x, y in zip(a, b)).encode()
    assert gen.ascii_rows([a, b], [b"\t", b"\n"]) == expected


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_times_on_a_hand_built_tree():
    tree = [
        _span("cli", 0.0, 10.0, None),         # 0: children cover 1-4 and 5-9
        _span("load", 1.0, 4.0, 0),            # 1: leaf
        _span("train", 5.0, 9.0, 0),           # 2: child 6-8
        _span("step", 6.0, 8.0, 2),            # 3: children overlap 6.5-7.5 and 7-7.8
        _span("fwd", 6.5, 7.5, 3),             # 4
        _span("bwd", 7.0, 7.8, 3),             # 5: overlaps fwd by 0.5
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.0, 2.0 - 1.3, 1.0, 0.8])
    assert spans.has_ancestor(tree, 5, "train")
    assert not spans.has_ancestor(tree, 1, "train")


def test_recorder_nests_spans():
    class Owner:
        @staticmethod
        def outer():
            return Owner.inner() + 1

        @staticmethod
        def inner():
            return 1

    rec = spans.Recorder()
    rec.wrap(Owner, "inner", "inner")
    rec.wrap(Owner, "outer", "outer")
    assert Owner.outer() == 2
    assert [(s["name"], s["parent"]) for s in rec.spans] == [("outer", None), ("inner", 0)]
    outer, inner = rec.spans
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_auroc_check_matches_hand_cases():
    assert checks.auroc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])) == 0.75
    # one tied positive/negative pair counts one half: (0.5 + 1 + 1 + 1) / 4
    assert checks.auroc(np.array([0.5, 0.5, 0.2, 0.9]), np.array([1, 0, 0, 1])) == 0.875


def test_report_auroc_flags_a_mismatch():
    scores = np.array([0.1, 0.4, 0.35, 0.8, 0.6])
    labels = np.array([0, 0, 1, 1, 0])
    test_ids = np.array([0, 1, 2, 3])
    good = {0: {"auroc": 0.75, "auprc": 0.5}}
    bad = {0: {"auroc": 0.76, "auprc": 0.5}}
    assert checks.report_auroc(good, 0, scores, labels, test_ids) == []
    assert checks.report_auroc(bad, 0, scores, labels, test_ids)
    assert checks.report_auroc({}, 0, scores, labels, test_ids)


def test_read_scores(tmp_path):
    path = str(tmp_path / "scores_0.csv")
    with open(path, "w") as f:
        f.write("node_id,score\n0,0.25\n1,np.float64(0.5)\n2,1.0\n")
    scores, wrapped, problems = checks.read_scores(path, 3)
    assert problems == [] and wrapped == 1
    np.testing.assert_array_equal(scores, [0.25, 0.5, 1.0])
    with open(path, "w") as f:
        f.write("node_id,score\n0,0.25\n1,nan\n2,1.0\n")
    assert checks.read_scores(path, 3)[2]
    assert checks.read_scores(path, 4)[2]


def test_context_cache_size_rules(tmp_path):
    n, d = 3, 2
    degree = np.array([0, 2, 70])
    path = str(tmp_path / "context_cache.bin")

    def write(sizes):
        with open(path, "wb") as f:
            f.write(b"\0" * (checks.CONTEXT_HEADER_BYTES + n * d * 4))
            f.write(np.asarray(sizes, dtype="<u4").tobytes())

    write([1, 3, 65])
    assert checks.context_cache(path, n, d, degree, "rq", 64) == []
    write([1, 3, 66])
    assert checks.context_cache(path, n, d, degree, "rq", 64)
    write([1, 3, 71])
    assert checks.context_cache(path, n, d, degree, "full_khop", 64) == []
    with open(path, "ab") as f:
        f.write(b"\0")
    assert checks.context_cache(path, n, d, degree, "full_khop", 64)


def test_benchmark_json_matches_the_code():
    import json

    import bench
    import run

    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
