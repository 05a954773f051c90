import contextlib
import os

# One BLAS thread, as perfbench/run.py pins it, so a timing gate (8c) measures
# the same single-threaded kernels on any host.  OpenBLAS reads these when
# numpy loads, which has not happened yet when pytest imports this file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from sagad import chebyshev, context, training  # noqa: E402
from sagad.graph import (GraphDataset, SparseAdjacency, ingest, open_image,  # noqa: E402
                         write_dataset)

# every row-range job that `sagad.workers` runs
JOBS = (training.SCORE_JOB, chebyshev.BASIS_JOB, context.RQ_JOB, context.POOL_JOB)


def split_every_job(monkeypatch, cpus):
    """Make every row-range job see ``cpus`` usable CPUs (its affinity
    mask) and take one unit of rows per process at least, so a job of n
    rows runs in min(cpus, n) processes (whole tiles for scoring)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for job in JOBS:
        monkeypatch.setattr(job, "min_units", 1)


def make_dataset(edges, features, labels, num_nodes=None, splits=None, name="test"):
    features = np.asarray(features, dtype=np.float64)
    if num_nodes is None:
        num_nodes = features.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = SparseAdjacency.from_edges(num_nodes, edges)
    return GraphDataset(
        adjacency=adj,
        features=features,
        labels=np.asarray(labels, dtype=np.int8),
        splits=splits or [],
        name=name,
    )


def er_dataset(n, p, d, seed=0, anomaly_frac=0.2):
    """Erdos-Renyi graph with random features and labels."""
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, 1)
    edges = np.argwhere(mask)
    if len(edges) == 0:
        edges = np.zeros((0, 2), dtype=np.int64)
    adj = SparseAdjacency.from_edges(n, edges)
    features = rng.standard_normal((n, d))
    labels = (rng.random(n) < anomaly_frac).astype(np.int8)
    return GraphDataset(adjacency=adj, features=features, labels=labels)


def messy_edges(seed):
    """n and a random edge list on n nodes with duplicates, reversed pairs
    and self-loops; the top quarter of the ids is left isolated."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    base = rng.integers(0, n - n // 4, size=(int(rng.integers(0, 3 * n)), 2))
    loops = np.repeat(rng.integers(0, n, size=(3, 1)), 2, axis=1)
    return n, rng.permutation(np.concatenate([base, base[::2, ::-1], base[::3], loops]))


@contextlib.contextmanager
def image_graph(ds, directory):
    """``ds`` with its graph as the set-up commands read it: the dataset is
    written to ``directory`` and ingested, and the adjacency comes from
    the open image, its columns a reader over ``dataset.bin``."""
    write_dataset(ds, directory)
    image_path = os.path.join(directory, "dataset.bin")
    ingest(directory, image_path)
    with open_image(image_path, directory, ()) as image:
        yield GraphDataset(image.adjacency(), ds.features, ds.labels)


class LoggedColumns:
    """A graph's columns that log each slice read from them; with
    ``fail_after``, every read past that many raises RuntimeError."""

    def __init__(self, columns, fail_after=None):
        self.columns, self.fail_after, self.reads = columns, fail_after, []

    def __len__(self):
        return len(self.columns)

    def __getitem__(self, ids):
        self.reads.append(ids)
        if self.fail_after is not None and len(self.reads) > self.fail_after:
            raise RuntimeError("column read failed")
        return self.columns[ids]


@pytest.fixture
def path3():
    """Path graph 0-1-2 with labels (1, 1, 0)."""
    return make_dataset([[0, 1], [1, 2]], [[1.0], [2.0], [3.0]], [1, 1, 0])
