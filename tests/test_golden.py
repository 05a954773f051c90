"""Every output of the CLI pipeline against the digests in ``golden.json``.

The pipeline of ``tools/pipeline_digests.py --write-golden`` runs here, in
this process: an n = 2049 perfbench graph (one row past a 1024-row scoring
tile), split 0, in ``rq``, ``full_khop`` and ``features_only`` mode, then
``train`` again in the ``rq`` run directory with each of the run's
``train_flags`` (fusion modes, no FPG term, MLP depths, weight decay, a
fixed epoch budget), whose checkpoint and history are digested too.  A
change to any byte of any output fails the test.  When a change to
results is intended, regenerate the table with ``python
tools/pipeline_digests.py --write-golden`` and record the change and its
reason.  The digests depend on the numpy build, its BLAS and the CPU, so
on another of those the test is skipped, naming what differs.  The
pipeline runs twice: with the worker counts this host derives, and with
every row-range job split over three processes: the basis
(``preprocess``) and the context (``sample-context``) over rows 0..682,
683..1365 and 1366..2048, and ``eval``, ``score`` and ``quartiles`` one
tile each.
"""

import json
import os
import sys

import pytest

from sagad import cli

from conftest import split_every_job

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import pipeline_digests  # noqa: E402


def _golden() -> dict:
    """The recorded digests, or a skip naming what differs from when they
    were taken."""
    with open(pipeline_digests.GOLDEN) as f:
        golden = json.load(f)
    here, recorded = pipeline_digests.environment(), golden["environment"]
    differ = [f"{key} {here[key]!r}, recorded {recorded.get(key)!r}"
              for key in here if here[key] != recorded.get(key)]
    if differ:
        pytest.skip("golden digests were taken on another build or CPU: " + "; ".join(differ))
    assert golden["run"] == pipeline_digests.GOLDEN_RUN
    return golden["digests"]


def _assert_golden(golden: dict, got: dict) -> None:
    changed = [f"{mode} {label}" for mode, table in golden.items()
               for label, digest in table.items() if got.get(mode, {}).get(label) != digest]
    assert not changed and got == golden, f"outputs changed: {changed}"


def test_pipeline_outputs_match_the_golden_digests(tmp_path):
    golden = _golden()
    _assert_golden(golden, pipeline_digests.golden_digests(str(tmp_path)))


def test_forked_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    """Three usable CPUs and one unit of rows per process at least: each
    job's rows go to this process and two forked workers."""
    golden = _golden()
    split_every_job(monkeypatch, 3)
    command, forks, fork, main = [None], [], os.fork, cli.main

    def counted_fork():
        forks.append(command[0])
        return fork()

    def counted_main(argv):
        command[0] = argv[0]
        return main(argv)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cli, "main", counted_main)
    got = pipeline_digests.golden_digests(str(tmp_path))
    modes = pipeline_digests.GOLDEN_RUN["modes"]
    # two workers per job: per block of the K = 3 basis, per context build
    # (not for features_only), and per scoring command
    assert {name: forks.count(name) for name in set(forks)} == {
        "preprocess": 2 * 3 * len(modes), "sample-context": 2 * (len(modes) - 1),
        "eval": 2 * len(modes), "score": 2 * len(modes), "quartiles": 2 * len(modes)}
    _assert_golden(golden, got)
