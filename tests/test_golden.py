"""Every output of the CLI pipeline against the digests in ``golden.json``.

The pipeline of ``tools/pipeline_digests.py --write-golden`` runs here, in
this process: an n = 2049 perfbench graph (one row past a 1024-row scoring
tile), split 0, in ``rq``, ``full_khop`` and ``features_only`` mode.  A
change to any byte of any output fails the test.  When a change to
results is intended, regenerate the table with ``python
tools/pipeline_digests.py --write-golden`` and record the change and its
reason.  The digests depend on the numpy build, its BLAS and the CPU, so
on another of those the test is skipped, naming what differs.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import pipeline_digests  # noqa: E402


def test_pipeline_outputs_match_the_golden_digests(tmp_path):
    with open(pipeline_digests.GOLDEN) as f:
        golden = json.load(f)
    here, recorded = pipeline_digests.environment(), golden["environment"]
    differ = [f"{key} {here[key]!r}, recorded {recorded.get(key)!r}"
              for key in here if here[key] != recorded.get(key)]
    if differ:
        pytest.skip("golden digests were taken on another build or CPU: " + "; ".join(differ))
    assert golden["run"] == pipeline_digests.GOLDEN_RUN
    got = pipeline_digests.golden_digests(str(tmp_path))
    changed = [f"{mode} {label}" for mode, table in golden["digests"].items()
               for label, digest in table.items() if got.get(mode, {}).get(label) != digest]
    assert not changed and got == golden["digests"], f"outputs changed: {changed}"
