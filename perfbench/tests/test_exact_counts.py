"""Counts the traced run reports must repeat exactly for one seed.

    python3 -m pytest perfbench/tests

Runs two traced processes per workload on the same generated config and
compares the counts that a later change may cite as evidence. Takes about
a minute.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from layers import EXACT_COUNTS, layer_metrics, missing_layers  # noqa: E402
from run import run_sample  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config(7))
    counts = []
    for run_id in (1, 2):
        sample = run_sample(workload, cfg_path, str(tmp_path), "trace", run_id)
        assert sample["problems"] == []
        assert missing_layers(sample["spans"], workload.layers) == []
        metrics = layer_metrics(sample["spans"])
        counts.append({m: metrics[m] for m in EXACT_COUNTS})
    assert counts[0] == counts[1]
