"""The substrate benchmark's corpus.io RSS gate must measure the child itself."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.corpus import WorkloadConfig, generate_store

BENCH_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "bench_substrate_performance.py"
)


def _load_benchmark():
    spec = importlib.util.spec_from_file_location("bench_substrate_performance", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resident_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line in /proc/self/status")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)
def test_rss_child_reports_its_own_peak_not_the_parents(tmp_path):
    bench = _load_benchmark()
    store_dir = os.fspath(tmp_path / "store")
    generate_store(WorkloadConfig(stories=4), store_dir)
    # ~256 MB of touched pages: the parent's resident size now dwarfs what
    # a child that only opens and resolves a 4-story store can need.
    ballast = np.ones(32 * 1024 * 1024)
    parent_kb = _resident_kb()
    assert parent_kb >= 200 * 1024
    report = bench._corpus_rss_child(store_dir, "resolve")
    assert report["stories"] == 4
    # ru_maxrss, which survives fork/exec, reads about parent_kb here.
    assert report["peak_rss_kb"] < parent_kb // 2
    del ballast
