"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q

The exact-count test makes two traced runs of every workload (about two
minutes on 2 vCPUs).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import EXACT_COUNTS, PER_LAYER, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children_across_threads():
    spans = [
        (0, "cli.main", 0.0, 10.0, None, 1, None),
        (1, "montecarlo.channel_statistics", 1.0, 5.0, 0, 1, {"bytes": 8}),
        (2, "sampling.channel_realizations", 1.0, 4.0, 1, 2, {"trials": 3}),
        (3, "sampling.channel_realizations", 2.0, 4.5, 1, 3, {"trials": 4}),
        (4, "linalg2.svd2", 2.0, 3.0, 2, 2, {"matrices": 6}),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(0.5)
    assert own[2] == pytest.approx(2.0)
    m = layer_metrics(spans, nproc=2)
    assert m["montecarlo.chunk_busy_s"] == pytest.approx(5.5)
    assert m["montecarlo.parallel_eff"] == pytest.approx(5.5 / 8.0)
    assert m["sampling.channel_realizations.trials"] == 7
    assert m["linalg2.svd2.sampling.matrices"] == 6
    assert m["linalg2.svd2.altopt.matrices"] == 0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["outage_fig", "verify_smoke"]
    assert set(run.WORKLOADS) == {"outage_fig", "throughput_fig", "verify_smoke"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "outage_fig", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(name):
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        counts = []
        for _ in range(2):
            deadline = time.monotonic() + run.DEADLINE_S
            traced, _attempted, failed = run.cli_run(
                work, run.WORKLOADS[name], 1729, deadline, trace=True
            )
            assert failed == 0
            m = layer_metrics(traced.record["spans"], run.NPROC)
            counts.append({k: m[k] for k in EXACT_COUNTS})
    finally:
        shutil.rmtree(work)
    assert counts[0] == counts[1]
    assert counts[0]["special.quad.evals"] > 0
