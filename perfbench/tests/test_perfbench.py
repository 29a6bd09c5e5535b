"""Self-tests of the benchmark: short runs of every workload, the
failed-operation count on a corrupted row, and the bare-directory exit.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import job  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_emits_every_metric_and_passes_every_check(workload, trace, section):
    proc = _run("--workload", workload, "--seed", "9001", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert "per-layer spans" in proc.stdout


def test_stage_time_leaves_out_the_calibration_loop_and_is_normalised():
    clock = job.Clock()
    # Boundary i: loop from 10*i to 10*i + 1 seconds, the loop taking 1 s
    # at the first boundary and 3 s at every later one.
    clock.marks = {name: (10.0 * i, 10.0 * i + 1, 1.0 if i == 0 else 3.0)
                   for i, name in enumerate(job.BOUNDARIES)}
    host, norm = clock.stage("start", "converted")
    assert host == 9.0
    assert norm == pytest.approx(9.0 * job.CAL_NOMINAL_S / 2.0)
    host, norm = clock.stage("start", "got")
    assert host == 9.0 * (len(job.BOUNDARIES) - 1)
    cal = (1.0 + 3.0 * (len(job.BOUNDARIES) - 1)) / len(job.BOUNDARIES)
    assert norm == pytest.approx(host * job.CAL_NOMINAL_S / cal)


def test_end_to_end_metrics_come_from_normalised_times():
    sample = {"accesses": 100, "cells": [["iblp", 8]] * 2, "requests": 100,
              "times": dict.fromkeys(job.STAGES, 1.0),
              "norm_times": dict.fromkeys(job.STAGES, 2.0)}
    assert run.end_to_end(sample)["wall_s"] == 2.0
    assert run.end_to_end(sample)["matrix_cell_acc_per_s"] == 100.0
    assert run.end_to_end(sample, "times")["matrix_cell_acc_per_s"] == 200.0


@pytest.fixture(scope="module")
def job_output(tmp_path_factory):
    """One markov-spatial job's output and its conformance verdicts."""
    tmp = tmp_path_factory.mktemp("job")
    gen = [sys.executable, str(BENCH / "workloads.py"), "--workload", "markov-spatial",
           "--seed", "5", "--dir", str(tmp / "src")]
    subprocess.run(gen, check=True, timeout=120)
    subprocess.run(
        [sys.executable, str(BENCH / "job.py"), "--workload", "markov-spatial", "--seed", "5",
         "--source-dir", str(tmp / "src"), "--work-dir", str(tmp / "work"), "--seconds", "0",
         "--out", str(tmp / "jobs.json")],
        check=True, timeout=120,
    )
    out = json.loads((tmp / "jobs.json").read_text())["jobs"][0]
    return out, checks.conformance_by_cell(out["cells"], tmp / "work" / "job" / "trace.rtc")


def test_clean_job_has_no_failed_operation(job_output):
    out, conformant = job_output
    attempted, failed, messages = checks.check_job(out, conformant)
    # 17 matrix cells + cluster + serve + observe + 20 store rows.
    assert (attempted, failed, messages) == (40, 0, [])


def test_corrupted_miss_count_is_a_failed_operation(job_output):
    out, conformant = job_output
    bad = copy.deepcopy(out)
    iblp = next(r for r in bad["rows"] if r.get("stage") == "matrix" and r["policy"] == "iblp")
    iblp["misses"] += 1
    attempted, failed, messages = checks.check_job(bad, conformant)
    assert attempted == 40 and failed >= 1
    assert any("iblp" in m for m in messages)


def test_corrupted_store_read_is_a_failed_operation(job_output):
    out, conformant = job_output
    bad = copy.deepcopy(out)
    bad["store_got"][0]["misses"] += 1
    _attempted, failed, messages = checks.check_job(bad, conformant)
    assert failed == 1 and "store row 0" in messages[0]


def test_failed_conformance_fails_its_cell(job_output):
    out, conformant = job_output
    verdicts = [True] * len(conformant)
    verdicts[0] = False
    _attempted, failed, _messages = checks.check_job(out, verdicts)
    assert failed == 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "zipf-hot", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
