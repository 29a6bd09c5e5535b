"""The repository's benchmark: one replay job, run on three traces.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload markov-spatial --seed 1 --seconds 35 --trace 0

The benchmark is one process driving one job at a time in a closed
loop.  It writes the workload's seeded source file (in a process of its
own, cached by seed under ``.perfbench/``), then starts one fresh job
process (``job.py``: cold compile memo, empty caches).  That process
runs a warm-up job and then jobs back to back for ``--seconds``, each
with its compile memo cleared and a new ``.rtc`` file and store.  Each
end-to-end metric is the median over the untraced jobs of the
normalised stage times (see ``job.Clock.stage`` and README.md,
*Steadiness*); the medians and quartiles of the plain host times are
printed beside them.  With ``--trace 1`` every untraced job is followed
by a traced one, which records spans around each layer call and runs
the per-layer probes; the per-layer metrics are medians over the traced
jobs.

After the timed loop the outputs are checked (see ``checks.py``), and
the simulated-output record — row digest plus miss ratios, spatial-hit
fractions, serving p50/p99 and cluster imbalance — is printed and
written to ``.perfbench/``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import bootstrap  # exits non-zero outside a checkout
import checks
import spantrace
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = bootstrap.ROOT / ".perfbench"
#: Seconds a job process may take beyond ``--seconds`` (warm-up job,
#: imports, and the job that is running when the time is up).
JOB_SLACK_S = 120

#: The job process is one thread: keep numeric libraries from starting pools,
#: and fix hash randomisation so dict and set layouts repeat.
JOB_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "matrix_cell_acc_per_s": "cell.acc/s",
    "cluster_acc_per_s": "acc/s",
    "serve_req_per_s": "req/s",
    "observe_acc_per_s": "acc/s",
    "peak_rss_mb": "MB",
}

NOTE = (
    "note: every job starts cold (empty compile memo, new .rtc file and store; "
    "one fresh process per run); "
    "the simulated statistics come from a model not validated against hardware "
    "(the repository holds no reference measurements), so they must stay "
    "identical under a speed-only change"
)


def _python(script: str, *args: Any) -> List[str]:
    return [sys.executable, str(HERE / script), *map(str, args)]


def source_dir(workload: str, seed: int) -> Path:
    """Generate (once per seed) the workload's source in its own process."""
    generator = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()[:8]
    directory = WORK / "sources" / f"{workload}-seed{seed}-{generator}"
    if not (directory / "source.json").is_file():
        shutil.rmtree(directory, ignore_errors=True)
        subprocess.run(
            _python("workloads.py", "--workload", workload, "--seed", seed, "--dir", directory),
            check=True, timeout=JOB_SLACK_S,
        )
    return directory


def run_jobs(workload: str, seed: int, src: Path, work: Path, seconds: float,
             trace: int) -> Dict[str, Any]:
    """Start the run's job process and return its output."""
    out = work / "jobs.json"
    subprocess.run(
        _python("job.py", "--workload", workload, "--seed", seed, "--source-dir", src,
                "--work-dir", work, "--seconds", seconds, "--out", out, "--trace", trace),
        check=True, timeout=seconds + JOB_SLACK_S, env={**os.environ, **JOB_ENV},
    )
    return json.loads(out.read_text())


def end_to_end(job: Dict[str, Any], times: str = "norm_times") -> Dict[str, float]:
    """One job's end-to-end metrics from its normalised stage times
    (``times="times"``: from its host times)."""
    t = job[times]
    n = job["accesses"]
    return {
        "wall_s": t["wall_s"],
        "setup_s": t["setup_s"],
        "matrix_cell_acc_per_s": n * len(job["cells"]) / t["matrix_s"],
        "cluster_acc_per_s": n / t["cluster_s"],
        "serve_req_per_s": job["requests"] / t["serve_s"],
        "observe_acc_per_s": n / t["observe_s"],
    }


def spread_line(name: str, values: List[float], what: str = "jobs") -> str:
    """Median and quartiles of one metric over a run's jobs."""
    if len(values) < 2:
        return f"{name}: {values[0]:.6g} (1 of {what})"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{name}: median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g} ({len(values)} {what})"


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run the replay-job benchmark on one workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    wl = ns.workload
    src = source_dir(wl, ns.seed)
    info = json.loads((src / "source.json").read_text())
    run_dir = WORK / "runs" / f"{wl}-seed{ns.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)

    out = run_jobs(wl, ns.seed, src, run_dir, ns.seconds, ns.trace)
    jobs = out["jobs"]
    plain = [job for job in jobs if not job["traced"]]
    traced = [job for job in jobs if job["traced"]]

    # -- checks (outside every timed region) --------------------------------
    conformant = checks.conformance_by_cell(jobs[0]["cells"], run_dir / "job" / "trace.rtc")
    attempted = failed = 0
    messages: List[str] = []
    for job in jobs:
        a, f, msgs = checks.check_job(job, conformant)
        attempted, failed = attempted + a, failed + f
        messages += msgs
    digests = {checks.row_digest(job["rows"]) for job in jobs}
    run_checks = {
        "same row digest in every job": len(digests) == 1,
        "converted trace has the source's access count":
            all(job["accesses"] == info["accesses"] for job in jobs),
        "rtc fingerprint equals the in-memory trace's": info["fingerprint"] is None
        or all(job["fingerprint"] == info["fingerprint"] for job in jobs),
    }
    correct = failed == 0 and all(run_checks.values())

    # -- simulated-output record --------------------------------------------
    record = {
        "workload": wl,
        "seed": ns.seed,
        "accesses": jobs[0]["accesses"],
        "row_digest": sorted(digests),
        "simulated": checks.simulated_stats(jobs[0]),
    }
    print(NOTE)
    print(json.dumps(record, sort_keys=True, indent=1))
    (WORK / f"record-{wl}-seed{ns.seed}.json").write_text(json.dumps(record, sort_keys=True))
    for name, ok in run_checks.items():
        print(f"check {'ok' if ok else 'FAILED'}: {name}")
    for msg in messages:
        print(f"check FAILED: {msg}")
    print(f"jobs: {len(plain)} untraced, {len(traced)} traced; "
          f"operations attempted {attempted}, failed {failed}")

    # -- metrics ------------------------------------------------------------
    per_job = {label: [end_to_end(job, times) for job in plain]
               for label, times in (("host", "times"), ("normalised", "norm_times"))}
    for label, samples in per_job.items():
        for k in samples[0]:
            print(spread_line(f"{k} ({label})", [j[k] for j in samples]))
    print(spread_line("calibration loop s", [c for job in plain for c in job["calibration_s"]],
                     "stage boundaries"))
    print(f"peak_rss_mb: {out['peak_rss_mb']:.6g} (after the warm-up job)")
    if ns.trace:
        layers = [job["layers"] for job in traced]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_x"] = (
            statistics.median(job["norm_times"]["wall_s"] for job in traced)
            / statistics.median(j["wall_s"] for j in per_job["normalised"])
        )
        merged = [dict(s, job=i) for i, job in enumerate(traced) for s in job["spans"]]
        with open(WORK / f"spans-{wl}-seed{ns.seed}.jsonl", "w") as fh:
            for s in merged:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
        print(spantrace.format_table(
            spantrace.summarize(merged), f"per-layer spans ({len(traced)} traced jobs)"))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {k: statistics.median(j[k] for j in per_job["normalised"])
                  for k in per_job["normalised"][0]}
        values["peak_rss_mb"] = out["peak_rss_mb"]
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("acc_per_s", "acc/s"), ("_s", "s"), ("_x", "x"),
                         ("bytes", "bytes"), ("gain", "x"), ("ratio", "ratio"),
                         ("imbalance", "x")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
