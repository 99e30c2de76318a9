"""softmtl benchmark: one closed-loop client per workload, in a fresh worker.

Usage (from the repository root):

    python3 bench/run.py --workload catalog-exhaustive --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Set-up is measured several times, each in a fresh worker process started,
imported, loaded and warmed up, and reported as the median; the last
worker then runs the measured loop.  With ``--trace 0`` the end-to-end
metrics are printed, with ``--trace 1`` the per-layer ones.  Every metric
is printed as ``name value unit``; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
results file with the machine, Python, source version and seed is written
under ``bench/results/``.  See ``bench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
from workloads import WORKLOADS as CLASSES  # imports nothing from softmtl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(CLASSES)
SETUPS = 5                 # fresh workers per run; setup_s is their median
READY_TIMEOUT_S = 60


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model or platform.processor(),
            "platform": platform.platform()}


def source_version() -> dict:
    """The program's git commit when the checkout is a repository, and a digest of its source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "softmtl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"commit": commit or None, "source_sha256": digest.hexdigest()}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SOFTMTL_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload, seed, seconds, trace):
    """Start a worker and wait until it is set up; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(ROOT), workload, str(seed),
         str(seconds), str(int(trace))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline() if sel.select(READY_TIMEOUT_S) else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker for {workload} did not become ready (exit {proc.returncode})")
    return proc, setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(workload, seed, seconds, trace) -> tuple[dict, list[float], list[float]]:
    """Raw worker measurements, set-up times, and the probes taken around each set-up."""
    setups, probes, proc = [], [probe.probe()], None
    try:
        for i in range(SETUPS):
            proc, setup = start_worker(workload, seed, seconds, trace)
            probes.append(probe.probe())
            setups.append(setup)
            if i < SETUPS - 1:
                proc.communicate("QUIT\n", timeout=READY_TIMEOUT_S)
        out, _ = proc.communicate("GO\n", timeout=max(150.0, 4 * seconds))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} timed out") from exc
    finally:
        if proc is not None:
            stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups, probes


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def end_to_end(latencies, cpu, checks, rss_kb, setups, tail_p) -> dict:
    """End-to-end metrics, as name -> (value, unit)."""
    lat = sorted(latencies)
    busy = sum(lat)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(lat) / busy, "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (percentile(lat, tail_p), "s"),
        "us_per_check": (busy * 1e6 / checks, "us"),
        "cpu_s_per_job": (sum(cpu) / len(lat), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def run_workload(workload, seed, seconds, trace) -> dict:
    tail_p = CLASSES[workload].tail_percentile
    raw, setups, setup_probes = measure(workload, seed, seconds, trace)
    failed = len(raw["failures"])
    scaled_setups = [t * probe.REFERENCE_S / ((a + b) / 2)
                     for t, a, b in zip(setups, setup_probes, setup_probes[1:])]
    if trace:
        metrics = {k: tuple(v) for k, v in raw["per_layer"].items()}
        unscaled = {}
    else:
        metrics = end_to_end(raw["latencies"], raw["cpu"], raw["checks"], raw["peak_rss_kb"],
                             scaled_setups, tail_p)
        unscaled = end_to_end(raw["raw_latencies"], raw["raw_cpu"], raw["checks"],
                              raw["peak_rss_kb"], setups, tail_p)
    n = len(raw["latencies"])
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "python": sys.version.split()[0],
        "softmtl": source_version(),
        "jobs": n, "cycles": raw["cycles"], "attempted": raw["attempted"], "failed": failed,
        "failed_ratio": failed / raw["attempted"],
        "tail_percentile": tail_p, "jobs_beyond_tail": n - math.ceil(tail_p / 100 * n),
        "setups_s": setups,
        "probe_s": {"reference": probe.REFERENCE_S, "setup": setup_probes, "loop": raw["probes"]},
        "unscaled_metrics": {k: {"value": v, "unit": u} for k, (v, u) in unscaled.items()},
        "median_s_by_job": {label: statistics.median(
            t for t, lab in zip(raw["latencies"], raw["labels"]) if lab == label)
            for label in sorted(set(raw["labels"]))},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "verdict_digests": raw["digests"], "witnesses_found": raw["witnesses_found"],
        "absent_layers": raw.get("absent", []), "failures": raw["failures"][:20],
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{workload} seed={seed}: {n} jobs in {raw['cycles']} cycles, "
          f"{failed} of {raw['attempted']} failed")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = f"  (p{tail_p}, {report['jobs_beyond_tail']} jobs beyond it)"
        print(f"  {name:34s} {value:.6g} {unit}{note}")
    if not trace:
        print(f"  {'failed_ratio':34s} {report['failed_ratio']:.6g} ratio")
    for layer in report["absent_layers"]:
        print(f"  absent: {layer}")
    for failure in report["failures"][:3]:
        print(f"  FAILED {failure}")
    print(f"  results: {path.relative_to(ROOT)}")
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "softmtl" / "__init__.py").is_file():
        print(f"error: no softmtl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(reports) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in reports for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
