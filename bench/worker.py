"""Benchmark worker: one client running one workload in a closed loop.

Started by ``run.py`` as ``worker.py <root> <workload> <seed> <seconds> <trace>``.
It imports ``softmtl`` from ``<root>/src``, loads the workload's algebras,
runs one untimed but checked warm-up job, prints ``READY`` and waits for
one line on stdin: ``QUIT`` ends it (a set-up-only worker), ``GO`` starts
the measured loop.  The loop runs whole cycles until ``seconds`` have
passed and at least the workload's minimum number of cycles is done, then
prints one JSON line with the raw measurements.

With trace 1 every cycle runs twice on the same specs, first untraced and
then with the tracer's wrappers installed, so the per-layer numbers and the
tracing overhead come from the same inputs.
"""

from __future__ import annotations

import importlib
import json
import random
import resource
import signal
import sys
import time
import traceback
import types
from pathlib import Path

import probe
import workloads
from tracing import Tracer


def load_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("softmtl")
    for mod in ("algebra", "filters", "fixtures", "fuzzy", "soft", "verifier", "cli"):
        importlib.import_module(f"softmtl.{mod}")
    if Path(pkg.__file__).resolve().parent != (src / "softmtl").resolve():
        raise ImportError(f"softmtl was imported from {pkg.__file__}, not from {src}")
    return pkg


class Speed:
    """Machine-speed samples every INTERVAL_S, also in the middle of long jobs.

    The probes run from a SIGALRM handler, so a job that takes seconds is
    sampled throughout, not only at its ends.  A job's time is its clock time
    minus the time its probes took, scaled by REFERENCE_S over the mean of
    the probes during it and the one on each side.
    """

    def __init__(self):
        self.samples = []   # probe times
        self.spent = 0.0    # clock time spent in probes

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, probe.INTERVAL_S, probe.INTERVAL_S)
        self._tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()  # every job has a sample after it

    def _tick(self, *_):
        start = time.perf_counter()
        self.samples.append(probe.probe())
        self.spent += time.perf_counter() - start

    def mark(self):
        return len(self.samples), self.spent

    def scale(self, before, after) -> float:
        window = self.samples[max(before[0] - 1, 0):after[0] + 1]
        return probe.REFERENCE_S / (sum(window) / len(window))


NO_SPEED = types.SimpleNamespace(mark=lambda: (0, 0.0))  # the warm-up is not scaled


class Client:
    def __init__(self, workload, speed, tracer=None):
        self.wl = workload
        self.speed = speed
        self.tracer = tracer
        self.jobs = []     # (clock time, CPU time, label, marks before/after, layer self times)
        self.failures = []
        self.checks = 0

    def job(self, spec):
        """Run one job; the clock covers only the call into the program."""
        tracer = self.tracer if self.tracer and self.tracer.active else None
        t0 = t1 = c0 = c1 = 0.0
        before = after = self.speed.mark()
        try:
            inp, expected = self.wl.prepare(spec)
            c0, t0 = time.process_time(), time.perf_counter()
            before = self.speed.mark()
            out = self.wl.run(inp, tracer)
            after = self.speed.mark()
            t1, c1 = time.perf_counter(), time.process_time()
            error = self.wl.check(spec, out, expected)
        except Exception:  # a crash is a failed job, not a crashed benchmark
            if t0 and not t1:
                t1, c1 = time.perf_counter(), time.process_time()
                after = self.speed.mark()
            error = traceback.format_exc(limit=3)
        layers = tracer.fold() if tracer else None
        self.jobs.append((t1 - t0, c1 - c0, self.wl.label(spec), (before, after), layers))
        self.checks += self.wl.checks(spec)
        if error:
            self.failures.append(f"{spec!r}: {error}")

    def scaled(self):
        """Speed-scaled (latencies, CPU times) without probe time.

        Also adds the traced jobs' layer times to the tracer.
        """
        lat, cpu = [], []
        for t, c, _, (before, after), layers in self.jobs:
            probing = after[1] - before[1]
            k = self.speed.scale(before, after)
            lat.append((t - probing) * k)
            cpu.append(max(c - probing, 0.0) * k)
            if layers:  # probes inflated every layer in proportion to its time
                self.tracer.add(layers, k * (t - probing) / t if t else k)
        return lat, cpu


def measure(wl, rng, seconds, tracer):
    cycles, rss_kb = 0, None
    min_cycles = 1 if tracer else wl.min_cycles  # the tail and memory need the full count
    with Speed() as speed:
        client = Client(wl, speed, tracer)  # traced when tracing
        untraced = Client(wl, speed)         # trace mode only: the overhead baseline
        start = time.perf_counter()
        while cycles < min_cycles or time.perf_counter() - start < seconds:
            specs = wl.cycle(rng)
            if tracer:
                for spec in specs:
                    untraced.job(spec)
                tracer.install()
                tracer.active = True
                try:
                    for spec in specs:
                        client.job(spec)
                finally:
                    tracer.active = False
                    tracer.uninstall()
                tracer.end_cycle()
            else:
                for spec in specs:
                    client.job(spec)
            cycles += 1
            if cycles == min_cycles:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies, cpu = client.scaled()
    result = {
        "cycles": cycles,
        "latencies": latencies,
        "cpu": cpu,
        "raw_latencies": [j[0] for j in client.jobs],
        "raw_cpu": [j[1] for j in client.jobs],
        "labels": [j[2] for j in client.jobs],
        "checks": client.checks,
        "failures": client.failures + (untraced.failures if tracer else []),
        "attempted": len(client.jobs) + (len(untraced.jobs) if tracer else 0),
        "peak_rss_kb": rss_kb,
        "probes": speed.samples,
        "digests": getattr(wl, "digests", {}),
        "witnesses_found": getattr(wl, "found", {}),
    }
    if tracer:
        layers = tracer.metrics(cycles)
        layers["trace.overhead_ratio"] = (
            sum(latencies) / sum(untraced.scaled()[0]) - 1, "ratio")
        result["per_layer"] = layers
        lost = tracer.counts["trace.uncounted"]
        result["absent"] = tracer.absent + (
            [f"counts of {lost} calls whose result changed shape"] if lost else [])
    return result


def main(argv):
    root, name, seed, seconds = Path(argv[0]), argv[1], int(argv[2]), float(argv[3])
    trace = argv[4] == "1"
    try:
        pkg = load_package(root)
    except ImportError as exc:
        print(f"worker: cannot import softmtl: {exc}", file=sys.stderr)
        return 3
    wl = workloads.WORKLOADS[name](pkg)
    wl.setup()
    warm = Client(wl, NO_SPEED)
    warm.job(wl.warmup)
    if hasattr(wl, "found"):
        wl.found.clear()  # count witnesses of measured jobs only
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0
    tracer = Tracer(pkg) if trace else None
    result = measure(wl, random.Random(seed), seconds, tracer)
    result["attempted"] += 1  # the warm-up job is checked like any other
    result["failures"] = [f"warm-up {f}" for f in warm.failures] + result["failures"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
