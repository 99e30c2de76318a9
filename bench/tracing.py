"""Per-layer tracing by wrapping the functions the program binds.

Each wrapper records a span (layer, start, end, parent) in memory; at the
end of every job the spans are folded into per-layer self times (a span's
duration minus the time covered by its child spans) and then dropped, so
memory stays bounded by one job.  The worker adds each job's layer times
scaled like its latency (see probe.py).  Counts are recorded at the same
boundaries.  A name that no longer exists in the program is reported as
an absent layer instead of failing the run.
"""

from __future__ import annotations

import collections
import time

# (module, name, layer) for every binding the benchmark wraps.  A layer
# given as None is resolved per call from the arguments.
BINDINGS = (
    ("verifier", "check_fuzzy_witness", None),
    ("verifier", "enumerate_fuzzy_sets", "fuzzy.enumerate"),
    ("verifier", "sample_fuzzy_sets", "fuzzy.sample"),
    ("verifier", "build_soft", "soft.build"),
    ("verifier", "classify_soft", "soft.classify"),
    ("verifier", "verify", "verifier.verify"),
    ("verifier", "find_strictness_witness", "verifier.witness"),
    ("soft", "classify_filter", "filters.classify"),
    ("filters", "classify_filter", "filters.classify"),
    ("filters", "enumerate_filters", "filters.enumerate"),
    ("filters", "crisp_decomposition_check", "filters.decomposition"),
    ("algebra", "load_algebra", "algebra.load"),
    ("fixtures", "load_algebra", "algebra.load"),
    ("algebra", "validate_mtl", "algebra.validate"),
    ("algebra", "check_derived_laws", "algebra.laws"),
    ("cli", "main", "cli.main"),
)

FAMILIES = ("plain", "eiq", "bar", "thresholds")
KINDS = ("filter", "boolean", "mv", "g")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []          # [layer, start, end, parent index]
        self.stack = []
        self.self_s = collections.Counter()
        self.counts = collections.Counter()
        self.distinct = set()    # (algebra, mask) pairs seen by filters.classify this cycle
        self.absent = []
        self.active = False
        self._saved = []

    # --- spans -----------------------------------------------------------

    def _open(self, layer):
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def fold(self) -> collections.Counter:
        """Per-layer self time of the recorded spans, which are then dropped."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for (layer, start, end, _), covered in zip(self.spans, child):
            out[layer] += end - start - covered
        self.spans.clear()
        return out

    def end_cycle(self):
        """Count distinct (algebra, mask) pairs per cycle.

        Counted over the whole run, the ratio would fall as cycles repeat.
        """
        self.counts["filters.classify.distinct"] += len(self.distinct)
        self.distinct.clear()

    def add(self, layers, scale):
        """Add one job's layer times, scaled to reference-machine seconds."""
        for layer, t in layers.items():
            self.self_s[layer] += t * scale

    # --- wrapping --------------------------------------------------------

    def install(self):
        """Wrap every binding still present; remember the absent ones."""
        self.absent = []
        for mod_name, name, layer in BINDINGS:
            mod = getattr(self.package, mod_name, None)
            fn = getattr(mod, name, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{name}")
                continue
            self._saved.append((mod, name, fn))
            setattr(mod, name, self._wrap(fn, layer))

    def uninstall(self):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def _wrap(self, fn, layer):
        if layer is None:
            return self._wrap_scan(fn)
        if layer in ("fuzzy.enumerate", "fuzzy.sample"):
            return self._wrap_stream(fn, layer)
        after = {
            "soft.build": lambda a, r: self.counts.update(
                {"soft.build.calls": 1, "soft.build.levels": len(r.levels)}),
            "soft.classify": lambda a, r: self.counts.update(
                {"soft.classify.calls": 1, "soft.classify.pass": bool(r[0])}),
            "filters.classify": self._after_classify,
            "verifier.verify": lambda a, r: self.counts.update(
                {"verifier.verify.calls": 1,
                 "verifier.counterexamples": len(r.counterexamples)}),
        }.get(layer)

        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after:
                try:
                    after(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.counts["trace.uncounted"] += 1  # the result changed shape
            return result
        return wrapper

    def _after_classify(self, args, result):
        self.counts["filters.classify.calls"] += 1
        self.distinct.add(tuple(args[:2]))

    def _wrap_scan(self, fn):
        def wrapper(mu, family, kind, *args, **kwargs):
            idx = self._open(f"fuzzy.scan.{family}.{kind}")
            try:
                result = fn(mu, family, kind, *args, **kwargs)
            finally:
                self._close(idx)
            self.counts["fuzzy.scan.calls"] += 1
            self.counts["fuzzy.scan.rejects"] += result is not None
            return result
        return wrapper

    def _wrap_stream(self, fn, layer):
        key = f"{layer}.sets"

        def timed(it):
            while True:
                idx = self._open(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[key] += 1
                yield item

        return lambda *args, **kwargs: timed(iter(fn(*args, **kwargs)))

    # --- metrics ---------------------------------------------------------

    def metrics(self, cycles: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced cycle, as name -> (value, unit)."""
        s, c = self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        scan = {f"fuzzy.scan.s.{f}.{k}": s[f"fuzzy.scan.{f}.{k}"]
                for f in FAMILIES for k in KINDS}
        out = {
            "fuzzy.scan.calls": (c["fuzzy.scan.calls"], "count"),
            "fuzzy.scan.s": (sum(scan.values()), "s"),
            **{name: (v, "s") for name, v in scan.items()},
            "fuzzy.scan.reject_ratio": (
                ratio(c["fuzzy.scan.rejects"], c["fuzzy.scan.calls"]), "ratio"),
            "fuzzy.enumerate.sets": (c["fuzzy.enumerate.sets"], "count"),
            "fuzzy.enumerate.s": (s["fuzzy.enumerate"], "s"),
            "fuzzy.sample.sets": (c["fuzzy.sample.sets"], "count"),
            "fuzzy.sample.s": (s["fuzzy.sample"], "s"),
            "soft.build.calls": (c["soft.build.calls"], "count"),
            "soft.build.s": (s["soft.build"], "s"),
            "soft.build.levels": (c["soft.build.levels"], "count"),
            "soft.classify.calls": (c["soft.classify.calls"], "count"),
            "soft.classify.s": (s["soft.classify"], "s"),
            "soft.classify.pass_ratio": (
                ratio(c["soft.classify.pass"], c["soft.classify.calls"]), "ratio"),
            "filters.classify.calls": (c["filters.classify.calls"], "count"),
            "filters.classify.s": (s["filters.classify"], "s"),
            "filters.classify.distinct_ratio": (
                ratio(c["filters.classify.distinct"] + len(self.distinct),
                      c["filters.classify.calls"]), "ratio"),
            "filters.enumerate.s": (s["filters.enumerate"], "s"),
            "filters.decomposition.s": (s["filters.decomposition"], "s"),
            "algebra.load.s": (s["algebra.load"], "s"),
            "algebra.validate.s": (s["algebra.validate"], "s"),
            "algebra.laws.s": (s["algebra.laws"], "s"),
            "verifier.verify.calls": (c["verifier.verify.calls"], "count"),
            "verifier.verify.self_s": (s["verifier.verify"], "s"),
            "verifier.witness.self_s": (s["verifier.witness"], "s"),
            "verifier.counterexamples": (c["verifier.counterexamples"], "count"),
            "cli.main.self_s": (s["cli.main"], "s"),
            "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
        }
        per_cycle = {name: (v / cycles if unit != "ratio" else v, unit)
                     for name, (v, unit) in out.items()}
        return per_cycle
