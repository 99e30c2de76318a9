"""The benchmark's three workloads.

Each workload turns a seeded random generator into cycles of job specs.
A cycle holds a fixed list of job kinds in a seeded order, so every run
measures the same mix however many cycles fit in it.  For each job the
worker calls, in order: ``prepare`` (build the input and the expected
answer, untimed), ``run`` (the timed call into the program) and ``check``
(compare with the oracle, untimed).  Expected answers come from
``oracle``, which shares no code with the program.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json

import oracle

# Catalog IDs in the order the program reports them.
CATALOG_IDS = (
    "T3.3 T3.4 T3.6 T3.8 T3.9 T3.10 T3.12 "
    "T4.1.4 T4.1.5 T4.1.7 T4.1.9 T4.1.10 T4.1.11 T4.1.12 "
    "T4.2.4 T4.2.5 T4.2.7 T4.2.9 T4.2.10 T4.2.11 T4.2.12 "
    "T4.3.3 T4.3.4 T4.3.6 T4.3.8 T4.3.9 T4.3.10 T4.3.11 "
    "T4.2.13 T4.3.12 T4.3.13").split()


class Catalog:
    """``softmtl verify-all`` in-process, exhaustive at every scale."""

    name = "catalog-exhaustive"
    configs = (("a1", 4), ("a2", 4), ("a3", 2), ("b2", 4))
    warmup = ("b2", 4, 26)
    min_cycles = 5        # 20 jobs, so the median has 10 jobs beyond it
    tail_percentile = 50

    def __init__(self, pkg):
        self.pkg = pkg
        self.digests = {}  # job label -> digest of the canonical verdict

    def setup(self):
        for name, _ in self.configs:
            self.pkg.fixtures.load_fixture(name)

    def cycle(self, rng):
        specs = [(name, den, self.space(name, den) + rng.randrange(1, 10**6))
                 for name, den in self.configs]
        rng.shuffle(specs)
        return specs

    @staticmethod
    def space(name, den):
        return (den + 1) ** oracle.FIXTURES[name].n

    @staticmethod
    def label(spec):
        return f"{spec[0]}/D={spec[1]}"

    def checks(self, spec):
        name, den, _ = spec
        return len(CATALOG_IDS) * self.space(name, den)

    def prepare(self, spec):
        name, den, budget = spec
        return ["verify-all", name, "--grid", str(den), "--budget", str(budget), "--json"], None

    def run(self, argv, tracer):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        text = buf.getvalue()
        if tracer:
            tracer.counts["cli.output_bytes"] += len(text.encode())
        return code, text

    def check(self, spec, out, expected):
        name, den, _ = spec
        code, text = out
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        reports = doc["reports"]
        if [r["theorem"] for r in reports] != CATALOG_IDS:
            return "report ids differ from the catalog"
        space = self.space(name, den)
        for r in reports:
            if not (r["confirmed"] and r["mode"] == "exhaustive"
                    and r["checked"] == space and r["counterexamples"] == []):
                return f"{r['theorem']} is not an exhaustive confirmation of {space} sets"
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()
        known = self.digests.setdefault(self.label(spec), digest)
        return None if digest == known else "verdict differs from an earlier job of this scale"


class Witness:
    """Sampled strictness-witness search; every job is over budget."""

    name = "witness-sampled"
    # (algebra, grid, budget).  Sets on a3 at D=8 are cheaper (8 levels),
    # so its budget is larger: a search that finds nothing takes about as
    # long on every scale, and the median job is not on the boundary
    # between two job lengths.
    configs = (("a1", 16, 2000), ("a2", 16, 2000), ("a3", 8, 2800), ("a3", 12, 2000))
    theorems = {"T4.2.13": "mv", "T4.3.12": "g"}
    warmup = ("a2", 16, 2000, "T4.2.13", 0)
    min_cycles = 5        # 40 jobs, so p75 has 10 jobs beyond it
    tail_percentile = 75

    def __init__(self, pkg):
        self.pkg = pkg
        self.algebras = {}
        self.found = collections.Counter()  # job label -> witnesses returned

    def setup(self):
        for name, _, _ in self.configs:
            self.algebras[name] = self.pkg.fixtures.load_fixture(name)

    def cycle(self, rng):
        specs = [(name, den, budget, th, rng.randrange(2**31))
                 for name, den, budget in self.configs for th in self.theorems]
        rng.shuffle(specs)
        return specs

    @staticmethod
    def label(spec):
        return f"{spec[0]}/D={spec[1]}/{spec[3]}"

    def checks(self, spec):
        return spec[2]

    def prepare(self, spec):
        name, den, budget, th, seed = spec
        if (den + 1) ** oracle.FIXTURES[name].n <= budget:
            raise oracle.OracleError(f"{name}/D={den} fits the budget and would not sample")
        return (self.algebras[name], th, den, budget, seed), None

    def run(self, inp, tracer):
        alg, th, den, budget, seed = inp
        return self.pkg.verifier.find_strictness_witness(alg, th, den, budget=budget, seed=seed)

    def check(self, spec, mu, expected):
        name, den, _, th, _ = spec
        a, kind = oracle.FIXTURES[name], self.theorems[th]
        if mu is None:
            return None  # correct either way: a sample may miss a witness that exists
        self.found[self.label(spec)] += 1
        if not oracle.strict_filter_exists(a, kind):
            return f"{th} witness returned on {name}, which has no non-Boolean {kind} filter"
        return oracle.witness_error(a, kind, den, mu.to_doc())


class Census:
    """Load, validate and classify freshly generated algebra documents."""

    name = "algebra-census"
    warmup = ("G8", "w")
    min_cycles = 8        # 104 jobs, so p90 has 10 jobs beyond it
    tail_percentile = 90

    def __init__(self, pkg):
        self.pkg = pkg
        self.expected = {}

    def setup(self):
        pass  # every job loads its own document

    def cycle(self, rng):
        # Each job gets its own seeded label names.  Elements keep their
        # generated order: with shuffled orders enumerate_filters stops at
        # other subsets, job times varied by about 20 %, and the run-to-run
        # spread of the census metrics went past the bounds.
        specs = [(name, "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4)))
                 for name in oracle.CENSUS]
        rng.shuffle(specs)
        return specs

    @staticmethod
    def label(spec):
        return spec[0]

    def checks(self, spec):
        return (1 << oracle.census_algebra(spec[0]).n) - 1

    def prepare(self, spec):
        name, prefix = spec
        base = oracle.census_algebra(name)
        if name not in self.expected:
            self.expected[name] = oracle.census_expectation(base, oracle.CENSUS[name])
        return base.to_doc([f"{prefix}{i}" for i in range(base.n)]), self.expected[name]

    def run(self, doc, tracer):
        algebra, filters = self.pkg.algebra, self.pkg.filters
        alg = algebra.load_algebra(doc)
        axioms, laws = algebra.validate_mtl(alg), algebra.check_derived_laws(alg)
        masks = filters.enumerate_filters(alg)
        flags = {}
        for m in masks:
            cls = filters.classify_filter(alg, m)
            flags[m] = (cls.boolean, cls.g, cls.mv)
        return axioms.ok and laws.ok, flags, len(filters.crisp_decomposition_check(alg))

    def check(self, spec, out, expected):
        ok, flags, bad = out
        if not ok:
            return "axioms or derived laws reported violated"
        if set(flags) != set(expected):
            return f"filter set differs: {sorted(flags)} vs {sorted(expected)}"
        wrong = [m for m in flags if flags[m] != expected[m]]
        if wrong:
            return f"Boolean/G/MV flags differ on masks {wrong}"
        return f"{bad} Boolean <=> G and MV counterexamples" if bad else None


WORKLOADS = {w.name: w for w in (Catalog, Witness, Census)}
