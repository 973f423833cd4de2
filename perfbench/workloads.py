"""The four workloads: inputs, one operation, answer checks, properties.

Every operation calls the public functions of cmtorsion directly and
wraps each call into a layer in a tracer span named after the module.
An operation returns an outcome tuple whose first item is its kind; a
checker from checks.py judges it, and note() keeps the little of it
that the properties line needs.
"""

from __future__ import annotations

from collections import Counter

from cmtorsion import alpha_engine, documents, finite_level, mt_torus
from cmtorsion.cm_core import CMDatum

import checks
import inputs

# Quartic, a small two-factor product and a short sweep: one pass over
# every layer, run in every workload's set-up.
WARM_QUARTIC = '{"conj":2,"factors":[{"phi":[0,1]}],"group":{"kind":"abelian","invariants":[4]}}'
WARM_PRODUCT = ('{"conj":4,"factors":[{"phi":[0,1,2,3]},{"phi":[0,1,3,6]}],'
                '"group":{"kind":"abelian","invariants":[8]}}')


def _system(text: str, tr):
    with tr.span("documents.parse"):
        datum = documents.load_datum(text)
    return _build(datum, tr)


def _build(datum, tr):
    with tr.span("mt_torus.build") as s:
        s.counts["built"] = 0
        cs = mt_torus.build_character_system(datum)
        s.counts["built"] = 1
    return cs


def _report(cs, tr):
    with tr.span("alpha_engine.report", memory=True) as s:
        report = alpha_engine.build_report(cs)
        s.counts["spans"] = report.spans_visited
    return report


def analyze(text: str, tr):
    """parse -> character system -> report -> JSON document."""
    try:
        cs = _system(text, tr)
    except mt_torus.DuplicateCharactersError as e:
        return ("duplicate", e.indices)
    report = _report(cs, tr)
    with tr.span("documents.encode"):
        doc = documents.dumps_document(documents.report_to_dict(report, cs))
    return ("report", doc, cs)


def search(text: str, tr):
    """parse -> character system -> report, for one heavy datum."""
    cs = _system(text, tr)
    return ("search", _report(cs, tr), cs)


def envelope(text: str, tr):
    """Factor reports plus the product envelope of a multi-factor datum."""
    joint = _system(text, tr)
    datum = joint.datum
    systems = [_build(CMDatum(datum.group, datum.conj, (f,)), tr) for f in datum.factors]
    reports = [_report(cs, tr) for cs in systems]
    with tr.span("alpha_engine.envelope", memory=True) as s:
        env = alpha_engine.product_envelope(reports, [1] * len(reports), joint)
        s.counts["subsets"] = 2 ** len(reports) - 1
    return ("envelope", env, reports, systems, joint)


def sweep(cs, report, ells, level: int, tr):
    with tr.span("finite_level.sweep") as s:
        rows = finite_level.exponent_sweep(cs, ells, level=level, report=report)
        s.counts["rows"] = len(rows)
    return ("sweep", rows)


def degree_query(cs, ell: int, levels: dict, tr):
    with tr.span("finite_level.degree"):
        degree = finite_level.degree_of_subgroup(cs, ell, levels)
    with tr.span("finite_level.staircase"):
        bounds = finite_level.staircase_bounds(cs, ell, levels)
    return degree, bounds


def warm_up(tr):
    analyze(WARM_QUARTIC, tr)
    envelope(WARM_PRODUCT, tr)
    cs = _system(WARM_QUARTIC, tr)
    report = _report(cs, tr)
    sweep(cs, report, [5, 7], 1, tr)
    degree_query(cs, 7, {0: 2, 1: 1}, tr)


class Workload:
    name = ""
    min_ops = 1        # operations a run completes even past its deadline
    trace_min_ops = 1  # the same for the traced half-length run
    # Fixed per workload, with at least ten samples beyond it in a run at
    # the time of writing; a percentile chosen from each run's sample count
    # would move deeper, and so read worse, as the program gets faster.
    tail_percentile = 90.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.ops: list = []

    def setup(self, tr):
        raise NotImplementedError

    def run(self, op, tr):
        raise NotImplementedError

    def checker(self):
        raise NotImplementedError

    def note(self, out):
        return out[0]

    def properties(self, ops, notes, latencies) -> dict:
        return {}


class AnalyzeStream(Workload):
    """Many small single-factor analyze requests."""

    name = "analyze-stream"
    trace_min_ops = 50
    tail_percentile = 97.0

    def setup(self, tr):
        self.ops = inputs.analyze_requests(self.seed, int(150 * self.seconds) + 100)
        warm_up(tr)

    def run(self, op, tr):
        return analyze(op["text"], tr)

    def checker(self):
        return checks.AnalyzeChecker(alpha_engine.alpha_oracle)

    def properties(self, ops, notes, latencies):
        seen, repeats = set(), 0
        for op in ops:
            key = (op["group"], op["conj"], tuple(op["class"]))
            repeats += key in seen
            seen.add(key)
        orders = Counter(op["order"] for op in ops)
        n = len(ops)
        return {
            "repeat_class_share": round(repeats / n, 4),
            "duplicate_share": round(notes.count("duplicate") / n, 4),
            "group_order_histogram": {str(k): orders[k] for k in sorted(orders)},
        }


class DeepSearch(Workload):
    """Single-factor genus-8 exact searches, one class per group per round."""

    name = "deep-search"
    min_ops = 7  # one class of each order-16 group
    trace_min_ops = 3

    def setup(self, tr):
        self.ops = inputs.deep_singles(self.seed, rounds=8)
        warm_up(tr)

    def run(self, op, tr):
        return search(op["text"], tr)

    def checker(self):
        return checks.check_search

    def note(self, out):
        return out[1].spans_visited if out[0] == "search" else None

    def properties(self, ops, notes, latencies):
        return {"spans_visited": notes,
                "groups": [op["group"] for op in ops],
                "seconds": [round(t, 3) for t in latencies]}


class DeepProduct(Workload):
    """Two-factor products at order 12: factor reports plus envelope."""

    name = "deep-product"
    min_ops = 3
    trace_min_ops = 2

    def setup(self, tr):
        self.ops = inputs.deep_products(self.seed, 16)
        warm_up(tr)

    def run(self, op, tr):
        return envelope(op["text"], tr)

    def checker(self):
        return checks.ProductChecker(alpha_engine.alpha_oracle)

    def note(self, out):
        return [r.spans_visited for r in out[2]] if out[0] == "envelope" else None

    def properties(self, ops, notes, latencies):
        return {"factor_spans_visited": notes,
                "products": [op["key"] for op in ops],
                "seconds": [round(t, 3) for t in latencies]}


class LevelSweep(Workload):
    """Sweeps and nested mixed-level degree queries on four fixed systems."""

    name = "level-sweep"
    trace_min_ops = 16
    tail_percentile = 99.0

    def setup(self, tr):
        systems = inputs.level_systems()
        self.systems = []
        for s in systems:
            cs = _system(s["text"], tr)
            self.systems.append((cs, _report(cs, tr)))
        self.ops = inputs.level_ops(self.seed, int(150 * self.seconds) + 10, systems)
        warm_up(tr)

    def run(self, op, tr):
        cs, report = self.systems[op["system"]]
        if op["kind"] == "sweep":
            return sweep(cs, report, op["ells"], op["level"], tr)
        return ("query", degree_query(cs, op["ell"], op["inner"], tr),
                degree_query(cs, op["ell"], op["outer"], tr))

    def checker(self):
        return checks.LevelChecker([r for _, r in self.systems])

    def properties(self, ops, notes, latencies):
        busy, done = Counter(), Counter()
        for op, t in zip(ops, latencies):
            busy[op["kind"]] += t
            # a query operation makes two degree and two staircase calls
            done[op["kind"]] += len(op["ells"]) if op["kind"] == "sweep" else 4
        return {"rows": done["sweep"], "degree_queries": done["query"],
                "rows_per_s": round(done["sweep"] / busy["sweep"], 2),
                "degree_queries_per_s": round(done["query"] / busy["query"], 2)}


WORKLOADS = {w.name: w for w in (AnalyzeStream, DeepSearch, DeepProduct, LevelSweep)}
