"""Answer checks.

A checker is called with each operation and its outcome right after the
operation, on time the benchmark leaves out of its measurements, and
returns None when the answer is right, else a short reason; the outcome
is then dropped, so memory does not grow with the number of operations.
Expected duplicate-character errors are right answers when the datum
really repeats a character.
"""

from __future__ import annotations

import json
from fractions import Fraction

import groups as G
import inputs

ORACLE_CAP = 12


def _fraction(node: dict) -> Fraction:
    return Fraction(int(node["num"]), int(node["den"]))


def _space(op: dict) -> G.Cosets:
    return G.Cosets(inputs.group_by_name(op["group"]), tuple(op["subgroup"]))


class _Oracle:
    """alpha_oracle once per translation class; the other members of a
    class must then agree with it (translation invariance)."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.alpha: dict = {}

    def verdict(self, key, alpha: Fraction, cs) -> str | None:
        if key not in self.alpha:
            if 2 * cs.genus > ORACLE_CAP:
                self.alpha[key] = alpha
                return None
            self.alpha[key] = self.oracle(cs, cap=ORACLE_CAP)
            if self.alpha[key] != alpha:
                return f"alpha {alpha} but the oracle gives {self.alpha[key]}"
            return None
        if self.alpha[key] != alpha:
            return f"alpha {alpha} differs from {self.alpha[key]} on a translate"
        return None


class AnalyzeChecker:
    def __init__(self, oracle):
        self.classes = _Oracle(oracle)
        self.kinds: dict = {}

    def __call__(self, op, out) -> str | None:
        key = (op["group"], op["conj"], tuple(op["subgroup"]), tuple(op["class"]))
        if self.kinds.setdefault(key, out[0]) != out[0]:
            return f"translates disagree: {self.kinds[key]} and {out[0]}"
        if out[0] == "duplicate":
            cols = _space(op).columns(op["conj"], op["phi"])
            i, j = out[1]
            if i == j or cols[i] != cols[j]:
                return f"characters {i} and {j} reported equal but differ"
            return None
        if out[0] == "report":
            doc = json.loads(out[1])
            return (_report_verdict(doc, len(op["phi"]))
                    or self.classes.verdict(key, _fraction(doc["alpha"]), out[2]))
        return f"error: {out[1]}"


def _report_verdict(doc: dict, genus: int) -> str | None:
    if doc["genus"] != genus:
        return f"genus {doc['genus']}, expected {genus}"
    failed = [k for k, ok in doc["bound_checks"].items() if not ok]
    if failed:
        return "bound checks failed: " + ", ".join(failed)
    if _fraction(doc["alpha"]) != _fraction(doc["witness"]["ratio"]):
        return "alpha differs from the witness ratio"
    return None


def check_search(op, out) -> str | None:
    """Every datum is nondegenerate (d = g + 1, checked here with an
    independent rank), where alpha = 2g/d is a theorem."""
    if out[0] != "search":
        return f"error: {out[1]}"
    report = out[1]
    g = len(op["phi"])
    d = inputs.rank(_space(op).columns(op["conj"], op["phi"]))
    failed = [k for k, ok in report.bound_checks.items() if not ok]
    if failed:
        return "bound checks failed: " + ", ".join(failed)
    if (report.genus, report.dim) != (g, d) or d != g + 1:
        return f"(g, d) = {(report.genus, report.dim)}, expected {(g, g + 1)}"
    if report.alpha != Fraction(2 * g, d):
        return f"alpha {report.alpha}, expected {Fraction(2 * g, d)}"
    return None


class ProductChecker:
    """Factor reports against the oracle, and lower <= alpha(joint) <= upper
    with alpha(joint) from the pool's reference values."""

    def __init__(self, oracle):
        self.classes = _Oracle(oracle)

    def __call__(self, op, out) -> str | None:
        if out[0] != "envelope":
            return f"error: {out[1]}"
        env, reports, systems = out[1], out[2], out[3]
        for factor, report, cs in zip(op["factors"], reports, systems):
            failed = [k for k, ok in report.bound_checks.items() if not ok]
            if failed:
                return "factor bound checks failed: " + ", ".join(failed)
            verdict = self.classes.verdict((op["group"], op["conj"], tuple(factor)),
                                           report.alpha, cs)
            if verdict:
                return verdict
        joint = Fraction(op["alpha_joint"])
        if not env.lower <= joint <= env.upper:
            return f"envelope [{env.lower}, {env.upper}] misses alpha(joint) = {joint}"
        if env.upper != sum((r.alpha for r in reports), Fraction(0)):
            return f"upper {env.upper} is not the sum of the factor exponents"
        return None


class LevelChecker:
    """Rows satisfy the sandwich and carry the witness's subgroup order;
    each degree lies in its staircase sandwich; and the outer pattern of
    a nested pair (higher levels, more characters) has a degree that the
    inner one divides."""

    def __init__(self, reports):
        self.reports = reports

    def __call__(self, op, out) -> str | None:
        if out[0] == "sweep":
            w = self.reports[op["system"]].witness
            if [r.ell for r in out[1]] != op["ells"]:
                return "rows do not follow the requested primes"
            if not all(r.bound_ok for r in out[1]):
                return "bound_ok is false"
            if any(r.subgroup_order != r.ell ** (op["level"] * w.n) for r in out[1]):
                return "subgroup order is not ell^(level * n_W)"
            return None
        if out[0] == "query":
            (inner, inner_b), (outer, outer_b) = out[1], out[2]
            if not (inner_b.admits(inner) and outer_b.admits(outer)):
                return "degree outside the staircase sandwich"
            if outer % inner:
                return f"nested degrees {inner} and {outer}: no division"
            return None
        return f"error: {out[1]}"
