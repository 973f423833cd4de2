"""Tests of the benchmark itself: input determinism, the answer checker,
the catalogue it mirrors, and the command's behaviour.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import groups as G  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from cmtorsion import alpha_engine  # noqa: E402
from cmtorsion.verify import builtin_groups  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402

NULL = NullTracer()

GENERATORS = {
    "analyze-stream": lambda seed: inputs.analyze_requests(seed, 200),
    "deep-search": lambda seed: inputs.deep_singles(seed, rounds=2),
    "deep-product": lambda seed: inputs.deep_products(seed, 4),
    "level-sweep": lambda seed: inputs.level_ops(seed, 5, inputs.level_systems()),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    make = GENERATORS[name]
    first = inputs.fingerprint(make(7))
    assert first == inputs.fingerprint(make(7))
    assert first != inputs.fingerprint(make(8))


def test_catalogue_mirrors_builtin_groups():
    ours = G.catalogue(12)
    theirs = builtin_groups(12)
    assert [g.name for g in ours] == [g.name for g in theirs]
    assert [g.table for g in ours] == [g.table for g in theirs]


def test_analyze_stream_mix():
    reqs = inputs.analyze_requests(3, 400)
    names = [r["group"] for r in reqs[:40]]
    assert sorted(names) == sorted(n for n, k in inputs.ANALYZE_BLOCK.items()
                                   for _ in range(k))
    assert all(r["order"] <= 24 for r in reqs)


def test_deep_singles_are_distinct_nondegenerate_classes():
    singles = inputs.deep_singles(1, rounds=2)
    assert len(singles) == 14
    keys = {(s["group"], s["conj"], tuple(s["class"])) for s in singles}
    assert len(keys) == len(singles)
    for s in singles:
        cols = G.Cosets(inputs.group_by_name(s["group"]), (0,)).columns(s["conj"], s["phi"])
        assert inputs.rank(cols) == 9 and not inputs.has_duplicate(cols)


def _analyze_outcomes(ops):
    return [W.analyze(op["text"], NULL) for op in ops]


def _verdicts(checker, ops, outs):
    return [checker(op, out) for op, out in zip(ops, outs)]


def test_checker_accepts_then_flags_corrupted_alpha():
    ops = inputs.analyze_requests(5, 60)
    outs = _analyze_outcomes(ops)
    assert _verdicts(checks.AnalyzeChecker(alpha_engine.alpha_oracle), ops, outs) \
        == [None] * len(ops)
    k = next(i for i, o in enumerate(outs) if o[0] == "report")
    doc = json.loads(outs[k][1])
    alpha = Fraction(int(doc["alpha"]["num"]), int(doc["alpha"]["den"])) + Fraction(1, doc["dim"])
    doc["alpha"] = {"num": str(alpha.numerator), "den": str(alpha.denominator)}
    doc["witness"]["ratio"] = doc["alpha"]
    outs[k] = ("report", json.dumps(doc), outs[k][2])
    verdicts = _verdicts(checks.AnalyzeChecker(alpha_engine.alpha_oracle), ops, outs)
    assert verdicts[k] is not None
    assert sum(v is not None for v in verdicts) >= 1


def test_checker_flags_false_duplicate_and_errors():
    ops = inputs.analyze_requests(5, 60)
    outs = _analyze_outcomes(ops)
    k = next(i for i, o in enumerate(outs) if o[0] == "report")
    outs[k] = ("duplicate", (0, 1))
    outs[k + 1] = ("error", "RuntimeError: boom")
    verdicts = _verdicts(checks.AnalyzeChecker(alpha_engine.alpha_oracle), ops, outs)
    assert verdicts[k] is not None and verdicts[k + 1] is not None


def test_checker_flags_wrong_search_alpha():
    g = inputs.group_by_name("C4")
    op = inputs._request(g, 2, G.Cosets(g, (0,)), (0, 1))
    out = W.search(op["text"], NULL)
    assert checks.check_search(op, out) is None
    bad = dataclasses.replace(out[1], alpha=out[1].alpha + Fraction(1, out[1].dim))
    assert checks.check_search(op, ("search", bad, out[2])) is not None


def test_checker_flags_envelope_missing_alpha_joint():
    doc = json.loads(W.WARM_PRODUCT)
    op = {"text": W.WARM_PRODUCT, "group": "C8", "conj": 4, "subgroup": [0],
          "factors": [f["phi"] for f in doc["factors"]]}
    out = W.envelope(op["text"], NULL)
    op["alpha_joint"] = str(alpha_engine.alpha_exact(out[4]).alpha)
    assert checks.ProductChecker(alpha_engine.alpha_oracle)(op, out) is None
    op["alpha_joint"] = str(out[1].upper + Fraction(1, 5))
    assert checks.ProductChecker(alpha_engine.alpha_oracle)(op, out) is not None


def test_checker_flags_broken_level_answers():
    systems = inputs.level_systems()
    wl = W.LevelSweep(2, 0.1)
    wl.setup(NULL)
    ops = inputs.level_ops(2, 2, systems)
    outs = [wl.run(op, NULL) for op in ops]
    assert _verdicts(wl.checker(), ops, outs) == [None] * len(ops)
    row = next(i for i, op in enumerate(ops) if op["kind"] == "sweep")
    rows = outs[row][1]
    outs[row] = ("sweep", [dataclasses.replace(rows[0], bound_ok=False)] + rows[1:])
    pair = next(i for i, op in enumerate(ops) if op["kind"] == "query")
    (inner, inner_b), (outer, outer_b) = outs[pair][1], outs[pair][2]
    outs[pair] = ("query", (inner, inner_b), (outer * 7 + 1, outer_b))
    verdicts = _verdicts(wl.checker(), ops, outs)
    assert verdicts[row] is not None and verdicts[pair] is not None


def test_self_times_subtract_children():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("documents.parse"):
            pass
    own = self_times(tr.spans)
    outer, inner = tr.spans
    assert own[outer.sid] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert inner.parent == outer.sid


def test_percentile_interpolates():
    xs = [i / 1000 for i in range(100)]
    assert run.percentile(xs, 90.0) == pytest.approx(0.0891)
    assert run.percentile(xs, 100.0) == 0.099
    assert run.percentile([0.5], 97.0) == 0.5


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-stream",
         "--seed", "4", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in spec["per_layer" if trace == "1" else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
