"""Acceptance checklist: one test per numbered end-to-end criterion.

Run verbosely and the test names read as the checklist; each body also
prints a one-line summary for -s runs.  Criterion 5 appears twice: the
literal order-8 form is kept as a strict expected failure because no
abelian group of that order admits a degenerate primitive class (the
companion test proves where the example actually lives and checks it).
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product as iproduct

import pytest

from cmtorsion.alpha_engine import (
    alpha_exact,
    alpha_oracle,
    build_report,
    witness_basis,
)
from cmtorsion.cm_core import (
    CMDatum,
    CMType,
    CosetSpace,
    FiniteGroup,
    enumerate_types,
    is_primitive,
)
from cmtorsion.documents import dumps_document, report_to_dict
from cmtorsion.exact_linalg import IntSpanBasis
from cmtorsion.finite_level import _image, degree_of_subgroup, exponent_sweep
from cmtorsion.mt_torus import (
    DuplicateCharactersError,
    build_character_system,
)
from cmtorsion.verify import builtin_groups
from kernel_helpers import contains, identity, unit_order
from test_alpha_engine import abel_inequality_check
from test_cm_core import automorphisms

QUARTIC_DOC = """{
  "group": {"kind": "abelian", "invariants": [4]},
  "conj": 2,
  "factors": [{"phi": [0, 1]}]
}
"""


def elliptic_report():
    group = FiniteGroup.abelian([2])
    t = CMType(CosetSpace(group, [0]), frozenset({0}))
    return build_report(build_character_system(CMDatum(group, 1, (t,))))


def quartic_system():
    group = FiniteGroup.abelian([4])
    t = CMType(CosetSpace(group, [0]), frozenset({0, 1}))
    return build_character_system(CMDatum(group, 2, (t,)))


def best_wall_time(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def order_8_abelian_primitive_classes():
    """(group, conj, type, system) for every buildable primitive class."""
    out = []
    for invariants in ([8], [2, 4], [2, 2, 2]):
        group = FiniteGroup.abelian(invariants)
        for conj in group.central_involutions():
            for rep in enumerate_types(group, conj, up_to_translation=True):
                if not is_primitive(rep, conj):
                    continue
                try:
                    cs = build_character_system(CMDatum(group, conj, (rep,)))
                except DuplicateCharactersError:
                    continue
                out.append((group, conj, rep, cs))
    return out


def c2_times_alternating4():
    """Order-24 closure with a three-element point stabilizer.

    Direct product of a sign with the even permutations of four
    letters; the sign is the conjugation, the stabilizer is generated
    by a 3-cycle, and the eight cosets carry the CM types.
    """
    evens = [p for p in permutations(range(4))
             if sum(1 for i in range(4) for j in range(i) if p[j] > p[i]) % 2 == 0]
    elems = [(z, p) for z in (0, 1) for p in evens]
    elems.sort(key=lambda e: e != (0, (0, 1, 2, 3)))
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        (z1, p), (z2, q) = x, y
        return ((z1 + z2) % 2, tuple(p[q[i]] for i in range(4)))

    table = [[index[mul(a, b)] for b in elems] for a in elems]
    group = FiniteGroup(table, name="C2xA4")
    rot = index[(0, (1, 2, 0, 3))]
    conj = index[(1, (0, 1, 2, 3))]
    return group, conj, [0, rot, group.mul(rot, rot)]


def test_criterion_1_elliptic_exact_report():
    report = elliptic_report()
    assert report.dim == 2
    assert report.defect == 0
    assert report.alpha == Fraction(1)
    assert report.gamma == report.alpha
    assert report.alpha == Fraction(2 * report.genus, report.dim)
    elapsed = best_wall_time(elliptic_report)
    assert elapsed < 0.010, f"elliptic pipeline took {elapsed * 1000:.2f} ms"
    print(f"criterion 1: PASS  d=2 defect=0 alpha=gamma=1 in "
          f"{elapsed * 1000:.2f} ms")


def test_criterion_2_cyclic_quartic_report():
    cs = quartic_system()
    report = build_report(cs)
    assert report.dim == 3
    assert report.defect == 0
    assert report.alpha == Fraction(4, 3)
    assert report.gamma == Fraction(4, 3)
    assert report.witness.dim == 3
    # the optimal span holds every one of the four characters
    assert report.witness.n == 4
    span = IntSpanBasis(len(cs.characters[0]))
    for row in witness_basis(cs, report.witness):
        span.insert(row)
    for col in cs.characters:
        assert contains(span, col)
    elapsed = best_wall_time(lambda: build_report(quartic_system()))
    assert elapsed < 0.010, f"quartic pipeline took {elapsed * 1000:.2f} ms"
    print(f"criterion 2: PASS  d=3 defect=0 alpha=gamma=4/3 in "
          f"{elapsed * 1000:.2f} ms")


def test_criterion_3_verify_sweep_order_12():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cmtorsion.cli", "verify",
         "--max-group-order", "12"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    assert "translation classes fully checked: 44" in proc.stdout
    assert elapsed < 60.0, f"verify sweep took {elapsed:.1f} s"
    print(f"criterion 3: PASS  order-12 sweep clean in {elapsed:.1f} s")


def test_criterion_4_oracle_equivalence():
    checked = 0
    for group in builtin_groups(12):
        for conj in group.central_involutions():
            for rep in enumerate_types(group, conj, up_to_translation=True):
                try:
                    cs = build_character_system(CMDatum(group, conj, (rep,)))
                except DuplicateCharactersError:
                    continue
                assert 2 * cs.genus <= 12
                fast = alpha_exact(cs).alpha
                assert fast == alpha_oracle(cs, cap=12), \
                    f"{group.name} conj {conj} phi {sorted(rep.phi)}"
                checked += 1
    assert checked == 44
    print(f"criterion 4: PASS  search equals oracle on all {checked} systems")


@pytest.mark.xfail(
    strict=True,
    reason="no abelian group of order 8 admits a degenerate primitive class;"
           " every buildable one is nondegenerate of span dimension 5, and the"
           " smallest closure carrying the extremal example has order 24"
           " (shown by the companion test)")
def test_criterion_5_order_8_abelian_literal():
    degenerate = [cs for (_, _, _, cs) in order_8_abelian_primitive_classes()
                  if cs.dim == 4]
    assert degenerate, "no degenerate primitive class over order-8 abelian groups"


def test_criterion_5_degenerate_extremal_example():
    # true outcome of the literal sweep: twelve primitive classes, all
    # nondegenerate, none extremal
    classes = order_8_abelian_primitive_classes()
    assert len(classes) == 12
    for _, _, _, cs in classes:
        report = alpha_exact(cs)
        assert (cs.genus, cs.dim, cs.defect) == (4, 5, 0)
        assert report.alpha == Fraction(8, 5)

    # the example the sweep was after, on the smallest closure that
    # admits one: six of the sixteen patterns are degenerate extremal
    group, conj, sub = c2_times_alternating4()
    space = CosetSpace(group, sub)
    assert space.size == 8
    pairs, seen = [], set()
    for i in range(space.size):
        if i in seen:
            continue
        j = space.act(conj, i)
        seen.update((i, j))
        pairs.append((i, j))
    tallies = {"duplicate": 0, "nondegenerate": 0, "degenerate": 0}
    for picks in iproduct(*pairs):
        t = CMType(space, frozenset(picks))
        try:
            cs = build_character_system(CMDatum(group, conj, (t,)))
        except DuplicateCharactersError:
            tallies["duplicate"] += 1
            continue
        g, d = cs.genus, cs.dim
        assert g == 4
        report = build_report(cs)
        if d == 5:
            tallies["nondegenerate"] += 1
            assert report.alpha == Fraction(8, 5)
            continue
        tallies["degenerate"] += 1
        assert d == 4
        assert 2 ** (d - 2) == g              # d = 2 + log2(g) exactly
        assert cs.defect == 1
        assert report.alpha == Fraction(2)
        assert report.alpha == Fraction(2 * g, d)
        # both extremal bounds are attained with equality: the witness
        # span holds all 2g characters at the subset-count ceiling, and
        # the log-threshold comparison lands exactly on the boundary
        assert report.witness.n == 2 * g
        assert report.witness.n == 2 ** (report.witness.dim - 1)
        p, q = report.alpha.numerator, report.alpha.denominator
        assert g ** p == 2 ** (2 * g * q - 2 * p)
    assert tallies == {"duplicate": 2, "nondegenerate": 8, "degenerate": 6}
    print("criterion 5: BLOCKED as stated (order-8 abelian sweep is entirely "
          "nondegenerate); extremal example verified on the order-24 closure, "
          "6 classes with g=4 d=4 defect=1 alpha=2, both bounds attained "
          "with equality")


def test_criterion_6_finite_level_sandwich():
    cs = quartic_system()
    t0 = time.perf_counter()
    rows = exponent_sweep(cs, [5, 13, 101], level=1)
    elapsed = time.perf_counter() - t0
    assert [r.ell for r in rows] == [5, 13, 101]
    for row in rows:
        ell = row.ell
        assert row.subgroup_order == ell ** 4
        assert row.degree == (ell - 1) ** 3
        assert row.bound_ok
        # the split sandwich pinches to equality on the lower side
        assert Fraction(ell - 1, ell) ** 3 * ell ** 3 == row.degree
        assert row.degree <= ell ** 3
    last = rows[-1]
    assert abs(last.estimate_decimal - 4 / 3) <= 0.01 * (4 / 3)
    # the same 1% window, decided in exact integer arithmetic:
    # 4*log(101)/(3*log(100)) lies in [0.99, 1.01] * 4/3
    assert 100 ** 396 <= 101 ** 400 <= 100 ** 404
    assert elapsed < 1.0, f"finite-level sweep took {elapsed:.2f} s"
    print(f"criterion 6: PASS  degrees exact, estimate at 101 is "
          f"{last.estimate_decimal:.6f} in {elapsed * 1000:.0f} ms")


def test_criterion_7_split_torus_point_counts():
    cases = 0
    for ell in (3, 5, 7, 101):
        for n in (1, 2, 3):
            for dim in range(1, 9):
                # the level-n points of the split rank-dim torus: the
                # image of Z^dim in ((Z/ell^n)^x)^dim under the identity
                m = unit_order(ell, n)
                count = _image(identity(dim).rows, [m] * dim)
                assert count == m ** dim
                lower = Fraction(ell - 1, ell) ** dim * ell ** (n * dim)
                assert lower <= count <= ell ** (n * dim)
                cases += 1
    assert cases == 96
    print(f"criterion 7: PASS  split point counts sandwiched on {cases} cases")


def test_criterion_8_property_suites():
    # weighted-average inequality on a thousand random instances
    rng = random.Random(20260817)
    for _ in range(1000):
        k = rng.randint(1, 6)
        ns = sorted((rng.randint(1, 9) for _ in range(k)), reverse=True)
        bs = [rng.randint(1, 12) for _ in range(k)]
        ws = [rng.randint(1, 12) for _ in range(k)]
        assert abel_inequality_check(ns, bs, ws)

    # translation and conjugation invariance over every enumerated
    # class on the order-8 catalogue
    invariance_checks = 0
    for group in builtin_groups(8):
        for conj in group.central_involutions():
            for rep in enumerate_types(group, conj, up_to_translation=True):
                try:
                    cs = build_character_system(CMDatum(group, conj, (rep,)))
                except DuplicateCharactersError:
                    continue
                base = alpha_exact(cs).alpha
                space = rep.space
                orbit = []
                for shift in range(group.order):
                    moved = frozenset(group.mul(shift, x) for x in rep.phi)
                    if moved not in orbit:
                        orbit.append(moved)
                for moved in orbit:
                    translated = build_character_system(
                        CMDatum(group, conj, (CMType(space, moved),)))
                    assert alpha_exact(translated).alpha == base
                    invariance_checks += 1
                for auto in automorphisms(group):
                    mapped = build_character_system(CMDatum(
                        group, auto[conj],
                        (CMType(space, frozenset(auto[x] for x in rep.phi)),)))
                    assert alpha_exact(mapped).alpha == base
                    invariance_checks += 1

    # nested level choices give nested degrees
    cs = quartic_system()
    rng = random.Random(8)
    for _ in range(50):
        ell = rng.choice([3, 5, 13])
        support = rng.sample(range(4), rng.randint(1, 4))
        inner = {i: rng.randint(1, 3) for i in support}
        outer = {i: level + rng.randint(0, 2) for i, level in inner.items()}
        for extra in range(4):
            if extra not in outer and rng.random() < 0.3:
                outer[extra] = rng.randint(1, 3)
        small = degree_of_subgroup(cs, ell, inner)
        large = degree_of_subgroup(cs, ell, outer)
        assert large % small == 0

    # byte-identical reports: in process and through the CLI
    first = quartic_system()
    second = quartic_system()
    doc_a = dumps_document(report_to_dict(build_report(first), first))
    doc_b = dumps_document(report_to_dict(build_report(second), second))
    assert doc_a == doc_b
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "quartic.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(QUARTIC_DOC)
        runs = [subprocess.run(
            [sys.executable, "-m", "cmtorsion.cli", "analyze", path,
             "--json", "-"],
            capture_output=True) for _ in range(2)]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
    print(f"criterion 8: PASS  1000 inequality draws, "
          f"{invariance_checks} invariance checks, 50 nested specs, "
          f"deterministic output")
