"""Exponent engine: frozen values, oracle agreement, bound checks."""

import json
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from typing import Sequence

import pytest

import cmtorsion.exact_linalg as el
import cmtorsion.mt_torus as mt
from cmtorsion import alpha_engine
from cmtorsion.alpha_engine import (
    AlphaReport,
    _factor_unions,
    alpha_exact,
    alpha_oracle,
    bound_checks,
    build_report,
    product_envelope,
    shortcut_label,
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
from cmtorsion.documents import datum_to_dict, load_datum
from cmtorsion.exact_linalg import IntSpanBasis
from cmtorsion.mt_torus import DuplicateCharactersError, build_character_system
from cmtorsion.verify import builtin_groups
from kernel_helpers import contains


def abel_inequality_check(ns: Sequence[int], bs: Sequence[int], ws: Sequence[int]) -> bool:
    """Weighted-average comparison against the best prefix ratio.

    For weakly decreasing positive weights n, checks exactly that
    (sum n_i b_i)/(sum n_i w_i) <= max over prefixes of
    (sum b_i)/(sum w_i).
    """
    if not (len(ns) == len(bs) == len(ws)) or not ns:
        raise ValueError("three equal-length nonempty sequences required")
    if any(x <= 0 for x in ns) or any(x <= 0 for x in bs) or any(x <= 0 for x in ws):
        raise ValueError("all entries must be positive")
    if any(a < b for a, b in zip(ns, ns[1:])):
        raise ValueError("multiplicities must be weakly decreasing")
    lhs = Fraction(sum(n * b for n, b in zip(ns, bs)),
                   sum(n * w for n, w in zip(ns, ws)))
    acc_b = 0
    acc_w = 0
    rhs = Fraction(0)
    for b, w in zip(bs, ws):
        acc_b += b
        acc_w += w
        rhs = max(rhs, Fraction(acc_b, acc_w))
    return lhs <= rhs


def single_factor(group: FiniteGroup, conj: int, phi) -> CMDatum:
    space = CosetSpace(group, [0])
    return CMDatum(group, conj, (CMType(space, frozenset(phi)),))


def elliptic():
    return build_character_system(single_factor(FiniteGroup.abelian([2]), 1, [0]))


def quartic():
    return build_character_system(single_factor(FiniteGroup.abelian([4]), 2, [0, 1]))


def span_of(columns) -> IntSpanBasis:
    basis = IntSpanBasis(len(columns[0]))
    for col in columns:
        basis.insert(col)
    return basis


def membership_alpha(cs):
    # Literal n(W)/dim W over the span of every nonempty character
    # subset, counting containment one character at a time.  Slower
    # than the shipped oracle but closest to the definition; also
    # checks the counting bound n <= 2^(dim-1) on every span it sees.
    cols = cs.characters
    m = len(cols)
    width = len(cols[0])
    best = Fraction(0)
    for mask in range(1, 2 ** m):
        basis = IntSpanBasis(width)
        for j in range(m):
            if mask >> j & 1:
                basis.insert(cols[j])
        n = sum(1 for col in cols if contains(basis, col))
        assert n <= 2 ** (basis.dim - 1)
        ratio = Fraction(n, basis.dim)
        if ratio > best:
            best = ratio
    return best


def small_sweep_systems(max_order: int):
    """All buildable single-factor systems with one translation class rep."""
    groups = {
        2: [FiniteGroup.abelian([2])],
        4: [FiniteGroup.abelian([4]), FiniteGroup.abelian([2, 2])],
        6: [FiniteGroup.abelian([6])],
        8: [FiniteGroup.abelian([8]), FiniteGroup.abelian([2, 4]),
            FiniteGroup.abelian([2, 2, 2]), FiniteGroup.dihedral(4),
            FiniteGroup.dicyclic(2)],
        10: [FiniteGroup.abelian([10])],
        12: [FiniteGroup.abelian([12]), FiniteGroup.abelian([2, 6]),
             FiniteGroup.dihedral(6), FiniteGroup.dicyclic(3)],
        14: [FiniteGroup.abelian([14])],
    }
    for order in sorted(groups):
        if order > max_order:
            break
        for group in groups[order]:
            for conj in group.central_involutions():
                for t in enumerate_types(group, conj, up_to_translation=True):
                    datum = CMDatum(group, conj, (t,))
                    try:
                        cs = build_character_system(datum)
                    except DuplicateCharactersError:
                        continue
                    yield cs


def adjacent_joints(systems):
    """The buildable two-factor joint of each pair of consecutive
    systems over the same group and conjugation."""
    for a, b in zip(systems, systems[1:]):
        if (a.datum.group, a.datum.conj) != (b.datum.group, b.datum.conj):
            continue
        try:
            yield build_character_system(replace(
                a.datum, factors=a.datum.factors + b.datum.factors))
        except DuplicateCharactersError:
            continue


class TestFrozenValues:
    def test_elliptic(self):
        report = build_report(elliptic())
        assert report.alpha == 1
        assert report.gamma == 1
        assert report.dim == 2
        assert report.defect == 0
        assert report.shortcut_used == "nondegenerate"
        # witness is the whole character space
        assert report.witness.dim == 2
        assert report.witness.n == 2
        assert report.witness.generating_indices == (0, 1)
        assert report.witness.ratio == 1

    def test_quartic(self):
        cs = quartic()
        report = build_report(cs)
        assert report.alpha == Fraction(4, 3)
        assert report.shortcut_used == "nondegenerate"
        assert report.witness.dim == 3
        assert report.witness.n == 4
        assert report.witness.generating_indices == (0, 1, 2, 3)
        span = span_of(witness_basis(cs, report.witness))
        for col in cs.characters:
            assert contains(span, col)

    def test_quartic_bounds_all_pass(self):
        report = build_report(quartic())
        expected = {
            "subspace_counting_bound", "log_threshold_bound",
            "genus_upper_bound", "span_ratio_lower_bound",
            "mod2_distinct", "primitive_dimension_bound",
        }
        assert set(report.bound_checks) == expected
        assert all(report.bound_checks.values())

    def test_order_12_defect_one(self):
        group = FiniteGroup.abelian([2, 6])
        cs = build_character_system(
            single_factor(group, 3, [0, 1, 2, 6, 7, 11]))
        report = build_report(cs)
        assert cs.defect == 1
        assert report.alpha == 2
        assert report.shortcut_used == "defect_one"

    def test_search_is_deterministic(self):
        a = alpha_exact(quartic())
        b = alpha_exact(quartic())
        assert a == b
        assert a.spans_visited == b.spans_visited


class TestOracleAgreement:
    def test_small_sweep_three_ways(self):
        seen = 0
        for cs in small_sweep_systems(8):
            report = alpha_exact(cs)
            fast = alpha_oracle(cs)
            literal = membership_alpha(cs)
            assert report.alpha == fast == literal, cs.datum
            w = report.witness
            assert w.ratio == report.alpha
            assert w.n == len(w.generating_indices)
            basis = witness_basis(cs, w)
            assert len(basis) == w.dim
            span = span_of(basis)
            for i in w.generating_indices:
                assert contains(span, cs.characters[i])
            assert basis == span_of([cs.characters[i] for i in w.generating_indices]).key()
            seen += 1
        # one representative per translation class, duplicates skipped;
        # Dih4 contributes nothing (every type repeats a character)
        # while Q8 contributes two classes
        assert seen == 17

    def test_dihedral_8_never_builds_but_quaternion_does(self):
        names = {cs.datum.group.name for cs in small_sweep_systems(8)}
        assert "Q8" in names
        assert "Dih4" not in names

    def test_oracle_refuses_large_systems(self):
        cs = build_character_system(
            single_factor(FiniteGroup.abelian([14]), 7, range(7)))
        with pytest.raises(ValueError):
            alpha_oracle(cs, cap=12)
        assert alpha_oracle(cs, cap=14) == alpha_exact(cs).alpha


class TestCoordinateWidth:
    def test_single_factor_spans_are_d_wide(self, monkeypatch):
        # a one-factor report forms no span, its one union being the
        # full set, whose rank is read off the build's Hermite form;
        # every IntSpanBasis the report of a joint of two such factors
        # forms, copies included, is as wide as the character lattice's
        # rank, not as the group's order
        systems = list(small_sweep_systems(14))
        widths: list[int] = []
        real = IntSpanBasis.__init__

        def recording(self, width):
            widths.append(width)
            real(self, width)

        monkeypatch.setattr(IntSpanBasis, "__init__", recording)
        narrower = 0
        for cs in systems:
            widths.clear()
            build_report(cs)
            assert widths == [], cs.datum
            narrower += cs.dim < cs.datum.group.order
        assert (len(systems), narrower) == (53, 52)

        joints = 0
        for joint in adjacent_joints(systems):
            widths.clear()
            build_report(joint)
            assert widths == [joint.dim], joint.datum
            joints += joint.dim < joint.datum.group.order
        assert joints > 10


class TestWorkCounts:
    def test_single_factor_report_forms_no_span_and_runs_no_smith(self, monkeypatch):
        # parse, build and report of one factor: its one union is the
        # full set, ranked off the build's Hermite pivots, and nothing
        # reads the divisors, though some would take an elimination
        inserts, eliminations = [], []
        real_insert, real_divisors = IntSpanBasis.insert, el.elementary_divisors

        def counting_insert(self, vec):
            inserts.append(vec)
            return real_insert(self, vec)

        def counting_divisors(m, modulus=None):
            eliminations.append(modulus)
            return real_divisors(m, modulus)

        monkeypatch.setattr(IntSpanBasis, "insert", counting_insert)
        monkeypatch.setattr(el, "elementary_divisors", counting_divisors)
        monkeypatch.setattr(mt, "elementary_divisors", counting_divisors)
        reports = eliminating = 0
        for group in builtin_groups(16):
            for conj in group.central_involutions():
                for t in enumerate_types(group, conj, up_to_translation=True):
                    text = json.dumps(datum_to_dict(CMDatum(group, conj, (t,))))
                    try:
                        cs = build_character_system(load_datum(text))
                    except DuplicateCharactersError:
                        continue
                    build_report(cs)
                    assert (inserts, eliminations) == ([], []), cs.datum
                    cs.divisors
                    eliminating += len(eliminations)
                    eliminations.clear()
                    reports += 1
        assert reports == 381 and eliminating > 10

    def test_two_factor_envelope_forms_one_union_span(self, monkeypatch):
        # masks 1 and 3 are prefixes of the factors, ranked off the
        # joint's Hermite pivots; only mask 2 is spanned
        joints = list(adjacent_joints(list(small_sweep_systems(12))))
        group = FiniteGroup.abelian([8])
        space = CosetSpace(group, [0])
        joints.append(build_character_system(CMDatum(group, 4, (
            CMType(space, frozenset([0, 1, 2, 3])), CMType(space, frozenset([0, 1, 3, 6]))))))
        widths: list[int] = []
        real = IntSpanBasis.__init__

        def recording(self, width):
            widths.append(width)
            real(self, width)

        monkeypatch.setattr(IntSpanBasis, "__init__", recording)
        for joint in joints:
            datum = joint.datum
            reports = [build_report(build_character_system(replace(datum, factors=(f,))))
                       for f in datum.factors]
            widths.clear()
            product_envelope(reports, [1, 2], joint)
            assert widths == [joint.dim], datum
        assert len(joints) > 10


class TestWitnessBasisGuard:
    @pytest.mark.parametrize("shift", [1, -1])
    def test_wrong_dimension_raises_with_asserts_stripped(self, shift):
        script = textwrap.dedent(f"""
            from dataclasses import replace
            from cmtorsion.alpha_engine import build_report, witness_basis
            from cmtorsion.cm_core import CMDatum, CMType, CosetSpace, FiniteGroup
            from cmtorsion.cm_core import InvariantError
            from cmtorsion.mt_torus import build_character_system

            t = CMType(CosetSpace(FiniteGroup.abelian([4]), [0]), frozenset([0, 1]))
            cs = build_character_system(CMDatum(t.space.group, 2, (t,)))
            w = build_report(cs).witness
            try:
                witness_basis(cs, replace(w, dim=w.dim + {shift}))
            except InvariantError as e:
                print("InvariantError:", e, "debug" if __debug__ else "optimized")
            else:
                print("formed")
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            f"InvariantError: the witness characters span dimension 3, not {3 + shift} optimized")


class TestShortcuts:
    def test_shortcut_always_agrees_with_search(self):
        labels = set()
        for cs in small_sweep_systems(12):
            report = build_report(cs)  # asserts agreement internally
            labels.add(report.shortcut_used)
            if report.shortcut_used == "nondegenerate":
                assert report.alpha == Fraction(2 * cs.genus, cs.dim)
            if report.shortcut_used == "defect_one":
                assert report.alpha == 2
        assert "nondegenerate" in labels
        assert "defect_one" in labels

    def test_no_deep_defect_below_order_15(self):
        # Every buildable single-factor system on a supported group of
        # order at most 14 has defect 0 or 1, so the small-genus
        # closed form is never the deciding shortcut there.
        for cs in small_sweep_systems(14):
            assert cs.defect <= 1

    def test_small_genus_clause(self):
        cs = quartic()
        fake = replace(cs, dim=cs.genus - 1)
        assert fake.defect == 2
        assert shortcut_label(fake, primitive=True) == "small_genus"
        assert shortcut_label(fake, primitive=False) is None

    def test_shortcut_none_for_multi_factor_degenerate(self):
        group = FiniteGroup.abelian([2, 2])
        f1 = CMType(CosetSpace(group, [0, 1]), frozenset([0]))
        f2 = CMType(CosetSpace(group, [0, 2]), frozenset([0]))
        cs = build_character_system(CMDatum(group, 3, (f1, f2)))
        if cs.defect == 0:
            assert shortcut_label(cs, primitive=False) == "nondegenerate"
        else:
            assert shortcut_label(cs, primitive=False) is None


class TestPrimitivityDecidedOnce:
    def test_once_per_report_for_one_factor_over_the_trivial_subgroup(self, monkeypatch):
        calls = []

        def counting(t, conj):
            calls.append(t)
            return is_primitive(t, conj)

        monkeypatch.setattr(alpha_engine, "is_primitive", counting)
        # a factor over a nontrivial subgroup, alone and in products
        c2xc2 = FiniteGroup.abelian([2, 2])
        f1 = CMType(CosetSpace(c2xc2, [0, 1]), frozenset([0]))
        f2 = CMType(CosetSpace(c2xc2, [0, 2]), frozenset([0]))
        c8 = FiniteGroup.abelian([8])
        space = CosetSpace(c8, [0])
        for datum in (CMDatum(c2xc2, 3, (f1,)), CMDatum(c2xc2, 3, (f1, f2)),
                      CMDatum(c8, 4, (CMType(space, frozenset([0, 1, 2, 3])),
                                      CMType(space, frozenset([0, 1, 3, 6]))))):
            build_report(build_character_system(datum))
        assert calls == []

        seen = 0
        for group in builtin_groups(12):
            for conj in group.central_involutions():
                for t in enumerate_types(group, conj, up_to_translation=True):
                    try:
                        cs = build_character_system(CMDatum(group, conj, (t,)))
                    except DuplicateCharactersError:
                        continue
                    calls.clear()
                    build_report(cs)
                    assert calls == [t], cs.datum
                    seen += 1
        assert seen == 44


class TestBoundChecks:
    def test_log_threshold_exact_at_equality(self):
        # genus 4: the threshold is 8/(2 + 2) = 2 exactly
        group = FiniteGroup.abelian([8])
        cs = build_character_system(single_factor(group, 4, [0, 1, 2, 3]))
        assert bound_checks(Fraction(2), cs, primitive=False)["log_threshold_bound"]
        above = bound_checks(Fraction(2000001, 1000000), cs, primitive=False)
        assert not above["log_threshold_bound"]

    def test_genus_bound_flags_violation(self):
        cs = quartic()
        assert not bound_checks(Fraction(5, 2), cs, primitive=False)["genus_upper_bound"]

    def test_dimension_bound_only_for_primitive_single_factor(self):
        group = FiniteGroup.abelian([2, 2])
        f1 = CMType(CosetSpace(group, [0, 1]), frozenset([0]))
        f2 = CMType(CosetSpace(group, [0, 2]), frozenset([0]))
        cs = build_character_system(CMDatum(group, 3, (f1, f2)))
        report = build_report(cs)
        assert "primitive_dimension_bound" not in report.bound_checks


class TestPowerAndProduct:
    def test_product_envelope_two_quadratics(self):
        group = FiniteGroup.abelian([2, 2])
        f1 = CMType(CosetSpace(group, [0, 1]), frozenset([0]))
        f2 = CMType(CosetSpace(group, [0, 2]), frozenset([0]))
        joint = build_character_system(CMDatum(group, 3, (f1, f2)))
        r1 = build_report(build_character_system(CMDatum(group, 3, (f1,))))
        r2 = build_report(build_character_system(CMDatum(group, 3, (f2,))))
        assert r1.alpha == r2.alpha == 1

        env = product_envelope([r1, r2], [1, 1], joint)
        assert env.lower == Fraction(4, 3)
        assert env.upper == 2
        assert env.question2 == Fraction(4, 3)

        # one quadratic times the n-th power of the other
        for n in (2, 3, 5):
            env = product_envelope([r1, r2], [1, n], joint)
            assert env.lower == n
            assert env.upper == n + 1
            assert env.lower <= env.question2 <= env.upper

    def test_product_envelope_c8_pair(self):
        # the benchmark's warm-up product; each one-factor union of the
        # joint must carry its factor report's exponent and dimension,
        # and every union the count and rank of the uncapped table
        group = FiniteGroup.abelian([8])
        space = CosetSpace(group, [0])
        factors = (CMType(space, frozenset([0, 1, 2, 3])),
                   CMType(space, frozenset([0, 1, 3, 6])))
        # imported here: that module imports this one through test_acceptance
        from test_search_reference import factor_unions_uncapped

        joint = build_character_system(CMDatum(group, 4, factors))
        systems = [build_character_system(CMDatum(group, 4, (f,))) for f in factors]
        reports = [build_report(cs) for cs in systems]
        unions = _factor_unions(joint)
        assert unions == [(n, b.dim) for n, b in
                          factor_unions_uncapped(joint, joint.characters)]
        for i, report in enumerate(reports):
            n, rank = unions[1 << i]
            assert (n, Fraction(n, rank)) == (2 * report.genus, report.alpha)
            assert rank == report.dim
        env = product_envelope(reports, [1, 1], joint)
        assert env.lower == env.upper == env.question2 == Fraction(16, 5)

    def test_product_envelope_validates(self):
        group = FiniteGroup.abelian([2, 2])
        f1 = CMType(CosetSpace(group, [0, 1]), frozenset([0]))
        f2 = CMType(CosetSpace(group, [0, 2]), frozenset([0]))
        joint = build_character_system(CMDatum(group, 3, (f1, f2)))
        r1 = build_report(build_character_system(CMDatum(group, 3, (f1,))))
        with pytest.raises(ValueError):
            product_envelope([r1], [1], joint)
        r2 = build_report(build_character_system(CMDatum(group, 3, (f2,))))
        with pytest.raises(ValueError):
            product_envelope([r1, r2], [1, 0], joint)

    @pytest.mark.parametrize("bad", [2.7, True, "3", Fraction(2)])
    def test_product_envelope_refuses_non_int_multiplicities(self, bad, monkeypatch):
        group = FiniteGroup.abelian([2, 2])
        f1 = CMType(CosetSpace(group, [0, 1]), frozenset([0]))
        f2 = CMType(CosetSpace(group, [0, 2]), frozenset([0]))
        joint = build_character_system(CMDatum(group, 3, (f1, f2)))
        reports = [build_report(build_character_system(CMDatum(group, 3, (f,))))
                   for f in (f1, f2)]

        def no_unions(cs):
            raise AssertionError("a union was formed")

        monkeypatch.setattr(alpha_engine, "_factor_unions", no_unions)
        with pytest.raises(ValueError, match="ints"):
            product_envelope(reports, [1, bad], joint)


class TestAbelInequality:
    def test_hand_example(self):
        assert abel_inequality_check([2, 1], [1, 3], [2, 3])

    def test_prefix_maximum_is_tight(self):
        # equality when all three sequences are constant
        assert abel_inequality_check([1], [7], [5])
        assert abel_inequality_check([3, 3, 3], [2, 2, 2], [9, 9, 9])

    def test_validation(self):
        with pytest.raises(ValueError):
            abel_inequality_check([], [], [])
        with pytest.raises(ValueError):
            abel_inequality_check([1, 2], [1, 1], [1, 1])  # increasing
        with pytest.raises(ValueError):
            abel_inequality_check([1, 1], [1, -1], [1, 1])
        with pytest.raises(ValueError):
            abel_inequality_check([1, 1], [1, 1], [1, 1, 1])

    def test_random_instances(self):
        rng = random.Random(20260817)
        for _ in range(300):
            k = rng.randint(1, 8)
            ns = sorted((rng.randint(1, 9) for _ in range(k)), reverse=True)
            bs = [rng.randint(1, 12) for _ in range(k)]
            ws = [rng.randint(1, 12) for _ in range(k)]
            assert abel_inequality_check(ns, bs, ws)
