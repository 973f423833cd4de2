"""Catalogue construction and the invariant sweep."""

import pytest

import cmtorsion.alpha_engine as alpha_engine
import cmtorsion.verify as verify
from cmtorsion.cm_core import (
    CMDatum,
    CMType,
    CosetSpace,
    FiniteGroup,
    _translation_classes,
    enumerate_types,
    is_primitive,
)
from cmtorsion.exact_linalg import IntMatrix, hermite_normal_form, integer_kernel
from cmtorsion.mt_torus import _selected_characters, build_character_system
from cmtorsion.verify import VerifySummary, _invariant_chains, builtin_groups, run_verify


class TestCatalogue:
    def test_invariant_chains(self):
        assert set(_invariant_chains(12)) == {(12,), (2, 6)}
        assert set(_invariant_chains(8)) == {(8,), (2, 4), (2, 2, 2)}
        assert set(_invariant_chains(16)) == {
            (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)}

    def test_builtin_names_up_to_12(self):
        names = [g.name for g in builtin_groups(12)]
        assert names == [
            "C2", "C3", "C2xC2", "C4", "C5", "C6", "C7",
            "C2xC2xC2", "C2xC4", "C8", "C3xC3", "C9",
            "C10", "C11", "C2xC6", "C12",
            "Dih3", "Dih4", "Dih5", "Dih6", "Q8", "Dic3",
        ]

    def test_orders_never_exceed_limit(self):
        for bound in (4, 8, 15):
            assert all(g.order <= bound for g in builtin_groups(bound))

    def test_groups_without_central_involution_contribute_nothing(self):
        for g in builtin_groups(10):
            if g.order % 2 == 1 or g.name in ("Dih3", "Dih5"):
                assert g.central_involutions() == []


class TestSweep:
    @pytest.mark.parametrize("order", [33, 64])
    def test_orders_above_32_refused_before_enumerating(self, monkeypatch, order):
        def no_enumeration(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(verify, "builtin_groups", no_enumeration)
        with pytest.raises(ValueError, match="at most 32"):
            run_verify(order)

    def test_order_8_summary(self):
        s = run_verify(8)
        assert s.class_reps_checked == 17
        assert s.translates_checked == 107
        assert s.duplicates_skipped == 110
        assert s.failures == []
        assert s.checks["oracle_agreement"] == 17
        assert s.checks["translation_row_permutation"] == 107
        # the one genus-1 datum is exempt from the strict form
        assert s.checks["strict_genus_bound"] == 16
        # prime genus occurs twice below order 9: the quartic and the
        # sextic cyclic data, both primitive, both forced nondegenerate
        assert s.checks["prime_genus_nondegenerate"] == 2

    def test_order_16_summary(self):
        s = run_verify(16)
        assert s.class_reps_checked == 381
        assert s.translates_checked == 5435
        assert s.duplicates_skipped == 2898
        assert s.checks == {
            "genus_upper_bound": 381,
            "log_threshold_bound": 381,
            "mod2_distinct": 381,
            "oracle_agreement": 44,
            "perp_double_dual": 381,
            "prime_genus_nondegenerate": 14,
            "primitive_dimension_bound": 381,
            "shortcut_available": 341,
            "span_ratio_lower_bound": 381,
            "strict_genus_bound": 380,
            "subspace_counting_bound": 381,
            "translation_row_permutation": 5435,
        }
        assert s.failures == []


def doubled_row(m: IntMatrix) -> IntMatrix:
    # the first row doubled, if there is one
    return IntMatrix.from_rows([[2 * x for x in row] for row in m.rows[:1]] + list(m.rows[1:]),
                               cols=m.cols)


def unit_rows(count: int, cols: int, start: int = 0) -> IntMatrix:
    """The unit vectors e_start, ..., e_(start + count - 1) of Z^cols."""
    return IntMatrix.from_rows([[int(j == start + i) for j in range(cols)]
                                for i in range(count)], cols=cols)


def dropped_row(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows(m.rows[:-1], cols=m.cols)


class TestDuality:
    @pytest.mark.parametrize("lattice, fault, failing", [
        # not saturated, and not holding the selection
        ("span", doubled_row, (2, 3)),
        # saturated with the right rank, but not holding the selection
        ("span", lambda m: unit_rows(len(m.rows), m.cols, m.cols - len(m.rows)), (2,)),
        # saturated and holding the selection, but too large
        ("span", lambda m: unit_rows(m.cols, m.cols), (1,)),
        # annihilates with the right rank, but not saturated
        ("perp", doubled_row, (6,)),
        # saturated with the right rank, but not annihilating
        ("perp", lambda m: unit_rows(len(m.rows), m.cols), (4,)),
        # saturated and annihilating, but a row short
        ("perp", dropped_row, (5,)),
    ], ids=["span-doubled", "span-elsewhere", "span-whole",
            "perp-doubled", "perp-elsewhere", "perp-short"])
    def test_a_wrong_lattice_fails(self, monkeypatch, lattice, fault, failing):
        # `_duality_conditions` forms the perp as the integer kernel of
        # the selection and the span as the kernel of the perp.  One
        # lattice is changed, the other is formed from the real perp,
        # and a representative fails exactly the conditions `failing`
        # (numbered from 1 as in the module docstring) when its lattice
        # was changed.  The catalogue's selections are saturated, so a
        # lattice that holds one and has its rank cannot fail the span's
        # divisor condition alone (see `test_an_unsaturated_selection`)
        real_kernel, real_conditions = verify.integer_kernel, verify._duality_conditions
        perps, changed, results = [], [], []

        def faulty(m):
            # the calls alternate: the perp of a selection, then its kernel
            if not perps:
                k = real_kernel(m)
                perps.append(k)
                if lattice == "span":
                    return k
            else:
                k = real_kernel(perps.pop())
                if lattice == "perp":
                    return k
            wrong = fault(k)
            changed.append(wrong != k)
            return wrong

        def conditions(cs, sel):
            results.append(real_conditions(cs, sel))
            return results[-1]

        monkeypatch.setattr(verify, "integer_kernel", faulty)
        monkeypatch.setattr(verify, "_duality_conditions", conditions)
        s = run_verify(8)
        assert s.checks["perp_double_dual"] == s.class_reps_checked == len(changed) == len(results)
        assert len(s.failures) == sum(changed) > 0
        assert all(f.startswith("perp_double_dual: ") for f in s.failures)
        expected = tuple(i not in failing for i in range(1, 7))
        assert results == [expected if c else (True,) * 6 for c in changed]

    def test_an_unsaturated_selection(self, monkeypatch):
        # a two-factor joint whose first g + 1 characters span a lattice
        # of index 2 in its saturation, which no catalogue class reaches:
        # all six conditions hold, and with the selection's Hermite form
        # standing in for the saturation the span's divisor condition
        # alone fails
        group = FiniteGroup.abelian([12])
        space = CosetSpace(group, [0])
        cs = build_character_system(CMDatum(group, 6, tuple(
            CMType(space, frozenset(phi)) for phi in ([0, 1, 2, 3, 5, 10], [0, 1, 2, 4, 5, 9]))))
        sel = range(cs.genus + 1)
        hermite = hermite_normal_form(_selected_characters(cs, sel))
        perp = integer_kernel(_selected_characters(cs, sel))
        assert hermite != integer_kernel(perp)
        assert verify._duality_conditions(cs, sel) == (True,) * 6
        # the second kernel, of the perp, is the span
        monkeypatch.setattr(verify, "integer_kernel",
                            lambda m: hermite if m == perp else integer_kernel(m))
        assert verify._duality_conditions(cs, sel) == (True, True, False, True, True, True)


class TestPrimeGenus:
    def test_one_primitivity_decision_per_representative(self, monkeypatch):
        # the prime-genus check reads the report's primitivity through
        # its bound checks instead of deciding it again
        calls = []

        def counting(t, conj):
            calls.append(t.phi)
            return is_primitive(t, conj)

        monkeypatch.setattr(alpha_engine, "is_primitive", counting)
        monkeypatch.setattr(verify, "is_primitive", counting, raising=False)
        # the quartic and sextic cyclic classes: genus 2 and 3, primitive
        summary = VerifySummary()
        for order in (4, 6):
            group = FiniteGroup.abelian([order])
            for rep, translates in _translation_classes(enumerate_types(group, order // 2)):
                verify._check_class(summary, group, order // 2, rep, translates)
        assert summary.failures == []
        assert summary.checks["prime_genus_nondegenerate"] == 2
        assert len(calls) == summary.class_reps_checked == 2
