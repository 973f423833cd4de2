"""Character system construction and lattice structure."""

import itertools
import random
import subprocess
import sys
import textwrap
import time
from itertools import accumulate
from math import prod

import pytest

import cmtorsion.exact_linalg as el
import cmtorsion.mt_torus as mt
from cmtorsion.alpha_engine import build_report
from cmtorsion.cm_core import (
    CMDatum,
    CMType,
    CosetSpace,
    FiniteGroup,
    InvariantError,
    enumerate_types,
    is_primitive,
)
from cmtorsion.exact_linalg import (
    IntMatrix,
    IntSpanBasis,
    elementary_divisors,
    hermite_normal_form,
    integer_kernel,
)
from cmtorsion.documents import report_to_dict
from cmtorsion.mt_torus import DuplicateCharactersError, build_character_system
from cmtorsion.verify import builtin_groups, run_verify
from kernel_helpers import (
    check_kernel,
    check_saturation,
    contains,
    determinant,
    hermite_pivots,
    saturate,
)
from test_acceptance import c2_times_alternating4
from test_build_reference import single_factor_data, two_factor_data
from test_search_reference import random_joints


def single_factor(group: FiniteGroup, conj: int, phi) -> CMDatum:
    t = CMType(CosetSpace(group, [0]), frozenset(phi))
    return CMDatum(group, conj, (t,))


def elliptic():
    return single_factor(FiniteGroup.abelian([2]), 1, [0])


def quartic():
    return single_factor(FiniteGroup.abelian([4]), 2, [0, 1])


def biquadratic_imprimitive():
    return single_factor(FiniteGroup.abelian([2, 2]), 3, [0, 2])


def two_quadratic_factors():
    """Two elliptic factors presented over their common degree-4 group."""
    g = FiniteGroup.abelian([2, 2])
    f1 = CMType(CosetSpace(g, [0, 1]), frozenset([0]))
    f2 = CMType(CosetSpace(g, [0, 2]), frozenset([0]))
    return CMDatum(g, 3, (f1, f2))


class TestBuild:
    def test_elliptic_system(self):
        cs = build_character_system(elliptic())
        assert cs.genus == 1
        assert cs.dim == 2
        assert set(cs.characters) == {(1, 0), (0, 1)}
        # the conjugate characters sum to the weight
        assert tuple(map(sum, zip(*cs.characters))) == (1, 1)
        assert cs.saturation_index == 1

    def test_quartic_system(self):
        cs = build_character_system(quartic())
        assert cs.genus == 2
        assert cs.dim == 3
        # row g of the orbit matrix marks the translate g + phi
        for g, row in enumerate(zip(*cs.characters)):
            expect = tuple(1 if s in ((g + 0) % 4, (g + 1) % 4) else 0 for s in range(4))
            assert row == expect
        assert set(cs.characters) == {
            (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)}
        # conjugation pairs s with s+2 and paired columns sum to the weight
        for k in range(4):
            s = tuple(a + b for a, b in zip(cs.characters[k], cs.characters[(k + 2) % 4]))
            assert s == (1, 1, 1, 1)
        assert cs.saturation_index == 1

    def test_duplicate_characters_rejected(self):
        with pytest.raises(DuplicateCharactersError) as info:
            build_character_system(biquadratic_imprimitive())
        i, j = info.value.indices
        assert i != j

    def test_column_sums_are_half_the_order(self):
        for datum in (elliptic(), quartic(), two_quadratic_factors()):
            cs = build_character_system(datum)
            n = datum.group.order
            for col in cs.characters:
                assert sum(col) == n // 2

    def test_two_quadratic_factors(self):
        cs = build_character_system(two_quadratic_factors())
        assert cs.genus == 2
        assert len(set(cs.characters)) == 4
        assert cs.dim == 3

    def test_divisors_are_those_of_all_character_coordinates(self):
        # the build keeps the divisors of its Hermite form H; the 2g x dim
        # matrix of all char_coords is H's transpose, with the same ones
        systems = [build_character_system(d) for d in (elliptic(), quartic(),
                                                       two_quadratic_factors())]
        for group in (FiniteGroup.abelian([2, 2, 2]), FiniteGroup.dicyclic(2),
                      FiniteGroup.abelian([8])):
            for conj in group.central_involutions():
                for t in enumerate_types(group, conj, up_to_translation=True):
                    try:
                        systems.append(build_character_system(CMDatum(group, conj, (t,))))
                    except DuplicateCharactersError:
                        continue
        assert any(cs.saturation_index > 1 for cs in systems)
        for cs in systems:
            assert cs.divisors == elementary_divisors(IntMatrix.from_rows(cs.char_coords))
            assert len(cs.divisors) == cs.dim
            assert cs.saturation_index == prod(cs.divisors)

    def test_invalid_datum_rejected(self):
        # the datum refuses itself when made, so no build can receive it
        g = FiniteGroup.abelian([4])
        with pytest.raises(ValueError, match="conjugation squared is not the identity"):
            single_factor(g, 1, [0, 1])


def orbit_matrix_data():
    """Every single-factor translation class up to order 16, and every CM
    type on the eight cosets of the C2xA4 stabilizer of order 3."""
    for group in builtin_groups(16):
        for conj in group.central_involutions():
            for t in enumerate_types(group, conj, up_to_translation=True):
                yield CMDatum(group, conj, (t,))
    group, conj, sub = c2_times_alternating4()
    space = CosetSpace(group, sub)
    pairs = sorted({tuple(sorted((s, space.act(conj, s)))) for s in range(space.size)})
    for picks in itertools.product(*pairs):
        yield CMDatum(group, conj, (CMType(space, frozenset(picks)),))


class TestOrbitMatrixDefinition:
    def test_row_g_marks_the_translates_of_phi(self):
        # row g, column (i, s) holds 1 exactly when s lies in g.phi_i
        built = spaces = 0
        for datum in orbit_matrix_data():
            try:
                starts, plans, rows, columns = mt._orbit_matrix(datum)
            except DuplicateCharactersError:
                continue
            group = datum.group
            labels = [(fi, s) for fi, f in enumerate(datum.factors)
                      for s in range(f.space.size)]
            assert starts == tuple(accumulate((f.space.size for f in datum.factors), initial=0))
            assert plans == [f.space.plans[datum.conj] for f in datum.factors]
            expected = []
            for g in range(group.order):
                halves = [{f.space.act(g, t) for t in f.phi} for f in datum.factors]
                expected.append([int(s in halves[fi]) for fi, s in labels])
            assert rows == [tuple(row) for row in expected], datum
            assert columns == tuple(zip(*expected))
            built += 1
            spaces += group.name == "C2xA4"
        assert (built, spaces) == (395, 14)


def test_repeated_half_rows_leave_the_hermite_form_alone():
    # every buildable C2xA4 type repeats half rows; the build eliminates
    # one copy of each, and H is the form of all of them
    repeated = 0
    for datum in orbit_matrix_data():
        if datum.group.name != "C2xA4":
            continue
        try:
            cs = build_character_system(datum)
        except DuplicateCharactersError:
            continue
        _, plans, rows, _ = mt._orbit_matrix(datum)
        half = mt._half_rows(plans[0], rows)
        repeated += len(set(half)) < len(half)
        assert cs.hermite == hermite_normal_form(IntMatrix.from_rows(half)), datum
    assert repeated == 14


class TestClassify:
    def test_elliptic_nondegenerate(self):
        cs = build_character_system(elliptic())
        assert (cs.genus, cs.dim, cs.defect) == (1, 2, 0)

    def test_quartic_nondegenerate(self):
        cs = build_character_system(quartic())
        assert (cs.genus, cs.dim, cs.defect) == (2, 3, 0)


class TestMod2:
    def test_standard_systems_distinct(self):
        for datum in (elliptic(), quartic(), two_quadratic_factors()):
            assert build_report(build_character_system(datum)).bound_checks["mod2_distinct"]


# a selection's perp and its span saturation as `verify` forms them: the
# integer kernel of the selection, and the kernel of that kernel
SELECTION_KERNELS = pytest.mark.parametrize("query", [
    lambda cs, sel: integer_kernel(mt._selected_characters(cs, sel)),
    lambda cs, sel: integer_kernel(integer_kernel(mt._selected_characters(cs, sel))),
], ids=["perp_lattice", "character_span_saturation"])


class TestPerp:
    def test_full_selection_has_trivial_perp(self):
        cs = build_character_system(quartic())
        k = integer_kernel(mt._selected_characters(cs, range(4)))
        assert k.rows == ()

    def test_single_character_perp_rank(self):
        cs = build_character_system(quartic())
        k = integer_kernel(mt._selected_characters(cs, [0]))
        assert len(k.rows) == cs.dim - 1
        col = cs.cochar_basis.columns()[0]
        for row in k.rows:
            assert sum(a * b for a, b in zip(row, col)) == 0

    def test_empty_selection_rejected(self):
        cs = build_character_system(elliptic())
        with pytest.raises(ValueError):
            mt._selected_characters(cs, [])

    @SELECTION_KERNELS
    @pytest.mark.parametrize("indices", [[], [-1], [4], [0, 4]])
    def test_bad_selection_rejected(self, query, indices):
        # four characters: a negative index does not wrap round to the
        # last one, and an index past them is not an IndexError
        cs = build_character_system(quartic())
        with pytest.raises(ValueError, match="empty character selection|out of range"):
            query(cs, indices)

    @SELECTION_KERNELS
    @pytest.mark.parametrize("indices", [[True], [0, 1.0], ["1"], [0, 1, True]],
                             ids=["bool", "float", "str", "bool-beside-its-int"])
    def test_non_integer_selection_rejected(self, query, indices):
        # True is not character 1, and 1.0 is not a TypeError
        cs = build_character_system(quartic())
        with pytest.raises(ValueError, match="character indices must be integers"):
            query(cs, indices)

    def test_double_perp_is_saturated_span(self):
        # every class representative of `run_verify(16)`: the cocharacter
        # basis is the saturation of the rows of H, the perp of a
        # selection is its integer kernel, and the span saturation (the
        # kernel of the perp) is its saturation, as `check_kernel` and
        # `check_saturation` fix them
        rng = random.Random(2024)
        reps = 0
        for group in builtin_groups(16):
            for conj in group.central_involutions():
                for t in enumerate_types(group, conj, up_to_translation=True):
                    try:
                        cs = build_character_system(CMDatum(group, conj, (t,)))
                    except DuplicateCharactersError:
                        continue
                    reps += 1
                    check_saturation(IntMatrix.from_rows(zip(*cs.char_coords), cols=2 * cs.genus),
                                     cs.cochar_basis)
                    sels = [range(cs.genus + 1)] + [
                        rng.sample(range(2 * cs.genus), rng.randint(1, 2 * cs.genus))
                        for _ in range(2)]
                    for sel in sels:
                        chosen = mt._selected_characters(cs, sel)
                        perp = integer_kernel(chosen)
                        check_kernel(chosen, perp)
                        check_saturation(chosen, integer_kernel(perp))
        assert reps == 381


class TestCocharBasisFromH:
    def test_no_second_hermite_form_and_the_same_basis(self, monkeypatch):
        # every class representative of `run_verify(16)`: the first read
        # of `cochar_basis` saturates the build's Hermite form H as it
        # is, one Hermite form fewer than `saturate` of the rows of H,
        # and gives its basis, with the index `saturate` gives.  The
        # eliminations, echelon phases that every Hermite form and kernel
        # runs, are counted outside `elementary_divisors`, which reads
        # the index off forms of its own; `cochar_basis` calls it under
        # the name `mt_torus` imports.
        calls, inside = [], []
        real, real_divisors = el.hermite_echelon, el.elementary_divisors

        def counting(m):
            if not inside:
                calls.append(len(m.rows))
            return real(m)

        def divisors(m, modulus=None):
            inside.append(m)
            try:
                return real_divisors(m, modulus)
            finally:
                inside.pop()

        monkeypatch.setattr(el, "hermite_echelon", counting)
        monkeypatch.setattr(el, "elementary_divisors", divisors)
        monkeypatch.setattr(mt, "elementary_divisors", divisors)
        reps = 0
        for group in builtin_groups(16):
            for conj in group.central_involutions():
                for t in enumerate_types(group, conj, up_to_translation=True):
                    try:
                        cs = build_character_system(CMDatum(group, conj, (t,)))
                    except DuplicateCharactersError:
                        continue
                    calls.clear()
                    basis = cs.cochar_basis
                    first = len(calls)
                    calls.clear()
                    assert (basis, cs.saturation_index) == saturate(
                        IntMatrix.from_rows(zip(*cs.char_coords), cols=2 * cs.genus))
                    assert first == len(calls) - 1 == 2
                    reps += 1
        assert reps == 381


class TestRankBounds:
    def test_dimension_bound_over_enumeration(self):
        """Primitive single factors satisfy 2^(dim-2) >= genus.

        Exhaustive over the built-in families up to order 16.
        """
        groups = [FiniteGroup.abelian(inv) for inv in
                  ([2], [4], [2, 2], [6], [8], [4, 2], [2, 2, 2], [10],
                   [12], [6, 2], [14], [16], [8, 2], [4, 4], [4, 2, 2],
                   [2, 2, 2, 2])]
        groups += [FiniteGroup.dihedral(n) for n in (4, 6, 8)]
        groups += [FiniteGroup.dicyclic(m) for m in (2, 3, 4)]
        seen_primitive = 0
        for g in groups:
            for c in g.central_involutions():
                for t in enumerate_types(g, c, up_to_translation=True):
                    try:
                        cs = build_character_system(CMDatum(g, c, (t,)))
                    except DuplicateCharactersError:
                        continue
                    assert 2 <= cs.dim <= cs.genus + 1
                    if is_primitive(t, c):
                        seen_primitive += 1
                        assert 2 ** (cs.dim - 2) >= cs.genus
        assert seen_primitive > 50


def random_type(group: FiniteGroup, conj: int, seed: int) -> CMDatum:
    """A single factor with one coset of each conjugate pair, at random."""
    rng = random.Random(seed)
    pairs = sorted({tuple(sorted((s, group.mul(conj, s)))) for s in range(group.order)})
    return single_factor(group, conj, [rng.choice(p) for p in pairs])


def orbit_divisors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero divisors of `m`, from an elimination modulo one of
    its nonzero rank x rank minors, whose entries stay below that minor
    (the plain elimination swells on the order-64 orbit matrices)."""
    row_span = IntSpanBasis(m.cols)
    rows = [row for row in m.rows if row_span.insert(row)]
    col_span = IntSpanBasis(len(rows))
    cols = [col for col in zip(*rows) if col_span.insert(col)]
    minor = abs(determinant(IntMatrix.from_rows(cols)))
    return elementary_divisors(m, modulus=minor)[:len(rows)]


SWELLING = [
    single_factor(FiniteGroup.abelian([2, 16]), 8,
                  [0, 1, 2, 3, 4, 5, 7, 14, 16, 17, 18, 23, 27, 28, 29, 30]),
] + [random_type(FiniteGroup.abelian([n]), n // 2, seed)
     for n in (32, 64) for seed in (1, 2, 3)]


class TestNoSwell:
    """Orbit matrices whose Smith form with transforms took seconds to
    minutes (C2 x C16, C32, C64) build from their Hermite form at once."""

    @pytest.mark.parametrize("datum", SWELLING, ids=[
        "c2xc16-class", "c32-seed1", "c32-seed2", "c32-seed3",
        "c64-seed1", "c64-seed2", "c64-seed3"])
    def test_builds_within_a_time_limit(self, datum):
        start = time.perf_counter()
        cs = build_character_system(datum)
        assert time.perf_counter() - start < 5
        orbit = IntMatrix.from_rows(zip(*cs.characters))
        divisors = orbit_divisors(orbit)
        assert len(divisors) == cs.dim
        assert cs.divisors == divisors
        assert cs.saturation_index == prod(divisors)
        if datum is SWELLING[0]:
            assert divisors[-3:] == (1, 23, 46)
        assert cs.cochar_basis == saturate(orbit)[0]
        # a saturated lattice of the same rational span: all its
        # divisors are 1, and it holds the rows of M in its span
        assert elementary_divisors(cs.cochar_basis) == (1,) * cs.dim
        span = IntSpanBasis(orbit.cols)
        for row in cs.cochar_basis.rows:
            span.insert(row)
        assert all(contains(span, row) for row in orbit.rows)


class TestInvariantError:
    def test_not_an_input_error(self):
        # the CLI maps ValueError to "invalid input"; a broken invariant
        # is a fault of the program, not of the datum
        assert issubclass(InvariantError, RuntimeError)
        assert not issubclass(InvariantError, ValueError)

    def test_raised_with_asserts_stripped(self):
        # double the first divisor that `cochar_basis` reads for the
        # index of the rows of the build's Hermite form: the quartic's
        # index 1 then reads 2
        script = textwrap.dedent("""
            import cmtorsion.mt_torus as mt
            from cmtorsion.cm_core import CMDatum, CMType, CosetSpace, FiniteGroup
            from cmtorsion.cm_core import InvariantError

            t = CMType(CosetSpace(FiniteGroup.abelian([4]), [0]), frozenset([0, 1]))
            cs = mt.build_character_system(CMDatum(t.space.group, 2, (t,)))
            real = mt.elementary_divisors

            def doubled(m, modulus=None):
                diag = real(m, modulus)
                return (2 * diag[0],) + diag[1:]

            mt.elementary_divisors = doubled
            try:
                cs.cochar_basis
            except InvariantError as e:
                print("InvariantError:", e, "debug" if __debug__ else "optimized")
            else:
                print("built")
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            "InvariantError: saturation index 2 disagrees with the build's 1 optimized")

    def test_saturation_index_disagreement_raises(self, monkeypatch):
        # the build's divisors of H claim index 4, the divisors that
        # `cochar_basis` reads for the rows of H give 2; the quaternion
        # type has a pivot of 2, so its divisors are read off H by
        # `hermite_divisors`, not taken as all 1
        real = mt.hermite_divisors

        def doubled(m, pivots):
            diag = real(m, pivots)
            return (2 * diag[0],) + diag[1:]

        monkeypatch.setattr(mt, "hermite_divisors", doubled)
        cs = build_character_system(single_factor(FiniteGroup.dicyclic(2), 2, [0, 1, 4, 5]))
        assert cs.saturation_index == 4
        with pytest.raises(InvariantError,
                           match="saturation index 2 disagrees with the build's 4"):
            cs.cochar_basis

    def test_equivariance_checked_with_asserts_stripped(self):
        # swap the columns of cosets 0, 1 and of their conjugates 2, 3:
        # the pairing, weights and column sums still hold, but no longer
        # does column (h.s) = column (s) with rows moved by h
        script = textwrap.dedent("""
            import cmtorsion.mt_torus as mt
            from cmtorsion.cm_core import CMDatum, CMType, CosetSpace, FiniteGroup
            from cmtorsion.cm_core import InvariantError

            real = mt._orbit_matrix

            def swapped(datum):
                starts, plans, rows, columns = real(datum)
                columns = tuple(columns[j] for j in (1, 0, 3, 2))
                return starts, plans, list(zip(*columns)), columns

            mt._orbit_matrix = swapped
            t = CMType(CosetSpace(FiniteGroup.abelian([4]), [0]), frozenset([0, 1]))
            try:
                mt.build_character_system(CMDatum(t.space.group, 2, (t,)))
            except InvariantError as e:
                print("InvariantError:", e, "debug" if __debug__ else "optimized")
            else:
                print("built")
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            "InvariantError: the orbit matrix is not equivariant under element 1 optimized")

    def test_conjugation_that_does_not_pair_back_is_refused(self):
        # the plan takes the conjugation's action row on a space as its
        # pairing; on the second factor's fresh space that row is made
        # (0, 0) before the first build, so coset 1, the datum's
        # character 2 + 1, is not paired back, and no plan is kept
        datum = two_quadratic_factors()
        space = datum.factors[1].space
        space._action = tuple((0, 0) if g == 3 else row for g, row in enumerate(space._action))
        with pytest.raises(InvariantError, match="conjugation does not pair character 3 back"):
            build_character_system(datum)
        assert 3 not in space.plans


def counting_reductions(monkeypatch, *modules) -> list:
    """The row count of every reduction phase run from now on under the
    name each of `modules` reads: `mt` for the character system's own,
    `el` for those of every other Hermite form and kernel."""
    calls = []
    real = el.hermite_reduce

    def counting(rows, pivots, cols):
        calls.append(len(rows))
        return real(rows, pivots, cols)

    for module in modules:
        monkeypatch.setattr(module, "hermite_reduce", counting)
    return calls


class TestHermiteOnFirstRead:
    def test_one_factor_build_and_report_run_no_reduction(self, monkeypatch):
        calls = counting_reductions(monkeypatch, mt, el)
        built = 0
        for datum in orbit_matrix_data():
            try:
                cs = build_character_system(datum)
            except DuplicateCharactersError:
                continue
            build_report(cs)
            assert "hermite" not in cs.__dict__ and "char_coords" not in cs.__dict__
            built += 1
        assert (built, calls) == (395, [])

    def test_document_reduces_once(self, monkeypatch):
        # a one-factor document reads the saturation index, off the
        # divisors of H, which its report did not form: H is formed once
        # when some pivot is above 1, and not at all when every pivot is
        # 1 (the divisors are then all 1); the divisors of a block with
        # two non-unit pivots take Hermite forms of their own
        calls = counting_reductions(monkeypatch, mt)
        seen = set()
        for datum in itertools.islice(orbit_matrix_data(), 0, None, 25):
            try:
                cs = build_character_system(datum)
            except DuplicateCharactersError:
                continue
            report = build_report(cs)
            calls.clear()
            first = report_to_dict(report, cs)
            assert report_to_dict(report, cs) == first
            unit = all(row[c] == 1 for row, c in zip(cs.echelon, cs.pivots))
            assert calls == ([] if unit else [cs.dim])
            seen.add(unit)
        assert seen == {True, False}

    def test_two_factor_report_reduces_once(self, monkeypatch):
        # the union of the second factor alone is no prefix: it is
        # spanned in `char_coords`, the columns of H
        calls = counting_reductions(monkeypatch, mt, el)
        for datum in (two_quadratic_factors(), *itertools.islice(two_factor_data(12), 40)):
            try:
                cs = build_character_system(datum)
            except DuplicateCharactersError:
                continue
            assert calls == []
            build_report(cs)
            build_report(cs)
            assert calls == [cs.dim]
            calls.clear()

    def test_echelon_pivots_and_first_read_form_match_all_orbit_rows(self):
        # the build keeps the pivot columns of its echelon basis and
        # forms H on first read: those of, and the form of, every orbit
        # row; the factor blocks end at the accumulated space sizes
        systems = []
        for datum in single_factor_data(16):
            try:
                systems.append(build_character_system(datum))
            except DuplicateCharactersError:
                continue
        systems += random_joints(31, 150)
        for cs in systems:
            assert list(cs.pivots) == hermite_pivots(cs.hermite)
            assert list(cs.pivots) == hermite_pivots(IntMatrix.from_rows(cs.echelon))
            assert cs.starts == tuple(
                accumulate((f.space.size for f in cs.datum.factors), initial=0))
            assert cs.hermite == hermite_normal_form(
                IntMatrix.from_rows(zip(*cs.characters), cols=len(cs.characters))), cs.datum
            assert cs.char_coords == tuple(zip(*cs.hermite.rows))
        assert len(systems) == 381 + 150


class TestPlan:
    def test_formed_once_per_space_and_conjugation(self, monkeypatch):
        # `verify` makes one coset space per group and conjugation and
        # builds every class over it, and each translate's orbit matrix
        formed, calls = [], []
        real = mt._plan

        def counting(space, conj, offset=0):
            calls.append(conj)
            if conj not in space.plans:
                formed.append((space, conj))
            return real(space, conj, offset)

        monkeypatch.setattr(mt, "_plan", counting)
        summary = run_verify(12)
        assert not summary.failures
        # `formed` keeps every space alive, so no two share an id
        pairs = sum(len(g.central_involutions()) for g in builtin_groups(12))
        assert len({(id(space), conj) for space, conj in formed}) == len(formed) == pairs
        assert len(calls) > 20 * pairs

    def test_kept_on_the_space_with_its_getters_shared(self):
        # every central involution of C2xC4 conjugates some type over the
        # one regular space; the plans share the conjugation-free getters
        group = FiniteGroup.abelian([2, 4])
        space = CosetSpace(group, [0])
        convs = group.central_involutions()
        for conj in convs:
            phi = enumerate_types(group, conj)[0].phi
            try:
                build_character_system(CMDatum(group, conj, (CMType(space, phi),)))
            except DuplicateCharactersError:
                continue  # the orbit rows were read through the plan
        assert sorted(space.plans) == convs
        first = space.plans[convs[0]]
        for conj in convs:
            getters, moves, pairing, half = space.plans[conj]
            assert getters is first[0] and moves is first[1]
            assert pairing == space.action_row(conj)
            assert half == [g for g in range(group.order) if g < group.mul(conj, g)]
