"""The Hermite-form build against the two-saturation build it replaced.

`_orbit_matrix_reference` and `saturation_reference` below are the
earlier orbit matrix and saturation step of `build_character_system`,
verbatim, with the earlier `saturate` (on a textbook Smith form with
its left transform, kept here) and `hermite_coordinates`: one
Smith form of the orbit matrix for the cocharacter lattice, a second
one of its transpose for the character lattice, and one back-substitution
per character.  The build must give the same orbit matrix, characters,
rank, cocharacter lattice, divisors and saturation index, the ones it
computes on first read included, and name the same pair of duplicate
characters.  Its character coordinates are read in another
basis of the same character lattice, so they must agree with the
reference ones up to GL_d(Z), and every finite-level query must give the
same answer on either set of coordinates.
"""

import random
from dataclasses import replace
from itertools import chain, product
from math import prod
from typing import Optional, Sequence

import pytest

import cmtorsion.exact_linalg as el
import cmtorsion.mt_torus as mt
from cmtorsion.alpha_engine import build_report
from cmtorsion.cm_core import CMDatum, CMType, CosetSpace, InvariantError, enumerate_types
from cmtorsion.exact_linalg import IntMatrix, hermite_normal_form
from cmtorsion.finite_level import degree_of_subgroup, exponent_sweep, staircase_bounds
from cmtorsion.mt_torus import DuplicateCharactersError, _half_rows, build_character_system
from cmtorsion.verify import builtin_groups
from test_exact_linalg import hermite_normal_form_reference


def _orbit_matrix_reference(datum: CMDatum) -> tuple[tuple, IntMatrix, tuple]:
    group = datum.group
    labels = []
    for fi, factor in enumerate(datum.factors):
        # phi and its conjugate partition the cosets, so the columns of
        # a factor are indexed by the whole coset space
        for s in range(factor.space.size):
            labels.append((fi, s))
    two_g = len(labels)
    rows = []
    for g in range(group.order):
        ginv = group.inv(g)
        row = []
        for fi, s in labels:
            factor = datum.factors[fi]
            row.append(1 if factor.space.act(ginv, s) in factor.phi else 0)
        rows.append(row)
    matrix = IntMatrix.from_rows(rows, cols=two_g)

    columns = tuple(matrix.columns())
    for i in range(two_g):
        for j in range(i + 1, two_g):
            if columns[i] == columns[j]:
                raise DuplicateCharactersError(i, j)
    return tuple(labels), matrix, columns


def smith_normal_form(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """Textbook Smith normal form: the nonzero divisors d_1 | d_2 | ...
    and a unimodular `left` with left @ m @ right diagonal for some
    unimodular `right`, which is not kept.

    The pivot is the first entry of least magnitude; Euclidean row and
    column steps clear its column and row, and a row the pivot does not
    divide is added to the pivot row before the steps run again.
    """
    a = [list(row) for row in m.rows]
    nr, nc = len(m.rows), m.cols
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst -= q * row src, in m and in left
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x - q * y for x, y in zip(left[dst], left[src])]

    t = 0
    while t < min(nr, nc):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        swap_rows(t, i)
        swap_cols(t, j)
        while True:
            dirty = False
            for i in range(t + 1, nr):
                add_row(t, i, a[i][t] // a[t][t])
                if a[i][t]:
                    swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, nc):
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j]:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            stain = next((i for i in range(t + 1, nr)
                          if any(x % a[t][t] for x in a[i][t + 1:])), None)
            if stain is None:
                break
            add_row(stain, t, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        t += 1
    return tuple(a[i][i] for i in range(t)), IntMatrix.from_rows(left, cols=nr)


def saturate(m: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    diag, left = smith_normal_form(m)
    cols = m.columns()
    sat = IntMatrix.from_rows(
        [[sum(a * b for a, b in zip(row, col)) // d for col in cols]
         for row, d in zip(left.rows, diag)], cols=m.cols)
    return hermite_normal_form(sat), diag


def hermite_coordinates(basis: IntMatrix, vector: Sequence[int]) -> Optional[list[int]]:
    if len(vector) != basis.cols:
        raise ValueError("vector width mismatch")
    v = list(vector)
    coords = []
    for row in basis.rows:
        p = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[p], row[p])
        if rem:
            return None
        if q:
            v = [x - q * y for x, y in zip(v, row)]
        coords.append(q)
    return None if any(v) else coords


def saturation_reference(matrix: IntMatrix, columns: tuple, genus: int, n: int):
    # the saturation of the row lattice has the rank of the matrix
    cochar_basis, divisors = saturate(matrix)
    d = len(cochar_basis.rows)
    if not 2 <= d <= genus + 1:
        raise InvariantError("torus rank out of the admissible range")

    col_matrix = IntMatrix.from_rows(columns, cols=n)
    char_lattice, col_divisors = saturate(col_matrix)
    if prod(divisors) != prod(col_divisors):
        raise InvariantError("row and column saturation indices must agree")
    coords = []
    for col in columns:
        sol = hermite_coordinates(char_lattice, col)
        if sol is None:
            raise InvariantError("a character lies outside the character lattice")
        coords.append(tuple(sol))
    return d, cochar_basis, char_lattice, tuple(coords), divisors


def build_reference(datum: CMDatum) -> dict:
    labels, matrix, columns = _orbit_matrix_reference(datum)
    d, cochar_basis, char_lattice, coords, divisors = saturation_reference(
        matrix, columns, len(labels) // 2, datum.group.order)
    return {"orbit_matrix": matrix, "characters": columns, "dim": d,
            "cochar_basis": cochar_basis,
            "char_lattice": char_lattice, "char_coords": coords,
            "divisors": divisors, "saturation_index": prod(divisors)}


def coordinate_lattice(coords) -> IntMatrix:
    """Hermite form of the d x 2g transpose of the coordinates: equal
    for two rank-d coordinate sets exactly when they differ by an
    element of GL_d(Z)."""
    return hermite_normal_form(IntMatrix.from_rows(list(zip(*coords))))


def outcome(build, datum: CMDatum):
    """The compared fields of a build, or the duplicate pair it names."""
    try:
        out = build(datum)
    except DuplicateCharactersError as e:
        return ("duplicate", e.indices)
    if not isinstance(out, dict):
        # the divisors, the index and the cocharacter basis are first
        # read here; the orbit matrix is the one the characters are the
        # columns of
        out = {key: getattr(out, key) for key in (
            "characters", "dim", "cochar_basis", "char_coords",
            "divisors", "saturation_index")}
        out["orbit_matrix"] = IntMatrix.from_rows(
            zip(*out["characters"]), cols=len(out["characters"]))
    out.pop("char_lattice", None)
    out["char_coords"] = coordinate_lattice(out["char_coords"])
    return out


def single_factor_data(max_order: int):
    """One datum per single-factor translation class, duplicates included."""
    for group in builtin_groups(max_order):
        for conj in group.central_involutions():
            for t in enumerate_types(group, conj, up_to_translation=True):
                yield CMDatum(group, conj, (t,))


def two_factor_data(max_order: int):
    """Every pair t1 <= t2 of translation-class representatives."""
    for group in builtin_groups(max_order):
        for conj in group.central_involutions():
            types = list(enumerate_types(group, conj, up_to_translation=True))
            for i, t1 in enumerate(types):
                for t2 in types[i:]:
                    yield CMDatum(group, conj, (t1, t2))


def subgroup_joint_data(max_order: int):
    """Every class representative times every CM type over a subgroup
    {0, h} of order 2, h not the conjugation."""
    for group in builtin_groups(max_order):
        for conj in group.central_involutions():
            halves = []
            for h in range(1, group.order):
                if h == conj or group.mul(h, h) != 0:
                    continue
                space = CosetSpace(group, [0, h])
                pairs = sorted({tuple(sorted((c, space.act(conj, c))))
                                for c in range(space.size)})
                halves += [CMType(space, frozenset(p)) for p in product(*pairs)]
            for t1 in enumerate_types(group, conj, up_to_translation=True):
                for t2 in halves:
                    yield CMDatum(group, conj, (t1, t2))


CATALOGUES = [
    (lambda: single_factor_data(16), 914, 533),
    (lambda: two_factor_data(12), 376, 332),
    (lambda: subgroup_joint_data(12), 1880, 1648),
]
CATALOGUE_IDS = ["single-factor-order-16", "two-factor-order-12", "subgroup-joints-order-12"]


class TestAgainstReference:
    @pytest.mark.parametrize("data, systems, duplicates", CATALOGUES, ids=CATALOGUE_IDS)
    def test_every_field_matches(self, data, systems, duplicates):
        count = dup = 0
        for datum in data():
            got = outcome(build_character_system, datum)
            assert got == outcome(build_reference, datum), datum
            count += 1
            dup += isinstance(got, tuple)
        assert (count, dup) == (systems, duplicates)

    @pytest.mark.parametrize("data", [c[0] for c in CATALOGUES], ids=CATALOGUE_IDS)
    def test_queries_ignore_the_coordinate_basis(self, data):
        rng = random.Random(8)
        ells = [3, 5, 7, 13, 101]
        built = changed = 0
        for datum in data():
            try:
                cs = build_character_system(datum)
            except DuplicateCharactersError:
                continue
            # `char_coords` are formed on first read: a copy given the
            # reference coordinates before that read keeps them
            ref = replace(cs)
            ref.__dict__["char_coords"] = build_reference(datum)["char_coords"]
            changed += ref.char_coords != cs.char_coords
            # the copy keeps the build's echelon basis, so its first-read
            # Hermite form and divisors are the build's
            assert (ref.divisors, ref.saturation_index) == (cs.divisors, cs.saturation_index)
            report = build_report(cs)
            for level in (1, 2, 3):
                assert (exponent_sweep(cs, ells, level, report)
                        == exponent_sweep(ref, ells, level, report))
            for _ in range(3):
                chars = rng.sample(range(2 * cs.genus), rng.randint(1, 2 * cs.genus))
                levels = {i: rng.randint(1, 3) for i in chars}
                ell = rng.choice(ells)
                assert (degree_of_subgroup(cs, ell, levels)
                        == degree_of_subgroup(ref, ell, levels)), (datum, levels)
                assert (staircase_bounds(cs, ell, levels)
                        == staircase_bounds(ref, ell, levels)), (datum, levels)
            built += 1
        # the two bases differ on most systems, so the queries see both
        assert 2 * changed > built


class TestOneElimination:
    def test_build_runs_one_smith_elimination(self, monkeypatch):
        # the build reads no elementary divisors; the first read of the
        # divisors takes those of its Hermite form alone, from one
        # `elementary_divisors` of the rows with non-unit pivots, without
        # the unit-pivot columns, modulo their pivot product, when there
        # are two such rows or more; the first read of `cochar_basis`
        # takes the plain divisors of H for its saturation index
        calls = []
        real = el.elementary_divisors

        def counting(m, modulus=None):
            calls.append((len(m.rows), m.cols, modulus))
            return real(m, modulus)

        # `hermite_divisors` calls it in `exact_linalg`, `cochar_basis`
        # under the name `mt_torus` imports
        monkeypatch.setattr(el, "elementary_divisors", counting)
        monkeypatch.setattr(mt, "elementary_divisors", counting)
        built = 0
        blocks = set()
        for datum in chain(subgroup_joint_data(8), single_factor_data(16)):
            calls.clear()
            try:
                cs = build_character_system(datum)
            except DuplicateCharactersError:
                assert calls == []
                continue
            shape = (cs.dim, 2 * cs.genus)
            rows = list(zip(*cs.char_coords))
            pivots = [next(x for x in row if x) for row in rows]
            block = [p for p in pivots if p > 1]
            divisors_call = [(len(block), 2 * cs.genus - cs.dim + len(block), prod(block))] \
                if len(block) > 1 else []
            assert calls == []
            cs.divisors
            cs.saturation_index
            assert calls == divisors_call
            cs.cochar_basis
            cs.cochar_basis
            assert calls == divisors_call + [shape + (None,)]
            built += 1
            blocks.add(min(len(block), 2))
        assert built > 10
        assert blocks == {0, 1, 2}


def three_factor_data(max_order: int):
    """Every triple t1 < t2 < t3 of translation-class representatives of
    the groups of orders 8 to the bound."""
    for group in builtin_groups(max_order):
        if group.order < 8:
            continue
        for conj in group.central_involutions():
            types = list(enumerate_types(group, conj, up_to_translation=True))
            for i, t1 in enumerate(types):
                for j in range(i + 1, len(types)):
                    for t3 in types[j + 1:]:
                        yield CMDatum(group, conj, (t1, types[j], t3))


class TestHalfRows:
    @pytest.mark.parametrize("data", [
        lambda: single_factor_data(12), lambda: two_factor_data(12),
        lambda: subgroup_joint_data(12), lambda: three_factor_data(12),
    ], ids=["single-factor-order-12", "two-factor-order-12", "subgroup-joints-order-12",
            "three-factor-order-12"])
    def test_half_rows_give_the_hermite_form_of_all_rows(self, data):
        # duplicate characters do not matter to the lemma, so the
        # orbit matrix is formed without the duplicate check
        count = 0
        for datum in data():
            group = datum.group
            matrix = IntMatrix.from_rows(
                [[int(f.space.act(group.inv(g), s) in f.phi)
                  for f in datum.factors for s in range(f.space.size)]
                 for g in range(group.order)])
            half = _half_rows(datum, matrix.rows)
            assert len(half) == group.order // 2 + 1
            assert (hermite_normal_form(IntMatrix.from_rows(half)) == hermite_normal_form(matrix)
                    == hermite_normal_form_reference(matrix)), datum
            count += 1
        assert count > 40
