"""Group, coset space and CM type layer."""

import random
import time
from itertools import product as iter_product
from typing import Optional

import pytest

from cmtorsion.cm_core import (
    CMDatum,
    CMType,
    CosetSpace,
    FiniteGroup,
    UnsupportedInputError,
    enumerate_types,
    is_primitive,
)
from cmtorsion import cm_core
from cmtorsion.verify import builtin_groups
from kernel_helpers import element_order, element_tuple


def automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms, as permutation tuples; backtracking search.

    Intended for the small groups handled here; images are pruned by
    element order.
    """
    n = group.order
    orders = [element_order(group, a) for a in range(n)]
    gens = group.generators

    results = []

    def close(partial: dict[int, int]) -> Optional[dict[int, int]]:
        # close the partial map under products; None on inconsistency
        mapped = dict(partial)
        changed = True
        while changed:
            changed = False
            items = list(mapped.items())
            for a, fa in items:
                for b, fb in items:
                    ab = group.mul(a, b)
                    fab = group.mul(fa, fb)
                    if ab in mapped:
                        if mapped[ab] != fab:
                            return None
                    else:
                        mapped[ab] = fab
                        changed = True
        return mapped

    def extend(i: int, partial: dict[int, int]):
        if i == len(gens):
            if len(partial) == n and len(set(partial.values())) == n:
                results.append(tuple(partial[a] for a in range(n)))
            return
        g = gens[i]
        if g in partial:
            extend(i + 1, partial)
            return
        for img in range(n):
            if orders[img] != orders[g]:
                continue
            trial = dict(partial)
            trial[g] = img
            closed = close(trial)
            if closed is None:
                continue
            if len(set(closed.values())) != len(closed):
                continue
            extend(i + 1, closed)

    extend(0, {0: 0})
    return sorted(set(results))


def trivial_type(group: FiniteGroup, phi) -> CMType:
    return CMType(CosetSpace(group, [0]), frozenset(phi))


def datum(group: FiniteGroup, conj: int, *phis) -> CMDatum:
    return CMDatum(group, conj, tuple(trivial_type(group, p) for p in phis))


def invariant_lists(limit: int) -> list[tuple[int, ...]]:
    """Every list of cyclic orders >= 2 whose product is at most `limit`."""
    out = []

    def extend(prefix, order):
        for k in range(2, limit // order + 1):
            out.append(prefix + (k,))
            extend(prefix + (k,), order * k)

    extend((), 1)
    return out


def abelian_table_reference(inv) -> list[list[int]]:
    """The Cayley table by adding coordinate tuples and looking them up."""
    elems = list(iter_product(*[range(k) for k in inv]))
    pos = {e: i for i, e in enumerate(elems)}
    return [[pos[tuple((x + y) % k for x, y, k in zip(a, b, inv))] for b in elems]
            for a in elems]


def associative_reference(table) -> bool:
    """The cubic associativity check that Light's test replaced."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


class TestLightAssociativity:
    def test_agrees_with_cubic_check_on_perturbed_tables(self):
        rng = random.Random(20261018)
        verdicts = []
        for base in (FiniteGroup.abelian([2, 4]), FiniteGroup.abelian([2, 2, 2]),
                     FiniteGroup.abelian([12]), FiniteGroup.dihedral(4),
                     FiniteGroup.dicyclic(3)):
            n = base.order
            for _ in range(40):
                if rng.random() < 0.25:
                    # relabel by a permutation fixing 0: a group again
                    perm = [0] + rng.sample(range(1, n), n - 1)
                    back = {p: i for i, p in enumerate(perm)}
                    tab = [[perm[base.mul(back[a], back[b])] for b in range(n)]
                           for a in range(n)]
                else:
                    # swap two entries of a row, keeping the identity and the
                    # inverses in place, so only associativity can fail
                    tab = [list(r) for r in base.table]
                    a = rng.randrange(1, n)
                    b, c = rng.sample([y for y in range(1, n) if tab[a][y]], 2)
                    tab[a][b], tab[a][c] = tab[a][c], tab[a][b]
                try:
                    FiniteGroup(tab)
                    accepted = True
                except ValueError as e:
                    assert str(e) == "operation is not associative"
                    accepted = False
                assert accepted == associative_reference(tab)
                verdicts.append(accepted)
        assert 20 <= sum(verdicts) <= len(verdicts) - 100

    def test_generators_reach_every_element(self):
        for g in (FiniteGroup.abelian([2, 2, 4]), FiniteGroup.dihedral(6),
                  FiniteGroup.dicyclic(4), FiniteGroup.abelian([2])):
            reached, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for h in g.generators:
                    if g.mul(x, h) not in reached:
                        reached.add(g.mul(x, h))
                        frontier.append(g.mul(x, h))
            assert reached == set(range(g.order))

    def test_order_512_table_checked_quickly(self):
        table = FiniteGroup.abelian([8, 64]).table
        start = time.perf_counter()
        FiniteGroup(table)
        assert time.perf_counter() - start < 2.0


class TestFiniteGroup:
    def test_abelian_constructor(self):
        g = FiniteGroup.abelian([2, 2])
        assert g.order == 4
        assert element_tuple(g, 3) == (1, 1)
        assert g.index_of_tuple([1, 1]) == 3
        # each coordinate runs from 0 to k - 1, with no wrap-around
        for bad in ([2, 0], [0, -1]):
            with pytest.raises(ValueError, match="outside 0..1"):
                g.index_of_tuple(bad)
        assert g.mul(1, 2) == 3
        assert g.inv(3) == 3

    def test_abelian_table_matches_tuple_addition(self):
        lists = invariant_lists(64)
        assert len(lists) == 440
        for inv in lists:
            g = FiniteGroup.abelian(inv)
            assert g.table == tuple(map(tuple, abelian_table_reference(inv))), inv
            for i, e in enumerate(iter_product(*[range(k) for k in inv])):
                assert element_tuple(g, i) == e
                assert g.index_of_tuple(e) == i

    def test_identity_must_be_element_zero(self):
        # swap the roles of 0 and 1 in Z/2 x Z/2 style table
        with pytest.raises(ValueError):
            FiniteGroup([[1, 0], [0, 1]])

    @pytest.mark.parametrize("table", [[[0, 1.0], [1.0, 0]], [[0, True], [True, 0]],
                                       [[0, "1"], ["1", 0]]],
                             ids=["float", "bool", "str"])
    def test_table_refuses_non_integer_entries(self, table):
        with pytest.raises(ValueError, match="multiplication table entries must be integers"):
            FiniteGroup(table)

    def test_associativity_checked(self):
        bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(ValueError):
            FiniteGroup(bad)

    def test_dihedral(self):
        d4 = FiniteGroup.dihedral(4)
        assert d4.order == 8
        assert 1 not in d4.center
        assert d4.central_involutions() == [2]
        assert element_order(d4, 4) == 2

    def test_dicyclic(self):
        q8 = FiniteGroup.dicyclic(2)
        assert q8.order == 8
        assert q8.central_involutions() == [2]
        assert element_order(q8, 4) == 4
        dic3 = FiniteGroup.dicyclic(3)
        assert dic3.order == 12
        assert dic3.central_involutions() == [3]

    @pytest.mark.parametrize("invariants", [["4"], [4.0], [True, 2], [2, 2.5]],
                             ids=["str", "float", "bool", "fraction"])
    def test_abelian_refuses_non_integer_orders(self, invariants):
        with pytest.raises(ValueError, match="cyclic orders must be integers"):
            FiniteGroup.abelian(invariants)

    def test_center_is_the_commuting_elements(self):
        for g in builtin_groups(16):
            t = g.table
            assert g.center == {a for a in range(g.order)
                                if all(t[a][b] == t[b][a] for b in range(g.order))}, g

    def test_central_involutions_abelian(self):
        g = FiniteGroup.abelian([2, 2, 2])
        assert len(g.central_involutions()) == 7
        z12 = FiniteGroup.abelian([12])
        assert z12.central_involutions() == [6]


class TestCosetSpace:
    def test_trivial_subgroup(self):
        g = FiniteGroup.abelian([4])
        cs = CosetSpace(g, [0])
        assert cs.size == 4
        assert cs.act(1, 2) == 3

    def test_proper_subgroup(self):
        g = FiniteGroup.abelian([2, 2])
        cs = CosetSpace(g, [0, 1])
        assert cs.size == 2
        assert cs.cosets == ((0, 1), (2, 3))
        assert cs.act(2, 0) == 1
        assert cs.act(2, 1) == 0

    def test_subgroup_closure_enforced(self):
        g = FiniteGroup.abelian([4])
        with pytest.raises(ValueError):
            CosetSpace(g, [0, 1])

    @pytest.mark.parametrize("subgroup", [[0, 1.0], ["0", "1"], [0, True], [0, 1, True]],
                             ids=["float", "str", "bool", "bool-beside-its-int"])
    def test_subgroup_refuses_non_integer_elements(self, subgroup):
        with pytest.raises(ValueError, match="subgroup elements must be integers"):
            CosetSpace(FiniteGroup.abelian([2, 2]), subgroup)


class TestValidate:
    # a datum is checked where it is made: the constructor raises
    # ValueError naming every violation, joined by "; "
    def test_elliptic_ok(self):
        g = FiniteGroup.abelian([2])
        d = datum(g, 1, [0])
        assert cm_core._problems(d) == []

    def test_phi_not_partition(self):
        g = FiniteGroup.abelian([2])
        with pytest.raises(ValueError) as err:
            datum(g, 1, [0, 1])
        assert str(err.value) == "factor 0: phi and its conjugate do not partition the cosets"

    def test_conjugation_not_involution(self):
        g = FiniteGroup.abelian([4])
        with pytest.raises(ValueError) as err:
            datum(g, 1, [0, 1])
        assert str(err.value) == ("conjugation squared is not the identity; "
                                  "factor 0: phi and its conjugate do not partition the cosets")

    def test_conjugation_not_central(self):
        d4 = FiniteGroup.dihedral(4)
        # the reflection s (index 4) is an involution but not central
        t = trivial_type(d4, [0, 1, 4, 5])
        with pytest.raises(ValueError) as err:
            CMDatum(d4, 4, (t,))
        assert "conjugation is not central" in str(err.value).split("; ")

    def test_no_factors(self):
        g = FiniteGroup.abelian([2])
        with pytest.raises(ValueError) as err:
            CMDatum(g, 1, ())
        assert str(err.value) == "datum has no factors"

    @pytest.mark.parametrize("conj, phis, message", [
        (True, [[0]], "conjugation must be an integer"),
        (1.0, [[0]], "conjugation must be an integer"),
        ("1", [[0]], "conjugation must be an integer"),
        (2, [[0]], "conjugation index 2 out of range"),
        (-1, [[0]], "conjugation index -1 out of range"),
        (0, [[0]], "conjugation equals the identity; "
                   "factor 0: phi and its conjugate do not partition the cosets"),
        (1, [[True]], "factor 0: phi entries must be integers"),
        (1, [[0.0]], "factor 0: phi entries must be integers"),
        (1, [["0"]], "factor 0: phi entries must be integers"),
        (1, [[0], [1.0]], "factor 1: phi entries must be integers"),
        (1, [[2]], "factor 0: phi contains an invalid coset index"),
    ], ids=["bool-conj", "float-conj", "str-conj", "conj-past-order", "negative-conj",
            "identity-conj", "bool-phi", "float-phi", "str-phi", "second-factor-phi",
            "phi-past-cosets"])
    def test_constructor_names_each_problem(self, conj, phis, message):
        # a bool conj or phi entry once built, and a float or str one
        # ended in a bare TypeError
        g = FiniteGroup.abelian([2])
        with pytest.raises(ValueError) as err:
            datum(g, conj, *phis)
        assert str(err.value) == message

    def test_factor_over_another_group(self):
        c2, c4 = FiniteGroup.abelian([2]), FiniteGroup.abelian([4])
        with pytest.raises(ValueError) as err:
            CMDatum(c4, 2, (trivial_type(c4, [0, 1]), trivial_type(c2, [0])))
        assert str(err.value) == "factor 1 lives over a different group"


def is_primitive_reference(t: CMType, conj: int) -> bool:
    """The earlier `is_primitive` loop, through `CosetSpace.act` calls."""
    group = t.space.group
    phi = t.phi
    if {t.space.act(conj, s) for s in phi} & phi:
        raise ValueError("type is not valid for the given conjugation")
    for g in range(1, group.order):
        if all(t.space.act(g, s) in phi for s in phi):
            return False
    return True


def verdict(decide, t: CMType, conj: int):
    try:
        return decide(t, conj)
    except ValueError as e:
        return str(e)


class TestPrimitivity:
    def test_same_verdict_as_the_reference_up_to_order_16(self):
        # every type over the trivial subgroup, and one half of each
        # group that meets its conjugate
        verdicts = {}
        for group in builtin_groups(16):
            space = CosetSpace(group, [0])
            for conj in group.central_involutions():
                invalid = CMType(space, frozenset([0, conj]))
                for t in enumerate_types(group, conj) + [invalid]:
                    got = verdict(is_primitive, t, conj)
                    assert got == verdict(is_primitive_reference, t, conj), (group.name, t)
                    verdicts[got] = verdicts.get(got, 0) + 1
        assert set(verdicts) == {True, False, "type is not valid for the given conjugation"}
        assert verdicts[True] > 1000 and verdicts[False] > 1000

    def test_quartic_primitive(self):
        g = FiniteGroup.abelian([4])
        assert is_primitive(trivial_type(g, [0, 1]), 2)

    def test_biquadratic_imprimitive(self):
        g = FiniteGroup.abelian([2, 2])
        # translation by (1,0) = index 2 fixes this choice
        assert not is_primitive(trivial_type(g, [0, 2]), 3)

    def test_elliptic_primitive(self):
        g = FiniteGroup.abelian([2])
        assert is_primitive(trivial_type(g, [0]), 1)

    def test_nontrivial_subgroup_unsupported(self):
        g = FiniteGroup.abelian([2, 2])
        t = CMType(CosetSpace(g, [0, 2]), frozenset([0]))
        with pytest.raises(UnsupportedInputError):
            is_primitive(t, 1)


class TestEnumerate:
    def test_counts_single_groups(self):
        g2 = FiniteGroup.abelian([2])
        assert len(enumerate_types(g2, 1)) == 2
        assert len(enumerate_types(g2, 1, up_to_translation=True)) == 1
        g4 = FiniteGroup.abelian([4])
        assert len(enumerate_types(g4, 2)) == 4
        assert len(enumerate_types(g4, 2, up_to_translation=True)) == 1
        g22 = FiniteGroup.abelian([2, 2])
        assert len(enumerate_types(g22, 3)) == 4
        assert len(enumerate_types(g22, 3, up_to_translation=True)) == 2

    def test_raw_count_matches_power_of_two(self):
        groups = [FiniteGroup.abelian(inv) for inv in
                  ([2], [4], [2, 2], [6], [8], [4, 2], [2, 2, 2],
                   [10], [12], [6, 2], [16], [8, 2], [4, 4], [4, 2, 2],
                   [2, 2, 2, 2], [14])]
        groups += [FiniteGroup.dihedral(4), FiniteGroup.dihedral(6),
                   FiniteGroup.dihedral(8), FiniteGroup.dicyclic(2),
                   FiniteGroup.dicyclic(3), FiniteGroup.dicyclic(4)]
        for g in groups:
            for c in g.central_involutions():
                raw = enumerate_types(g, c)
                assert len(raw) == 2 ** (g.order // 2)
                assert len(set(t.phi for t in raw)) == len(raw)
                for t in raw[:8]:
                    image = {g.mul(c, x) for x in t.phi}
                    assert not (image & t.phi)
                    assert len(image | t.phi) == g.order

    def test_translation_classes_partition_raw(self):
        g = FiniteGroup.abelian([8])
        c = 4
        raw = enumerate_types(g, c)
        reps = enumerate_types(g, c, up_to_translation=True)
        covered = set()
        for r in reps:
            for t in range(g.order):
                covered.add(frozenset(g.mul(t, x) for x in r.phi))
        assert covered == {t.phi for t in raw}

    def test_representatives_are_the_orbit_minima(self):
        # the rule kept as reference: a raw type represents its class when
        # it is the least of its whole orbit, sorted as tuples; the
        # enumeration instead forms each orbit once, at its first member
        classes = 0
        for g in builtin_groups(16):
            for c in g.central_involutions():
                reference = [
                    t for t in enumerate_types(g, c)
                    if t.phi_sorted() == min(tuple(sorted(g.mul(h, x) for x in t.phi))
                                             for h in range(g.order))]
                assert enumerate_types(g, c, up_to_translation=True) == reference, (g, c)
                classes += len(reference)
        assert classes == 914

    def test_each_class_lists_its_distinct_translates(self):
        # the classes `verify` walks: each first member with its distinct
        # translates g.phi in order of g, the classes partitioning the raw
        # types
        for g in builtin_groups(12):
            for c in g.central_involutions():
                raw = enumerate_types(g, c)
                classes = cm_core._translation_classes(raw)
                assert [t for t, _ in classes] == enumerate_types(g, c, up_to_translation=True)
                for t, translates in classes:
                    assert translates == list(dict.fromkeys(
                        frozenset(g.mul(h, x) for x in t.phi) for h in range(g.order)))
                members = [phi for _, translates in classes for phi in translates]
                assert sorted(tuple(sorted(phi)) for phi in members) == [t.phi_sorted() for t in raw]

    def test_invalid_conjugation(self):
        # the datum's rule for a conjugation, with its messages
        g = FiniteGroup.abelian([4])
        with pytest.raises(ValueError, match="^conjugation squared is not the identity$"):
            enumerate_types(g, 1)
        with pytest.raises(ValueError, match="^conjugation equals the identity$"):
            enumerate_types(g, 0)
        with pytest.raises(ValueError, match="^conjugation index 4 out of range$"):
            enumerate_types(g, 4)
        with pytest.raises(ValueError, match="^conjugation must be an integer$"):
            enumerate_types(FiniteGroup.abelian([2]), True)
        with pytest.raises(ValueError, match="^conjugation is not central$"):
            enumerate_types(FiniteGroup.dihedral(4), 4)


class TestAutomorphisms:
    def test_klein_group(self):
        g = FiniteGroup.abelian([2, 2])
        auts = automorphisms(g)
        assert len(auts) == 6
        for a in auts:
            assert a[0] == 0
            for x in range(4):
                for y in range(4):
                    assert a[g.mul(x, y)] == g.mul(a[x], a[y])

    def test_cyclic(self):
        g = FiniteGroup.abelian([8])
        auts = automorphisms(g)
        assert len(auts) == 4
