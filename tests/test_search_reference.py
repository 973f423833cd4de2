"""The flat search against the search it replaced.

`search_reference` is the earlier `alpha_engine._search`: it expands a
span by inserting each outside character into its own copy, closes the
result by testing every character for membership, and deduplicates by
basis key.  The shipped search must agree with it on every field of the
outcome, the witness basis and the visit count included.
"""

import heapq
from fractions import Fraction
from typing import Sequence

import pytest

from cmtorsion.alpha_engine import _search, _SearchOutcome
from cmtorsion.cm_core import CMDatum, CMType, CosetSpace, FiniteGroup, enumerate_types
from cmtorsion.documents import load_datum
from cmtorsion.exact_linalg import IntSpanBasis
from cmtorsion.mt_torus import DuplicateCharactersError, build_character_system
from cmtorsion.verify import builtin_groups

# A two-factor datum over C8, the smallest product the benchmark warms up on.
C8_PRODUCT = ('{"conj":4,"factors":[{"phi":[0,1,2,3]},{"phi":[0,1,3,6]}],'
              '"group":{"kind":"abelian","invariants":[8]}}')


def _closure(columns: Sequence[tuple[int, ...]], basis: IntSpanBasis) -> tuple[int, ...]:
    return tuple(i for i, col in enumerate(columns) if basis.contains(col))


def search_reference(columns: Sequence[tuple[int, ...]]) -> _SearchOutcome:
    m = len(columns)
    if m == 0:
        raise ValueError("no characters to search")
    width = len(columns[0])

    full = IntSpanBasis(width)
    for col in columns:
        full.insert(col)
    d = full.dim
    all_indices = tuple(range(m))
    incumbent_ratio = Fraction(m, d)
    incumbent = (d, all_indices, full)
    cor_ok = m <= 2 ** (d - 1) if d >= 1 else False

    def future_cap(dim_from: int) -> Fraction:
        best = Fraction(0)
        for mp in range(dim_from, d + 1):
            cap = min(m, 2 ** (mp - 1))
            best = max(best, Fraction(cap, mp))
        return best

    heap: list[tuple[int, tuple[int, ...]]] = []
    seen_keys = set()
    by_handle: dict[tuple[int, tuple[int, ...]], IntSpanBasis] = {}
    for i in range(m):
        basis = IntSpanBasis(width)
        basis.insert(columns[i])
        key = basis.key()
        if key in seen_keys:
            continue
        seen_keys.add(key)
        contained = _closure(columns, basis)
        handle = (basis.dim, contained)
        if handle not in by_handle:
            by_handle[handle] = basis
            heapq.heappush(heap, handle)

    visited = 0
    while heap:
        dim, contained = heapq.heappop(heap)
        basis = by_handle.pop((dim, contained))
        visited += 1
        n = len(contained)
        if n > 2 ** (dim - 1):
            cor_ok = False
        ratio = Fraction(n, dim)
        if ratio > incumbent_ratio:
            incumbent_ratio = ratio
            incumbent = (dim, contained, basis)
        if dim >= d:
            continue
        if future_cap(dim + 1) <= incumbent_ratio:
            continue
        inside = set(contained)
        for j in range(m):
            if j in inside:
                continue
            child = basis.copy()
            child.insert(columns[j])
            key = child.key()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            child_contained = _closure(columns, child)
            handle = (child.dim, child_contained)
            if handle not in by_handle:
                by_handle[handle] = child
                heapq.heappush(heap, handle)

    dim, contained, basis = incumbent
    return _SearchOutcome(
        ratio=incumbent_ratio,
        contained=contained,
        dim=dim,
        basis=basis,
        full_dim=d,
        counting_bound_ok=cor_ok,
        spans_visited=visited,
    )


def _fields(outcome: _SearchOutcome) -> tuple:
    return (outcome.ratio, outcome.contained, outcome.dim, outcome.basis.key(),
            outcome.full_dim, outcome.counting_bound_ok, outcome.spans_visited)


def catalogue_systems(max_order: int):
    """Every buildable single-factor translation class up to the order."""
    for group in builtin_groups(max_order):
        for conj in group.central_involutions():
            for t in enumerate_types(group, conj, up_to_translation=True):
                try:
                    yield build_character_system(CMDatum(group, conj, (t,)))
                except DuplicateCharactersError:
                    continue


def quadratic_pair():
    group = FiniteGroup.abelian([2, 2])
    f1 = CMType(CosetSpace(group, [0, 1]), frozenset([0]))
    f2 = CMType(CosetSpace(group, [0, 2]), frozenset([0]))
    return build_character_system(CMDatum(group, 3, (f1, f2)))


class TestAgainstReference:
    def test_catalogue_up_to_order_12(self):
        count = 0
        for cs in catalogue_systems(12):
            assert _fields(_search(cs.characters)) == \
                _fields(search_reference(cs.characters)), cs.datum
            count += 1
        assert count == 44

    @pytest.mark.parametrize("make", [
        quadratic_pair,
        lambda: build_character_system(load_datum(C8_PRODUCT)),
    ], ids=["C2xC2", "C8"])
    def test_two_factor_joints(self, make):
        cs = make()
        assert len(cs.datum.factors) == 2
        assert _fields(_search(cs.characters)) == _fields(search_reference(cs.characters))
