"""Sweep the built-in group catalogue and check every known invariant.

One representative per translation class gets the full treatment
(exact report, shortcut agreement, bound checks, oracle comparison,
the duality of a fixed character selection); the remaining
translates only need their orbit matrices to be row permutations of the
representative's, which transports every checked statement to them.

The duality check (`perp_double_dual`) takes the saturated span S and
the perp P of the first g + 1 characters, both computed from Hermite
kernels, and checks them on other paths: S has as many rows as the
selection has rank (`IntSpanBasis`), the Hermite form of S stacked with
the selection is S, so S holds every selected character, and the
elementary divisors of S are all 1, so S is saturated; P annihilates
every selected character, has dim - rank rows and divisors all 1.
Together these determine both lattices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterator, Sequence

from .alpha_engine import ORACLE_CAP, alpha_oracle, build_report
from .cm_core import (
    CMDatum,
    CMType,
    FiniteGroup,
    _translation_classes,
    enumerate_types,
)
from .exact_linalg import (
    IntMatrix,
    IntSpanBasis,
    elementary_divisors,
    hermite_normal_form,
    integer_kernel,
)
from .finite_level import _miller_rabin
from .mt_torus import (
    CharacterSystem,
    DuplicateCharactersError,
    _orbit_matrix,
    _selected_characters,
    build_character_system,
)


# a group of order n has 2^(n/2) raw CM types per involution, which
# `enumerate_types` lists before it picks the translation classes
MAX_VERIFY_ORDER = 32


def _invariant_chains(order: int, minimum: int = 2) -> Iterator[tuple[int, ...]]:
    # ascending divisor chains d1 | d2 | ... with product = order; every
    # call has order >= minimum >= 2, the recursion order // d >= d
    d = minimum
    while d * d <= order:
        if order % d == 0:
            for rest in _invariant_chains(order // d, d):
                if rest[0] % d == 0:
                    yield (d,) + rest
        d += 1
    yield (order,)


def builtin_groups(max_order: int) -> list[FiniteGroup]:
    """Abelian, dihedral and dicyclic groups up to the given order.

    Together these exhaust the groups of order at most 15 that contain
    a central involution.
    """
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    groups: list[FiniteGroup] = []
    for order in range(2, max_order + 1):
        for chain in sorted(_invariant_chains(order)):
            groups.append(FiniteGroup.abelian(chain))
    for n in range(3, max_order // 2 + 1):
        groups.append(FiniteGroup.dihedral(n))
    for m in range(2, max_order // 4 + 1):
        groups.append(FiniteGroup.dicyclic(m))
    return groups


@dataclass
class VerifySummary:
    groups_seen: int = 0
    class_reps_checked: int = 0
    translates_checked: int = 0
    duplicates_skipped: int = 0
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def count(self, name: str, ok: bool, context: str):
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self.failures.append(f"{name}: {context}")


def _duality_conditions(cs: CharacterSystem, sel: Sequence[int]) -> tuple[bool, ...]:
    """The six conditions of the duality check on the characters `sel`,
    in the order of the module docstring."""
    selected = _selected_characters(cs, sel)
    rows = selected.rows
    span = IntSpanBasis(cs.dim)
    for row in rows:
        span.insert(row)
    perp = integer_kernel(selected)
    sat = integer_kernel(perp)
    return (len(sat.rows) == span.dim,
            hermite_normal_form(IntMatrix.from_rows(sat.rows + rows)) == sat,
            elementary_divisors(sat) == (1,) * len(sat.rows),
            not any(sum(map(mul, p, row)) for p in perp.rows for row in rows),
            len(perp.rows) == cs.dim - span.dim,
            elementary_divisors(perp) == (1,) * len(perp.rows))


def _check_class(summary: VerifySummary, group: FiniteGroup, conj: int, rep: CMType,
                 translates: Sequence[frozenset[int]]):
    # `translates`: the class's distinct translates in first-seen order
    label = f"{group.name} conj {conj} phi {sorted(rep.phi)}"
    space = rep.space
    try:
        rep_cs = build_character_system(CMDatum(group, conj, (rep,)))
    except DuplicateCharactersError:
        # every translate must then repeat a character as well
        for phi in translates:
            try:
                _orbit_matrix(CMDatum(group, conj, (CMType(space, phi),)))
                summary.count("duplicate_consistency", False,
                              f"{label} translate {sorted(phi)} built")
            except DuplicateCharactersError:
                summary.duplicates_skipped += 1
        return

    summary.class_reps_checked += 1
    report = build_report(rep_cs)
    for name, ok in report.bound_checks.items():
        summary.count(name, ok, label)
    g = rep_cs.genus
    if g >= 2:
        summary.count("strict_genus_bound", report.alpha < g, label)
    if rep_cs.defect <= 1:
        summary.count("shortcut_available", report.shortcut_used is not None, label)
    # Miller-Rabin takes odd numbers from 3; a representative is one
    # factor over the trivial subgroup, so the report checks the
    # primitive dimension bound exactly when that factor is primitive
    prime = g == 2 or (g > 2 and g % 2 == 1 and _miller_rabin(g))
    if prime and "primitive_dimension_bound" in report.bound_checks:
        summary.count("prime_genus_nondegenerate", rep_cs.defect == 0, label)
    if 2 * g <= ORACLE_CAP:
        summary.count("oracle_agreement",
                      alpha_oracle(rep_cs, cap=ORACLE_CAP) == report.alpha, label)
    # lattice duality on a fixed deterministic selection
    summary.count("perp_double_dual", all(_duality_conditions(rep_cs, range(g + 1))), label)

    rep_rows = sorted(zip(*rep_cs.characters))
    for phi in translates:
        if phi == rep.phi:
            continue
        try:
            other = _orbit_matrix(CMDatum(group, conj, (CMType(space, phi),)))[2]
        except DuplicateCharactersError:
            summary.count("translation_row_permutation", False,
                          f"{label} translate {sorted(phi)} degenerated")
            continue
        summary.translates_checked += 1
        summary.count("translation_row_permutation",
                      sorted(other) == rep_rows,
                      f"{label} translate {sorted(phi)}")


def run_verify(max_group_order: int = 12) -> VerifySummary:
    """Check every invariant across all built-in data up to the order.

    An order below 2 or above `MAX_VERIFY_ORDER` raises ValueError
    before any enumeration.
    """
    n = max_group_order
    if n < 2:
        raise ValueError("max_group_order must be at least 2")
    if n > MAX_VERIFY_ORDER:
        raise ValueError(f"max_group_order must be at most {MAX_VERIFY_ORDER}: order {n} "
                         f"has 2^{n // 2} raw CM types per involution")
    summary = VerifySummary()
    for group in builtin_groups(n):
        convs = group.central_involutions()
        if convs:
            summary.groups_seen += 1
        for conj in convs:
            for rep, translates in _translation_classes(enumerate_types(group, conj)):
                _check_class(summary, group, conj, rep, translates)
    return summary
