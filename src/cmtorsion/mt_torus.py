"""Character system of the torus attached to a CM datum.

The orbit matrix pairs every character of the ambient torus against the
group orbit of the distinguished cocharacter: row g, column (factor,
coset s) holds 1 exactly when s lies in g translated across the
factor's chosen half.  Everything downstream (rank, defect, optimal
exponent, finite-level degrees) is computed from this integer matrix.
The build runs the echelon phase of one Hermite elimination H = U M of
it, U unimodular (Cohen, A Course in Computational Algebraic Number
Theory, 2.4), on one row of each pair {g, c.g} and the all-ones row,
which span the same lattice (`_half_rows`): E has the rank and pivots
of H.  The orbit rows are read through a plan formed once per coset
space (`_plan`).  The system keeps E and the characters, the columns of
the orbit matrix; the rest is computed on first read: H by the
reduction phase, its columns `char_coords`, which hold the coordinates
of the characters in the saturated character lattice, the divisors of
H (with their product, the saturation index) off its pivots
(`exact_linalg.hermite_divisors`), and the saturated cocharacter
lattice, the kernel of the kernel of the rows of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import add, itemgetter
from typing import Sequence

from .cm_core import CMDatum, CosetSpace, InvariantError
from .exact_linalg import (
    IntMatrix,
    all_ints,
    elementary_divisors,
    hermite_divisors,
    hermite_echelon,
    hermite_reduce,
    integer_kernel,
)


class DuplicateCharactersError(Exception):
    """Two character columns coincide: the datum has a repeated factor.

    The analysis in this package assumes pairwise distinct characters;
    data violating that are reported, not silently accepted.
    """

    def __init__(self, i: int, j: int):
        super().__init__(
            f"characters {i} and {j} coincide; the datum has a repeated isogeny factor")
        self.indices = (i, j)


@dataclass(frozen=True)
class CharacterSystem:
    """The characters of a CM datum plus the derived lattice data.

    `echelon` holds the rows of the build's echelon basis E, `pivots` the
    (column, value) of each one's pivot: a lattice fixes those of every
    echelon basis with positive pivots, so they are H's, and their number
    is `dim`.  H and its columns `char_coords` are formed on first read:
    each character in the basis of the saturated character lattice
    formed by the first `dim` columns of U^-1.  Callers may read only
    quantities that do not depend on the choice of that basis.  The
    `characters` are the columns of the orbit matrix.  The divisors and
    the cocharacter basis are read off H, as `char_coords` are not.
    """

    datum: CMDatum
    genus: int
    dim: int
    characters: tuple[tuple[int, ...], ...]
    column_labels: tuple[tuple[int, int], ...]
    echelon: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]

    @cached_property
    def hermite(self) -> IntMatrix:
        """The Hermite form H of the orbit matrix: E after the reduction phase."""
        return hermite_reduce(list(self.echelon), [j for j, _ in self.pivots],
                              len(self.characters))

    @cached_property
    def char_coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.hermite.rows))

    @cached_property
    def divisors(self) -> tuple[int, ...]:
        """The nonzero elementary divisors of H, which are those of the
        2g x dim matrix of all `char_coords` (its transpose), read off
        its pivots."""
        return hermite_divisors(self.hermite, self.pivots)

    @property
    def saturation_index(self) -> int:
        return prod(self.divisors)

    @property
    def defect(self) -> int:
        """Codimension of the torus under the largest possible rank g + 1."""
        return self.genus + 1 - self.dim

    @cached_property
    def cochar_basis(self) -> IntMatrix:
        """Hermite basis of the saturated cocharacter lattice.

        The saturation of the rows of H is the kernel of their kernel;
        raises InvariantError when its index, the product of the plain
        elementary divisors of H, is not `saturation_index`, read off the
        pivots.
        """
        index = prod(elementary_divisors(self.hermite))
        if index != self.saturation_index:
            raise InvariantError(
                f"saturation index {index} disagrees with the build's {self.saturation_index}")
        return integer_kernel(integer_kernel(self.hermite))


def _plan(space: CosetSpace, conj: int, offset: int = 0) -> tuple:
    """The build's data that depend on `space`, its group and `conj`, not
    on phi, formed on the first call and kept in `space.plans`: for each
    g, the getter of the action row of g^-1 (row g of the orbit matrix);
    for each generator h, the getters of the columns (h.s) and the rows
    h^-1 g; the action row of `conj`, checked to pair each coset back
    (`offset` is the space's first column); the g < c.g (`_half_rows`).
    The plans of a space share its getters, which return tuples."""
    plan = space.plans.get(conj)
    if plan is None:
        group = space.group
        pairing = space.action_row(conj)
        for k, pk in enumerate(pairing):
            if pairing[pk] != k:
                raise InvariantError(f"conjugation does not pair character {offset + k} back")
        getters, moves = next(iter(space.plans.values()))[:2] if space.plans else (
            [itemgetter(*space.action_row(ginv)) for ginv in group.inverses],
            [(itemgetter(*space.action_row(h)), itemgetter(*group.table[group.inv(h)]))
             for h in group.generators])
        plan = space.plans[conj] = (
            getters, moves, pairing, [g for g in range(group.order) if g < group.mul(conj, g)])
    return plan


def _orbit_matrix(datum: CMDatum) -> tuple[tuple, list, tuple]:
    """Column labels, rows and columns (the characters) of the orbit matrix.

    Row g marks the translated halves g.phi_i: column (i, s) holds 1
    exactly when g^-1 s lies in phi_i, so the row is the 0/1 indicator
    of each phi_i read through the action row of g^-1.  Raises
    DuplicateCharactersError for the first pair i < j of equal columns.
    """
    labels = []
    rows = None
    for fi, factor in enumerate(datum.factors):
        getters = _plan(factor.space, datum.conj, len(labels))[0]
        # phi and its conjugate partition the cosets, so the columns of
        # a factor are indexed by the whole coset space
        labels.extend((fi, s) for s in range(factor.space.size))
        indicator = [0] * factor.space.size
        for t in factor.phi:
            indicator[t] = 1
        part = [get(indicator) for get in getters]
        rows = part if rows is None else list(map(add, rows, part))

    columns = tuple(zip(*rows))
    copies: dict[tuple[int, ...], list[int]] = {}
    for j, col in enumerate(columns):
        copies.setdefault(col, []).append(j)
    # classes in order of their first column: the first repeated one
    # holds the pair (i, j) with i, then j, least
    repeated = next((js for js in copies.values() if len(js) > 1), None)
    if repeated:
        raise DuplicateCharactersError(repeated[0], repeated[1])
    return tuple(labels), rows, columns


def _half_rows(datum: CMDatum, rows: Sequence[Sequence[int]]) -> list[Sequence[int]]:
    """One of each pair {g, c.g} of the orbit matrix's `rows`, then all ones.

    Lemma: row c.g is the all-ones row minus row g.  Column (i, s) of row
    c.g holds 1 when s lies in c.g.phi_i = g.(c.phi_i), c being central,
    and `CMDatum` checks that c.phi_i is the complement of phi_i, so
    exactly when s does not lie in g.phi_i.  Every row of the orbit
    matrix is thus an integer combination of these rows, and the all-ones
    row is the sum of rows g and c.g, so both span the same lattice.
    """
    half = [rows[g] for g in _plan(datum.factors[0].space, datum.conj)[3]]
    half.append((1,) * len(rows[0]))
    return half


def build_character_system(datum: CMDatum) -> CharacterSystem:
    """Build and sanity-check the character system of a datum.

    A `CMDatum` is valid once made, so the build checks no input.  It
    raises DuplicateCharactersError when two columns coincide, and
    InvariantError when a sanity check fails.  The column sums and the
    equivariance are the hypotheses under which `alpha_engine` reads the
    exponent off the factor unions.  The build stops at the echelon
    phase: no single-factor report reads the Hermite form.
    """
    labels, rows, columns = _orbit_matrix(datum)
    plans = [_plan(factor.space, datum.conj) for factor in datum.factors]
    group = datum.group
    n = group.order
    genus = len(labels) // 2
    offsets = [k for k, (_, s) in enumerate(labels) if s == 0]
    blocks = [columns[k:k + f.space.size] for k, f in zip(offsets, datum.factors)]

    weight = (1,) * n
    for block, (_, _, pairing, _) in zip(blocks, plans):
        for k, pk in enumerate(pairing):
            # pk < k added the same two columns already
            if k <= pk and tuple(map(add, block[k], block[pk])) != weight:
                raise InvariantError("conjugate characters must sum to the weight")

    # |phi| |H| = |G|/2 ones per column, whatever the subgroup H
    for j, col in enumerate(columns):
        if sum(col) != n // 2:
            raise InvariantError(f"column {j} does not pair half the orbit")
    # column (i, h.s) is column (i, s) read at row h^-1 g in row g
    for i, h in enumerate(group.generators):
        for block, (_, moves, _, _) in zip(blocks, plans):
            moved_columns, moved_rows = moves[i]
            if moved_columns(block) != tuple(map(moved_rows, block)):
                raise InvariantError(f"the orbit matrix is not equivariant under element {h}")

    # the echelon phase of H = U M.  Row c.g is the all-ones row minus
    # row g (see `_half_rows`), so half the rows and that one span the
    # row lattice of M.  A repeated row adds nothing to the lattice, so
    # one copy of each goes into the elimination.
    rows, pivots = hermite_echelon(IntMatrix.from_rows(dict.fromkeys(_half_rows(datum, rows))))
    d = len(rows)
    if not 2 <= d <= genus + 1:
        raise InvariantError("torus rank out of the admissible range")

    return CharacterSystem(
        datum=datum,
        genus=genus,
        dim=d,
        characters=columns,
        column_labels=labels,
        echelon=tuple(map(tuple, rows)),
        pivots=tuple((j, row[j]) for j, row in zip(pivots, rows)),
    )


def _selected_characters(cs: CharacterSystem, indices: Sequence[int]) -> IntMatrix:
    """The `cochar_basis` columns of the selected characters, as rows.

    A character enters through its pairings with that basis, not through
    `char_coords`, so the `integer_kernel` of these rows is a Hermite
    basis of the cocharacters annihilating the selection.  Raises
    ValueError for an empty selection or an index outside the characters.
    """
    if not all_ints(indices):
        raise ValueError("character indices must be integers")
    idx = sorted(set(indices))
    if not idx:
        raise ValueError("empty character selection")
    if any(not 0 <= i < 2 * cs.genus for i in idx):
        raise ValueError("character index out of range")
    b = cs.cochar_basis
    columns = b.columns()
    return IntMatrix.from_rows([columns[j] for j in idx], cols=len(b.rows))
