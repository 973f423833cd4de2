"""Character system of the torus attached to a CM datum.

The orbit matrix pairs every character of the ambient torus against the
group orbit of the distinguished cocharacter: row g, column (factor,
coset s) holds 1 exactly when s lies in g translated across the
factor's chosen half.  Everything downstream (rank, defect, optimal
exponent, finite-level degrees) is computed from this integer matrix.
The build runs one Hermite elimination H = U M of it, U unimodular
(Cohen, A Course in Computational Algebraic Number Theory, 2.4): the
rows of H are a basis of the row lattice, so their number is the rank,
and column j of H holds the coordinates of character j in the saturated
character lattice.  The elimination takes only one row of each pair
{g, c.g} and the all-ones row, which span the same lattice
(`_half_rows`), straight from the orbit rows.  The system keeps H and
the characters, the columns of the orbit matrix; the rest is computed
on first read: the divisors of H (with their product, the saturation
index) off its pivots (`exact_linalg.hermite_divisors`), and the
saturated cocharacter lattice, the kernel of the kernel of the rows of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import prod
from operator import add, itemgetter
from typing import Sequence

from .cm_core import CMDatum, InvariantError
from .exact_linalg import (
    IntMatrix,
    all_ints,
    elementary_divisors,
    hermite_divisors,
    hermite_normal_form,
    hermite_pivots,
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

    `hermite` is the build's Hermite form H = U M of the orbit matrix,
    and `char_coords` are its columns: each character in the basis of
    the saturated character lattice formed by the first `dim` columns of
    U^-1.  Callers may read only quantities that do not depend on the
    choice of that basis.  The `characters` are the columns of the
    orbit matrix.  The divisors and the cocharacter basis are computed
    on first read, from H, so a system whose `char_coords` are replaced
    by another basis keeps them.
    """

    datum: CMDatum
    genus: int
    dim: int
    characters: tuple[tuple[int, ...], ...]
    column_labels: tuple[tuple[int, int], ...]
    char_coords: tuple[tuple[int, ...], ...]
    hermite: IntMatrix

    @cached_property
    def pivots(self) -> list[tuple[int, int]]:
        """(column, value) of the pivot of each row of H."""
        return hermite_pivots(self.hermite)

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


def _orbit_matrix(datum: CMDatum) -> tuple[tuple, list, tuple]:
    """Column labels, rows and columns (the characters) of the orbit matrix.

    Row g marks the translated halves g.phi_i: column (i, s) holds 1
    exactly when g^-1 s lies in phi_i, so the row is the 0/1 indicator
    of each phi_i read through the action row of g^-1.  Raises
    DuplicateCharactersError for the first pair i < j of equal columns.
    """
    labels = []
    indicators = []
    for fi, factor in enumerate(datum.factors):
        # phi and its conjugate partition the cosets, so the columns of
        # a factor are indexed by the whole coset space
        labels.extend((fi, s) for s in range(factor.space.size))
        indicator = [0] * factor.space.size
        for t in factor.phi:
            indicator[t] = 1
        indicators.append((indicator, factor.space))
    # a coset space holds at least two cosets, phi and its complement,
    # so each itemgetter returns a tuple
    rows = [tuple(chain.from_iterable(itemgetter(*space.action_row(ginv))(indicator)
                                      for indicator, space in indicators))
            for ginv in datum.group.inverses]

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
    group, c = datum.group, datum.conj
    half = [rows[g] for g in range(group.order) if g < group.mul(c, g)]
    half.append((1,) * len(rows[0]))
    return half


def build_character_system(datum: CMDatum) -> CharacterSystem:
    """Build and sanity-check the character system of a datum.

    A `CMDatum` is valid once made, so the build checks no input.  It
    raises DuplicateCharactersError when two columns coincide, and
    InvariantError when a sanity check fails.  The column sums and the
    equivariance are the hypotheses under which `alpha_engine` reads the
    exponent off the factor unions.
    """
    labels, rows, columns = _orbit_matrix(datum)
    group = datum.group
    n = group.order
    genus = len(labels) // 2
    offsets = [k for k, (_, s) in enumerate(labels) if s == 0]

    def translated(h: int) -> list[int]:
        # the index of column (i, h.s), at the index of column (i, s)
        return [off + t for off, factor in zip(offsets, datum.factors)
                for t in factor.space.action_row(h)]

    pairing = tuple(translated(datum.conj))
    weight = (1,) * n
    for k, pk in enumerate(pairing):
        if pairing[pk] != k:
            raise InvariantError(f"conjugation does not pair character {k} back")
        # pk < k added the same two columns already
        if k <= pk and tuple(map(add, columns[k], columns[pk])) != weight:
            raise InvariantError("conjugate characters must sum to the weight")

    # |phi| |H| = |G|/2 ones per column, whatever the subgroup H
    for j, col in enumerate(columns):
        if sum(col) != n // 2:
            raise InvariantError(f"column {j} does not pair half the orbit")
    # column (i, h.s) is column (i, s) read at row h^-1 g in row g
    for h in group.generators:
        moved_rows = itemgetter(*group.table[group.inv(h)])
        if itemgetter(*translated(h))(columns) != tuple(map(moved_rows, columns)):
            raise InvariantError(f"the orbit matrix is not equivariant under element {h}")

    # one Hermite form H = U M: since M = U^-1 H, character j is the sum
    # of H[i][j] times column i of U^-1.  Row c.g is the all-ones row
    # minus row g (see `_half_rows`), so half the rows and that one span
    # the row lattice of M, and H is its canonical Hermite form.  A
    # repeated row adds nothing to the lattice, so one copy of each goes
    # into the elimination.
    hermite = hermite_normal_form(IntMatrix.from_rows(dict.fromkeys(_half_rows(datum, rows))))
    d = len(hermite.rows)
    if not 2 <= d <= genus + 1:
        raise InvariantError("torus rank out of the admissible range")

    return CharacterSystem(
        datum=datum,
        genus=genus,
        dim=d,
        characters=columns,
        column_labels=labels,
        char_coords=tuple(zip(*hermite.rows)),
        hermite=hermite,
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
