"""Exact integer matrix kernel.

Everything here is computed with arbitrary-precision integers; no
floating point and no fractions are used anywhere.  The kernel provides
the handful of lattice operations the rest of the package is built on:
the fraction-free echelon basis of a rational span (rank, membership
and its canonical key), and the Hermite normal form (canonical lattice
bases), the one lattice elimination, an echelon then a reduction phase.
The rest is read off Hermite forms: the elementary divisors off
alternating row and column forms (plain, or modulo a multiple of the
last one) or off the pivots of one (`hermite_divisors`), and the kernel
of m off one echelon basis of [m^T | I].
It also holds the package's one test of an integer input, `all_ints`.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from dataclasses import dataclass
from itertools import chain
from math import gcd, prod
from operator import add, sub
from typing import Iterable, Optional, Sequence


_INT_ONLY = frozenset((int,))


def all_ints(values: Iterable) -> bool:
    """Whether every value is an int and none a bool, though bool
    subclasses int: the package's one test of an integer input.  Int
    subclasses pass, and each distinct type is asked once, after one
    comparison that settles the common set of plain ints."""
    types = set(map(type, values))
    return types <= _INT_ONLY or all(issubclass(t, int) and t is not bool for t in types)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as its rows, each a tuple of
    `cols` ints; the width also shapes a matrix without rows."""

    rows: tuple[tuple[int, ...], ...]
    cols: int

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("negative matrix dimensions")
        widths = set(map(len, self.rows))
        if len(widths) > 1:
            raise ValueError("ragged rows")
        if widths and self.cols not in widths:
            raise ValueError("explicit column count disagrees with rows")
        if not all_ints(chain.from_iterable(self.rows)):
            raise ValueError("integer matrix with non-integer entry")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """The matrix of `rows`, `cols` wide, or as wide as its first row."""
        rows = tuple(map(tuple, rows))
        return cls(rows, len(rows[0]) if cols is None and rows else cols or 0)

    def columns(self) -> list[tuple[int, ...]]:
        # zip yields no column of a matrix without rows
        return list(zip(*self.rows)) if self.rows else [()] * self.cols


class IntSpanBasis:
    """Incremental integer echelon basis of a rational span.

    Rows are kept in a unique canonical shape: sorted by pivot column,
    each row primitive with positive pivot, and every pivot column zero
    in all other rows.  This is the reduced rational echelon form with
    denominators cleared, so `key()` identifies the subspace exactly.
    A step against a pivot 1 subtracts a multiple of its row, with no
    scaling and no gcd; a row is divided only by a content above 1.
    """

    __slots__ = ("width", "pivots", "rows")

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []

    def copy(self) -> "IntSpanBasis":
        dup = IntSpanBasis(self.width)
        dup.pivots = list(self.pivots)
        dup.rows = [list(r) for r in self.rows]
        return dup

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Sequence[int]) -> list[int]:
        # a positive multiple of vec reduced against every pivot: a unit
        # pivot needs neither the scaling nor the gcd, as callers that
        # keep the result make it primitive
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            b = v[p]
            if b:
                a = row[p]
                if a == 1:
                    v = list(map(sub, v, row)) if b == 1 else [x - b * y for x, y in zip(v, row)]
                    continue
                v = [a * x - b * y for x, y in zip(v, row)]
                # the content in one C call: faster than a Python scan
                # that stops at 1, even when the first entry is a unit
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        return v

    def direction(self, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        """The line of `vec` modulo the span; None when `vec` lies in it.

        The vector is reduced against every pivot and made primitive with
        a positive leading entry, so two vectors give equal directions
        exactly when they span the same line modulo the span.
        """
        v = self._reduce(vec)
        lead = next(filter(None, v), 0)
        if not lead:
            return None
        g = gcd(*v)
        if lead < 0:
            g = -g
        return tuple(v) if g == 1 else tuple(x // g for x in v)

    def insert(self, vec: Sequence[int]) -> bool:
        """Add a vector; returns True iff the span grew."""
        v = self.direction(vec)
        if v is None:
            return False
        a = next(filter(None, v))
        piv = v.index(a)
        # restore full reduction: clear the new pivot column in old rows;
        # a row keeps its positive pivot, times a > 0
        for k, row in enumerate(self.rows):
            b = row[piv]
            if b:
                if a == 1:
                    new = list(map(sub, row, v)) if b == 1 else [x - b * y for x, y in zip(row, v)]
                    # the content divides the row's own pivot
                    if row[self.pivots[k]] == 1:
                        self.rows[k] = new
                        continue
                else:
                    new = [a * x - b * y for x, y in zip(row, v)]
                g = gcd(*new)
                self.rows[k] = new if g == 1 else [x // g for x in new]
        at = bisect(self.pivots, piv)
        self.pivots.insert(at, piv)
        self.rows.insert(at, list(v))
        return True

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self.rows)


def _minus_multiple(row: Sequence[int], q: int, head: Sequence[int]) -> list[int]:
    # row - q * head, by plain subtraction or addition when q = 1 or -1
    if q == 1:
        return list(map(sub, row, head))
    if q == -1:
        return list(map(add, row, head))
    return [x - q * y for x, y in zip(row, head)]


def hermite_echelon(m: IntMatrix) -> tuple[list[Sequence[int]], list[int]]:
    """The echelon phase of `hermite_normal_form`: a basis of the row
    lattice (zero rows dropped) with positive pivots in increasing
    columns, and those pivot columns.

    Column by column, the Euclidean steps work only on the rows that are
    nonzero in that column (the others cannot take part in them), and a
    row leaves the elimination once it becomes zero.  A quotient of 1 or
    -1, the common one on 0/1 rows, subtracts or adds the row without
    multiplying.
    """
    nc = m.cols
    live = [row for row in m.rows if any(row)]
    done: list[Sequence[int]] = []
    pivots: list[int] = []
    for c in range(nc):
        active = [row for row in live if row[c]]
        if not active:
            continue
        live = [row for row in live if not row[c]]
        # Euclidean steps until a single row is nonzero in column c; the
        # head is the first row when its entry is a unit, else the least
        head = active[0]
        while len(active) > 1:
            p = head[c]
            if p != 1 and p != -1:
                head = min(active, key=lambda row: abs(row[c]))
                p = head[c]
            nxt = [head]
            for row in active:
                if row is not head:
                    row = _minus_multiple(row, row[c] // p, head)
                    if row[c]:
                        nxt.append(row)
                    elif any(row):
                        live.append(row)
            active = nxt
            head = active[0]
        done.append(head if head[c] > 0 else [-x for x in head])
        pivots.append(c)
        if not live:
            break
    return done, pivots


def hermite_reduce(rows: list[Sequence[int]], pivots: Sequence[int], cols: int) -> IntMatrix:
    """The reduction phase of `hermite_normal_form`, in place on the list
    of echelon `rows`, `cols` wide, with their pivot columns `pivots`: in
    pivot order, the entries above each pivot are reduced into [0, pivot)."""
    for i, c in enumerate(pivots):
        head = rows[i]
        p = head[c]
        for k in range(i):
            q = rows[k][c] // p
            if q:
                rows[k] = _minus_multiple(rows[k], q, head)
    return IntMatrix.from_rows(rows, cols=cols)


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Canonical row Hermite form of the row lattice (zero rows dropped):
    equal lattices give equal forms."""
    return hermite_reduce(*hermite_echelon(m), m.cols)


def elementary_divisors(m: IntMatrix, modulus: Optional[int] = None) -> tuple[int, ...]:
    """The nonzero elementary divisors of `m`, each positive and dividing
    the next: the diagonal of its Smith form, no transform built.

    Row and column Hermite forms alternate until the form is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979): the first is that of
    the columns of `m`, each next one that of the columns of the last,
    and every form is equivalent to `m`.  From the second on the form is
    square, r x r for r the rank, and upper triangular.  If its leading
    pivot p divides the rest of its row, the next form is p beside the
    form of the other rows and columns, both being canonical, and row
    and column 0 stay cleared from then on; otherwise the next leading
    pivot is the gcd of that row, a proper divisor of p.  So the rounds
    end, with no cap.  Pairwise (gcd, lcm) make the diagonal a chain.

    With a `modulus` D > 0 it returns the divisors of [m | D*I]
    instead: gcd(s_i, D) for each divisor s_i of `m`, then D once for
    each row past the rank.  When D*Z^rows already lies in the column
    lattice of `m` these are the divisors of `m`.  The entries of `m`
    are reduced modulo D and the rows D*e_i join every round, so every
    lattice holds D*Z^rows, every pivot divides D and no entry of a form
    exceeds D.  A modulus that is not a positive int (bools
    included) raises ValueError before any elimination.
    """
    if modulus is not None:
        if not all_ints((modulus,)):
            raise ValueError(f"modulus must be an integer, got {modulus!r}")
        if modulus < 1:
            raise ValueError("modulus must be positive")
    h, border = m, []
    if modulus:
        nr = len(m.rows)
        h = IntMatrix.from_rows([[x % modulus for x in row] for row in m.rows], cols=m.cols)
        border = [(0,) * i + (modulus,) + (0,) * (nr - i - 1) for i in range(nr)]
    while True:
        h = hermite_normal_form(IntMatrix.from_rows(h.columns() + border, cols=len(h.rows)))
        r = len(h.rows)
        if r == h.cols and sum(map(bool, chain.from_iterable(h.rows))) == r:
            break
    d = [row[i] for i, row in enumerate(h.rows)]
    for i in range(r):
        for j in range(i + 1, r):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def hermite_pivots(h: IntMatrix) -> list[tuple[int, int]]:
    """(column, value) of each row's pivot in a `hermite_normal_form`
    output: the row's first nonzero entry."""
    out = []
    for row in h.rows:
        x = next(filter(None, row))
        out.append((row.index(x), x))
    return out


def hermite_divisors(h: IntMatrix, pivots: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The elementary divisors of `h`, a `hermite_normal_form` output
    with its `hermite_pivots`.

    Entries above a pivot are reduced below it, so a unit pivot's column
    is a unit vector: column operations clear its row and touch no
    other.  The divisors are thus a 1 for each unit pivot and those of
    the block of the other rows, which are zero in the unit-pivot
    columns, left out.  One row has its content as divisor.  Otherwise
    let D be the product of the block's pivots: its pivot columns form a
    triangular minor P of determinant D, and adj(P) P = D I puts D Z^rows
    in its column lattice, so its divisors are
    `elementary_divisors(block, modulus=D)`, every entry kept below D.
    When every pivot is 1 no elimination runs.
    """
    unit = {j for j, x in pivots if x == 1}
    ones = (1,) * len(unit)
    if len(unit) == len(h.rows):
        return ones
    rest = [(row, x) for row, (_, x) in zip(h.rows, pivots) if x != 1]
    if len(rest) == 1:
        return ones + (gcd(*rest[0][0]),)
    keep = [j for j in range(h.cols) if j not in unit]
    block = IntMatrix.from_rows([[row[j] for j in keep] for row, _ in rest], cols=len(keep))
    return ones + elementary_divisors(block, modulus=prod(x for _, x in rest))


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Basis (as rows, Hermite form) of {x in Z^cols : m @ x = 0}.

    One echelon basis E = U [m^T | I] = [U m^T | U], U unimodular
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.3): a
    row u of U has m @ u = 0 exactly when its row of U m^T is zero, and
    the nonzero rows of U m^T are independent, so the rows of U with a
    zero left part span the kernel.  They are the last rows of E, with a
    pivot in the identity block, and no other row reduces them: their
    reduction phase alone gives the Hermite basis of the kernel.
    """
    nr, nc = len(m.rows), m.cols
    # row j: column j of m, then e_j
    rows, pivots = hermite_echelon(IntMatrix.from_rows(
        [col + (0,) * j + (1,) + (0,) * (nc - j - 1) for j, col in enumerate(m.columns())],
        cols=nr + nc))
    k = bisect_left(pivots, nr)
    return hermite_reduce([row[nr:] for row in rows[k:]], [c - nr for c in pivots[k:]], nc)
