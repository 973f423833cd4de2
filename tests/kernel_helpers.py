"""Matrix, span and group operations that only the tests need.

The package computes none of these; the tests use them to build inputs
and to state the expected answers.
"""

from itertools import combinations
from math import gcd, prod
from typing import Sequence

import cmtorsion.exact_linalg as el
from cmtorsion.cm_core import FiniteGroup
from cmtorsion.exact_linalg import IntMatrix, IntSpanBasis, elementary_divisors, hermite_normal_form


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def zero(rows: int, cols: int) -> IntMatrix:
    return IntMatrix.from_rows([(0,) * cols] * rows, cols=cols)


def rank(m: IntMatrix) -> int:
    """Exact rank over Q: the dimension of the row span."""
    basis = IntSpanBasis(m.cols)
    for row in m.rows:
        basis.insert(row)
    return basis.dim


def determinant(m: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(m.rows)
    if n != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        pv = a[c][c]
        for i in range(c + 1, n):
            aic = a[i][c]
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * pv - aic * a[c][j]) // prev
            a[i][c] = 0
        prev = pv
    return sign * a[n - 1][n - 1]


def determinantal_divisors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero elementary divisors d_k = D_k / D_(k-1), where D_k is
    the gcd of the k x k minors and D_0 = 1: no elimination decides them.

    Only k up to the rank is scanned, as every larger minor is zero.
    d_(k-1) divides d_k, so D_k is a multiple of D_(k-1) d_(k-1), and the
    scan of the k x k minors stops once their gcd reaches that.
    """
    rows = m.rows
    out: list[int] = []
    prev = 1
    for k in range(1, rank(m) + 1):
        least = prev * (out[-1] if out else 1)
        g = 0
        for rsel in combinations(rows, k):
            for csel in combinations(range(m.cols), k):
                g = gcd(g, determinant(IntMatrix.from_rows([[r[j] for j in csel] for r in rsel])))
                if g == least:
                    break
            if g == least:
                break
        out.append(g // prev)
        prev = g
    return tuple(out)


def check_kernel(m: IntMatrix, k: IntMatrix) -> None:
    """Asserts that `k` is the Hermite basis of {x : m @ x = 0}.

    It annihilates m and has cols - rank rows, so it spans the rational
    kernel; its divisors are all 1, so it is saturated, hence the whole
    integer kernel; and it is its own Hermite form, which is canonical.
    """
    assert k.cols == m.cols
    assert not any(sum(a * b for a, b in zip(row, x)) for row in m.rows for x in k.rows)
    assert len(k.rows) == m.cols - rank(m)
    assert elementary_divisors(k) == (1,) * len(k.rows)
    assert hermite_normal_form(k) == k


def check_saturation(m: IntMatrix, basis: IntMatrix) -> None:
    """Asserts that `basis` is the Hermite basis of the saturation of the
    row lattice of `m`.

    The Hermite form of `basis` stacked with m is `basis`, so it holds
    the rows of m and is canonical; it has their rank and all divisors
    1, so it is the saturated lattice of their rational span.
    """
    assert basis.cols == m.cols
    assert hermite_normal_form(IntMatrix.from_rows(
        basis.rows + m.rows, cols=m.cols)) == basis
    assert len(basis.rows) == rank(m)
    assert elementary_divisors(basis) == (1,) * len(basis.rows)


def saturate(m: IntMatrix) -> tuple[IntMatrix, int]:
    """The Hermite basis of the saturation of the row lattice of `m`,
    (rational row span) meet Z^cols, and the index of the row lattice
    inside it: of the Hermite form H of `m`, the kernel of the kernel
    and the product of the plain elementary divisors.

    All are read through the module, so a test that replaces
    `el.hermite_normal_form` counts all three forms this takes outside
    `el.elementary_divisors`.
    """
    h = el.hermite_normal_form(m)
    return el.integer_kernel(el.integer_kernel(h)), prod(el.elementary_divisors(h))


def hermite_pivots(h: IntMatrix) -> list[int]:
    """The pivot columns of an echelon or Hermite basis `h`, found from
    scratch: the first nonzero column of each row."""
    return [next(j for j, x in enumerate(row) if x) for row in h.rows]


def unit_order(ell: int, n: int) -> int:
    """Order of (Z/ell^n)^x for an odd prime ell; the group is cyclic."""
    return (ell - 1) * ell ** (n - 1)


def contains(basis: IntSpanBasis, vec: Sequence[int]) -> bool:
    """Whether `vec` lies in the rational span of `basis`."""
    return basis.direction(vec) is None


def element_tuple(group: FiniteGroup, a: int) -> tuple[int, ...]:
    """The coordinates of element `a` of an abelian group, the last
    varying fastest, as `FiniteGroup.abelian` numbers them."""
    coords = []
    for k in reversed(group.abelian_invariants):
        a, c = divmod(a, k)
        coords.append(c)
    return tuple(reversed(coords))


def element_order(group: FiniteGroup, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = group.mul(x, a)
        k += 1
    return k
