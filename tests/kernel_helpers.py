"""Matrix, span and group operations that only the tests need.

The package computes none of these; the tests use them to build inputs
and to state the expected answers.
"""

from typing import Sequence

from cmtorsion.cm_core import FiniteGroup
from cmtorsion.exact_linalg import IntMatrix, IntSpanBasis


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def zero(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("inner dimension mismatch")
    return IntMatrix.from_rows(
        [[sum(a.entries[i * a.cols + k] * b.entries[k * b.cols + j] for k in range(a.cols))
          for j in range(b.cols)] for i in range(a.rows)], cols=b.cols)


def rank(m: IntMatrix) -> int:
    """Exact rank over Q: the dimension of the row span."""
    basis = IntSpanBasis(m.cols)
    for i in range(m.rows):
        basis.insert(m.row(i))
    return basis.dim


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
