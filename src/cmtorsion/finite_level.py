"""Split-prime finite-level degree simulation.

At an odd prime ell the level-n points of a d-dimensional split torus
form ((Z/ell^n)^x)^d, a product of cyclic groups of order
(ell-1) ell^(n-1).  The degree of the field cut out by a torsion
subgroup is the size of the image of evaluation at the active
characters, computed exactly through Smith normal form.  Floats appear
only in the display column of sweep rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .alpha_engine import AlphaReport, build_report
from .cm_core import InvariantError
from .exact_linalg import IntMatrix, IntSpanBasis, smith_normal_form
from .mt_torus import CharacterSystem


def _require_odd_prime(ell: int):
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"need an odd prime, got {ell}")
    f = 3
    while f * f <= ell:
        if ell % f == 0:
            raise ValueError(f"need an odd prime, got {ell}")
        f += 2


def unit_group_order(ell: int, n: int) -> int:
    """Order of (Z/ell^n)^x for odd prime ell; the group is cyclic."""
    _require_odd_prime(ell)
    if n < 1:
        raise ValueError("level must be a positive integer")
    return (ell - 1) * ell ** (n - 1)


def torus_point_count(dim: int, ell: int, n: int) -> int:
    """Number of level-n points of a split torus of the given rank."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return unit_group_order(ell, n) ** dim


def lattice_image_size(rows: Sequence[Sequence[int]], moduli: Sequence[int]) -> int:
    """Size of the image of Z^d -> prod Z/m_i, x -> (row_i . x mod m_i).

    Equals prod(m_i) divided by the index of the column span of the
    block matrix [A | diag(m)] in Z^k, read off the Smith divisors.
    """
    if not rows or len(rows) != len(moduli):
        raise ValueError("need matching nonempty rows and moduli")
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be positive")
    k = len(rows)
    stacked = [list(r) + [moduli[i] if j == i else 0 for j in range(k)]
               for i, r in enumerate(rows)]
    divisors = smith_normal_form(IntMatrix.from_rows(stacked)).diag
    total = math.prod(moduli)
    index = math.prod(divisors)
    size, rem = divmod(total, index)
    if rem:
        raise InvariantError("the image index does not divide the group order")
    return size


def _normalize_levels(cs: CharacterSystem, levels: Mapping[int, int]) -> list[tuple[int, int]]:
    if not levels:
        raise ValueError("at least one character must carry a level")
    out = []
    for i in sorted(levels):
        n = levels[i]
        if not 0 <= i < 2 * cs.genus:
            raise ValueError(f"character index {i} out of range")
        if n < 1:
            raise ValueError("levels must be positive integers")
        out.append((i, n))
    return out


def degree_of_subgroup(cs: CharacterSystem, ell: int, levels: Mapping[int, int]) -> int:
    """Exact degree of the field cut out by the given torsion levels.

    `levels` maps character indices to exponents: character i is
    constrained at level ell^(levels[i]).
    """
    pairs = _normalize_levels(cs, levels)
    rows = [cs.char_coords[i] for i, _ in pairs]
    moduli = [unit_group_order(ell, n) for _, n in pairs]
    return lattice_image_size(rows, moduli)


@dataclass(frozen=True)
class StaircaseBounds:
    """Exact sandwich for a subgroup degree.

    The exponent sums the levels of a greedy maximal independent
    subfamily taken in decreasing level order.  The plain lower bound
    assumes the active characters span a saturated lattice; dividing
    by the saturation defect (the product of the elementary divisors
    of the active coordinate rows) repairs it in general, so the
    guaranteed inequality is  lower <= saturation * degree.
    """

    exponent: int
    span_dim: int
    saturation: int
    lower: int
    upper: int

    def admits(self, degree: int) -> bool:
        return self.lower <= self.saturation * degree and degree <= self.upper


def staircase_bounds(cs: CharacterSystem, ell: int, levels: Mapping[int, int]) -> StaircaseBounds:
    pairs = _normalize_levels(cs, levels)
    _require_odd_prime(ell)
    order = sorted(pairs, key=lambda p: (-p[1], p[0]))
    basis = IntSpanBasis(cs.dim)
    exponent = 0
    for i, n in order:
        if basis.insert(cs.char_coords[i]):
            exponent += n
    w = basis.dim
    rows = IntMatrix.from_rows([cs.char_coords[i] for i, _ in pairs])
    saturation = math.prod(smith_normal_form(rows).diag)
    return StaircaseBounds(
        exponent=exponent,
        span_dim=w,
        saturation=saturation,
        lower=(ell - 1) ** w * ell ** (exponent - w),
        upper=ell ** exponent,
    )


@dataclass(frozen=True)
class SweepRow:
    ell: int
    n: int
    subgroup_order: int
    degree: int
    dim_w: int
    n_w: int
    estimate_decimal: float
    bound_ok: bool


def exponent_sweep(cs: CharacterSystem, ells: Sequence[int], level: int = 1,
                   report: Optional[AlphaReport] = None) -> list[SweepRow]:
    """Degree growth of the extremal torsion subgroup across primes.

    The subgroup puts uniform level `level` on every character inside
    the witness span of the exponent report, so its order is
    ell^(level * n_W) and log(order) / log(degree) approaches the
    optimal exponent as ell grows.
    """
    if report is None:
        report = build_report(cs)
    active = report.witness.generating_indices
    levels = {i: level for i in active}
    rows = []
    for ell in ells:
        degree = degree_of_subgroup(cs, ell, levels)
        bounds = staircase_bounds(cs, ell, levels)
        order = ell ** (level * report.witness.n)
        estimate = math.inf if degree == 1 else math.log(order) / math.log(degree)
        rows.append(SweepRow(
            ell=ell,
            n=level,
            subgroup_order=order,
            degree=degree,
            dim_w=report.witness.dim,
            n_w=report.witness.n,
            estimate_decimal=estimate,
            bound_ok=bounds.admits(degree),
        ))
    return rows
