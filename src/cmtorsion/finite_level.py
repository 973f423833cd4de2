"""Split-prime finite-level degrees.

At an odd prime ell the level-n points of a d-dimensional split torus
form ((Z/ell^n)^x)^d, a product of cyclic groups of order
(ell-1) ell^(n-1).  The degree of the field cut out by a torsion
subgroup is the size of the image of Z^d -> prod Z/m_i under the active
characters.  In general Z/m_i embeds in Z/M, M = lcm(m), by
x -> (M/m_i) x, so the size is prod M / gcd(M, s_j) over the
elementary divisors s_j of the rows scaled by M/m_i.  At one level,
one modulus m, it is prod m / gcd(m, s_j) over the divisors of the
rows themselves, so a sweep needs only those: the build's when its
witness holds every character, else those of the witness's Hermite
form below.

A mixed-level query first takes the Hermite form H of the active
coordinates as columns, in decreasing level order (index breaking
ties).  Its pivot columns p_1 < ... < p_r are the greedy independent
set and its divisors, those of the active rows, are kept for the 256
most recent orders, so a staircase after its degree reads the same
entry.  When ell does not divide the product of the pivots,

    degree = _image_size(divisors, ell - 1) * ell^(sum_t (n_{p_t} - 1)),

with no further elimination:

- By CRT, prod Z/m_i = (Z/(ell-1))^k + sum_i Z/ell^(n_i - 1), two parts
  of coprime order, so the image is the product of its projections.
- The (ell-1)-part is the image in (Z/(ell-1))^k, one modulus for every
  row: its size depends only on the divisors.
- The image is the row lattice of A^T, A the k x d matrix of active
  rows, which is that of H: each active character may take its column
  of H as coordinates, and for the ell-part the coefficients may be
  taken in Z_(ell).  The pivot block is triangular with unit diagonal
  over Z_(ell); each non-pivot column j is a Z_(ell)-combination of the
  pivot columns before it, whose levels are at least n_j.  So the
  unipotent change of coordinates that subtracts those combinations
  maps the ell-part onto sum_t Z/ell^(n_{p_t} - 1).

When ell divides the pivot product the degree takes the elementary
divisors of the scaled rows modulo M.  Either way a size that does not
divide the group order raises InvariantError.  Primality of ell is
decided exactly by Miller-Rabin below `PRIME_TEST_LIMIT`, and the
verdicts on the 256 most recently tested numbers are kept.  Floats
appear only in the display column of sweep rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Mapping, Optional, Sequence

from .alpha_engine import AlphaReport, build_report
from .cm_core import InvariantError
from .exact_linalg import (
    IntMatrix,
    all_ints,
    elementary_divisors,
    hermite_divisors,
    hermite_normal_form,
    hermite_pivots,
)
from .mt_torus import CharacterSystem

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017); larger ell is refused.
PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (bound, k): the first k bases are exact below the bound, the least
# strong pseudoprime to all of them (Pomerance, Selfridge and Wagstaff,
# Math. Comp. 35, 1980; Jaeschke, Math. Comp. 61, 1993; Sorenson and
# Webster 2017).  The bounds for 8, 10 and 11 bases equal the ones
# for 7 and 9.
_BASE_COUNTS = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
    (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
    (3825123056546413051, 9), (318665857834031151167461, 12),
    (PRIME_TEST_LIMIT, 13),
)


def _require_int(value, what: str, low: Optional[int] = None):
    if not all_ints((value,)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")


def _require_odd_prime(ell: int):
    # the type and range checks run before the cache, whose keys
    # would let 7.0 or True stand for 7 or 1
    _require_int(ell, "ell")
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"need an odd prime, got {ell}")
    if ell >= PRIME_TEST_LIMIT:
        raise ValueError(f"ell must be below {PRIME_TEST_LIMIT}, got {ell}")
    if not _miller_rabin(ell):
        raise ValueError(f"need an odd prime, got {ell}")


@lru_cache(maxsize=256)
def _miller_rabin(ell: int) -> bool:
    # exact for odd 3 <= ell < PRIME_TEST_LIMIT
    d, s = ell - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # every base is below ell: past base 2, ell >= 2047
    count = next(k for bound, k in _BASE_COUNTS if ell < bound)
    for a in _PRIME_BASES[:count]:
        x = pow(a, d, ell)
        if x == 1 or x == ell - 1:
            continue
        for _ in range(s - 1):
            x = x * x % ell
            if x == ell - 1:
                break
        else:
            return False
    return True


def _require_decimal_power(ell: int, exponent: int):
    # ell^exponent must be writable under the interpreter's limit of D
    # decimal digits (0, or before Python 3.10.7: none).  2^(3D) < 10^D
    # < 2^(4D) decides it from bit lengths; only between the two is the
    # power formed, and then it has fewer than 8D bits.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = ell.bit_length()
    if digits and exponent * bits > 3 * digits and (
            exponent * (bits - 1) >= 4 * digits or ell ** exponent >= 10 ** digits):
        raise ValueError(f"subgroup order {ell}^{exponent} has more than "
                         f"{digits} decimal digits")


def _unit_order(ell: int, n: int) -> int:
    return (ell - 1) * ell ** (n - 1)


def _image_size(divisors: Sequence[int], m: int) -> int:
    # A = U diag(s) V, U and V unimodular, has the image of diag(s) in
    # (Z/m)^k; a row past the rank (no divisor, or m) adds a factor 1
    return math.prod(m // math.gcd(m, s) for s in divisors)


def _image(rows: Sequence[Sequence[int]], moduli: Sequence[int]) -> int:
    # the size of the image of Z^d -> prod Z/m_i, x -> (row_i . x mod m_i),
    # for integer rows and positive int moduli: multiplication by M/m_i
    # embeds Z/m_i in Z/M, M = lcm(m), so it is the `_image_size` of the
    # rows scaled by M/m_i, from one elimination modulo M
    big = math.lcm(*moduli)
    scaled = IntMatrix.from_rows([[big // m * x for x in row]
                                  for row, m in zip(rows, moduli)])
    return _in_group(_image_size(elementary_divisors(scaled, modulus=big), big), moduli)


def _in_group(size: int, moduli: Sequence[int]) -> int:
    if math.prod(moduli) % size:
        raise InvariantError("the image size does not divide the group order")
    return size


@lru_cache(maxsize=256)
def _active_lattice(coords: tuple[tuple[int, ...], ...], idx: tuple[int, ...]):
    """(pivot columns, pivot product, divisors) of the characters idx.

    These are read off the Hermite form H of coords[i] for i in idx as
    columns, in that order; H has one row per pivot, and its divisors
    (`hermite_divisors`) are those of the active rows.
    """
    hermite = hermite_normal_form(IntMatrix.from_rows(
        zip(*(coords[i] for i in idx)), cols=len(idx)))
    pivots = hermite_pivots(hermite)
    return (tuple(j for j, _ in pivots), math.prod(x for _, x in pivots),
            hermite_divisors(hermite, pivots))


def _normalize_levels(cs: CharacterSystem, levels: Mapping[int, int]) -> list[tuple[int, int]]:
    if not levels:
        raise ValueError("at least one character must carry a level")
    # one type test and the bounds; the per-entry loop runs only to name
    # the first bad entry
    if not (all_ints(chain(levels, levels.values()))
            and min(levels) >= 0 and max(levels) < 2 * cs.genus
            and min(levels.values()) >= 1):
        for i, n in levels.items():
            _require_int(i, "character index")
            if not 0 <= i < 2 * cs.genus:
                raise ValueError(f"character index {i} out of range")
            _require_int(n, "level", 1)
    # the staircase order: decreasing level, index breaking ties
    return sorted(levels.items(), key=lambda p: (-p[1], p[0]))


def _staircase(cs: CharacterSystem, ell: int, levels: Mapping[int, int]):
    # the checked (index, level) pairs in staircase order and their
    # `_active_lattice` entry; the levels are checked before ell
    order = _normalize_levels(cs, levels)
    _require_odd_prime(ell)
    return order, _active_lattice(cs.char_coords, tuple(i for i, _ in order))


def degree_of_subgroup(cs: CharacterSystem, ell: int, levels: Mapping[int, int]) -> int:
    """Exact degree of the field cut out by the given torsion levels.

    `levels` maps character indices to exponents: character i is
    constrained at level ell^(levels[i]).
    """
    order, (pivots, product, divisors) = _staircase(cs, ell, levels)
    moduli = [_unit_order(ell, n) for _, n in order]
    if product % ell:
        # the CRT closed form of the module docstring
        return _in_group(_image_size(divisors, ell - 1)
                         * ell ** sum(order[p][1] - 1 for p in pivots), moduli)
    return _image([cs.char_coords[i] for i, _ in order], moduli)


@dataclass(frozen=True)
class StaircaseBounds:
    """Exact sandwich for a subgroup degree.

    The exponent sums the levels of a greedy maximal independent
    subfamily taken in decreasing level order: the pivot columns of the
    Hermite form of the active coordinates as columns in that order,
    which number `span_dim`.  The plain lower bound
    assumes the active characters span a saturated lattice; dividing
    by the saturation defect (the product of the elementary divisors
    of the active coordinate rows) repairs it in general, so the
    guaranteed inequality is  lower <= saturation * degree.  All three
    are read off the `_active_lattice` entry that `degree_of_subgroup`
    uses for the same levels, so a degree and its staircase take one
    Hermite form.
    """

    exponent: int
    span_dim: int
    saturation: int
    lower: int
    upper: int

    def admits(self, degree: int) -> bool:
        return self.lower <= self.saturation * degree and degree <= self.upper


def _bounds(ell: int, exponent: int, span_dim: int, saturation: int) -> StaircaseBounds:
    return StaircaseBounds(
        exponent=exponent,
        span_dim=span_dim,
        saturation=saturation,
        lower=(ell - 1) ** span_dim * ell ** (exponent - span_dim),
        upper=ell ** exponent,
    )


def staircase_bounds(cs: CharacterSystem, ell: int, levels: Mapping[int, int]) -> StaircaseBounds:
    order, (pivots, _, divisors) = _staircase(cs, ell, levels)
    return _bounds(ell, sum(order[p][1] for p in pivots), len(pivots), math.prod(divisors))


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
    optimal exponent as ell grows.  Raises ValueError before any row is
    computed when `level` is not a positive int or some ell is not an
    odd prime below `PRIME_TEST_LIMIT`, and, once the report gives n_W,
    when some order has more decimal digits than `str` may write
    (`sys.get_int_max_str_digits`).
    """
    _require_int(level, "level", 1)
    for ell in ells:
        _require_odd_prime(ell)
    if report is None:
        report = build_report(cs)
    witness = report.witness
    for ell in ells:
        _require_decimal_power(ell, level * witness.n)
    # Uniform level: the degree is `_image_size` of the divisors s_i of
    # the active rows.  The greedy staircase picks a basis of the span,
    # r = len(s) rows at the one level, and its saturation defect is
    # prod s_i.  When the witness holds all 2g characters the rows are
    # the transpose of the build's Hermite form, with its divisors;
    # otherwise the increasing indices are the staircase order.
    if len(witness.generating_indices) == 2 * cs.genus:
        divisors = cs.divisors
    else:
        divisors = _active_lattice(cs.char_coords, witness.generating_indices)[2]
    span_dim = len(divisors)
    saturation = math.prod(divisors)
    rows = []
    for ell in ells:
        m = _unit_order(ell, level)
        degree = _image_size(divisors, m)
        bounds = _bounds(ell, level * span_dim, span_dim, saturation)
        order = ell ** (level * witness.n)
        estimate = math.inf if degree == 1 else math.log(order) / math.log(degree)
        rows.append(SweepRow(
            ell=ell,
            n=level,
            subgroup_order=order,
            degree=degree,
            dim_w=witness.dim,
            n_w=witness.n,
            estimate_decimal=estimate,
            bound_ok=bounds.admits(degree),
        ))
    return rows
