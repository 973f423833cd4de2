"""Optimal torsion exponent from a character system.

The exponent is the maximum of n(W)/dim W over subspaces W spanned by
characters, where n(W) counts the characters lying in W.  The group
permutes each factor's characters transitively by automorphisms of the
character matroid, so the largest set attaining the maximum is a union
of factor blocks (the principal partition; Fujishige, Submodular
Functions and Optimization, 2005): the exponent is the best ratio over
the 2^r - 1 factor unions.  The witness is the full span when it
attains it, else the attaining union first in (dim, index set) order,
which is the first attaining flat in that order (see `alpha_exact`).
The product envelope reads the same table.  A prefix union of the
factors {0, ..., k-1}, the full set among them, is ranked off the
build's pivot columns, where the factor blocks sit in order and the
rank of the first e columns is the number of pivots below column e; so
a one-factor report forms no span and reads no coordinates, and a
two-factor one forms one.  The other spans are formed in the rank-d
coordinates `char_coords`, where every set of characters has its
|G|-wide rank (see `_factor_unions`); the witness's |G|-wide basis is
formed only for a document (`witness_basis`).  A report decides
primitivity once, for its shortcut label and its dimension bound.  The
oracle re-derives the maximum by sheer enumeration of subsets.
Everything is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .cm_core import InvariantError, is_primitive
from .exact_linalg import IntSpanBasis, all_ints
from .mt_torus import CharacterSystem

# Largest character count the brute-force oracle accepts.
ORACLE_CAP = 12


@dataclass(frozen=True)
class SubspaceWitness:
    """A character span attaining the reported exponent.

    The span is that of the characters `generating_indices`; its
    canonical basis is formed only on request, by `witness_basis`.
    """

    generating_indices: tuple[int, ...]
    n: int
    dim: int
    ratio: Fraction


@dataclass(frozen=True)
class AlphaReport:
    alpha: Fraction
    gamma: Fraction
    witness: SubspaceWitness
    genus: int
    dim: int
    defect: int
    shortcut_used: Optional[str] = None
    bound_checks: dict = field(default_factory=dict)
    spans_visited: int = 0


def _factor_unions(cs: CharacterSystem) -> list[tuple[int, int]]:
    """Entry `mask` > 0: the character count and the rank of that union
    of factor blocks.

    A prefix union {0, ..., k-1} (mask 2^k - 1, the full set among them)
    is read off the build's pivots, those of its echelon basis and of
    the Hermite form H.  The blocks occupy consecutive columns between
    their boundaries `cs.starts`, the prefix the first e = starts[k], so
    its rank is the number of pivots in columns below e; for the full
    set it is the system's rank d.  Every other union is spanned from
    the union without its lowest factor, whose basis it copies.  That
    parent never is a prefix, which holds the lowest factor, so the
    prefixes form no span, and a basis is kept only for an even mask,
    the parent of later ones.
    A union takes no more columns once it reaches rank d, and a union
    whose parent has rank d has rank d and forms no span.

    The spans are formed over `char_coords`, d wide, not over the
    |G|-wide characters, at the same ranks; they are read only when
    some union is not a prefix, so when r >= 2.  The build's Hermite form is
    H = U M', U unimodular, M' the half rows of the orbit matrix M, and
    M' has the row lattice of M by the half-row lemma: row c.g is the
    all-ones row minus row g.  The build checks what implies it: that
    columns (i, s) and (i, c.s) sum to the all-ones weight, and
    equivariance under the generators, so under c, where it puts column
    (i, c.s) of row g at (i, s) in row c.g.  So M x, M' x and H x vanish
    for the same x, and every set of characters has the same rank in
    either coordinates.
    """
    starts = cs.starts
    r = len(starts) - 1
    d = cs.dim
    coords = cs.char_coords if r > 1 else ()
    table = [(0, 0)]
    spans: list[Optional[IntSpanBasis]] = [None] * 2 ** r
    for mask in range(1, 2 ** r):
        low = mask & -mask
        fi = low.bit_length() - 1
        n, rank = table[mask ^ low]
        if not mask & (mask + 1):
            # a prefix, on the columns before the next block
            rank = bisect_left(cs.pivots, starts[mask.bit_length()])
        elif rank < d:
            parent = spans[mask ^ low]
            span = parent.copy() if parent else IntSpanBasis(d)
            for col in coords[starts[fi]:starts[fi + 1]]:
                if span.insert(col) and span.dim == d:
                    break
            rank = span.dim
            if not mask & 1:
                spans[mask] = span
        table.append((n + starts[fi + 1] - starts[fi], rank))
    return table


def _exponent(cs: CharacterSystem) -> tuple[Fraction, SubspaceWitness, int]:
    """The exponent, its witness and the number of unions ranked (see
    `alpha_exact`)."""
    unions = _factor_unions(cs)
    alpha = max(Fraction(n, rank) for n, rank in unions[1:])
    m, dim = unions[-1]
    if Fraction(m, dim) == alpha:
        contained = tuple(range(m))
    else:
        # least in (dim, index set) order; the blocks lie in factor order
        blocks = [range(a, b) for a, b in zip(cs.starts, cs.starts[1:])]
        dim, contained = min(
            (rank, tuple(j for fi, block in enumerate(blocks) if mask >> fi & 1 for j in block))
            for mask, (n, rank) in enumerate(unions)
            if mask and Fraction(n, rank) == alpha)
    witness = SubspaceWitness(generating_indices=contained, n=len(contained),
                              dim=dim, ratio=alpha)
    return alpha, witness, len(unions) - 1


# the build checks that characters are 0/1 with |G|/2 ones: on a span W
# they project injectively to {0,1}^(dim W - 1), so n(W) <= 2^(dim W - 1)
_COUNTING_BOUND = {"subspace_counting_bound": True}


def alpha_exact(cs: CharacterSystem) -> AlphaReport:
    """Exponent, witness span and defect of a system, from its factor unions.

    alpha is the best count/dim over the unions.  The witness is the full
    span when it attains alpha, else the attaining union least in
    (dim, index set) order: the first flat in that order to attain
    alpha.  Why, with f(S) = alpha r(S) - |S|:
    - f >= 0, and f is submodular, so its zeros (the sets attaining
      alpha, and the empty set) are closed under union and intersection.
      A zero is a flat: a further character in its span would beat alpha.
    - The atoms are the minimal nonempty zeros.  Two distinct atoms meet
      in a zero, so they are disjoint, and f(a u b) = 0 makes their
      spans independent.  G permutes the characters by matroid
      automorphisms, so it permutes the atoms.
    - Let an atom a not be G-invariant.  Its translates span a direct
      sum, and the weight w, which G fixes, lies in none of their spans
      (it would lie in all).  The build checks that the conjugate c.x
      of a character x is w - x, so w = x + c.x with c.a != a: in the
      direct sum, w has the component x on span(a) for every x in a,
      so |a| = 1, and the nonzero component g.x on every span(g.a), so
      a has two translates.  Then f({x}) = 0 gives alpha = 1, which the
      full span attains.
    - So when the full span does not attain alpha, every atom is G-stable,
      a union of factor blocks, and in the table.  A zero of least
      dimension contains an atom of no larger dimension, whose span is
      then its own: it is that atom.  The attaining flats of least
      dimension are therefore the attaining unions of least dimension.
    """
    alpha, witness, visited = _exponent(cs)
    return AlphaReport(alpha=alpha, gamma=alpha, witness=witness, genus=cs.genus,
                       dim=cs.dim, defect=cs.defect, bound_checks=dict(_COUNTING_BOUND),
                       spans_visited=visited)


def witness_basis(cs: CharacterSystem, witness: SubspaceWitness) -> tuple[tuple[int, ...], ...]:
    """The witness span's canonical basis in the |G|-wide characters.

    This is `IntSpanBasis.key()`: one primitive row per dimension, its
    first nonzero entry a positive pivot, and every pivot column zero in
    the other rows.  Dividing each row by its pivot gives the reduced
    rational echelon basis, so equal spans give equal bases.  A witness
    of every character spans what the characters at the pivot columns of
    the build's Hermite form span: they are independent, since H has the
    column dependencies of the orbit matrix (see `_factor_unions`), and
    there are `cs.dim` of them.  Any other witness's characters are
    inserted in index order until the span reaches the system's rank,
    which no span of characters exceeds.  Raises InvariantError when the
    span's dimension is not `witness.dim`.
    """
    indices = witness.generating_indices
    if len(indices) == len(cs.characters):
        indices = cs.pivots
    basis = IntSpanBasis(len(cs.characters[0]))
    for i in indices:
        if basis.insert(cs.characters[i]) and basis.dim == cs.dim:
            break
    if basis.dim != witness.dim:
        raise InvariantError(
            f"the witness characters span dimension {basis.dim}, not {witness.dim}")
    return basis.key()


def alpha_oracle(cs: CharacterSystem, cap: int = ORACLE_CAP) -> Fraction:
    """Plain maximum over every nonempty character subset, no pruning.

    Enumerates the |S| / dim span(S) ratio of all 2^(2g) - 1 subsets;
    the trace of any span occurs among the subsets, so this equals the
    defining maximum of n(W)/dim W.  Refuses systems beyond `cap`
    characters.
    """
    cols = cs.characters
    m = len(cols)
    if m > cap:
        raise ValueError(f"oracle capped at {cap} characters, got {m}")
    width = len(cols[0])
    best = Fraction(0)

    def recurse(start: int, basis: IntSpanBasis, size: int):
        nonlocal best
        for j in range(start, m):
            child = basis.copy()
            child.insert(cols[j])
            ratio = Fraction(size + 1, child.dim)
            if ratio > best:
                best = ratio
            recurse(j + 1, child, size + 1)

    recurse(0, IntSpanBasis(width), 0)
    return best


def shortcut_label(cs: CharacterSystem, primitive: bool) -> Optional[str]:
    """Name of the proved case in which alpha = 2g/d, else None.

    The cases: a nondegenerate system; a `primitive` single factor of
    defect one (there d = g, so alpha = 2); a `primitive` single factor
    of genus at most 7.
    """
    if cs.defect == 0:
        return "nondegenerate"
    if primitive and cs.defect == 1:
        return "defect_one"
    if primitive and cs.genus <= 7:
        return "small_genus"
    return None


def bound_checks(alpha: Fraction, cs: CharacterSystem, primitive: bool) -> dict:
    """The named exponent bounds at `alpha`, evaluated exactly; no
    floating point.

    The irrational threshold 2g/(2 + log2 g) is decided through the
    equivalent integer comparison g^p <= 2^(2gq - 2p) for alpha = p/q.
    `primitive` says whether the system is one primitive factor over
    the trivial subgroup, the case of the dimension bound.
    """
    g = cs.genus
    p, q = alpha.numerator, alpha.denominator
    exponent = 2 * g * q - 2 * p
    checks = {
        "log_threshold_bound": exponent >= 0 and g ** p <= 2 ** exponent,
        "genus_upper_bound": alpha <= g,
        "span_ratio_lower_bound": alpha >= Fraction(2 * g, cs.dim),
        # the build writes 0/1 characters, each its own residue mod 2,
        # and refuses equal ones, so they stay distinct mod 2
        "mod2_distinct": True,
    }
    if primitive:
        checks["primitive_dimension_bound"] = 2 ** (cs.dim - 2) >= g
    return checks


def build_report(cs: CharacterSystem) -> AlphaReport:
    """Full pipeline: exact exponent, shortcut cross-check, bound evaluation."""
    alpha, witness, visited = _exponent(cs)
    factors = cs.datum.factors
    primitive = (len(factors) == 1 and len(factors[0].space.subgroup) == 1
                 and is_primitive(factors[0], cs.datum.conj))
    label = shortcut_label(cs, primitive)
    if label is not None and alpha != Fraction(2 * cs.genus, cs.dim):
        raise InvariantError("shortcut value disagrees with the exact exponent")
    return AlphaReport(
        alpha=alpha, gamma=alpha, witness=witness, genus=cs.genus, dim=cs.dim,
        defect=cs.defect, shortcut_used=label,
        bound_checks={**_COUNTING_BOUND, **bound_checks(alpha, cs, primitive)},
        spans_visited=visited)


@dataclass(frozen=True)
class ProductEnvelope:
    """Exponent bounds for a product with multiplicities.

    `question2` is the conjectural closed-form value, always so; it is
    reported for comparison only and never feeds any verified bound.
    """

    lower: Fraction
    upper: Fraction
    question2: Fraction


def product_envelope(reports: Sequence[AlphaReport], multiplicities: Sequence[int],
                     joint: CharacterSystem) -> ProductEnvelope:
    """Sandwich the exponent of a product from factor and joint data.

    The lower bound is max over factor unions S of (min multiplicity in
    S) times n(S)/dim S; the upper bound adds the factor exponents
    weighted by multiplicity.  The lower bound equals max over unions T
    of min_{i in T} n_i times the exponent of T, the max of n(S)/dim S
    over unions S inside T: a pair (T, S) is beaten by (S, S), since
    shrinking T to S only raises the min.  Counts and dimensions are
    read off the joint's factor unions, so nothing is searched;
    `reports[i]` is factor i's own report.  Multiplicities must be
    positive ints.
    """
    factors = joint.datum.factors
    r = len(factors)
    if not (len(reports) == len(multiplicities) == r):
        raise ValueError("reports, multiplicities and joint factors must align")
    if not all_ints(multiplicities):
        raise ValueError("multiplicities must be ints")
    ns = list(multiplicities)
    if any(x < 1 for x in ns):
        raise ValueError("multiplicities must be positive")
    genus_of = [len(f.phi) for f in factors]

    upper = sum((n * rep.alpha for n, rep in zip(ns, reports)), Fraction(0))
    lower = Fraction(0)
    question2 = Fraction(0)
    for mask, (count, rank) in enumerate(_factor_unions(joint)[1:], start=1):
        subset = [i for i in range(r) if mask >> i & 1]
        lower = max(lower, min(ns[i] for i in subset) * Fraction(count, rank))
        dim_total = sum(ns[i] * genus_of[i] for i in subset)
        question2 = max(question2, Fraction(2 * dim_total, rank))
    if lower > upper:
        raise InvariantError("product envelope lower bound exceeds the upper")
    return ProductEnvelope(lower=lower, upper=upper, question2=question2)
