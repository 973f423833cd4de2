"""The exponent engine against the flat search it replaced.

`_search` below is the earlier `alpha_engine._search`, verbatim: a
branch-and-bound over the flats of the character matroid, pruned by the
subspace counting bound n(W) <= 2^(dim W - 1), whose witness is the
full span unless a flat beats it strictly, and otherwise the first flat
in (dim, index set) order to attain the maximum.  `report_reference`
builds a report from it as the earlier `build_report` did.  The
factor-union engine must give the same report in every field but
`spans_visited`, which counts the spans each engine forms (2^r - 1 for
r factors), the same witness basis and the same product envelope.
"""

import heapq
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

import pytest

from cmtorsion.alpha_engine import (
    AlphaReport,
    SubspaceWitness,
    _factor_unions,
    bound_checks,
    build_report,
    product_envelope,
    shortcut_label,
    witness_basis,
)
from cmtorsion.cm_core import (
    CMDatum,
    CMType,
    CosetSpace,
    FiniteGroup,
    enumerate_types,
    is_primitive,
)
from cmtorsion.documents import load_datum
from cmtorsion.exact_linalg import IntSpanBasis
from cmtorsion.mt_torus import DuplicateCharactersError, build_character_system
from cmtorsion.verify import builtin_groups
from test_acceptance import c2_times_alternating4

# A two-factor datum over C8, the smallest product the benchmark warms up on.
C8_PRODUCT = ('{"conj":4,"factors":[{"phi":[0,1,2,3]},{"phi":[0,1,3,6]}],'
              '"group":{"kind":"abelian","invariants":[8]}}')


@dataclass(frozen=True)
class _SearchOutcome:
    ratio: Fraction
    contained: tuple[int, ...]
    dim: int
    basis: IntSpanBasis
    full_dim: int
    counting_bound_ok: bool
    spans_visited: int


def _search(columns: Sequence[tuple[int, ...]]) -> _SearchOutcome:
    """Exact maximum of n(W)/dim W over spans of character subsets.

    The maximum is attained on flats of the character matroid: spans
    identified with the set of all characters inside them.  The flats
    covering a flat F are the rank-1 flats of the contraction by F, one
    per parallel class of the outside characters modulo span(F).  Each
    flat is keyed by (dimension, index set) and formed once, when it is
    popped, from the first parent that reached it.
    Flats are visited in that key's order, which makes the reported
    witness deterministic and pops every parent of a flat before it.
    The whole-space candidate seeds the incumbent; only strict
    improvements replace it, which keeps the full span as the witness
    whenever it attains the maximum.  A flat is not expanded when no
    larger dimension can beat the incumbent under the subspace counting
    bound n(W) <= 2^(dim W - 1).
    """
    m = len(columns)
    if m == 0:
        raise ValueError("no characters to search")
    empty = IntSpanBasis(len(columns[0]))
    full = empty.copy()
    for col in columns:
        full.insert(col)
    d = full.dim
    incumbent_ratio = Fraction(m, d)
    incumbent = (d, tuple(range(m)), full)
    cor_ok = m <= 2 ** (d - 1) if d >= 1 else False
    # cap[k]: the best ratio the counting bound leaves to dimensions >= k
    cap = [Fraction(0)] * (d + 2)
    for k in range(d, 0, -1):
        cap[k] = max(cap[k + 1], Fraction(min(m, 2 ** (k - 1)), k))

    heap: list[tuple[int, tuple[int, ...]]] = []
    pending: dict[tuple[int, tuple[int, ...]], tuple[IntSpanBasis, tuple[int, ...]]] = {}

    def expand(parent: IntSpanBasis, contained: tuple[int, ...]):
        # one child per parallel class of the outside columns modulo the span
        inside = set(contained)
        classes: dict[tuple[int, ...], list[int]] = {}
        for j, col in enumerate(columns):
            if j not in inside:
                classes.setdefault(parent.direction(col), []).append(j)
        for direction, members in classes.items():
            handle = (parent.dim + 1, tuple(sorted(contained + tuple(members))))
            if handle not in pending:
                pending[handle] = (parent, direction)
                heapq.heappush(heap, handle)

    expand(empty, ())
    visited = 0
    while heap:
        dim, contained = handle = heapq.heappop(heap)
        parent, direction = pending.pop(handle)
        basis = parent.copy()
        basis.insert(direction)
        visited += 1
        n = len(contained)
        if n > 2 ** (dim - 1):
            cor_ok = False
        ratio = Fraction(n, dim)
        if ratio > incumbent_ratio:
            incumbent_ratio = ratio
            incumbent = (dim, contained, basis)
        if dim < d and cap[dim + 1] > incumbent_ratio:
            expand(basis, contained)

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


# each joint's search is shared by its report and envelope references
_memo_search = lru_cache(maxsize=8)(_search)


def report_reference(cs) -> tuple[AlphaReport, tuple[tuple[int, ...], ...]]:
    """The earlier report of `cs`, and the key of its witness's span,
    which the earlier witness carried as its `basis`."""
    outcome = _memo_search(cs.characters)
    factors = cs.datum.factors
    primitive = (len(factors) == 1 and len(factors[0].space.subgroup) == 1
                 and is_primitive(factors[0], cs.datum.conj))
    report = AlphaReport(
        alpha=outcome.ratio,
        gamma=outcome.ratio,
        witness=SubspaceWitness(
            generating_indices=outcome.contained,
            n=len(outcome.contained),
            dim=outcome.dim,
            ratio=outcome.ratio,
        ),
        genus=cs.genus,
        dim=cs.dim,
        defect=cs.defect,
        bound_checks={"subspace_counting_bound": outcome.counting_bound_ok,
                      **bound_checks(outcome.ratio, cs, primitive)},
        spans_visited=outcome.spans_visited,
    )
    label = shortcut_label(cs, primitive)
    if label is not None:
        assert report.alpha == Fraction(2 * cs.genus, cs.dim)
        report = replace(report, shortcut_used=label)
    return report, outcome.basis.key()


def assert_reference_report(report: AlphaReport, cs):
    """`report` is the reference's but for `spans_visited`, and its
    witness has the reference witness's basis."""
    expected, basis = report_reference(cs)
    assert _without_visits(report) == _without_visits(expected), cs.datum
    assert witness_basis(cs, report.witness) == basis, cs.datum


def envelope_reference(ns, joint):
    """(lower, upper, question2) of the earlier envelope at multiplicities
    `ns`, one search per factor subset T: lower is max over T of
    min_{i in T} n_i times the exponent of T."""
    r = len(ns)
    lower = upper = question2 = Fraction(0)
    for mask in range(1, 2 ** r):
        subset = [i for i in range(r) if mask >> i & 1]
        outcome = _memo_search(tuple(col for col, (fi, _) in
                                     zip(joint.characters, joint.column_labels)
                                     if fi in subset))
        lower = max(lower, min(ns[i] for i in subset) * outcome.ratio)
        if len(subset) == 1:
            upper += ns[subset[0]] * outcome.ratio
        dim_total = sum(ns[i] * len(joint.datum.factors[i].phi) for i in subset)
        question2 = max(question2, Fraction(2 * dim_total, outcome.full_dim))
    return lower, upper, question2


def span_of(columns) -> IntSpanBasis:
    basis = IntSpanBasis(len(columns[0]))
    for col in columns:
        basis.insert(col)
    return basis


def _without_visits(report: AlphaReport) -> AlphaReport:
    return replace(report, spans_visited=0)


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


def abelian_joint(invariants, conj, *factors):
    """Joint datum over an abelian group; each factor is (subgroup, phi)."""
    group = FiniteGroup.abelian(invariants)
    return build_character_system(CMDatum(group, conj, tuple(
        CMType(CosetSpace(group, subgroup), frozenset(phi)) for subgroup, phi in factors)))


def fallback_joint():
    # a genus-8 defect-2 factor (alpha 16/7) times a genus-1 factor over
    # an index-2 subgroup: the whole set has ratio 18/8 < 16/7, so the
    # witness is a proper union, here the first factor
    return abelian_joint([2, 2, 4], 8, ([0], [0, 1, 2, 3, 4, 5, 14, 15]),
                         ([0, 2, 4, 6, 9, 11, 13, 15], [0]))


# Joints whose full span is not densest: ratio 20/9 < 16/7 for the two
# factor ones, 14/6 and 16/7 < 12/5 for the three-factor ones, whose
# witnesses are the unions of factors 0, 1 and of factors 0, 2.
FALLBACK_PAIRS = {
    "fallback-C4xC4": lambda: abelian_joint(
        [4, 4], 8, ([0], [1, 2, 3, 7, 8, 12, 13, 14]), ([0, 7, 10, 13], [0, 3])),
    "fallback-C2xC8": lambda: abelian_joint(
        [2, 8], 12, ([0], [0, 1, 2, 3, 4, 6, 9, 11]), ([0, 4, 10, 14], [2, 3])),
}
FALLBACK_TRIPLES = {
    "C2xC2xC4": lambda: abelian_joint(
        [2, 2, 4], 8, ([0, 4], [0, 1, 2, 7]), ([0, 4, 10, 14], [1, 2]),
        ([0, 2, 5, 7, 9, 11, 12, 14], [1])),
    "C4xC4": lambda: abelian_joint(
        [4, 4], 8, ([0, 2], [1, 4, 6, 7]), ([0, 7, 10, 13], [0, 1]),
        ([0, 1, 2, 3], [0, 1])),
}


def check_joint(joint, full: bool):
    """Report and envelope equal the reference's, the envelope at unit
    and at seeded random multiplicities; the witness is the full span
    exactly when `full`."""
    factors = joint.datum.factors
    r = len(factors)
    report = build_report(joint)
    assert_reference_report(report, joint)
    assert report.spans_visited == 2 ** r - 1
    assert (report.witness.generating_indices == tuple(range(2 * joint.genus))) == full
    reports = [build_report(build_character_system(CMDatum(joint.datum.group,
                                                            joint.datum.conj, (f,))))
               for f in factors]
    rng = random.Random(r)
    for ns in [[1] * r] + [[rng.randint(1, 6) for _ in range(r)] for _ in range(4)]:
        env = product_envelope(reports, ns, joint)
        assert (env.lower, env.upper, env.question2) == envelope_reference(ns, joint), ns


def factor_unions_uncapped(cs, columns) -> list[tuple[int, IntSpanBasis]]:
    """The earlier `alpha_engine._factor_unions`, verbatim but for the
    columns it spans, one per character: every union takes every column
    of its lowest block, past the rank too."""
    r = len(cs.datum.factors)
    blocks: list[list[tuple[int, ...]]] = [[] for _ in range(r)]
    for col, (fi, _) in zip(columns, cs.column_labels):
        blocks[fi].append(col)
    table = [(0, IntSpanBasis(len(columns[0])))]
    for mask in range(1, 2 ** r):
        low = mask & -mask
        block = blocks[low.bit_length() - 1]
        n, basis = table[mask ^ low]
        basis = basis.copy()
        for col in block:
            basis.insert(col)
        table.append((n + len(block), basis))
    return table


def random_joints(seed: int, count: int):
    """Seeded joints of one to four factors over the catalogue up to
    order 16 and C2xA4, each factor over the trivial subgroup, an
    order-2 subgroup {0, h} or, in C2xA4, its three-element stabilizer;
    data with a repeated character are skipped."""
    rng = random.Random(seed)
    settings = []
    for group in builtin_groups(16):
        for conj in group.central_involutions():
            subgroups = [[0]] + [[0, h] for h in range(1, group.order)
                                 if h != conj and group.mul(h, h) == 0]
            settings.append((group, conj, subgroups))
    group, conj, stabilizer = c2_times_alternating4()
    settings.append((group, conj, [[0], stabilizer]))
    out = []
    while len(out) < count:
        group, conj, subgroups = rng.choice(settings)
        factors = []
        for _ in range(rng.randint(1, 4)):
            space = CosetSpace(group, rng.choice(subgroups))
            pairs = sorted({tuple(sorted((s, space.act(conj, s)))) for s in range(space.size)})
            factors.append(CMType(space, frozenset(rng.choice(p) for p in pairs)))
        try:
            out.append(build_character_system(CMDatum(group, conj, tuple(factors))))
        except DuplicateCharactersError:
            continue
    return out


JOINTS = {
    "C2xC2": quadratic_pair,
    "C8": lambda: build_character_system(load_datum(C8_PRODUCT)),
    "fallback": fallback_joint,
    **FALLBACK_PAIRS,
    **{"triple-" + name: make for name, make in FALLBACK_TRIPLES.items()},
}


def formed_unions(cs) -> tuple[list[tuple[int, int]], list[IntSpanBasis]]:
    """`_factor_unions(cs)` and every `IntSpanBasis` it forms, copies
    included, in the order it forms them."""
    formed = []
    real = IntSpanBasis.__init__

    def recording(self, width):
        formed.append(self)
        real(self, width)

    IntSpanBasis.__init__ = recording
    try:
        table = _factor_unions(cs)
    finally:
        IntSpanBasis.__init__ = real
    return table, formed


def check_unions(joint):
    """`_factor_unions` has the counts and ranks of the uncapped table
    over the |G|-wide characters.  It forms one span, d wide, for each
    union that is not a prefix {0, ..., k-1} of the factors and whose
    parent (the union without its lowest factor) has rank below d, in
    mask order, and none other; each has the key of that union in the
    uncapped table over the same d-wide `char_coords`."""
    table, formed = formed_unions(joint)
    d = joint.dim
    assert table == [(n, b.dim) for n, b in factor_unions_uncapped(joint, joint.characters)]
    assert table[-1][1] == d
    masks = [mask for mask in range(1, len(table))
             if mask & (mask + 1) and table[mask ^ (mask & -mask)][1] < d]
    narrow = factor_unions_uncapped(joint, joint.char_coords)
    assert [b.width for b in formed] == [d] * len(masks)
    assert [b.key() for b in formed] == [narrow[mask][1].key() for mask in masks]
    return masks


class TestRankCappedUnions:
    @pytest.mark.parametrize("make", JOINTS.values(), ids=list(JOINTS))
    def test_same_table_as_uncapped(self, make):
        joint = make()
        masks = check_unions(joint)
        if len(joint.datum.factors) == 2:
            assert masks == [2]

    def test_same_table_on_random_joints(self):
        joints = random_joints(20261019, 150)
        formed = {}
        for joint in joints:
            formed.setdefault(len(joint.datum.factors), set()).add(len(check_unions(joint)))
        # r factors have 2^r - 1 - r unions that are not prefixes; a
        # parent of rank d spares some of them their spans
        assert formed[1] == {0} and formed[2] == {1}
        assert formed[3] == {2, 4} and min(formed[4]) < 11 == max(formed[4])
        assert {len(j.datum.factors) for j in joints} == {1, 2, 3, 4}
        assert any(len(f.space.subgroup) > 1 for j in joints for f in j.datum.factors)
        assert any(j.datum.group.name == "C2xA4" for j in joints)


class TestWitnessBasis:
    @pytest.mark.parametrize("make", JOINTS.values(), ids=list(JOINTS))
    def test_joints(self, make):
        # the fallback joints' witnesses are proper unions (`check_joint`)
        joint = make()
        w = build_report(joint).witness
        assert witness_basis(joint, w) == span_of(
            [joint.characters[i] for i in w.generating_indices]).key()


class TestAgainstReference:
    def test_catalogue_up_to_order_12(self):
        count = 0
        for cs in catalogue_systems(12):
            report = build_report(cs)
            assert_reference_report(report, cs)
            assert report.spans_visited == 1
            count += 1
        assert count == 44

    @pytest.mark.parametrize("make, full", [
        (quadratic_pair, True),
        (lambda: build_character_system(load_datum(C8_PRODUCT)), True),
        (fallback_joint, False),
    ] + [(make, False) for make in FALLBACK_PAIRS.values()],
        ids=["C2xC2", "C8", "fallback"] + list(FALLBACK_PAIRS))
    def test_two_factor_joints(self, make, full):
        check_joint(make(), full)

    @pytest.mark.parametrize("make", FALLBACK_TRIPLES.values(), ids=list(FALLBACK_TRIPLES))
    def test_three_factor_fallback_joints(self, make):
        check_joint(make(), False)


class TestSingleFactorTheorem:
    def test_alpha_is_2g_over_d_up_to_order_16(self):
        # one factor: G acts transitively on the characters, so the
        # full span is densest and the witness
        count = 0
        for cs in catalogue_systems(16):
            report = build_report(cs)
            assert report.alpha == Fraction(2 * cs.genus, cs.dim), cs.datum
            w = report.witness
            assert w.generating_indices == tuple(range(2 * cs.genus))
            assert (w.n, w.dim, w.ratio) == (2 * cs.genus, cs.dim, report.alpha)
            assert witness_basis(cs, w) == span_of(cs.characters).key()
            assert report.bound_checks["subspace_counting_bound"]
            assert report.spans_visited == 1
            count += 1
        assert count == 381
