"""Exact linear algebra kernel tests.

Expected values for the worked examples were frozen after computing
them with brute-force oracles (minor expansion for rank, the gcds of
minors for elementary divisors, box search for lattice saturation,
rational elimination for lattice coordinates, span keys and span
membership), which are also run directly against randomized inputs.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest

import cmtorsion.exact_linalg as el
from cmtorsion.cm_core import CMDatum
from cmtorsion.mt_torus import (
    DuplicateCharactersError,
    _half_rows,
    _orbit_matrix,
    build_character_system,
)
from cmtorsion.verify import builtin_groups
from cmtorsion.cm_core import enumerate_types
from cmtorsion.exact_linalg import (
    IntMatrix,
    IntSpanBasis,
    elementary_divisors,
    hermite_divisors,
    hermite_echelon,
    hermite_normal_form,
    hermite_pivots,
    integer_kernel,
)
from kernel_helpers import (
    check_kernel,
    check_saturation,
    contains,
    determinant,
    determinantal_divisors,
    identity,
    rank,
    saturate,
    zero,
)


def minor_rank_oracle(m: IntMatrix) -> int:
    """Largest k with a nonzero k x k minor; independent of elimination."""
    best = 0
    for k in range(1, min(len(m.rows), m.cols) + 1):
        found = False
        for rsel in combinations(m.rows, k):
            for csel in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows([[row[j] for j in csel] for row in rsel], cols=k)
                if determinant(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def in_rational_span(rows: list[list[int]], v: list[int]) -> bool:
    """Membership of v in the rational row span, by plain elimination."""
    work = [[Fraction(x) for x in r] for r in rows]
    target = [Fraction(x) for x in v]
    n = len(v)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                coef = work[i][c]
                work[i] = [x - coef * y for x, y in zip(work[i], work[r])]
        if target[c]:
            coef = target[c]
            target = [x - coef * y for x, y in zip(target, work[r])]
        r += 1
    return not any(target)


def echelon_key_reference(rows: list[list[int]]) -> tuple:
    """Reduced rational echelon form with each row's denominators cleared.

    Plain Fraction elimination to pivots equal to 1, then every nonzero
    row is scaled by the least common multiple of its denominators; the
    result is primitive with a positive pivot, the shape of
    `IntSpanBasis.key()`.
    """
    work = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                coef = work[i][c]
                work[i] = [x - coef * y for x, y in zip(work[i], work[r])]
        r += 1
    out = []
    for row in work[:r]:
        den = lcm(*(x.denominator for x in row))
        out.append(tuple(int(x * den) for x in row))
    return tuple(out)


def solve_left_reference(basis: IntMatrix, vector) -> list[Fraction] | None:
    """Solve x @ basis = vector over Q; None when the vector is outside.

    Rational elimination on the basis augmented by coordinate markers;
    requires linearly independent rows, but no echelon shape.
    """
    if len(vector) != basis.cols:
        raise ValueError("vector width mismatch")
    n, d = basis.cols, len(basis.rows)
    rows = [[Fraction(x) for x in row] + [Fraction(int(j == i)) for j in range(d)]
            for i, row in enumerate(basis.rows)]
    echelon: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        for p, er in echelon:
            if row[p]:
                coef = row[p]
                row = [x - coef * y for x, y in zip(row, er)]
        p = next((j for j in range(n) if row[j]), None)
        if p is None:
            raise ValueError("basis rows are dependent")
        inv = row[p]
        echelon.append((p, [x / inv for x in row]))
    v = [Fraction(x) for x in vector] + [Fraction(0)] * d
    for p, er in echelon:
        if v[p]:
            coef = v[p]
            v = [x - coef * y for x, y in zip(v, er)]
    if any(v[:n]):
        return None
    return [-x for x in v[n:]]


CYCLE4 = IntMatrix.from_rows([
    [1, 1, 0, 0],
    [0, 1, 1, 0],
    [0, 0, 1, 1],
    [1, 0, 0, 1],
])


class TestIntMatrix:
    @pytest.mark.parametrize("rows", [[[1.0]], [[1, Fraction(2)]], [[True, False]], [[2, True]]])
    def test_from_rows_refuses_non_integers(self, rows):
        # [[True, False]] had the Smith divisors (True,) before
        with pytest.raises(ValueError, match="non-integer"):
            IntMatrix.from_rows(rows)

    def test_from_rows_refuses_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("rows, cols, message", [
        (((1, 2), (3,)), 2, "ragged rows"),
        (((1, 2), (3, 4)), 3, "explicit column count disagrees with rows"),
        (((1, 2),), -1, "negative matrix dimensions"),
        (((1, True),), 2, "non-integer entry"),
        (((1.0, 2),), 2, "non-integer entry"),
    ])
    def test_constructor_checks_the_rows_once(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            IntMatrix(rows, cols)
        with pytest.raises(ValueError, match=message):
            IntMatrix.from_rows(rows, cols=cols)

    def test_the_width_shapes_a_matrix_without_rows(self):
        assert IntMatrix.from_rows([], cols=3) == IntMatrix((), 3)
        assert IntMatrix.from_rows([(), ()]) == IntMatrix(((), ()), 0)
        assert IntMatrix.from_rows([(), ()]).columns() == []
        assert IntMatrix.from_rows([], cols=3).columns() == [(), (), ()]
        assert IntMatrix.from_rows([[1, 2], [3, 4]]).columns() == [(1, 3), (2, 4)]

    def test_the_one_integer_test(self):
        # ints and their subclasses pass, bools do not, though they
        # subclass int; the parse, the matrices, the moduli, the
        # multiplicities and the levels all ask `all_ints`
        class Level(int):
            pass

        assert el.all_ints([0, -3, 2 ** 80, Level(2)])
        assert el.all_ints([])
        for bad in (True, False, 1.0, Fraction(2), "1", None):
            assert not el.all_ints([1, bad])
        assert IntMatrix.from_rows([[Level(2), 1]]).rows == ((2, 1),)


class TestRank:
    def test_identity(self):
        assert rank(identity(4)) == 4

    def test_cyclic_incidence(self):
        # rows sum with alternating signs to zero, so the rank drops by one
        assert rank(CYCLE4) == 3
        assert minor_rank_oracle(CYCLE4) == 3

    def test_zero(self):
        assert rank(zero(3, 5)) == 0

    def test_against_minor_oracle_randomized(self):
        rng = random.Random(101)
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)], cols=nc)
            assert rank(m) == minor_rank_oracle(m)


def span_of(rows, width: int) -> IntSpanBasis:
    basis = IntSpanBasis(width)
    for r in rows:
        basis.insert(r)
    return basis


class TestCanonicalSpan:
    def test_echelon_example(self):
        b = span_of([[2, 4, 0], [1, 2, 1]], 3)
        assert b.dim == 2
        assert b.key() == ((1, 2, 0), (0, 0, 1))

    def test_permutation_and_scaling_invariance(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 5)
            k = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            key = span_of(rows, n).key()
            shuffled = rows[:]
            rng.shuffle(shuffled)
            factors = [rng.choice([1, 2, -3]) for _ in shuffled]
            scaled = [[x * f for x in r] for f, r in zip(factors, shuffled)]
            # adding a row already in the span must not change anything
            scaled.append([sum(r[j] for r in rows) for j in range(n)])
            assert span_of(scaled, n).key() == key

    def test_hashable_and_idempotent(self):
        key = span_of([[1, 1], [0, 2]], 2).key()
        again = span_of(key, 2).key()
        assert key == again == ((1, 0), (0, 1))
        assert hash(key) == hash(again)
        assert len({key, again}) == 1

    def test_empty_input_rejected(self):
        b = IntSpanBasis(3)
        assert b.key() == ()
        assert not b.insert([0, 0, 0])
        assert b.key() == ()
        with pytest.raises(ValueError):
            b.insert([1, 0])


class TestContains:
    def test_examples(self):
        b = span_of([[1, 0, 1], [0, 1, 1]], 3)
        assert contains(b, [1, 1, 2])
        assert contains(b, [-2, 0, -2])
        assert not contains(b, [1, 0, 0])

    def test_dimension_mismatch(self):
        b = span_of([[1, 0]], 2)
        with pytest.raises(ValueError):
            contains(b, [1, 0, 0])

    def test_against_elimination_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            b = span_of(rows, n)
            v = [rng.randint(-4, 4) for _ in range(n)]
            assert contains(b, v) == in_rational_span(rows, v)


class TestSmithNormalForm:
    """`elementary_divisors` is the diagonal of the Smith normal form."""

    def check(self, m: IntMatrix) -> tuple[int, ...]:
        diag = elementary_divisors(m)
        assert all(d > 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert diag == determinantal_divisors(m)
        return diag

    def test_two_three(self):
        assert self.check(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)

    def test_identity(self):
        assert self.check(identity(3)) == (1, 1, 1)

    def test_zero(self):
        assert self.check(zero(2, 3)) == ()

    def test_rank_matches_nonzero_count(self):
        assert len(self.check(CYCLE4)) == rank(CYCLE4) == 3

    def test_against_gcd_minor_oracle_randomized(self):
        rng = random.Random(977)
        for _ in range(30):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            self.check(IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)], cols=nc))


def bordered(a, moduli) -> IntMatrix:
    """[A | diag(moduli)]."""
    k = len(moduli)
    return IntMatrix.from_rows([list(r) + [moduli[i] if j == i else 0 for j in range(k)]
                                for i, r in enumerate(a)])


class TestElementaryDivisors:
    """The alternating Hermite forms, plain and modular, against the
    determinantal divisors."""

    def test_random_matrices(self):
        rng = random.Random(1213)
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)], cols=nc)
            assert elementary_divisors(m) == determinantal_divisors(m)

    def test_bordered_with_large_moduli(self):
        # [A | diag(m)] with the moduli (ell - 1) ell^(n - 1) of mixed levels;
        # its column lattice contains lcm(m) Z^k, so that may be the modulus
        rng = random.Random(1217)
        for _ in range(25):
            k, d = rng.randint(1, 3), rng.randint(1, 3)
            ell = rng.choice((3, 101, 59999))
            moduli = [(ell - 1) * ell ** (rng.randint(1, 6) - 1) for _ in range(k)]
            m = bordered([[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)], moduli)
            divisors = elementary_divisors(m)
            assert divisors == determinantal_divisors(m)
            assert len(divisors) == k
            assert elementary_divisors(m, modulus=lcm(*moduli)) == divisors

    def test_modulus_agrees_with_plain_elimination(self):
        rng = random.Random(1223)
        for _ in range(40):
            k, d = rng.randint(1, 6), rng.randint(1, 5)
            ell = rng.choice((3, 5, 59))
            moduli = [(ell - 1) * ell ** rng.randint(0, 5) for _ in range(k)]
            m = bordered([[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)], moduli)
            divisors = elementary_divisors(m)
            assert elementary_divisors(m, modulus=lcm(*moduli)) == divisors
            assert elementary_divisors(m, modulus=7 * lcm(*moduli)) == divisors

    def test_modulus_gives_the_divisors_of_the_bordered_matrix(self):
        # for any D the divisors of [m | D*I]: gcd(s_i, D) for the divisors
        # s_i of m, then D once for each row past the rank; the gcds of
        # the minors of [m | D*I] itself take too long at 7 x 14, so its
        # plain elimination confirms the rule
        rng = random.Random(1229)
        for _ in range(300):
            nr, nc = rng.randint(0, 7), rng.randint(0, 7)
            rows = [[rng.randint(-9, 9) for _ in range(nc)] if rng.random() < 0.8
                    else [0] * nc for _ in range(nr)]
            if nr > 1 and rng.random() < 0.3:
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
            m = IntMatrix.from_rows(rows, cols=nc)
            modulus = rng.choice((1, 2, 12, 30, 97, 360, rng.randint(1, 10 ** 6)))
            divisors = determinantal_divisors(m)
            expected = tuple(gcd(s, modulus) for s in divisors) + \
                (modulus,) * (nr - len(divisors))
            assert elementary_divisors(m, modulus=modulus) == expected
            if nr:
                assert expected == elementary_divisors(bordered(rows, [modulus] * nr))

    def test_modulus_bounds_entry_swell(self):
        # Without a modulus the earlier pivot-and-swap Smith elimination
        # of this bordered matrix swelled to entries of about 126000 bits
        # and took seconds; the divisors below are the ones it gave.  The
        # Hermite forms, which reduce above each pivot, do not swell.
        moduli = [58, 11911982, 11911982, 702806938, 58, 11911982, 3422, 58,
                  41465609342, 201898]
        a = [[2, 2, 1, -2, -2, -1], [2, -2, 0, -1, 2, 2], [2, -1, 1, 1, 0, 2],
             [-1, 1, -2, -2, 0, 1], [0, 0, -2, 2, 0, -1], [-2, -2, 1, 2, 2, 2],
             [1, 1, -2, 1, 0, 1], [0, -2, 1, 1, 2, -1], [0, 0, -1, 0, 0, -1],
             [0, -1, -1, -2, 1, -1]]
        m = bordered(a, moduli)
        start = time.perf_counter()
        divisors = elementary_divisors(m, modulus=lcm(*moduli))
        assert elementary_divisors(m) == divisors
        assert time.perf_counter() - start < 1.0
        assert divisors == (1, 1, 1, 1, 1, 1, 58, 58, 58, 3422)

    def test_rows_without_pivot_keep_the_modulus(self):
        # the divisors are those of [m | D*I]
        m = IntMatrix.from_rows([[2, 0, 0], [0, 0, 0]])
        assert elementary_divisors(m, modulus=6) == (2, 6)
        assert elementary_divisors(zero(2, 1), modulus=4) == (4, 4)

    def test_modulus_must_be_positive(self):
        with pytest.raises(ValueError):
            elementary_divisors(identity(2), modulus=0)

    @pytest.mark.parametrize("modulus", [4.0, 6.0, True, False, Fraction(4), "4"])
    @pytest.mark.parametrize("m", [zero(2, 1), IntMatrix.from_rows([[2, 3], [4, 5]])])
    def test_modulus_must_be_an_int(self, monkeypatch, m, modulus):
        # refused before any elimination: a float or bool used to come
        # back as a divisor, or end in a TypeError from gcd
        def no_elimination(*args, **kwargs):
            raise AssertionError("eliminated")

        monkeypatch.setattr(el, "hermite_normal_form", no_elimination)
        with pytest.raises(ValueError, match="modulus must be an integer"):
            elementary_divisors(m, modulus=modulus)

    @pytest.mark.parametrize("rows, modulus, divisors", [
        # a modulus that is not a prime power: gcd(2, 6) = 2 is least but
        # does not divide 3
        ([[2, 3]], 6, (1,)),
        ([[2], [3]], 6, (1, 6)),
        ([[4, 6], [6, 9]], 12, (1, 12)),
        ([[2, 0], [0, 3]], 6, (1, 6)),
        # a prime power
        ([[9, 3], [27, 6]], 81, (3, 9)),
        ([[0, 0], [0, 0]], 5, (5, 5)),
    ])
    def test_pivot_rule_hand_cases(self, rows, modulus, divisors):
        m = IntMatrix.from_rows(rows)
        assert elementary_divisors(m, modulus=modulus) == divisors
        assert determinantal_divisors(bordered(rows, [modulus] * len(rows))) == divisors

    def test_modulus_against_the_bordered_smith_form(self):
        # elementary_divisors(m, modulus=D) against the determinantal
        # divisors of [m | D*I], over rows with zero and dependent rows,
        # for prime powers ell^E and for D = lcm((ell - 1) ell^k_i)
        rng = random.Random(1231)
        for trial in range(240):
            nr, nc = rng.randint(1, 5), rng.randint(1, 4)
            ell = rng.choice((3, 5, 7, 13, 101, 59999))
            if trial % 2:
                modulus = ell ** rng.randint(1, 6)
            else:
                modulus = lcm(*((ell - 1) * ell ** rng.randint(0, 5) for _ in range(nr)))
            rows = []
            for _ in range(nr):
                kind = rng.random()
                if kind < 0.2:
                    rows.append([0] * nc)
                elif kind < 0.4 and rows:
                    a, b = rng.choice(rows), rng.choice(rows)
                    p, q = rng.randint(-3, 3), rng.randint(-3, 3)
                    rows.append([p * x + q * y for x, y in zip(a, b)])
                else:
                    scale = rng.choice((1, ell, ell - 1, modulus))
                    rows.append([scale * rng.randint(-9, 9) for _ in range(nc)])
            m = IntMatrix.from_rows(rows, cols=nc)
            assert elementary_divisors(m, modulus=modulus) == \
                determinantal_divisors(bordered(rows, [modulus] * nr)), (rows, modulus)

    def test_zero_matrix(self):
        assert elementary_divisors(zero(3, 2)) == ()

    def test_no_rows(self):
        m = IntMatrix.from_rows([], cols=3)
        assert elementary_divisors(m) == determinantal_divisors(m) == ()


def hermite_normal_form_reference(m: IntMatrix) -> IntMatrix:
    """The earlier `exact_linalg.hermite_normal_form`, verbatim: every row
    takes part in every column's Euclidean steps, and zero rows stay."""
    a = [list(row) for row in m.rows]
    nr, nc = len(m.rows), m.cols
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        # single nonzero below r in this column, via euclidean steps
        while True:
            nz = [i for i in range(r + 1, nr) if a[i][c]]
            if not nz:
                break
            for i in nz:
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            nz = [i for i in range(r + 1, nr) if a[i][c]]
            if nz:
                best = min(nz, key=lambda i: abs(a[i][c]))
                a[r], a[best] = a[best], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return IntMatrix.from_rows(a[:r], cols=nc)


def random_hermite_input(rng: random.Random) -> IntMatrix:
    """Wide or tall, with zero rows, negative entries and, half the
    time, rows that are combinations of the others."""
    cols = rng.randint(1, 7)
    rows = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rng.randint(0, 7))]
    if rows and rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            q = rng.randint(-3, 3)
            rows.append([x + q * y for x, y in zip(rows[i], rows[j])])
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), [0] * cols)
    return IntMatrix.from_rows(rows, cols=cols)


def catalogue_orbit_matrices(max_order: int):
    """The orbit matrix of every buildable single-factor class of
    `verify`'s catalogue."""
    for group in builtin_groups(max_order):
        for conj in group.central_involutions():
            for t in enumerate_types(group, conj, up_to_translation=True):
                try:
                    yield IntMatrix.from_rows(_orbit_matrix(CMDatum(group, conj, (t,)))[1])
                except DuplicateCharactersError:
                    continue


class TestHermite:
    def test_canonical_for_equal_lattices(self):
        rng = random.Random(55)
        for _ in range(25):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            h1 = hermite_normal_form(IntMatrix.from_rows(rows, cols=n))
            # unimodular row mixes keep the lattice fixed
            mixed = [list(r) for r in rows]
            for _ in range(6):
                i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
                if i != j:
                    q = rng.randint(-2, 2)
                    mixed[i] = [x + q * y for x, y in zip(mixed[i], mixed[j])]
            rng.shuffle(mixed)
            h2 = hermite_normal_form(IntMatrix.from_rows(mixed, cols=n))
            assert h1 == h2

    def test_pivot_normalization(self):
        h = hermite_normal_form(IntMatrix.from_rows([[0, -2], [3, 1]]))
        assert h.rows == ((3, 1), (0, 2))

    def test_matches_the_reference_randomized(self):
        rng = random.Random(1717)
        shapes = set()
        for _ in range(400):
            m = random_hermite_input(rng)
            assert hermite_normal_form(m) == hermite_normal_form_reference(m), m
            shapes.add((len(m.rows) > m.cols, len(m.rows) < m.cols))
        assert shapes == {(True, False), (False, True), (False, False)}

    def test_matches_the_reference_on_catalogue_orbit_matrices(self):
        count = 0
        for m in catalogue_orbit_matrices(12):
            assert hermite_normal_form(m) == hermite_normal_form_reference(m)
            count += 1
        assert count == 44

    def test_matches_the_reference_on_unit_quotient_inputs(self, monkeypatch):
        # 0/1/-1 matrices and the build's half rows, where quotients of 1
        # and -1 dominate, then each again with a few large entries
        quotients = {1: 0, -1: 0, "other": 0}
        real = el._minus_multiple

        def counting(row, q, head):
            quotients[q if q in (1, -1) else "other"] += 1
            return real(row, q, head)

        monkeypatch.setattr(el, "_minus_multiple", counting)
        rng = random.Random(606)
        inputs = []
        for _ in range(300):
            cols = rng.randint(1, 8)
            inputs.append([[rng.choice((-1, 0, 0, 1)) for _ in range(cols)]
                           for _ in range(rng.randint(1, 9))])
        for group in builtin_groups(12):
            for conj in group.central_involutions():
                for t in enumerate_types(group, conj, up_to_translation=True):
                    datum = CMDatum(group, conj, (t,))
                    try:
                        rows = _orbit_matrix(datum)[1]
                    except DuplicateCharactersError:
                        continue
                    inputs.append(_half_rows(datum, rows))
        for rows in inputs[:]:
            mixed = [list(row) for row in rows]
            for _ in range(rng.randint(1, 3)):
                mixed[rng.randrange(len(mixed))][rng.randrange(len(mixed[0]))] = (
                    rng.choice((-1, 1)) * rng.randint(2, 10 ** 20))
            inputs.append(mixed)
        for rows in inputs:
            m = IntMatrix.from_rows(rows)
            assert hermite_normal_form(m) == hermite_normal_form_reference(m), m
        assert len(inputs) == 2 * (300 + 44)
        assert quotients[1] + quotients[-1] > quotients["other"], quotients
        assert min(quotients[1], quotients[-1]) > 1000, quotients

    def test_echelon_phase_fixes_the_pivots(self):
        # positive pivots in increasing columns, zero before each, with
        # the columns and values of the canonical form's pivots
        rng = random.Random(3131)
        for _ in range(300):
            m = random_hermite_input(rng)
            rows, pivots = hermite_echelon(m)
            assert [(c, row[c]) for c, row in zip(pivots, rows)] == hermite_pivots(
                hermite_normal_form_reference(m)), m
            assert all(row[c] > 0 and not any(row[:c]) for c, row in zip(pivots, rows))

    def test_zero_and_empty_inputs(self):
        for m in (IntMatrix.from_rows([[0, 0], [0, 0]]), IntMatrix.from_rows([], cols=3),
                  IntMatrix.from_rows([(), ()])):
            assert hermite_normal_form(m) == hermite_normal_form_reference(m)
            assert hermite_normal_form(m).rows == ()


class TestHermiteDivisors:
    def test_pivots_are_the_first_nonzero_entries(self):
        rng = random.Random(2424)
        for _ in range(200):
            h = hermite_normal_form(random_hermite_input(rng))
            assert hermite_pivots(h) == [
                next((j, x) for j, x in enumerate(row) if x) for row in h.rows]

    def test_agrees_with_the_plain_divisors(self):
        rng = random.Random(2323)
        moduli = set()
        for _ in range(300):
            h = hermite_normal_form(random_hermite_input(rng))
            if not h.rows:
                continue
            assert hermite_divisors(h, hermite_pivots(h)) == elementary_divisors(h), h
            moduli.add(min(4, prod(next(filter(None, row)) for row in h.rows)))
        assert moduli == {1, 2, 3, 4}

    def test_on_catalogue_orbit_matrices(self):
        for m in catalogue_orbit_matrices(12):
            h = hermite_normal_form(m)
            assert hermite_divisors(h, hermite_pivots(h)) == elementary_divisors(m)

    def test_unit_pivots_run_no_elimination(self, monkeypatch):
        def no_elimination(*args, **kwargs):
            raise AssertionError("elimination with unit pivots")

        monkeypatch.setattr(el, "elementary_divisors", no_elimination)
        monkeypatch.setattr(el, "hermite_normal_form", no_elimination)
        h = IntMatrix.from_rows([[1, 5, -3, 2], [0, 0, 1, 7]])
        assert hermite_divisors(h, hermite_pivots(h)) == (1, 1)

    def test_the_pivot_product_is_the_modulus(self, monkeypatch):
        seen = []
        real = el.elementary_divisors

        def recording(m, modulus=None):
            seen.append((len(m.rows), m.cols, modulus))
            return real(m, modulus)

        monkeypatch.setattr(el, "elementary_divisors", recording)
        h = IntMatrix.from_rows([[2, 1, 0], [0, 3, 1]])
        assert hermite_divisors(h, hermite_pivots(h)) == elementary_divisors(h) == (1, 1)
        # one elimination of the whole 2 x 3 block, modulo 2 * 3
        assert seen == [(2, 3, 6)]


def random_kernel_inputs(rng: random.Random, count: int):
    """Random small matrices, then the edge cases: no rows, the zero
    matrix, full column rank, and no columns."""
    for _ in range(count):
        nr, nc = rng.randint(0, 5), rng.randint(1, 6)
        yield IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)], cols=nc)
    yield IntMatrix.from_rows([], cols=4)
    yield zero(3, 4)
    yield IntMatrix.from_rows([[2, 1], [0, 3], [4, 5]])
    yield identity(3)
    yield IntMatrix.from_rows([(), ()])


class TestKernel:
    def test_cycle(self):
        k = integer_kernel(CYCLE4)
        (x,) = k.rows
        for row in CYCLE4.rows:
            assert sum(a * b for a, b in zip(row, x)) == 0
        assert tuple(map(abs, x)) == (1, 1, 1, 1)

    def test_kernel_is_saturated(self):
        # annihilates m, has cols - rank rows, all divisors 1 and is its
        # own Hermite form: this fixes the matrix
        rng = random.Random(4242)
        for m in random_kernel_inputs(rng, 150):
            check_kernel(m, integer_kernel(m))

    def test_matches_the_kernel_of_the_whole_form(self):
        # only the kernel rows of the echelon basis are reduced: the same
        # basis as the identity-block rows of the whole Hermite form, on
        # random and edge-shaped inputs and on both kernels that every
        # `run_verify(16)` representative's `cochar_basis` takes
        rng = random.Random(5151)
        inputs = [random_hermite_input(rng) for _ in range(300)]
        inputs += random_kernel_inputs(rng, 0)
        for m in inputs:
            assert integer_kernel(m) == integer_kernel_reference(m), m
        reps = 0
        for group in builtin_groups(16):
            for conj in group.central_involutions():
                for t in enumerate_types(group, conj, up_to_translation=True):
                    try:
                        cs = build_character_system(CMDatum(group, conj, (t,)))
                    except DuplicateCharactersError:
                        continue
                    perp = integer_kernel_reference(cs.hermite)
                    assert integer_kernel(cs.hermite) == perp
                    assert cs.cochar_basis == integer_kernel_reference(perp)
                    reps += 1
        assert reps == 381


def integer_kernel_reference(m: IntMatrix) -> IntMatrix:
    """The earlier `exact_linalg.integer_kernel`: the identity-block parts
    of the rows with a zero m-part in the whole Hermite form of
    [m^T | I], taken by `hermite_normal_form_reference`."""
    nr, nc = len(m.rows), m.cols
    h = hermite_normal_form_reference(IntMatrix.from_rows(
        [col + (0,) * j + (1,) + (0,) * (nc - j - 1) for j, col in enumerate(m.columns())],
        cols=nr + nc))
    return IntMatrix.from_rows([row[nr:] for row in h.rows if not any(row[:nr])], cols=nc)


class TestSaturate:
    def test_single_even_vector(self):
        basis, index = saturate(IntMatrix.from_rows([[2, 0]]))
        assert basis.rows == ((1, 0),)
        assert index == 2

    def test_already_saturated(self):
        basis, index = saturate(identity(2))
        assert basis == identity(2)
        assert index == 1

    def test_full_rank_sublattice(self):
        # the rational span of these rows is the whole plane, so the
        # saturation is Z^2; (1, 0) = (1/2)*(2, 2) - (1/4)*(0, 4)
        rows = [[2, 2], [0, 4]]
        assert in_rational_span(rows, [1, 0])
        basis, index = saturate(IntMatrix.from_rows(rows))
        assert basis == identity(2)
        assert index == 8

    def test_box_oracle_randomized(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(2, 3)
            k = rng.randint(1, 2)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            basis, index = saturate(IntMatrix.from_rows(rows, cols=n))
            # every small integer vector of the rational span must lie in
            # the claimed lattice with integer coordinates
            span_rows = [r for r in rows if any(r)]
            from itertools import product
            for v in product(range(-3, 4), repeat=n):
                v = list(v)
                if not span_rows:
                    expect = not any(v)
                else:
                    expect = in_rational_span(span_rows, v)
                if expect and basis.rows:
                    assert hermite_coordinates(basis, v) is not None
                elif expect:
                    assert not any(v)

    def test_idempotent(self):
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            basis, _ = saturate(IntMatrix.from_rows(rows, cols=n))
            again, idx = saturate(basis)
            assert again == basis
            assert idx == 1

    def test_characterization_randomized(self):
        # contains the rows, has their rank and all divisors 1, and the
        # index is the product of the divisors of m: this fixes the lattice
        rng = random.Random(2719)
        for m in random_kernel_inputs(rng, 150):
            basis, index = saturate(m)
            check_saturation(m, basis)
            assert index == prod(elementary_divisors(m)) == prod(determinantal_divisors(m))


class TestIntSpanBasis:
    def test_matches_canonical_span(self):
        rng = random.Random(909)
        for _ in range(30):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            b = span_of(rows, n)
            assert b.key() == echelon_key_reference(rows)
            v = [rng.randint(-3, 3) for _ in range(n)]
            assert contains(b, v) == in_rational_span(rows, v)
        # 0/1 and 0/-1/1 vectors, as the characters are, reach the
        # unit-pivot steps of the reduction and of the insertion
        for _ in range(60):
            n = rng.randint(2, 24)
            low = rng.choice((0, -1))
            rows = [[rng.randint(low, 1) for _ in range(n)]
                    for _ in range(rng.randint(1, min(n, 12)))]
            b = span_of(rows, n)
            assert b.key() == echelon_key_reference(rows), rows
            v = [rng.randint(low, 1) for _ in range(n)]
            assert contains(b, v) == in_rational_span(rows, v)

    def test_insert_reports_growth(self):
        b = IntSpanBasis(3)
        assert b.insert([1, 2, 0])
        assert not b.insert([2, 4, 0])
        assert b.insert([0, 0, 5])
        assert b.dim == 2

    def test_direction_of_parallel_vectors(self):
        b = IntSpanBasis(4)
        b.insert([1, 1, 0, 0])
        # both are multiples of (0, 1, 2, 3) modulo the span
        u = b.direction([1, 2, 2, 3])
        w = b.direction([-3, -6, -6, -9])
        assert u == w == (0, 1, 2, 3)
        assert b.direction([1, 2, 2, 4]) != u

    def test_direction_inside_is_none(self):
        b = IntSpanBasis(3)
        b.insert([1, 2, 0])
        b.insert([0, 1, 1])
        assert b.direction([2, 5, 1]) is None
        assert b.direction([0, 0, 0]) is None
        with pytest.raises(ValueError):
            b.direction([1, 2])

    def test_direction_primitive_with_positive_lead(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(2, 6)
            b = IntSpanBasis(n)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
            for r in rows:
                b.insert(r)
            v = [rng.randint(-6, 6) for _ in range(n)]
            dirn = b.direction(v)
            if dirn is None:
                assert contains(b, v)
                continue
            assert gcd(*dirn) == 1
            assert next(x for x in dirn if x) > 0
            # the direction is v modulo the span, up to a nonzero scalar
            assert not contains(b, dirn)
            grown = b.copy()
            grown.insert(v)
            assert contains(grown, dirn)
            assert b.direction([-3 * x for x in v]) == dirn


def hermite_coordinates(basis: IntMatrix, vector) -> list[int] | None:
    """Integer x with x @ basis = vector; None when the vector is outside.

    The back-substitution the character coordinates were once read
    with, kept as the lattice-membership oracle of these tests; `basis`
    must be in row echelon form with nonzero pivots.
    """
    if len(vector) != basis.cols:
        raise ValueError("vector width mismatch")
    v = list(vector)
    coords = []
    for row in basis.rows:
        p = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[p], row[p])
        if rem:
            return None
        if q:
            v = [x - q * y for x, y in zip(v, row)]
        coords.append(q)
    return None if any(v) else coords


def coordinates_case(basis: IntMatrix, v) -> str:
    """Compare back-substitution with the rational reference on one vector."""
    ref = solve_left_reference(basis, v)
    got = hermite_coordinates(basis, v)
    if ref is None:
        assert got is None
        return "outside"
    if any(c.denominator != 1 for c in ref):
        assert got is None
        return "fractional"
    assert got == [int(c) for c in ref]
    return "integral"


class TestHermiteCoordinates:
    def test_roundtrip(self):
        rng = random.Random(3131)
        for _ in range(25):
            n = rng.randint(2, 5)
            d = rng.randint(1, n)
            while True:
                basis = IntMatrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)], cols=n)
                if rank(basis) == d:
                    break
            basis = hermite_normal_form(basis)
            x = [rng.randint(-3, 3) for _ in range(d)]
            v = [sum(a * b for a, b in zip(x, col)) for col in basis.columns()]
            assert hermite_coordinates(basis, v) == x

    def test_outside_span(self):
        basis = IntMatrix.from_rows([[1, 0, 0]])
        assert hermite_coordinates(basis, [0, 1, 0]) is None

    def test_rational_but_not_integral(self):
        # (1, 1) = (1/2) * (2, 2): in the span, not in the lattice
        basis = hermite_normal_form(IntMatrix.from_rows([[2, 2], [0, 4]]))
        assert solve_left_reference(basis, [1, 1]) == [Fraction(1, 2), Fraction(0)]
        assert hermite_coordinates(basis, [1, 1]) is None

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            hermite_coordinates(identity(2), [1, 2, 3])

    def test_against_reference_randomized(self):
        rng = random.Random(4242)
        seen = set()
        for _ in range(60):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            basis = hermite_normal_form(IntMatrix.from_rows(rows, cols=n))
            if not basis.rows:
                continue
            for _ in range(8):
                x = [rng.randint(-3, 3) for _ in basis.rows]
                v = [sum(a * b for a, b in zip(x, col)) for col in basis.columns()]
                # dividing out the content often leaves the lattice but
                # never the rational span
                g = gcd(*v)
                seen.add(coordinates_case(basis, v))
                if g > 1:
                    seen.add(coordinates_case(basis, [c // g for c in v]))
                seen.add(coordinates_case(basis, [rng.randint(-4, 4) for _ in range(n)]))
        assert seen == {"integral", "fractional", "outside"}
