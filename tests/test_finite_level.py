"""Finite-level degrees: frozen examples, grids, sandwich properties.

The closed-form sweep and the divisors-only degrees are also compared
with the bordered Smith-form computations they replaced, kept here as
`lattice_image_size_reference`, `staircase_bounds_reference` and
`exponent_sweep_reference`.
"""

import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import pytest

import cmtorsion.exact_linalg as el
import cmtorsion.finite_level as fl
from cmtorsion.alpha_engine import build_report
from cmtorsion.cli import main
from cmtorsion.cm_core import (
    CMDatum,
    CMType,
    CosetSpace,
    FiniteGroup,
    InvariantError,
    enumerate_types,
)
from cmtorsion.exact_linalg import IntMatrix, IntSpanBasis, elementary_divisors
from cmtorsion.finite_level import (
    PRIME_TEST_LIMIT,
    StaircaseBounds,
    SweepRow,
    degree_of_subgroup,
    exponent_sweep,
    staircase_bounds,
)
from cmtorsion.mt_torus import DuplicateCharactersError, build_character_system
from cmtorsion.verify import builtin_groups
from kernel_helpers import unit_order


def single_factor(group: FiniteGroup, conj: int, phi) -> CMDatum:
    space = CosetSpace(group, [0])
    return CMDatum(group, conj, (CMType(space, frozenset(phi)),))


def elliptic():
    return build_character_system(single_factor(FiniteGroup.abelian([2]), 1, [0]))


def quartic():
    return build_character_system(single_factor(FiniteGroup.abelian([4]), 2, [0, 1]))


def quaternion():
    group = FiniteGroup.dicyclic(2)
    return build_character_system(single_factor(group, 2, [0, 1, 4, 5]))


class TestUnitGroups:
    def test_orders(self):
        assert fl._unit_order(3, 1) == 2
        assert fl._unit_order(7, 2) == 42
        assert fl._unit_order(101, 1) == 100

    def test_rejects_non_odd_primes(self):
        cs = elliptic()
        for bad in (1, 2, 4, 9, 15, 21, 25, 91):
            with pytest.raises(ValueError):
                degree_of_subgroup(cs, bad, {0: 1})
        with pytest.raises(ValueError):
            degree_of_subgroup(cs, 5, {0: 0})

    def test_point_count(self):
        # every character at level n on a saturated system: the degree
        # is the number of level-n points of the split rank-d torus
        for cs in (elliptic(), quartic()):
            assert cs.saturation_index == 1
            for ell, n in ((3, 1), (5, 1), (7, 2), (101, 3)):
                full = {i: n for i in range(2 * cs.genus)}
                assert degree_of_subgroup(cs, ell, full) == unit_order(ell, n) ** cs.dim
        assert degree_of_subgroup(elliptic(), 7, {0: 2, 1: 2}) == 42 ** 2 == 1764


class TestDegrees:
    def test_quartic_full_level_one(self):
        cs = quartic()
        assert degree_of_subgroup(cs, 5, {i: 1 for i in range(4)}) == 64

    def test_single_character(self):
        cs = elliptic()
        assert degree_of_subgroup(cs, 5, {0: 1}) == 4

    def test_elliptic_full_level_two(self):
        cs = elliptic()
        assert degree_of_subgroup(cs, 7, {0: 2, 1: 2}) == 1764

    def test_validation(self):
        cs = elliptic()
        with pytest.raises(ValueError):
            degree_of_subgroup(cs, 5, {})
        with pytest.raises(ValueError):
            degree_of_subgroup(cs, 5, {4: 1})
        with pytest.raises(ValueError):
            degree_of_subgroup(cs, 5, {0: 0})
        with pytest.raises(ValueError):
            degree_of_subgroup(cs, 6, {0: 1})

    def test_point_count_agrees_with_image_of_identity(self):
        for d in range(1, 9):
            identity = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
            for ell in (3, 5, 7, 101):
                for n in (1, 2, 3):
                    m = unit_order(ell, n)
                    assert fl._image(identity, [m] * d) == m ** d

    def test_nested_specs_give_divisible_degrees(self):
        cs = quartic()
        rng = random.Random(41)
        for _ in range(50):
            outer_support = rng.sample(range(4), rng.randint(1, 4))
            outer = {i: rng.randint(1, 4) for i in outer_support}
            inner_support = rng.sample(outer_support,
                                       rng.randint(1, len(outer_support)))
            inner = {i: rng.randint(1, outer[i]) for i in inner_support}
            for ell in (3, 5, 13):
                d_outer = degree_of_subgroup(cs, ell, outer)
                d_inner = degree_of_subgroup(cs, ell, inner)
                assert d_outer % d_inner == 0


class TestStaircase:
    def test_quartic_level_one_exact(self):
        cs = quartic()
        levels = {i: 1 for i in range(4)}
        b = staircase_bounds(cs, 5, levels)
        assert (b.exponent, b.span_dim, b.saturation) == (3, 3, 1)
        assert b.lower == 64
        assert b.upper == 125
        assert b.admits(64)

    def test_quaternion_needs_saturation_adjustment(self):
        # the witness span has saturation defect 2, so the plain lower
        # bound exceeds the true degree; the adjusted bound is tight
        cs = quaternion()
        assert cs.saturation_index == 2
        levels = {i: 1 for i in range(8)}
        degree = degree_of_subgroup(cs, 3, levels)
        b = staircase_bounds(cs, 3, levels)
        assert degree == 16
        assert (b.lower, b.upper, b.saturation) == (32, 243, 2)
        assert b.lower > degree
        assert b.admits(degree)

    def test_mixed_levels_sandwich_property(self):
        rng = random.Random(5)
        systems = [elliptic(), quartic(), quaternion()]
        group = FiniteGroup.abelian([2, 6])
        systems.append(build_character_system(
            single_factor(group, 3, [0, 1, 2, 6, 7, 11])))
        for cs in systems:
            m = 2 * cs.genus
            for ell in (3, 5, 7):
                for _ in range(8):
                    active = rng.sample(range(m), rng.randint(1, m))
                    levels = {i: rng.randint(1, 3) for i in active}
                    degree = degree_of_subgroup(cs, ell, levels)
                    assert staircase_bounds(cs, ell, levels).admits(degree)

    def test_exponent_orders_levels_before_picking(self):
        # with one character at level 3 the greedy exponent must count
        # the high level even when a low-level character precedes it
        cs = quartic()
        b = staircase_bounds(cs, 5, {0: 1, 1: 3})
        assert b.exponent == 4
        assert b.span_dim == 2


class TestSweep:
    def test_quartic_sweep_rows(self):
        cs = quartic()
        rows = exponent_sweep(cs, [5, 13, 101], 1)
        assert [r.ell for r in rows] == [5, 13, 101]
        for r in rows:
            assert r.n == 1
            assert r.subgroup_order == r.ell ** 4
            assert r.degree == (r.ell - 1) ** 3
            assert r.dim_w == 3
            assert r.n_w == 4
            assert r.bound_ok

    def test_quartic_estimate_close_at_101(self):
        cs = quartic()
        row = exponent_sweep(cs, [101], 1)[0]
        target = Fraction(4, 3)
        assert abs(row.estimate_decimal - float(target)) <= 0.01 * float(target)
        # the same inequality settled in exact integer arithmetic:
        # log(101^4)/log(100^3) within 1 percent of 4/3 means
        # 100^396 <= 101^400 <= 100^404
        assert 101 ** 400 <= 100 ** 404
        assert 101 ** 400 >= 100 ** 396

    def test_elliptic_estimate_approaches_one(self):
        cs = elliptic()
        rows = exponent_sweep(cs, [5, 101], 2)
        assert rows[0].subgroup_order == 5 ** 4
        assert rows[0].degree == unit_order(5, 2) ** 2
        last = rows[-1]
        assert abs(last.estimate_decimal - 1.0) <= 0.01

    def test_quaternion_sweep_converges_down(self):
        cs = quaternion()
        rows = exponent_sweep(cs, [3, 5, 101], 1)
        estimates = [r.estimate_decimal for r in rows]
        assert estimates == sorted(estimates, reverse=True)
        assert abs(estimates[-1] - 1.6) <= 0.06
        assert all(r.bound_ok for r in rows)

    def test_sweep_is_deterministic(self):
        cs = quartic()
        assert exponent_sweep(cs, [5, 13], 1) == exponent_sweep(cs, [5, 13], 1)

    def test_full_witness_reads_the_build_divisors(self, monkeypatch):
        # a witness of all 2g characters has the rows of H^T, whose
        # divisors the build kept: the sweep runs no elimination
        calls = []

        def recording(name):
            real = getattr(fl, name)

            def call(m, *args, **kwargs):
                calls.append((name, len(m.rows), m.cols))
                return real(m, *args, **kwargs)
            return call

        systems = [(cs, build_report(cs)) for cs in (elliptic(), quartic(), quaternion())]
        expected = [exponent_sweep_reference(cs, [3, 101], 2, report)
                    for cs, report in systems]
        for name in ("elementary_divisors", "hermite_normal_form"):
            monkeypatch.setattr(fl, name, recording(name))
        for (cs, report), rows in zip(systems, expected):
            assert report.witness.n == 2 * cs.genus
            assert exponent_sweep(cs, [3, 101], 2, report) == rows
        assert calls == []
        # a witness of fewer characters reads the divisors of its
        # `_active_lattice` entry: one Hermite form of the d x 3 columns,
        # whose pivots multiply to 1, then none on a repeated call
        cs, report = systems[2]
        part = dataclasses.replace(report, witness=dataclasses.replace(
            report.witness, generating_indices=(0, 2, 5), n=3))
        fl._active_lattice.cache_clear()
        for _ in range(2):
            assert exponent_sweep(cs, [3, 101], 2, part) == \
                exponent_sweep_reference(cs, [3, 101], 2, part)
            assert calls == [("hermite_normal_form", cs.dim, 3)]
        # the entry keeps what its readers take, not the Hermite form
        entry = fl._active_lattice(cs.char_coords, (0, 2, 5))
        assert len(entry) == 3 and not any(isinstance(x, IntMatrix) for x in entry)


# ---------------------------------------------------------------------------
# Primality

def is_prime_reference(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


# factors of each bound of finite_level._BASE_COUNTS
BASE_COUNT_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


class TestPrimality:
    def test_agrees_with_a_sieve_below_a_million(self):
        n = 10 ** 6
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, n, p)))
        accepted = []
        for ell in range(3, n, 2):
            try:
                fl._require_odd_prime(ell)
                accepted.append(ell)
            except ValueError:
                pass
        assert accepted == [ell for ell in range(3, n, 2) if sieve[ell]]

    @pytest.mark.parametrize("bound, count", fl._BASE_COUNTS)
    def test_each_base_count_bound_is_refused(self, bound, count):
        # the bound is a composite that the first `count` bases let
        # through; it falls in the next band, whose bases refuse it
        factors = BASE_COUNT_FACTORS[bound]
        assert math.prod(factors) == bound and min(factors) > 1
        assert all(strong_probable_prime(bound, a) for a in fl._PRIME_BASES[:count])
        with pytest.raises(ValueError):
            fl._require_odd_prime(bound)

    def test_agrees_with_trial_division(self):
        for n in range(-3, 5000):
            expected = n % 2 == 1 and is_prime_reference(n)
            try:
                fl._require_odd_prime(n)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, n

    def test_large_prime_accepted_quickly(self):
        ell = 10 ** 18 + 3  # 19 digits, prime
        start = time.perf_counter()
        fl._require_odd_prime(ell)
        rows = exponent_sweep(quartic(), [ell], 1)
        assert time.perf_counter() - start < 1.0
        assert rows[0].degree == (ell - 1) ** 3

    @pytest.mark.parametrize("n", [
        561, 41041,            # Carmichael numbers
        3215031751,            # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,   # ... to every prime base up to 31
        318665857834031151167461,  # ... up to 37, composite below the limit
    ])
    def test_pseudoprimes_rejected(self, n):
        with pytest.raises(ValueError, match="odd prime"):
            fl._require_odd_prime(n)

    def test_pseudoprime_factors(self):
        assert 561 == 3 * 11 * 17
        assert 41041 == 7 * 11 * 13 * 41
        assert 3215031751 == 151 * 751 * 28351
        assert 318665857834031151167461 == 399165290221 * 798330580441
        assert 3825123056546413051 == 149491 * 747451 * 34233211
        # the limit itself passes all 13 bases, which is why it is excluded
        assert PRIME_TEST_LIMIT == 1287836182261 * 2575672364521

    def test_limit_refused(self):
        for n in (PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 2, 10 ** 30 + 57):
            with pytest.raises(ValueError, match="below"):
                fl._require_odd_prime(n)
            with pytest.raises(ValueError):
                exponent_sweep(quartic(), [n], 1)

    def test_cli_refuses_ell_above_limit(self, tmp_path, capsys):
        p = tmp_path / "quartic.json"
        p.write_text(json.dumps({"group": {"kind": "abelian", "invariants": [4]},
                                 "conj": 2, "factors": [{"phi": [0, 1]}]}))
        assert main(["simulate", str(p), "--ell", f"5,{PRIME_TEST_LIMIT + 2}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "below" in captured.err


# ---------------------------------------------------------------------------
# Validation that the closed form no longer meets on its way

class TestValidation:
    @pytest.mark.parametrize("bad", [1, 2, 9, 15, 91])
    def test_sweep_rejects_non_prime_before_any_row(self, bad):
        cs = quartic()
        for ells in ([bad], [5, bad], [5, 13, bad]):
            with pytest.raises(ValueError, match="odd prime"):
                exponent_sweep(cs, ells, 1)

    def test_cached_verdict_keeps_the_type_checks(self):
        # 7.0 and 7, True and 1 are equal cache keys: the type check
        # must still refuse them once 7 is cached
        fl._require_odd_prime(7)
        assert fl._miller_rabin.cache_info().currsize >= 1
        hits = fl._miller_rabin.cache_info().hits
        fl._require_odd_prime(7)
        assert fl._miller_rabin.cache_info().hits == hits + 1
        for bad in (7.0, True, 7.5, "7"):
            with pytest.raises(ValueError, match="must be an integer"):
                fl._require_odd_prime(bad)
        with pytest.raises(ValueError, match="odd prime"):
            fl._require_odd_prime(9)
        with pytest.raises(ValueError, match="odd prime"):
            fl._require_odd_prime(9)

    def test_sweep_rejects_level_zero(self):
        with pytest.raises(ValueError):
            exponent_sweep(quartic(), [5], 0)

    @pytest.mark.parametrize("ells, level", [([4], 1), ([5], 0)])
    def test_sweep_validates_before_the_report(self, monkeypatch, ells, level):
        # a bad prime or level is refused before the witness search runs
        def no_report(cs):
            raise AssertionError("build_report called before validation")

        monkeypatch.setattr(fl, "build_report", no_report)
        with pytest.raises(ValueError):
            exponent_sweep(quartic(), ells, level)

    @pytest.mark.parametrize("call", [
        lambda cs: staircase_bounds(cs, 5, {0: 2.0}),
        lambda cs: staircase_bounds(cs, 5, {0: 1.5, 1: 2}),
        lambda cs: staircase_bounds(cs, 5, {0: True}),
        lambda cs: degree_of_subgroup(cs, 5.0, {0: 1}),
        lambda cs: degree_of_subgroup(cs, 5, {0.0: 1}),
        lambda cs: degree_of_subgroup(cs, 5, {False: 1}),
        lambda cs: degree_of_subgroup(cs, 5, {"0": 1}),
        lambda cs: exponent_sweep(cs, [5], level=2.0),
        lambda cs: exponent_sweep(cs, [5.0], level=1),
        lambda cs: exponent_sweep(cs, [5], level=True),
        lambda cs: degree_of_subgroup(cs, 5, {0: 1.5}),
        lambda cs: degree_of_subgroup(cs, 5, {0: True}),
    ], ids=["staircase-float-level", "staircase-fractional-level", "staircase-bool-level",
            "degree-float-ell", "degree-float-index", "degree-bool-index",
            "degree-str-index", "sweep-float-level", "sweep-float-ell", "sweep-bool-level",
            "degree-float-level", "degree-bool-level"])
    def test_non_integer_arguments(self, call):
        # each gave a float answer or a TypeError before
        with pytest.raises(ValueError, match="must be an integer"):
            call(quartic())

    @pytest.mark.parametrize("levels, message", [
        ({}, "at least one character must carry a level"),
        ({0: 1, 9: 1}, "character index 9 out of range"),
        ({0: 1, -1: 2}, "character index -1 out of range"),
        ({0: 1, 1: 0}, "level must be at least 1, got 0"),
        ({5: 0, 0: 1.5}, "character index 5 out of range"),
        ({0: 1.5, 5: 0}, "level must be an integer, got 1.5"),
        ({2: 1, True: 1}, "character index must be an integer, got True"),
        ({2: -3, 7: 1}, "level must be at least 1, got -3"),
        ({0: 1, "1": 1}, "character index must be an integer, got '1'"),
        ({0: 1, 1.0: 1}, "character index must be an integer, got 1.0"),
        ({0: 1, 1: True}, "level must be an integer, got True"),
        ({0: 2, 1: 2.0}, "level must be an integer, got 2.0"),
        ({3: 1, 4: 1}, "character index 4 out of range"),
        ({1: 0, 0: -1}, "level must be at least 1, got 0"),
    ])
    def test_first_bad_level_entry_named(self, levels, message):
        # the entry types are checked once per distinct type; a bad entry
        # is named by the per-entry loop, in the mapping's order
        for call in (degree_of_subgroup, staircase_bounds):
            with pytest.raises(ValueError) as info:
                call(quartic(), 5, levels)
            assert str(info.value) == message

    def test_valid_levels_skip_the_per_entry_checks(self, monkeypatch):
        # a valid mapping is checked by its type sets and bounds; only
        # ell goes through `_require_int`
        seen = []
        real = fl._require_int

        def recording(value, what, low=None):
            seen.append(what)
            return real(value, what, low)

        monkeypatch.setattr(fl, "_require_int", recording)
        cs = quartic()
        levels = {0: 3, 1: 1, 2: 2, 3: 1}
        for call in (degree_of_subgroup, staircase_bounds):
            seen.clear()
            call(cs, 5, levels)
            assert seen == ["ell"]


# ---------------------------------------------------------------------------
# Differential tests against the bordered Smith-form computations

def lattice_image_size_reference(rows, moduli) -> int:
    # the divisors of the bordered [A | diag(m)], with no modulus, so the
    # reference does not run the modular elimination it checks
    k = len(rows)
    stacked = [list(r) + [moduli[i] if j == i else 0 for j in range(k)]
               for i, r in enumerate(rows)]
    index = math.prod(elementary_divisors(IntMatrix.from_rows(stacked)))
    size, rem = divmod(math.prod(moduli), index)
    assert rem == 0
    return size


def degree_reference(cs, ell: int, levels) -> int:
    pairs = sorted(levels.items())
    return lattice_image_size_reference([cs.char_coords[i] for i, _ in pairs],
                                        [unit_order(ell, n) for _, n in pairs])


def staircase_bounds_reference(cs, ell: int, levels) -> StaircaseBounds:
    pairs = sorted(levels.items())
    basis = IntSpanBasis(cs.dim)
    exponent = 0
    for i, n in sorted(pairs, key=lambda p: (-p[1], p[0])):
        if basis.insert(cs.char_coords[i]):
            exponent += n
    w = basis.dim
    rows = IntMatrix.from_rows([cs.char_coords[i] for i, _ in pairs])
    return StaircaseBounds(
        exponent=exponent,
        span_dim=w,
        saturation=math.prod(elementary_divisors(rows)),
        lower=(ell - 1) ** w * ell ** (exponent - w),
        upper=ell ** exponent,
    )


def exponent_sweep_reference(cs, ells, level: int, report) -> list[SweepRow]:
    """One bordered Smith form and one staircase per prime."""
    levels = {i: level for i in report.witness.generating_indices}
    rows = []
    for ell in ells:
        degree = degree_reference(cs, ell, levels)
        bounds = staircase_bounds_reference(cs, ell, levels)
        order = ell ** (level * report.witness.n)
        estimate = math.inf if degree == 1 else math.log(order) / math.log(degree)
        rows.append(SweepRow(ell=ell, n=level, subgroup_order=order, degree=degree,
                             dim_w=report.witness.dim, n_w=report.witness.n,
                             estimate_decimal=estimate, bound_ok=bounds.admits(degree)))
    return rows


REFERENCE_PRIMES = (3, 5, 7, 13, 101, 59999)


@pytest.fixture(scope="module")
def catalogue():
    """Every buildable single-factor class up to order 12, the quaternion
    example, and their exponent reports."""
    systems = [quaternion()]
    for group in builtin_groups(12):
        for conj in group.central_involutions():
            for t in enumerate_types(group, conj, up_to_translation=True):
                try:
                    systems.append(build_character_system(CMDatum(group, conj, (t,))))
                except DuplicateCharactersError:
                    continue
    return [(cs, build_report(cs)) for cs in systems]


class TestAgainstReference:
    def test_catalogue_size(self, catalogue):
        assert len(catalogue) == 45

    @pytest.mark.parametrize("level", range(1, 7))
    def test_sweep_rows(self, catalogue, level):
        for cs, report in catalogue:
            assert exponent_sweep(cs, REFERENCE_PRIMES, level, report) == \
                exponent_sweep_reference(cs, REFERENCE_PRIMES, level, report)

    def test_witness_degrees_and_bounds(self, catalogue):
        for cs, report in catalogue:
            for level in (1, 4):
                levels = {i: level for i in report.witness.generating_indices}
                for ell in REFERENCE_PRIMES:
                    assert degree_of_subgroup(cs, ell, levels) == \
                        degree_reference(cs, ell, levels)
                    assert staircase_bounds(cs, ell, levels) == \
                        staircase_bounds_reference(cs, ell, levels)

    def test_mixed_levels(self, catalogue):
        rng = random.Random(2017)
        for cs, _ in catalogue:
            m = 2 * cs.genus
            for ell in REFERENCE_PRIMES:
                for _ in range(4):
                    active = rng.sample(range(m), rng.randint(1, m))
                    levels = {i: rng.randint(1, 6) for i in active}
                    assert degree_of_subgroup(cs, ell, levels) == \
                        degree_reference(cs, ell, levels)
                    assert staircase_bounds(cs, ell, levels) == \
                        staircase_bounds_reference(cs, ell, levels)


    def test_closed_form_and_fallback(self, catalogue, monkeypatch):
        # random mixed-level patterns, weighted to the small primes where
        # ell can divide the pivot product, on the catalogue and on
        # non-saturated order-16 classes; both branches of
        # `degree_of_subgroup` must run
        fallbacks = []
        real = fl._image

        def counting(rows, moduli):
            fallbacks.append(len(rows))
            return real(rows, moduli)

        monkeypatch.setattr(fl, "_image", counting)
        order_16 = [build_character_system(single_factor(group, conj, phi))
                    for group, conj, phi in NON_SATURATED_16]
        assert all(cs.saturation_index > 1 for cs in order_16)
        rng = random.Random(1605)
        small = (3, 5, 7) * 2
        systems = [(cs, REFERENCE_PRIMES + small, 6) for cs, _ in catalogue]
        systems += [(cs, small, 3) for cs in order_16]
        queries = 0
        for cs, ells, top in systems:
            m = 2 * cs.genus
            for ell in ells:
                for _ in range(2):
                    active = rng.sample(range(m), rng.randint(1, m))
                    levels = {i: rng.randint(1, top) for i in active}
                    assert degree_of_subgroup(cs, ell, levels) == \
                        degree_reference(cs, ell, levels)
                    assert staircase_bounds(cs, ell, levels) == \
                        staircase_bounds_reference(cs, ell, levels)
                    queries += 1
        assert 0 < len(fallbacks) < queries


# non-saturated single-factor classes of order 16 (group, conj, phi)
NON_SATURATED_16 = [
    (FiniteGroup.abelian([2, 2, 2, 2]), 1, [0, 2, 4, 6, 8, 10, 12, 15]),
    (FiniteGroup.abelian([4, 4]), 10, [0, 1, 2, 4, 9, 12, 13, 15]),
    (FiniteGroup.abelian([16]), 8, [0, 1, 2, 3, 4, 6, 7, 13]),
    (FiniteGroup.dihedral(8), 4, [0, 1, 2, 3, 8, 9, 11, 14]),
    (FiniteGroup.dicyclic(4), 4, [0, 1, 2, 3, 8, 9, 11, 14]),
]


def random_rows(rng, k: int, d: int) -> list[list[int]]:
    """k rows of width d, some zero and some combinations of earlier rows."""
    rows = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.2:
            rows.append([0] * d)
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([p * x + q * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-9, 9) for _ in range(d)])
    return rows


def random_moduli(rng, k: int) -> list[int]:
    kind = rng.choice(("coprime", "common", "mixed", "ones", "levels"))
    if kind == "coprime":
        return rng.sample([1, 2, 3, 5, 7, 11, 13, 17, 19, 23], k)
    if kind == "common":
        g = rng.choice((2, 6, 12))
        return [g * rng.randint(1, 12) for _ in range(k)]
    if kind == "mixed":
        return [rng.randint(1, 60) for _ in range(k)]
    if kind == "ones":
        return [1] * k
    ell = rng.choice((3, 5, 101))
    return [unit_order(ell, rng.randint(1, 5)) for _ in range(k)]


class TestScaledImage:
    """The image size from the scaled rows modulo lcm(m), against the
    bordered Smith form [A | diag(m)]."""

    def test_random_rows_arbitrary_moduli(self):
        rng = random.Random(3313)
        for _ in range(400):
            k, d = rng.randint(1, 5), rng.randint(1, 4)
            rows, moduli = random_rows(rng, k, d), random_moduli(rng, k)
            assert fl._image(rows, moduli) == \
                lattice_image_size_reference(rows, moduli), (rows, moduli)

    @pytest.mark.parametrize("rows, moduli, size", [
        ([[0, 0], [0, 0]], [6, 10], 1),
        ([[1, 2], [2, 4]], [6, 10], 30),
        ([[1, 2], [2, 4]], [6, 6], 6),
        ([[3, 5]], [1], 1),
        ([[1], [1]], [4, 6], 12),
        ([[1], [1]], [3, 5], 15),
        ([[2], [3]], [4, 9], 6),
    ])
    def test_small_cases(self, rows, moduli, size):
        assert fl._image(rows, moduli) == size
        assert lattice_image_size_reference(rows, moduli) == size

    def test_one_hermite_form_per_pattern(self, monkeypatch):
        # a degree and its staircase on one pattern share one Hermite
        # form; the degree takes the closed form with no modular
        # elementary divisors when ell does not divide the pivot product,
        # else exactly one `_image` of the rows scaled modulo lcm(m).
        # `elementary_divisors` is recorded where `finite_level` and
        # where `hermite_divisors` call it.
        calls = []

        def recording(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name if name != "elementary_divisors"
                             else (name, kwargs.get("modulus")))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        for name in ("hermite_normal_form", "hermite_divisors", "elementary_divisors", "_image"):
            recording(fl, name)
        recording(el, "elementary_divisors")
        c10 = build_character_system(single_factor(FiniteGroup.abelian([10]), 5, [0, 1, 2, 4, 8]))
        big = unit_order(3, 2)
        cases = [
            # pivot product 1: no elementary divisors at all
            (quaternion(), 7, {0: 1, 2: 3, 5: 2}, ["hermite_normal_form", "hermite_divisors"]),
            # pivot product 2, ell = 3: the divisors of H, from the
            # content of its one row with a non-unit pivot
            (quaternion(), 3, {i: 1 + i % 3 for i in range(8)},
             ["hermite_normal_form", "hermite_divisors"]),
            # pivot product 3, ell = 3: the fallback
            (c10, 3, {0: 2, 1: 1, 2: 1, 4: 1, 8: 1},
             ["hermite_normal_form", "hermite_divisors", "_image",
              ("elementary_divisors", big)]),
        ]
        for cs, ell, levels, expected in cases:
            fl._active_lattice.cache_clear()
            calls.clear()
            degree = degree_of_subgroup(cs, ell, levels)
            bounds = staircase_bounds(cs, ell, levels)
            assert calls == expected
            assert degree == degree_reference(cs, ell, levels)
            assert bounds == staircase_bounds_reference(cs, ell, levels)
        assert fl._active_lattice.cache_info().maxsize == 256

    def test_closed_form_keeps_the_group_order_check(self, monkeypatch):
        # a wrong (ell-1)-part is caught on the closed-form branch too
        monkeypatch.setattr(fl, "_image_size", lambda divisors, m: 3)
        with pytest.raises(InvariantError, match="does not divide the group order"):
            degree_of_subgroup(quartic(), 5, {i: 1 for i in range(4)})

    def test_size_must_divide_the_group_order(self, monkeypatch):
        # the image lies in Z/4 x Z/6, so a wrong elimination giving a
        # size of 144 is caught
        monkeypatch.setattr(fl, "elementary_divisors", lambda m, modulus=None: (1,) * len(m.rows))
        with pytest.raises(InvariantError, match="does not divide the group order"):
            fl._image([[1], [1]], [4, 6])
