"""Finite group data underlying a CM type.

A datum consists of a finite group with a distinguished central
involution (the conjugation), together with one or more factors; each
factor is a coset space of the group with a choice of half its cosets
so that the choice and its conjugate translate partition the space.
Groups are represented by explicit multiplication tables, with element
0 always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iter_product
from typing import Optional, Sequence

from .exact_linalg import all_ints


class UnsupportedInputError(ValueError):
    """Raised for well-formed inputs outside the supported model."""


class InvariantError(RuntimeError):
    """A computed value broke a proved invariant: a fault, not bad input."""


def _greedy_generators(tab: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Each element not reached from the identity by right products with
    the earlier generators becomes one."""
    gens: list[int] = []
    reached = {0}
    for a in range(1, len(tab)):
        if a in reached:
            continue
        gens.append(a)
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for y in (tab[x][h] for h in gens):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return tuple(gens)


class FiniteGroup:
    """Immutable finite group given by its multiplication table.

    table[a][b] is the product a*b.  Validation checks that index 0 is
    a two-sided identity, that every element has an inverse and that
    the operation is associative, by Light's test: (x*a)*y = x*(a*y)
    for a in `generators` only, exact because the elements a passing it
    are closed under products and the generators reach every element.
    `center` holds the elements whose row equals their column.
    """

    __slots__ = ("table", "order", "inverses", "generators", "center", "name",
                 "abelian_invariants", "_hash")

    def __init__(self, table: Sequence[Sequence[int]], name: str = "",
                 abelian_invariants: Optional[tuple[int, ...]] = None):
        n = len(table)
        tab = tuple(tuple(row) for row in table)
        if not all_ints(chain.from_iterable(tab)):
            raise ValueError("multiplication table entries must be integers")
        for row in tab:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ValueError("multiplication table is not square over 0..n-1")
        if n == 0:
            raise ValueError("empty group")
        for a in range(n):
            if tab[0][a] != a or tab[a][0] != a:
                raise ValueError("element 0 is not a two-sided identity")
        inverses = [None] * n
        for a in range(n):
            for b in range(n):
                if tab[a][b] == 0:
                    if tab[b][a] != 0:
                        raise ValueError("one-sided inverse found")
                    inverses[a] = b
        if any(v is None for v in inverses):
            raise ValueError("element without inverse")
        generators = _greedy_generators(tab)
        for a in generators:
            a_row = tab[a]
            for x_row in tab:
                if tab[x_row[a]] != tuple(x_row[ay] for ay in a_row):
                    raise ValueError("operation is not associative")
        self.table = tab
        self.order = n
        self.inverses = tuple(inverses)
        self.generators = generators
        self.center = frozenset(a for a, (row, col) in enumerate(zip(tab, zip(*tab)))
                                if row == col)
        self.name = name or f"order{n}"
        self.abelian_invariants = abelian_invariants
        self._hash = hash(tab)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def central_involutions(self) -> list[int]:
        return sorted(a for a in self.center if a and self.table[a][a] == 0)

    def index_of_tuple(self, coords: Sequence[int]) -> int:
        if self.abelian_invariants is None:
            raise ValueError(f"group {self.name} has no coordinate form")
        inv = self.abelian_invariants
        if len(coords) != len(inv):
            raise ValueError("coordinate length does not match the invariants")
        idx = 0
        for c, k in zip(coords, inv):
            if not 0 <= c < k:
                raise ValueError(f"coordinate {c} outside 0..{k - 1}")
            idx = idx * k + c
        return idx

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    @classmethod
    def abelian(cls, invariants: Sequence[int]) -> "FiniteGroup":
        """Direct product of cyclic groups Z/k1 x ... x Z/kr.

        Elements are enumerated with the last coordinate varying
        fastest, so index 0 is the identity tuple.
        """
        inv = tuple(invariants)
        if not all_ints(inv):
            raise ValueError("cyclic orders must be integers")
        if not inv or any(k < 2 for k in inv):
            raise ValueError("cyclic orders must all be at least 2")
        # mixed radix, first coordinate most significant: prepend one
        # cyclic factor at a time to the table of the ones after it
        table, size = [[0]], 1
        for k in reversed(inv):
            table = [[(x + y) % k * size + z for y in range(k) for z in row]
                     for x in range(k) for row in table]
            size *= k
        name = "x".join(f"C{k}" for k in inv)
        return cls(table, name=name, abelian_invariants=inv)

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Symmetries of the n-gon, order 2n; indices: i -> r^i, n+i -> s r^i."""
        if n < 3:
            raise ValueError("dihedral constructor expects n >= 3")
        return cls(_inverting_table(n, 0), name=f"Dih{n}")

    @classmethod
    def dicyclic(cls, m: int) -> "FiniteGroup":
        """Dicyclic group of order 4m; indices: i -> a^i, 2m+i -> b a^i."""
        if m < 2:
            raise ValueError("dicyclic constructor expects m >= 2")
        return cls(_inverting_table(2 * m, m), name="Q8" if m == 2 else f"Dic{m}")


def _inverting_table(n: int, square: int) -> list[list[int]]:
    """Table of the group of order 2n made of a rotation r of order n and
    a flip s with s r s^-1 = r^-1 and s^2 = r^square; indices: i -> r^i,
    n+i -> s r^i.  Square 0 gives the dihedral group, n/2 the dicyclic."""

    def mul(a, b):
        ra, rb = a % n, b % n
        if a < n:
            return n + (rb - ra) % n if b >= n else (ra + rb) % n
        return (square + rb - ra) % n if b >= n else n + (ra + rb) % n

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


class CosetSpace:
    """Left cosets gH of a subgroup H, with the left translation action.

    Cosets are numbered in increasing order of their smallest element;
    the smallest element is the stored representative.  `plans` keeps
    the character build's data per conjugation (`mt_torus._plan`).
    """

    __slots__ = ("group", "subgroup", "cosets", "reps", "coset_of", "_action", "plans")

    def __init__(self, group: FiniteGroup, subgroup: Sequence[int]):
        if not all_ints(subgroup):
            raise ValueError("subgroup elements must be integers")
        sub = sorted(set(subgroup))
        if not sub or sub[0] != 0:
            raise ValueError("subgroup must contain the identity")
        sset = set(sub)
        for a in sub:
            if group.inv(a) not in sset:
                raise ValueError("subgroup is not closed under inverses")
            for b in sub:
                if group.mul(a, b) not in sset:
                    raise ValueError("subgroup is not closed under the product")
        seen = {}
        cosets = []
        for g in range(group.order):
            if g in seen:
                continue
            coset = sorted(group.mul(g, h) for h in sub)
            for x in coset:
                seen[x] = len(cosets)
            cosets.append(tuple(coset))
        self.group = group
        self.subgroup = tuple(sub)
        self.cosets = tuple(cosets)
        self.reps = tuple(c[0] for c in cosets)
        self.coset_of = tuple(seen[g] for g in range(group.order))
        self._action = tuple(
            tuple(self.coset_of[group.mul(g, rep)] for rep in self.reps)
            for g in range(group.order))
        self.plans: dict = {}

    @property
    def size(self) -> int:
        return len(self.cosets)

    def act(self, g: int, coset_index: int) -> int:
        return self._action[g][coset_index]

    def action_row(self, g: int) -> tuple[int, ...]:
        """The index of g·s for each coset index s, in order."""
        return self._action[g]

    def __eq__(self, other):
        return (isinstance(other, CosetSpace)
                and self.group == other.group and self.subgroup == other.subgroup)

    def __hash__(self):
        return hash((self.group, self.subgroup))


@dataclass(frozen=True)
class CMType:
    """A choice of half the cosets of a coset space."""

    space: CosetSpace
    phi: frozenset[int]

    def phi_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.phi))


@dataclass(frozen=True)
class CMDatum:
    """Group, central conjugation and a list of CM type factors.

    Valid once made: the constructor raises ValueError naming every
    structural violation, joined by "; "."""

    group: FiniteGroup
    conj: int
    factors: tuple[CMType, ...]

    def __post_init__(self):
        problems = _problems(self)
        if problems:
            raise ValueError("; ".join(problems))


def _conjugation_problems(g: FiniteGroup, c) -> list[str]:
    """Why c is not a central involution of g; empty when it is.  When c
    is no element index of g, that is the one problem named."""
    if not all_ints((c,)):
        return ["conjugation must be an integer"]
    if not 0 <= c < g.order:
        return [f"conjugation index {c} out of range"]
    problems = []
    if c == 0:
        problems.append("conjugation equals the identity")
    elif g.mul(c, c) != 0:
        problems.append("conjugation squared is not the identity")
    if c not in g.center:
        problems.append("conjugation is not central")
    return problems


def _problems(datum: CMDatum) -> list[str]:
    g, c = datum.group, datum.conj
    problems = _conjugation_problems(g, c)
    if not (all_ints((c,)) and 0 <= c < g.order):
        return problems  # no coset can be moved by c
    if not datum.factors:
        problems.append("datum has no factors")
    for k, f in enumerate(datum.factors):
        if f.space.group != g:
            problems.append(f"factor {k} lives over a different group")
            continue
        if not all_ints(f.phi):
            problems.append(f"factor {k}: phi entries must be integers")
            continue
        size = f.space.size
        if not f.phi.issubset(range(size)):
            problems.append(f"factor {k}: phi contains an invalid coset index")
            continue
        image = set(map(f.space.action_row(c).__getitem__, f.phi))
        if len(f.phi) + len(image) != size or not image.isdisjoint(f.phi):
            problems.append(
                f"factor {k}: phi and its conjugate do not partition the cosets")
    return problems


def is_primitive(t: CMType, conj: int) -> bool:
    """Trivial-translation-stabilizer test for a full coset space.

    Only the case of a trivial subgroup is supported; a type over a
    proper coset space would need its own induction analysis.
    """
    if len(t.space.subgroup) != 1:
        raise UnsupportedInputError(
            "primitivity is only decided for factors over the trivial subgroup")
    space, phi = t.space, t.phi
    if not phi.isdisjoint(map(space.action_row(conj).__getitem__, phi)):
        raise ValueError("type is not valid for the given conjugation")
    # g.phi = phi for some g != 1, read through g's action row
    return not any(phi.issuperset(map(space.action_row(g).__getitem__, phi))
                   for g in range(1, space.group.order))


def _translation_orbit(space: CosetSpace, phi: frozenset[int]) -> list[frozenset[int]]:
    return [frozenset(space.act(g, s) for s in phi) for g in range(space.group.order)]


def enumerate_types(group: FiniteGroup, conj: int, *,
                    up_to_translation: bool = False) -> list[CMType]:
    """All CM types over the trivial subgroup, in a deterministic order.

    Raw enumeration picks one element from each pair {x, conj*x}, which
    yields 2^(order/2) types.  With `up_to_translation` only the
    lexicographically smallest member of each translation orbit is
    kept: conj being central, every translate of a raw type is a raw
    type, so in the sorted raw list an orbit's first member is its least
    and the orbit is formed once, there.
    """
    problems = _conjugation_problems(group, conj)
    if problems:
        raise ValueError("; ".join(problems))
    space = CosetSpace(group, [0])
    pairs = []
    seen = set()
    for x in range(group.order):
        if x in seen:
            continue
        cx = group.mul(conj, x)
        seen.add(x)
        seen.add(cx)
        pairs.append((x, cx))
    raw = []
    for picks in iter_product(*pairs):
        raw.append(CMType(space, frozenset(picks)))
    raw.sort(key=CMType.phi_sorted)
    if not up_to_translation:
        return raw
    reps, seen = [], set()
    for t in raw:
        if t.phi not in seen:
            reps.append(t)
            seen.update(_translation_orbit(space, t.phi))
    return reps
