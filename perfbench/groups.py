"""Group tables and coset actions for the benchmark's inputs.

Built here rather than taken from cmtorsion, so that the inputs a seed
produces stay byte-identical when the program under test changes.  The
index conventions match the ones cmtorsion documents: abelian groups
enumerate elements with the last coordinate fastest, dihedral groups
put rotations first, dicyclic groups put powers of the generator first,
and element 0 is always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product


@dataclass(frozen=True)
class Group:
    name: str
    table: tuple[tuple[int, ...], ...]
    node: dict  # the "group" field of a datum document

    @property
    def order(self) -> int:
        return len(self.table)

    def central_involutions(self) -> list[int]:
        t, n = self.table, self.order
        return [a for a in range(1, n)
                if t[a][a] == 0 and all(t[a][b] == t[b][a] for b in range(n))]


def abelian(invariants: tuple[int, ...]) -> Group:
    elems = list(product(*[range(k) for k in invariants]))
    pos = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(pos[tuple((x + y) % k for x, y, k in zip(a, b, invariants))]
                        for b in elems) for a in elems)
    name = "x".join(f"C{k}" for k in invariants)
    return Group(name, table, {"kind": "abelian", "invariants": list(invariants)})


def _table_group(name: str, size: int, mul) -> Group:
    table = tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    return Group(name, table, {"kind": "table", "name": name,
                               "table": [list(row) for row in table]})


def dihedral(n: int) -> Group:
    def mul(a, b):
        ra, fa, rb, fb = a % n, a >= n, b % n, b >= n
        if not fa and not fb:
            return (ra + rb) % n
        if not fa:
            return n + (rb - ra) % n
        if not fb:
            return n + (ra + rb) % n
        return (rb - ra) % n
    return _table_group(f"Dih{n}", 2 * n, mul)


def dicyclic(m: int) -> Group:
    n = 2 * m

    def mul(x, y):
        rx, fx, ry, fy = x % n, x >= n, y % n, y >= n
        if not fx and not fy:
            return (rx + ry) % n
        if not fx:
            return n + (ry - rx) % n
        if not fy:
            return n + (rx + ry) % n
        return (m + ry - rx) % n
    return _table_group("Q8" if m == 2 else f"Dic{m}", 4 * m, mul)


def _chains(order: int, minimum: int = 2):
    # ascending invariant-factor chains d1 | d2 | ... with product = order
    if order == 1:
        yield ()
        return
    d = minimum
    while d * d <= order:
        if order % d == 0:
            for rest in _chains(order // d, d):
                if not rest or rest[0] % d == 0:
                    yield (d,) + rest
        d += 1
    if order >= minimum:
        yield (order,)


def catalogue(max_order: int) -> list[Group]:
    """Abelian, dihedral and dicyclic groups up to the order, in the
    order cmtorsion.verify.builtin_groups lists them."""
    groups = [abelian(chain) for order in range(2, max_order + 1)
              for chain in sorted(_chains(order))]
    groups += [dihedral(n) for n in range(3, max_order // 2 + 1)]
    groups += [dicyclic(m) for m in range(2, max_order // 4 + 1)]
    return groups


def c2_times_a4() -> tuple[Group, int, tuple[int, ...]]:
    """The order-24 sign-times-even-permutations group, its conjugation
    and a three-element point stabilizer (eight cosets)."""
    evens = [p for p in permutations(range(4))
             if sum(1 for i in range(4) for j in range(i) if p[j] > p[i]) % 2 == 0]
    elems = [(z, p) for z in (0, 1) for p in evens]
    elems.sort(key=lambda e: e != (0, (0, 1, 2, 3)))
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        (z1, p), (z2, q) = elems[a], elems[b]
        return index[((z1 + z2) % 2, tuple(p[q[i]] for i in range(4)))]

    group = _table_group("C2xA4", 24, mul)
    rot = index[(0, (1, 2, 0, 3))]
    conj = index[(1, (0, 1, 2, 3))]
    return group, conj, (0, rot, group.table[rot][rot])


class Cosets:
    """Left cosets gH, numbered by increasing smallest element, with the
    left translation action."""

    def __init__(self, group: Group, subgroup: tuple[int, ...]):
        t = group.table
        seen: dict[int, int] = {}
        reps = []
        for g in range(group.order):
            if g in seen:
                continue
            for h in subgroup:
                seen[t[g][h]] = len(reps)
            reps.append(g)
        self.group = group
        self.subgroup = tuple(sorted(subgroup))
        self.size = len(reps)
        self.action = tuple(tuple(seen[t[g][r]] for r in reps)
                            for g in range(group.order))

    def conjugate_pairs(self, conj: int) -> list[tuple[int, int]]:
        pairs, seen = [], set()
        for s in range(self.size):
            if s not in seen:
                c = self.action[conj][s]
                seen.update((s, c))
                pairs.append((s, c))
        return pairs

    def class_key(self, phi) -> tuple[int, ...]:
        """Smallest sorted member of the translation orbit of phi."""
        return min(tuple(sorted(self.action[g][s] for s in phi))
                   for g in range(self.group.order))

    def columns(self, conj: int, phi) -> list[tuple[int, ...]]:
        """Orbit-matrix columns: column s is 1 in row g when g^-1 s is in phi."""
        t, n = self.group.table, self.group.order
        inv = [next(b for b in range(n) if t[a][b] == 0) for a in range(n)]
        phi = set(phi)
        return [tuple(1 if self.action[inv[g]][s] in phi else 0 for g in range(n))
                for s in range(self.size)]


def datum_doc(group: Group, conj: int, factors) -> dict:
    """Datum document; `factors` is a list of (subgroup, phi) pairs."""
    return {
        "group": group.node,
        "conj": conj,
        "factors": [{"subgroup": list(sub), "phi": sorted(phi)} for sub, phi in factors],
    }
