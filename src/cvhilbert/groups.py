"""Finite groups as explicit Cayley tables, group actions, subgroups, cosets.

All structures are immutable after construction and fully verified at desk
scale (orders up to ~1000). Element 0 is the identity for every group built
by the generators in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AxiomViolation, NotASubgroup, SizeLimit

DEFAULT_ORDER_BOUND = 1024

# Full associativity scans are cubic; above this order we only accept tables
# that come from permutation composition, which is associative by construction.
_ASSOC_SCAN_LIMIT = 200


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    cayley: np.ndarray          # (n, n) int array, cayley[a, b] = a * b
    identity: int
    inverse: np.ndarray         # (n,) int array
    labels: tuple[str, ...] | None = None

    def mult(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))


@dataclass(frozen=True, eq=False)
class GroupAction:
    group: FiniteGroup
    space_size: int
    act: np.ndarray             # (n, m) int array, act[g, x] = g . x

    def apply(self, g: int, x: int) -> int:
        return int(self.act[g, x])

    def permutation(self, g: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.act[g])


@dataclass(frozen=True, eq=False)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]    # sorted element indices

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class CosetSpace:
    parent: FiniteGroup
    subgroup: Subgroup
    cosets: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cosets)

    def coset_of(self, a: int) -> int:
        for i, block in enumerate(self.cosets):
            if a in block:
                return i
        raise ValueError(f"element {a} not in any coset")


def _check_latin(cayley: np.ndarray) -> None:
    n = cayley.shape[0]
    want = np.arange(n)
    for a in range(n):
        if not np.array_equal(np.sort(cayley[a]), want):
            raise AxiomViolation("latin-square", ("row", a))
        if not np.array_equal(np.sort(cayley[:, a]), want):
            raise AxiomViolation("latin-square", ("column", a))


def _find_identity(cayley: np.ndarray) -> int:
    n = cayley.shape[0]
    want = np.arange(n)
    for e in range(n):
        if np.array_equal(cayley[e], want) and np.array_equal(cayley[:, e], want):
            return e
    raise AxiomViolation("identity", None)


def _check_associativity(cayley: np.ndarray) -> None:
    n = cayley.shape[0]
    for a in range(n):
        left = cayley[cayley[a]]          # [(a*b)*c]_{b,c}
        right = cayley[a][cayley]         # [a*(b*c)]_{b,c}
        if not np.array_equal(left, right):
            b, c = map(int, np.argwhere(left != right)[0])
            raise AxiomViolation("associativity", (a, b, c))


def build_group(
    cayley_table,
    labels: tuple[str, ...] | None = None,
    assume_associative: bool = False,
) -> FiniteGroup:
    """Build and fully verify a group from a raw multiplication table.

    Raises AxiomViolation naming the broken axiom and a witnessing tuple.
    `assume_associative` skips the cubic scan for tables obtained from
    permutation composition.
    """
    cayley = np.asarray(cayley_table, dtype=np.int64)
    if cayley.ndim != 2 or cayley.shape[0] != cayley.shape[1]:
        raise AxiomViolation("latin-square", ("shape", cayley.shape))
    n = cayley.shape[0]
    if n == 0 or cayley.min() < 0 or cayley.max() >= n:
        raise AxiomViolation("latin-square", ("range", int(cayley.min(initial=0))))
    _check_latin(cayley)
    identity = _find_identity(cayley)
    inverse = np.empty(n, dtype=np.int64)
    for a in range(n):
        hits = np.nonzero(cayley[a] == identity)[0]
        if len(hits) != 1 or cayley[hits[0], a] != identity:
            raise AxiomViolation("inverse", (a,))
        inverse[a] = hits[0]
    if not assume_associative:
        if n > _ASSOC_SCAN_LIMIT:
            raise SizeLimit(
                f"order {n} exceeds associativity scan limit; "
                "construct via generate_permutation_group instead"
            )
        _check_associativity(cayley)
    cayley.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(n, cayley, identity, inverse, labels)


def standard_group(kind: str, n: int, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Catalogue groups: cyclic Z_n, dihedral D_n (order 2n), symmetric S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "cyclic":
        order = n
        if order > order_bound:
            raise SizeLimit(f"cyclic({n}) order {order} exceeds bound {order_bound}")
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        labels = tuple(f"r{i}" for i in range(n))
        return build_group(table, labels)
    if kind == "dihedral":
        order = 2 * n
        if order > order_bound:
            raise SizeLimit(f"dihedral({n}) order {order} exceeds bound {order_bound}")
        # element i + n*s is rotation^i * flip^s; flip conjugates rotation to its inverse
        def mul(a, b):
            i1, s1 = a % n, a // n
            i2, s2 = b % n, b // n
            i = (i1 + (i2 if s1 == 0 else -i2)) % n
            return i + n * ((s1 + s2) % 2)
        table = [[mul(a, b) for b in range(order)] for a in range(order)]
        labels = tuple(f"r{i}" for i in range(n)) + tuple(f"s{i}" for i in range(n))
        return build_group(table, labels)
    if kind == "symmetric":
        if n > 6:
            raise SizeLimit(f"symmetric({n}) refused; order {math.factorial(n)}")
        perms = list(itertools.permutations(range(n)))
        order = len(perms)
        if order > order_bound:
            raise SizeLimit(f"symmetric({n}) order {order} exceeds bound {order_bound}")
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[i]] for i in range(n))] for q in perms]
            for p in perms
        ]
        labels = tuple("".join(map(str, p)) for p in perms)
        return build_group(table, labels, assume_associative=True)
    raise ValueError(f"unknown group kind {kind!r}")


def build_action(group: FiniteGroup, act_table) -> GroupAction:
    """Verify and wrap an action table act[g, x] = g . x."""
    act = np.asarray(act_table, dtype=np.int64)
    n = group.order
    if act.ndim != 2 or act.shape[0] != n:
        raise AxiomViolation("identity-action", ("shape", act.shape))
    m = act.shape[1]
    if m == 0 or act.min() < 0 or act.max() >= m:
        raise AxiomViolation("identity-action", ("range",))
    want = np.arange(m)
    for g in range(n):
        if not np.array_equal(np.sort(act[g]), want):
            raise AxiomViolation("compatibility", ("not-a-permutation", g))
    if not np.array_equal(act[group.identity], want):
        x = int(np.nonzero(act[group.identity] != want)[0][0])
        raise AxiomViolation("identity-action", (group.identity, x))
    for g1 in range(n):
        left = act[group.cayley[g1]]        # [ (g1*g2) . x ]_{g2,x}
        right = act[g1][act]                # [ g1 . (g2 . x) ]_{g2,x}
        if not np.array_equal(left, right):
            g2, x = map(int, np.argwhere(left != right)[0])
            raise AxiomViolation("compatibility", (g1, g2, x))
    act.setflags(write=False)
    return GroupAction(group, m, act)


def orbits(action: GroupAction) -> list[list[int]]:
    """Orbit partition of the point set, blocks ordered by smallest member."""
    m = action.space_size
    seen = [False] * m
    blocks = []
    for start in range(m):
        if seen[start]:
            continue
        block = sorted(set(int(v) for v in action.act[:, start]))
        for p in block:
            seen[p] = True
        blocks.append(block)
    return blocks


def is_transitive(action: GroupAction) -> bool:
    return len(orbits(action)) == 1


def isotropy_subgroup(action: GroupAction, point: int) -> Subgroup:
    if not 0 <= point < action.space_size:
        raise ValueError(f"point {point} out of range")
    members = tuple(int(g) for g in np.nonzero(action.act[:, point] == point)[0])
    return subgroup(action.group, members)


def subgroup(group: FiniteGroup, members) -> Subgroup:
    """Wrap a member list after verifying closure, identity and inverses."""
    mset = sorted(set(int(a) for a in members))
    if group.identity not in mset:
        raise NotASubgroup("identity missing")
    inside = set(mset)
    for a in mset:
        if group.inv(a) not in inside:
            raise NotASubgroup(f"inverse of {a} missing")
        for b in mset:
            if group.mult(a, b) not in inside:
                raise NotASubgroup(f"not closed at ({a}, {b})")
    return Subgroup(group, tuple(mset))


def left_cosets(group: FiniteGroup, sub: Subgroup) -> CosetSpace:
    """Left cosets aH; the representative is the smallest element index."""
    if sub.parent is not group:
        raise NotASubgroup("subgroup belongs to a different group")
    seen = [False] * group.order
    cosets, reps = [], []
    for a in range(group.order):
        if seen[a]:
            continue
        block = tuple(sorted(int(group.cayley[a, h]) for h in sub.members))
        for x in block:
            seen[x] = True
        cosets.append(block)
        reps.append(block[0])
    return CosetSpace(group, sub, tuple(cosets), tuple(reps))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p * q)(x) = p(q(x)), matching act[p*q] = act[p] o act[q]."""
    return tuple(p[q[x]] for x in range(len(q)))


def generate_permutation_group(
    generators,
    space_size: int | None = None,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> tuple[FiniteGroup, GroupAction]:
    """Close a list of permutations under composition.

    Elements are indexed in breadth-first discovery order with the identity
    first, which fixes words, coset representatives and reports.
    """
    gens = [tuple(int(v) for v in p) for p in generators]
    if space_size is None:
        if not gens:
            raise ValueError("need generators or an explicit space size")
        space_size = len(gens[0])
    for p in gens:
        if len(p) != space_size or sorted(p) != list(range(space_size)):
            raise ValueError(f"generator {p!r} is not a permutation of {space_size} points")
    ident = tuple(range(space_size))
    elements = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        current = queue.pop(0)
        for g in gens:
            cand = compose(current, g)
            if cand not in index:
                if len(elements) >= order_bound:
                    raise SizeLimit(f"closure exceeds order bound {order_bound}")
                index[cand] = len(elements)
                elements.append(cand)
                queue.append(cand)
    n = len(elements)
    cayley = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            cayley[i, j] = index[compose(p, q)]
    group = build_group(cayley, assume_associative=n > _ASSOC_SCAN_LIMIT)
    action = build_action(group, np.array(elements, dtype=np.int64))
    return group, action


def bfs_words(
    group: FiniteGroup, generator_indices: list[int]
) -> list[tuple[int, ...]]:
    """Shortest word over the given generators for every element.

    Words multiply left to right: element = gens[w0] * gens[w1] * ...
    Breadth-first order with generators tried in listed order makes the
    choice deterministic (shortest word, then lexicographic).
    """
    n = group.order
    words: list[tuple[int, ...] | None] = [None] * n
    words[group.identity] = ()
    queue = [group.identity]
    while queue:
        v = queue.pop(0)
        for slot, g in enumerate(generator_indices):
            w = group.mult(v, g)
            if words[w] is None:
                words[w] = words[v] + (slot,)
                queue.append(w)
    missing = [i for i, w in enumerate(words) if w is None]
    if missing:
        raise ValueError(f"generators do not generate the group; missing {missing[:4]}")
    return words  # type: ignore[return-value]


def verify_homomorphism(mapping, group_a: FiniteGroup, group_b: FiniteGroup) -> bool:
    """True iff mapping(a1*a2) == mapping(a1)*mapping(a2) for all pairs."""
    return homomorphism_witness(mapping, group_a, group_b) is None


def homomorphism_witness(mapping, group_a: FiniteGroup, group_b: FiniteGroup):
    """None if the map is a homomorphism, else the first failing pair."""
    m = [int(v) for v in mapping]
    if len(m) != group_a.order:
        raise ValueError("mapping must be total on the source group")
    for a1 in range(group_a.order):
        for a2 in range(group_a.order):
            if m[group_a.mult(a1, a2)] != group_b.mult(m[a1], m[a2]):
                return (a1, a2)
    return None


def groups_isomorphic_by_relabeling(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Brute-force isomorphism search; intended for small test groups only."""
    if a.order != b.order:
        return False
    if a.order > 8:
        raise SizeLimit("relabeling search is factorial; order must be <= 8")
    others = [x for x in range(b.order) if x != b.identity]
    slots = [x for x in range(a.order) if x != a.identity]
    for perm in itertools.permutations(others):
        phi = [0] * a.order
        phi[a.identity] = b.identity
        for s, t in zip(slots, perm):
            phi[s] = t
        if homomorphism_witness(phi, a, b) is None:
            return True
    return False
