"""Finite groups as explicit Cayley tables, group actions, subgroups, cosets.

All structures are immutable after construction and fully verified at desk
scale (orders up to ~1000). Element 0 is the identity for every group built
by the constructors in this module.

Every group is built from distinct permutations (closures, the catalogue,
the induced groups of `variables`) by `permutation_group`, which checks each
table once. Its rows are checked first, with no composition: each is a
permutation and the first is the identity (`_permutation_rows`, shared with
`build_action`). The closure scan that reads the Cayley table off the
composed rows is then the one table check: it makes
act[a * b] = act[a] o act[b] hold by construction, so the product is
composition of functions, which is associative, and the rows are an action
of the group. Every exhaustive table check is one row-major scan,
`_first_violation`, reporting the first failing tuple.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import AxiomViolation, NotASubgroup, SizeLimit

DEFAULT_ORDER_BOUND = 1024

# Largest table of element rows (one int64 row of images per element, which
# is the action table) that a generated permutation group may hold.
PERMUTATION_BYTE_LIMIT = 32 * 2**20

# Temporaries of one numpy step of a table scan stay near this many bytes.
STEP_BYTES = 2**20


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


def _block_cells(cell_bytes: int) -> int:
    """Cells in one step of a table scan whose cells cost `cell_bytes` each."""
    return max(1, STEP_BYTES // max(1, cell_bytes))


def _first_violation(shape: tuple[int, int], broken, cell_bytes: int):
    """First index tuple (a, b, ...) in row-major order at which a check fails.

    The check covers a table of shape (rows, cols). `broken(a, b)` checks the
    block at two slices and returns a boolean array with one axis per slice,
    then any further axes of the witness. A block takes whole rows while they
    fit and cuts a row otherwise, `_block_cells(cell_bytes)` cells in all, so
    that its temporaries stay near STEP_BYTES. None when nothing fails.
    """
    n_rows, n_cols = shape
    cells = _block_cells(cell_bytes)
    row_step, col_step = max(1, cells // n_cols), min(cells, n_cols)
    for a in range(0, n_rows, row_step):
        for b in range(0, n_cols, col_step):
            bad = broken(slice(a, a + row_step), slice(b, b + col_step))
            if bad.any():
                hit = np.unravel_index(int(np.argmax(bad)), bad.shape)
                return (a + int(hit[0]), b + int(hit[1]), *(int(i) for i in hit[2:]))
    return None


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One comparable key per row (last axis) of an integer array."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1])))[..., 0]


def permutation_group(elements, labels: tuple[str, ...] | None = None):
    """The group of an ordered list of distinct permutations, identity first.

    Element i acts by elements[i], and a * b is the listed element equal to
    elements[a] composed after elements[b] (`compose`). The rows are checked
    first as `build_action` checks them. Blocks of products are then composed
    by fancy indexing, E[a][:, E[b]], and each product is looked up among the
    sorted rows; AxiomViolation("closure", (a, b)) names the first pair in
    row-major order whose product is not listed. Returns the group and the
    rows as its action on the points, which the closure scan has verified.
    """
    rows = _permutation_rows(elements, len(elements), 0)
    n = len(rows)
    keys = _row_keys(rows)
    order = np.argsort(keys)
    listed = keys[order]
    if np.any(listed[1:] == listed[:-1]):
        raise AxiomViolation("distinct-elements")
    cayley = np.empty((n, n), dtype=np.int64)

    def unlisted(a, b):
        products = _row_keys(rows[a][:, rows[b]])
        found = np.minimum(np.searchsorted(listed, products), n - 1)
        cayley[a, b] = order[found]
        return listed[found] != products

    witness = _first_violation((n, n), unlisted, 8 * rows.shape[1])
    if witness is not None:
        raise AxiomViolation("closure", witness)
    inverse = np.argmax(cayley == 0, axis=1)
    for table in (cayley, inverse, rows):
        table.setflags(write=False)
    group = FiniteGroup(n, cayley, 0, inverse, labels)
    return group, GroupAction(group, rows.shape[1], rows)


def standard_group(kind: str, n: int, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Catalogue groups: cyclic Z_n, dihedral D_n (order 2n), symmetric S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "symmetric" and n > 6:
        raise SizeLimit(f"symmetric({n}) refused; order {math.factorial(n)}")
    orders = {"cyclic": n, "dihedral": 2 * n, "symmetric": math.factorial(n)}
    if kind not in orders:
        raise ValueError(f"unknown group kind {kind!r}")
    if orders[kind] > order_bound:
        raise SizeLimit(f"{kind}({n}) order {orders[kind]} exceeds bound {order_bound}")
    shift = np.arange(n)
    if kind == "cyclic":
        # rotation r_i of n points: x -> x + i
        rows = (shift[:, None] + shift) % n
        labels = tuple(f"r{i}" for i in range(n))
    elif kind == "dihedral":
        # element i + n*s is r_i * f^s: vertex v -> i + (-1)^s v of the n-gon,
        # and the flips swap two more points, which keeps the action faithful
        # for n <= 2, where the vertices alone do not tell r_i from s_i
        rows = np.empty((2 * n, n + 2), dtype=np.int64)
        rows[:n, :n] = (shift[:, None] + shift) % n
        rows[n:, :n] = (shift[:, None] - shift) % n
        rows[:n, n:] = (n, n + 1)
        rows[n:, n:] = (n + 1, n)
        labels = tuple(f"r{i}" for i in range(n)) + tuple(f"s{i}" for i in range(n))
    else:
        rows = list(itertools.permutations(range(n)))
        labels = tuple("".join(map(str, p)) for p in rows)
    return permutation_group(rows, labels)[0]


def _action_violation(group: FiniteGroup, act: np.ndarray):
    """First (g1, g2, x) in row-major order with (g1*g2) . x != g1 . (g2 . x)
    for an (n, m) table act of functions, or None."""
    # x along the last axis of each block
    return _first_violation(
        (group.order, group.order),
        lambda g1, g2: act[group.cayley[g1, g2]] != act[g1][:, act[g2]], 8 * act.shape[1])


def _permutation_rows(rows, count: int, identity: int) -> np.ndarray:
    """`rows` as a (count, m) int64 table after the checks that compose
    nothing: its shape, its range, a permutation in every row and the
    identity in row `identity`. Raises AxiomViolation with the first failure."""
    act = np.asarray(rows, dtype=np.int64)
    if act.ndim != 2 or act.shape[0] != count:
        raise AxiomViolation("identity-action", ("shape", act.shape))
    m = act.shape[1]
    if act.size == 0 or act.min() < 0 or act.max() >= m:
        raise AxiomViolation("identity-action", ("range",))
    want = np.arange(m)
    not_permutation = np.any(np.sort(act, axis=1) != want, axis=1)
    if not_permutation.any():
        raise AxiomViolation("compatibility", ("not-a-permutation", int(np.argmax(not_permutation))))
    if not np.array_equal(act[identity], want):
        x = int(np.nonzero(act[identity] != want)[0][0])
        raise AxiomViolation("identity-action", (identity, x))
    return act


def build_action(group: FiniteGroup, act_table) -> GroupAction:
    """Verify and wrap an action table act[g, x] = g . x of an existing group."""
    act = _permutation_rows(act_table, group.order, group.identity)
    witness = _action_violation(group, act)
    if witness is not None:
        raise AxiomViolation("compatibility", witness)
    act.setflags(write=False)
    return GroupAction(group, act.shape[1], act)


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
    inside = np.zeros(group.order, dtype=bool)
    inside[mset] = True
    # per member: its inverse, then its products with every member
    table = np.column_stack([group.inverse[mset], group.cayley[np.ix_(mset, mset)]])
    witness = _first_violation(table.shape, lambda a, b: ~inside[table[a, b]], 8)
    if witness is not None:
        a, b = witness
        if b == 0:
            raise NotASubgroup(f"inverse of {mset[a]} missing")
        raise NotASubgroup(f"not closed at ({mset[a]}, {mset[b - 1]})")
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
        block = tuple(np.sort(group.cayley[a, list(sub.members)]).tolist())
        for x in block:
            seen[x] = True
        cosets.append(block)
        reps.append(block[0])
    return CosetSpace(group, sub, tuple(cosets), tuple(reps))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p * q)(x) = p(q(x)), matching act[p*q] = act[p] o act[q]."""
    return tuple(p[q[x]] for x in range(len(q)))


def _check_rows(count: int, size: int) -> None:
    nbytes = count * size * 8
    if nbytes > PERMUTATION_BYTE_LIMIT:
        raise SizeLimit(
            f"{count} permutations of {size} points need {nbytes / 2**20:.0f} MiB, "
            f"above the {PERMUTATION_BYTE_LIMIT / 2**20:.0f} MiB bound")


def generate_permutation_group(
    generators,
    space_size: int | None = None,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> tuple[FiniteGroup, GroupAction]:
    """Close a list of permutations under composition.

    Elements are indexed in breadth-first discovery order with the identity
    first, which fixes words, coset representatives and reports: each
    element in turn is composed with each generator in listed order, and a
    product not seen before becomes the next element. Raises SizeLimit
    before the element rows pass order_bound or PERMUTATION_BYTE_LIMIT.
    """
    gens = [tuple(int(v) for v in p) for p in generators]
    if space_size is None:
        if not gens:
            raise ValueError("need generators or an explicit space size")
        space_size = len(gens[0])
    _check_rows(1 + len(gens), space_size)
    for p in gens:
        if len(p) != space_size or sorted(p) != list(range(space_size)):
            raise ValueError(f"generator {p!r} is not a permutation of {space_size} points")
    gen_rows = np.array(gens, dtype=np.int64).reshape(len(gens), space_size)
    elements = np.arange(space_size, dtype=np.int64)[None]
    seen = _row_keys(elements)          # keys of the elements so far, sorted
    done = 0
    while done < len(elements):
        parents = elements[done:done + _block_cells(gen_rows.nbytes)]
        done += len(parents)
        products = parents[:, gen_rows].reshape(-1, space_size)
        keys = _row_keys(products)
        first = np.sort(np.unique(keys, return_index=True)[1])
        found = np.minimum(np.searchsorted(seen, keys[first]), len(seen) - 1)
        new = first[seen[found] != keys[first]]
        if len(elements) + len(new) > order_bound:
            raise SizeLimit(f"closure exceeds order bound {order_bound}")
        _check_rows(len(elements) + len(new), space_size)
        elements = np.concatenate([elements, products[new]])
        seen = np.sort(np.concatenate([seen, keys[new]]))
    return permutation_group(elements)


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
    queue = deque([group.identity])
    while queue:
        v = queue.popleft()
        for slot, g in enumerate(generator_indices):
            w = group.mult(v, g)
            if words[w] is None:
                words[w] = words[v] + (slot,)
                queue.append(w)
    missing = [i for i, w in enumerate(words) if w is None]
    if missing:
        raise ValueError(f"generators do not generate the group; missing {missing[:4]}")
    return words  # type: ignore[return-value]


def _greedy_generators(group: FiniteGroup) -> list[int]:
    """A generating set read off the table: in turn, the first element
    outside the subgroup generated so far. Each one at least doubles that
    subgroup (Lagrange), so there are at most log2 |G| of them."""
    inside = np.zeros(group.order, dtype=bool)
    inside[group.identity] = True
    gens: list[int] = []
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        # close under right multiplication by the generators
        frontier = np.flatnonzero(inside)
        while frontier.size:
            new = np.zeros_like(inside)
            new[group.cayley[np.ix_(frontier, gens)]] = True
            new &= ~inside
            inside |= new
            frontier = np.flatnonzero(new)
    return gens


def homomorphism_witness(mapping, group_a: FiniteGroup, group_b: FiniteGroup):
    """None if the map is a homomorphism, else the first failing pair
    (a1, a2) in row-major order: mapping(a1*a2) != mapping(a1)*mapping(a2)."""
    m = np.array([int(v) for v in mapping], dtype=np.int64)
    if len(m) != group_a.order:
        raise ValueError("mapping must be total on the source group")
    return _first_violation(
        group_a.cayley.shape,
        lambda a1, a2: m[group_a.cayley[a1, a2]] != group_b.cayley[np.ix_(m[a1], m[a2])], 8)
