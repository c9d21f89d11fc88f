"""Finite permutation groups kept as element rows and Cayley-graph columns;
group actions, subgroups, cosets.

All structures are immutable after construction and fully verified at desk
scale (orders up to ~1000). Every group is a list of distinct permutations
of range(m), identity first (element 0): element a acts by rows[a], and a * b
is the listed element whose row is rows[a] o rows[b], x -> rows[a][rows[b][x]].
The product is composition of functions, which is associative, and the rows
are an action of the group.

Besides its rows, a group keeps a generating set S and the |G|*|S| columns
columns[g, j] = g * S[j] of its Cayley graph (Schreier vectors; Seress,
Permutation Group Algorithms, 2003, ch. 4). The builders compute them as
they build the group, and compose no |G|^2 pairs of its elements.

Two groups are closed: K, the one group a document gives, and the spin
suite's fixed octahedral group. `generate_permutation_group` closes
generators breadth-first, composing each element with each generator and
matching each product by its whole row, through a dict keyed on the row's
bytes in the narrowest unsigned dtype that holds the points
(`_breadth_first`, `_row_ids`). The match is exact, so one pass closes the
group, and the closure is a group by construction. The group keeps that
dict, its `row_index`. The other groups are
derived from K, each in the numbering that its own closure would give, so
words, coset representatives and reports are those of the closure:

* `image_group` reads the image of a homomorphism off the closure of its
  source: the group G induced on a variable's values is the image of K,
  its rows matched by `_row_ids` in its own row index and its columns K's
  columns (`variables.induced_group` proves the homomorphism and the
  numbering);
* `wreath_product` builds the joined group N = G wr Z_2 in closed form, its
  rows and columns arithmetic on G's action and table, and indexes its rows
  (`pairing.build_joint_group` proves the form and the numbering).

Right multiplication by one element b, a -> a * b for every a, is read off
the rows: the row of a * b is rows[a][rows[b]], looked up whole in the row
index (`FiniteGroup.right_products`), in O(|G| m). Every other product of
two arbitrary elements reads the |G|^2 table `FiniteGroup.cayley`: the
inverses and products of `subgroup` and `coset_leaders`, and the columns of
`wreath_product`. The table is filled from the columns, one breadth-first
level at a time, on its first read, and only a group that is multiplied
whole builds it: G, whose regular
representation's 0/1 stack `verify` reads and which N is built from, and N,
at the cosets of a joined representation that extends. K is read only
through its rows and generators and builds none. The table is the group's
regular action (Cayley), verified with the columns it is read from.
`regular_action` makes that action with no table: its column b is
`right_products(b)`, and its `act` is `cayley`, read on first access. Like
the element rows of a closure, the table is refused with SizeLimit above
PERMUTATION_BYTE_LIMIT before it is allocated, and `regular_action` checks
that bound where it makes the action.

A built action needs no further check to answer questions about it:
`GroupAction.images` reads one column of it, `is_transitive` the orbit of
point 0 off that column, and `isotropy_subgroup` wraps a point stabilizer, a
subgroup of any action.

Cosets are the elements sorted by leader. `coset_leaders` reads the products
of every element with every member of a subgroup H off the table and takes
the smallest element of each a * H, its leader; two elements share a left
coset exactly when they share a leader. `left_cosets` sorts the elements by
leader, which lists the cosets, |H| elements each, in the order of their
leaders, and the covariance stage reads the leaders of N's scalar subgroup
directly. For the stabilizer H of a point x, `stabilizer_leaders` reads the
same leaders off column x of an action alone: by orbit-stabilizer, g lies
in a * H exactly when g . x = a . x, so the leader of a is the first
element with a's image. `stabilizer_cosets` sorts by them, with no table.

Every exact check of an integer table is made here, once, where the table is
built: `generate_permutation_group` checks that its generators are
permutations, and their products are permutations too. The derived groups
are groups by their callers' proofs and are not checked. Every action is a
group's own rows or its regular action, so no table of an action is checked
against the products. Checks over a whole group are made on the generators;
a failure runs the row-major scan, `_first_violation`, only to name the
first failing tuple.

Only `generate_permutation_group`, `image_group`, `wreath_product` and
`regular_action` make a `FiniteGroup` or a `GroupAction`: each passes a
module-private token, and a constructor called without it raises TypeError.
The token is an init-only field, so `dataclasses.replace` cannot carry it
over to a copy with another table or row index. A group or an action
anywhere in the package has therefore passed the checks above, or is
derived from one that has by a proof.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import NotASubgroup, SizeLimit

DEFAULT_ORDER_BOUND = 1024

# Largest table of element rows (one int64 row of images per element, which
# is the action table) that a generated permutation group may hold.
PERMUTATION_BYTE_LIMIT = 32 * 2**20

# Temporaries of one numpy step of a table scan stay near this many bytes.
STEP_BYTES = 2**20

# Passed by the builders alone; `FiniteGroup` and `GroupAction` refuse a call
# without it.
_BUILT = object()


def _check_built(token, kind: str) -> None:
    if token is not _BUILT:
        raise TypeError(f"a {kind} is made only by the verifying builders in cvhilbert.groups")


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    rows: np.ndarray            # (n, m) int array, element a is x -> rows[a, x]
    generators: tuple[int, ...]  # the generating set S, as elements
    columns: np.ndarray         # (n, |S|) int array, columns[g, j] = g * S[j]
    # {key of row a (`_row_keys`): a}; every builder passes it
    row_index: dict = field(default=None, repr=False)
    token: InitVar[object] = None
    identity: ClassVar[int] = 0

    def __post_init__(self, token):
        _check_built(token, "FiniteGroup")

    @property
    def order(self) -> int:
        return len(self.rows)

    def right_products(self, b: int) -> np.ndarray:
        """(n,) int array, a * b for every element a: column b of `cayley`,
        with no table. The row of a * b is rows[a][rows[b]], matched whole in
        `row_index`, in O(n m)."""
        index = self.row_index
        return np.array([index[key] for key in _row_keys(_narrow(self.rows[:, self.rows[b]]))],
                        dtype=np.int64)

    @cached_property
    def cayley(self) -> np.ndarray:
        """(n, n) int array, cayley[a, b] = a * b, filled one breadth-first
        level of b at a time: a * (b' * s) = (a * b') * s is a column entry.
        A table above PERMUTATION_BYTE_LIMIT raises SizeLimit before it is
        allocated."""
        _check_rows(self.order, self.order)
        table = np.empty((self.order, self.order), dtype=np.int64)
        table[:, 0] = np.arange(self.order)
        for elements, parents, slots in _bfs_levels(self.columns):
            table[:, elements] = self.columns[table[:, parents], slots]
        table.setflags(write=False)
        return table


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A group acting on range(space_size). `act` is the (n, m) int table
    act[g, x] = g . x and `images(x)` its column x. The regular action is
    made with no table (act None): its columns are the group's right
    products, and its `act` is the group's Cayley table, filled on first
    read."""
    group: FiniteGroup
    space_size: int
    act: InitVar[np.ndarray | None]
    token: InitVar[object] = None

    def __post_init__(self, act, token):
        _check_built(token, "GroupAction")
        if act is not None:
            object.__setattr__(self, "act", act)

    def __getattr__(self, name):
        # reached only for an attribute never set: the regular action's table
        if name != "act":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.group.cayley

    def images(self, x: int) -> np.ndarray:
        """(n,) int array, g . x for every element g: column x of the table,
        or for the regular action g * x, read off the group's rows with no
        table (`FiniteGroup.right_products`)."""
        if "act" in vars(self):
            return self.act[:, x]
        return self.group.right_products(x)


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
    if not n_rows or not n_cols:
        return None
    cells = _block_cells(cell_bytes)
    row_step, col_step = max(1, cells // n_cols), min(cells, n_cols)
    for a in range(0, n_rows, row_step):
        for b in range(0, n_cols, col_step):
            bad = broken(slice(a, a + row_step), slice(b, b + col_step))
            if bad.any():
                hit = np.unravel_index(int(np.argmax(bad)), bad.shape)
                return (a + int(hit[0]), b + int(hit[1]), *(int(i) for i in hit[2:]))
    return None


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """The position of the first occurrence of each distinct value, in order."""
    order = values.argsort(kind="stable")
    ordered = values[order]
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    first = order[starts]
    first.sort()
    return first


def _group(rows, generators, columns, row_index):
    """The group and its action on the points, its tables made read-only."""
    rows.setflags(write=False)
    columns.setflags(write=False)
    group = FiniteGroup(rows, tuple(int(s) for s in generators), columns, row_index, _BUILT)
    return group, GroupAction(group, rows.shape[1], rows, _BUILT)


def regular_action(group: FiniteGroup) -> GroupAction:
    """The group acting on itself by left multiplication, a . b = a * b.

    Left multiplication is an action by associativity (Cayley's theorem), so
    it is wrapped with no check. It holds no table: its column b, a -> a * b,
    is right multiplication by b (`FiniteGroup.right_products`), and its
    whole table, `act`, is `FiniteGroup.cayley`, filled from the verified
    columns on its first read. The table's size is checked here, where the
    action is made: above PERMUTATION_BYTE_LIMIT it raises SizeLimit."""
    _check_rows(group.order, group.order)
    return GroupAction(group, group.order, None, _BUILT)


def is_transitive(action: GroupAction) -> bool:
    """The orbit of point 0 is the whole space."""
    return bool(np.bincount(action.images(0), minlength=action.space_size).all())


def isotropy_subgroup(action: GroupAction, point: int) -> Subgroup:
    """The elements fixing a point. A point stabilizer of an action is a
    subgroup, and a built action is one, so nothing is checked."""
    if not 0 <= point < action.space_size:
        raise ValueError(f"point {point} out of range")
    return Subgroup(action.group, tuple(np.flatnonzero(action.images(point) == point).tolist()))


def subgroup(group: FiniteGroup, members) -> Subgroup:
    """Wrap a member list after verifying closure, identity and inverses."""
    mset = sorted(set(int(a) for a in members))
    if group.identity not in mset:
        raise NotASubgroup("identity missing")
    inside = np.zeros(group.order, dtype=bool)
    inside[mset] = True
    # per member: its inverse, the one column of its row that holds the
    # identity, element 0, then its products with every member
    rows = group.cayley[mset]
    table = np.concatenate([rows.argmin(axis=1)[:, None], rows[:, mset]], axis=1)
    witness = _first_violation(table.shape, lambda a, b: ~inside[table[a, b]], 8)
    if witness is not None:
        a, b = witness
        if b == 0:
            raise NotASubgroup(f"inverse of {mset[a]} missing")
        raise NotASubgroup(f"not closed at ({mset[a]}, {mset[b - 1]})")
    return Subgroup(group, tuple(mset))


def coset_leaders(group: FiniteGroup, members) -> np.ndarray:
    """The smallest element of each left coset a * H, one per element a, for
    the members of a subgroup H. Two elements share a coset exactly when they
    share a leader, and an element leads its coset when it is its own leader."""
    return group.cayley[:, np.asarray(members, dtype=np.int64)].min(axis=1)


def stabilizer_leaders(images: np.ndarray) -> np.ndarray:
    """The leader (`coset_leaders`) of each element a for the stabilizer H of
    a point x, read off column x of an action, images[g] = g . x, with no
    product. By orbit-stabilizer g lies in a * H exactly when g . x = a . x,
    so the smallest element of a * H is the first element with a's image."""
    first = _first_occurrences(images)
    leader = np.empty(int(images.max()) + 1, dtype=np.int64)
    leader[images[first]] = first
    return leader[images]


def left_cosets(group: FiniteGroup, sub: Subgroup) -> CosetSpace:
    """Left cosets aH in the order of their leaders (`coset_leaders`), each
    ascending, so that its representative, its leader, comes first."""
    if sub.parent is not group:
        raise NotASubgroup("subgroup belongs to a different group")
    return _cosets(sub, coset_leaders(group, sub.members))


def stabilizer_cosets(sub: Subgroup, images: np.ndarray) -> CosetSpace:
    """`left_cosets` of the stabilizer `sub` of a point x, read off column x
    of an action of its group, images[g] = g . x (`stabilizer_leaders`), in
    O(|G| log |G|) and with no table."""
    return _cosets(sub, stabilizer_leaders(images))


def _cosets(sub: Subgroup, leaders: np.ndarray) -> CosetSpace:
    # sorted by leader, stably, the elements run coset by coset, |H| each
    cosets = leaders.argsort(kind="stable").reshape(-1, sub.order)
    return CosetSpace(sub.parent, sub, tuple(map(tuple, cosets.tolist())),
                      tuple(cosets[:, 0].tolist()))


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
    product not seen before becomes the next element (`_breadth_first`). The
    generators, in listed order, are the group's generating set, and the
    products are its columns. Raises SizeLimit before the element rows pass
    order_bound or PERMUTATION_BYTE_LIMIT.
    """
    gens = list(generators)
    if space_size is None:
        if not gens:
            raise ValueError("need generators or an explicit space size")
        space_size = len(gens[0])
    _check_rows(1 + len(gens), space_size)
    gen_rows = np.array(gens, dtype=np.int64).reshape(len(gens), space_size)
    wrong = np.flatnonzero((np.sort(gen_rows, axis=1) != np.arange(space_size)).any(axis=1))
    if wrong.size:
        raise ValueError(f"generator {tuple(gen_rows[wrong[0]].tolist())!r} "
                         f"is not a permutation of {space_size} points")
    return _group(*_breadth_first(gen_rows, order_bound))


def image_group(group: FiniteGroup, images: np.ndarray) -> tuple[FiniteGroup, GroupAction]:
    """The image of a homomorphism a -> images[a] from a built group to the
    permutations of images.shape[1] points, read off the group's closure.

    The caller proves that the map is a homomorphism, and nothing is
    checked. Its elements are the distinct images, matched whole
    (`_row_ids`), numbered in the order in which they first appear over the
    group's elements, so the identity, the image of element 0, is element
    0. Its generating set is the images of the group's, in listed order,
    and its columns are the group's columns at the first element with each
    image, mapped through the same ids: h(a) * h(S[j]) = h(a * S[j]).
    """
    index = {}
    ids, first = _row_ids(_narrow(images), index)
    columns = ids[group.columns[first]]
    return _group(np.ascontiguousarray(images[first], dtype=np.int64), columns[0], columns, index)


def wreath_product(action: GroupAction, order_bound: int) -> tuple[FiniteGroup, GroupAction]:
    """N = G wr Z_2 on the square of the points of a regular action of G,
    built in closed form, in the numbering of its breadth-first closure.

    Point x * m + y is (x, y). N is generated by the first-axis copies F_a
    of G's moved elements a = 1..m-1, (x, y) -> (a . x, y), then the
    second-axis copies S_a, (x, y) -> (x, a . y), then the swap W,
    (x, y) -> (y, x); with one point W is the identity, and N has one
    element and no generator. The action must be regular, and nothing is
    checked: then each element of N is F_g S_h W^s for one triple (g, h, s),
    the closure numbers the triples in the order listed in the code, and
    right factors act on them by G's Cayley table, as
    `pairing.build_joint_group` proves. |N| = 2 m^2 is refused with
    SizeLimit above order_bound or PERMUTATION_BYTE_LIMIT before any row is
    allocated.
    """
    m = action.space_size
    order, count = (2 * m * m, 2 * m - 1) if m > 1 else (1, 0)
    if order > order_bound:
        raise SizeLimit(f"closure exceeds order bound {order_bound}")
    _check_rows(order, m * m)
    # the position (s, g, h) of each element in breadth-first order: e; F_a;
    # S_a; W; per g, (g, a, 0) for each a, then (g, e, 1); (e, h, 1); (g, h, 1)
    flat = np.arange(2 * m * m).reshape(2, m, m)
    found = np.concatenate([
        flat[0, 0, :1], flat[0, 1:, 0], flat[0, 0, 1:], flat[1, 0, :1],
        np.concatenate([flat[0, 1:, 1:], flat[1, 1:, :1]], axis=1).ravel(),
        flat[1, 0, 1:], flat[1, 1:, 1:].ravel()])
    number = found.argsort().reshape(2, m, m)
    found = found[:order]   # with one point, W is e
    # (g, h, 0) sends (x, y) to (g . x, h . y), and (g, h, 1) to (g . y, h . x)
    act = action.act
    x, y = np.divmod(np.arange(m * m), m)
    rows = np.concatenate([act[:, None, x] * m + act[None, :, y],
                           act[:, None, y] * m + act[None, :, x]]).reshape(2 * m * m, m * m)
    # right factors: F_a takes (g, h, 0) to (g a, h, 0) and (g, h, 1) to
    # (g, h a, 1); S_a the same with the axes exchanged; W flips s
    g, h = np.arange(m)[:, None, None], np.arange(m)[None, :, None]
    ga, ha = action.group.cayley[:, None, 1:], action.group.cayley[None, :, 1:]
    columns = np.concatenate([
        np.concatenate([number[0][ga, h], number[0][g, ha], number[1][..., None]], axis=2),
        np.concatenate([number[1][g, ha], number[1][ga, h], number[0][..., None]], axis=2),
    ]).reshape(2 * m * m, 2 * m - 1)[found, :count]
    rows = rows[found]
    return _group(rows, columns[0], columns, dict(zip(_row_keys(_narrow(rows)), range(order))))


def _breadth_first(gen_rows: np.ndarray, order_bound: int):
    """(rows, generators, columns, row index): the breadth-first closure of
    the generators.

    Each element in turn is composed with each generator, a product whose row
    is new becomes the next element, and columns[g, j] is the element equal
    to g * S[j]. Products are matched whole in the row index (`_row_ids`).
    The elements are composed a block at a time, in discovery order, and a
    block whose products pass order_bound or PERMUTATION_BYTE_LIMIT raises
    SizeLimit before their rows are kept.
    """
    count, m = gen_rows.shape
    narrow = _narrow(gen_rows)
    step = _block_cells(narrow.nbytes)
    queue = [np.arange(m, dtype=narrow.dtype)[None]]
    index = {queue[0].tobytes(): 0}
    columns = []
    for block in queue:  # grows by the new elements of each block
        for start in range(0, len(block), step):
            products = block[start:start + step][:, narrow]
            ids, fresh = _row_ids(products.reshape(-1, m), index)
            if len(index) > order_bound:
                raise SizeLimit(f"closure exceeds order bound {order_bound}")
            _check_rows(len(index), m)
            if fresh.size:
                queue.append(products.reshape(-1, m)[fresh])
            columns.append(ids.reshape(len(products), count))
    columns = np.concatenate(columns)
    return np.concatenate(queue, dtype=np.int64), columns[0], columns, index


def _narrow(rows: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of a (count, m) array of points in the narrowest
    unsigned dtype that holds them, the form that `_row_keys` reads."""
    return rows.astype(np.min_scalar_type(rows.shape[1] - 1), order="C")


def _row_keys(rows: np.ndarray) -> list:
    """The key of each row of a narrow (count, m) array (`_narrow`): its
    bytes, which a dict matches whole."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _row_ids(rows: np.ndarray, index: dict) -> tuple[np.ndarray, np.ndarray]:
    """(ids, fresh): the id of each row of a narrow (count, m) array, and
    the positions at which rows new to the index first appear, in order.

    Rows are matched whole, through a dict keyed on their bytes
    (`_row_keys`); a row not in the index joins it with the next id. New
    ids are handed out in order, so each new row first appears where the
    running maximum of the ids first reaches its id.
    """
    known = len(index)
    ids = np.array([index.setdefault(key, len(index)) for key in _row_keys(rows)], dtype=np.int64)
    return ids, np.maximum.accumulate(ids).searchsorted(np.arange(known, len(index)))


def _bfs_levels(columns: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first search of a Cayley graph from the identity, one level at
    a time: per level (elements, parents, slots) with element = parent * S[slot],
    in the order a queue would discover them: the level's products parent by
    parent in the order of the level, generators in listed order."""
    n, count = columns.shape
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier, levels = np.zeros(1, dtype=np.int64), []
    while count:
        products = columns[frontier].ravel()
        fresh = (~seen[products]).nonzero()[0]
        fresh = fresh[_first_occurrences(products[fresh])]
        if not fresh.size:
            break
        levels.append((products[fresh], frontier[fresh // count], fresh % count))
        frontier = products[fresh]
        seen[frontier] = True
    return levels


def bfs_words(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Shortest word over the group's generating set S for every element.

    Words multiply left to right: element = S[w0] * S[w1] * ... Breadth-first
    order with generators tried in listed order makes the choice
    deterministic (shortest word, then lexicographic). The search expands
    one level at a time over the group's columns; S generates the group by
    construction, so every element has a word.
    """
    words: list[tuple[int, ...]] = [()] * group.order
    for elements, parents, slots in _bfs_levels(group.columns):
        for e, p, s in zip(elements.tolist(), parents.tolist(), slots.tolist()):
            words[e] = words[p] + (s,)
    return words

