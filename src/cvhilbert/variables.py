"""Variables on a finite underlying space, accessibility, and induced groups.

A variable is a value table over the points of an underlying space. A context
declares which variables an agent can in principle evaluate, through a family
of maximal accessible variables; everything accessible is a coarsening of a
family member, which makes the accessibility notions decidable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAccessible, NotPermissible
from .groups import GroupAction, generate_permutation_group


@dataclass(frozen=True, eq=False)
class ConceptualVariable:
    name: str
    values: tuple[int, ...]                 # per point: index into value_labels
    value_labels: tuple[str, ...]
    numeric_values: tuple[float, ...] | None = None

    def __post_init__(self):
        attained = set(self.values)
        if not attained <= set(range(len(self.value_labels))):
            raise ValueError(f"{self.name}: value index out of range")
        if attained != set(range(len(self.value_labels))):
            raise ValueError(f"{self.name}: every value label must be attained")
        if self.numeric_values is not None and len(self.numeric_values) != len(self.value_labels):
            raise ValueError(f"{self.name}: numeric_values length mismatch")

    @property
    def domain_size(self) -> int:
        return len(self.values)

    @property
    def value_count(self) -> int:
        return len(self.value_labels)

    def numeric(self) -> tuple[float, ...]:
        if self.numeric_values is None:
            raise ValueError(f"{self.name}: numeric values required but not declared")
        return self.numeric_values


@dataclass(frozen=True, eq=False)
class Context:
    phi_size: int
    acting_group: GroupAction                       # K acting on the underlying space
    maximal_accessible_family: tuple[ConceptualVariable, ...]

    def __post_init__(self):
        if self.acting_group.space_size != self.phi_size:
            raise ValueError("acting group must act on the underlying space")
        for var in self.maximal_accessible_family:
            if var.domain_size != self.phi_size:
                raise ValueError(f"family member {var.name} has wrong domain")


def make_variable(name: str, values, numeric_values=None) -> ConceptualVariable:
    """Build a variable from a raw value list, relabeling to dense indices.

    Raw values may be arbitrary hashables; distinct raw values become distinct
    value indices in order of first appearance.
    """
    raw = list(values)
    seen: dict = {}
    table = []
    for v in raw:
        if v not in seen:
            seen[v] = len(seen)
        table.append(seen[v])
    if numeric_values is not None:
        numeric_values = tuple(float(x) for x in numeric_values)
        if len(numeric_values) != len(seen):
            raise ValueError("numeric_values must have one entry per distinct value")
    return ConceptualVariable(name, tuple(table), tuple(str(v) for v in seen), numeric_values)


def _first_points(variable: ConceptualVariable) -> np.ndarray:
    """The smallest point with each value, in value order; each value index
    is attained."""
    values = np.asarray(variable.values, dtype=np.int64)
    order = values.argsort(kind="stable")
    return order[values[order].searchsorted(np.arange(variable.value_count))]


def is_permissible(variable: ConceptualVariable, action: GroupAction):
    """Decide whether level sets map into level sets under every element.

    Returns (True, None) or (False, (k, p1, p2)) with the first witnessing
    triple in scan order (k, then the level sets by smallest point, then the
    points of each): variable(p1) == variable(p2) but the images differ, and
    p1 is the smallest point of its level set. A generator that maps level
    sets into level sets permutes them, and so does every product of
    generators, so only a failure on the generators runs the scan.
    """
    if action.space_size != variable.domain_size:
        raise ValueError("action and variable live on different spaces")
    vals = np.asarray(variable.values, dtype=np.int64)
    lead = _first_points(variable)[vals]    # the smallest point of each point's level set
    gens = action.act[list(action.group.generators)]
    if np.array_equal(vals[gens], vals[gens[:, lead]]):
        return True, None
    broken = vals[action.act] != vals[action.act[:, lead]]
    k = int(np.argmax(broken.any(axis=1)))
    points = np.flatnonzero(broken[k])
    p = int(points[np.lexsort((points, lead[points]))[0]])
    return False, (k, int(lead[p]), p)


def induced_group(variable: ConceptualVariable, action: GroupAction):
    """Value-set maps induced by a permissible variable.

    Returns (G, G_action on the value set). The identity map is element 0;
    the remaining maps are numbered in the order of their first appearance
    over k. A variable that is not permissible raises NotPermissible with
    the witness of `is_permissible`, so a caller needs no check of its own.

    Nothing else needs checking. Permissibility gives each k a map h(k) on
    the values with h(k)(theta(p)) = theta(k . p), and K's action was
    verified where it was built, so (k1 k2) . p = k1 . (k2 . p) and
    h(k1 k2) = h(k1) o h(k2) exactly. So h is a homomorphism, each h(k) is a
    permutation (h(k^-1) inverts it), and G, the image of K, is generated by
    the images of K's generators: it is closed from them
    (`generate_permutation_group`), with no more than |K| elements.

    The numbering is the order of first appearance over K. Every group is a
    breadth-first closure, so K's elements are numbered in the order in
    which they first appear in its scan: the identity, then k * s for k in
    element order and s in the listed order of K's generators S. G is closed
    the same way from h(S). In K's scan, a pair (k, s) whose k has the map
    of an earlier element k' gives h(k * s) = h(k' * s), which the earlier
    pair (k', s) gave already, so it shows no map first. Strike those
    pairs; by induction on the elements of G found so far, the pairs left
    are G's scan, pair for pair and map for map. So G numbers its elements
    in the order in which the maps first appear in K's scan, which is the
    order in which they first appear over K's elements.
    """
    ok, witness = is_permissible(variable, action)
    if not ok:
        raise NotPermissible(witness)
    vals = np.asarray(variable.values, dtype=np.int64)
    # the map induced by each generator, read at one point per value
    gens = action.act[list(action.group.generators)]
    return generate_permutation_group(vals[gens[:, _first_points(variable)]],
                                      space_size=variable.value_count,
                                      order_bound=action.group.order)


def refines(xi: ConceptualVariable, theta: ConceptualVariable):
    """If theta factors through xi, return (f, strict) with theta = f(xi).

    f is a value-index table on xi's value set; strict means f is not
    one-to-one. Returns None when no such f exists.
    """
    if xi.domain_size != theta.domain_size:
        raise ValueError("variables live on different spaces")
    f: list[int | None] = [None] * xi.value_count
    for p in range(xi.domain_size):
        v, w = xi.values[p], theta.values[p]
        if f[v] is None:
            f[v] = w
        elif f[v] != w:
            return None
    table = tuple(int(v) for v in f)  # total: every xi value is attained
    strict = len(set(table)) < len(table)
    return table, strict


def is_maximally_accessible(context: Context, variable: ConceptualVariable) -> bool:
    """Accessible with no accessible strict refinement.

    With the declared-family model this holds exactly when no family member
    strictly refines the variable: an accessible strict refinement is a
    coarsening of some member, which then strictly refines the variable too.
    """
    found = [refines(member, variable) for member in context.maximal_accessible_family]
    if all(f is None for f in found):
        raise NotAccessible(f"variable {variable.name} is not accessible")
    return not any(f[1] for f in found if f is not None)
