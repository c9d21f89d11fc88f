"""Joining two related maximal variables into one operator-bearing system.

Given a transitive free group G on the first variable's value set, an
independent copy acts on the second value set and a swap generator joins
them into a group N on the value product, the wreath product G wr Z_2.
Each element of N is F_g S_h W^s for one triple (g, h, s), so N is built in
closed form as its triples and G's Cayley table, with no closure run and
no point rows, in the numbering that its breadth-first closure would give;
F_g S_h W^s sends (x, y) to (g . x, h . y), or to (g . y, h . x) when s = 1,
which G's action on the values gives. That N is transitive,
and not abelian for more than one value, follows from G, and the triples,
the numbering and both facts are proved in `build_joint_group` and not
checked. N's generators are listed in a fixed order,
so the matrices assigned to them are one stack: U(g), J U(g) J, then J.
Nothing guarantees in advance that this assignment extends to a
homomorphism. As N is G wr Z_2, it extends exactly when
the images satisfy N's defining relations (von Dyck's theorem), and those
reduce to J^2 = I and U(g) commuting with J U(h) J for every g and h in G;
`build_joint_representation` decides them, names the first failing
commutator as two disagreeing words, and only then grows the representation
of N from the generator matrices.

The coherent-state system of the joined representation (built by
`coherent`) has one state per coset of the basis fiducial's isotropy; the
cosets carry the (x, y) labels through which each state takes the values of
the two variables, and `coherent.operator_stack` builds every operator: the
stack of moved operators of the covariance stage at once, and each single
one as its one-row case, `coherent.operator_from_variable`. The covariance
stage takes the first operator as built by `joint_operators`. The
labeling and the covariance of the resulting operators are checked rather
than assumed; structural obstructions (distinct value motions
represented by matrices equal up to a scalar) are detected and reported
explicitly. Two matrices of N differ only by a unit scalar exactly when
their elements lie in one left coset of the scalar subgroup Z, the elements
whose matrix is a unit scalar; the covariance stage finds Z in one batched
pass over the stack and reads each element's class off the coset leaders
of Z (`groups.coset_leaders`), the routine that also gives the coherent
states' cosets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coherent
from .errors import (
    CosetLabelingError,
    InvolutionViolation,
    NontrivialIsotropy,
    NotMaximal,
    NotRelated,
    NotTransitive,
    NotWellDefined,
)
from .groups import (
    DEFAULT_ORDER_BOUND,
    FiniteGroup,
    GroupAction,
    _bfs_levels,
    _block_cells,
    _first_violation,
    bfs_words,
    coset_leaders,
    is_transitive,
    isotropy_subgroup,
    wreath_product,
)
from .representations import (
    _BUILT,
    Operator,
    UnitaryRepresentation,
    _check_stack,
    _maxabs,
    invariant_subspace_split,
    is_irreducible,
)
from .variables import ConceptualVariable, Context, is_maximally_accessible


@dataclass(frozen=True, eq=False)
class RelatedPair:
    theta: ConceptualVariable
    xi: ConceptualVariable
    k_squared_identity: bool


@dataclass(frozen=True, eq=False)
class JointGroup:
    group: FiniteGroup
    value_action: GroupAction           # G's, on the m values of each axis
    first_embed: tuple[int, ...]        # joined-group index of each first-axis copy
    second_embed: tuple[int, ...]
    swap_element: int


@dataclass(frozen=True, eq=False)
class JointSystem:
    joint: JointGroup
    coherent: coherent.CoherentStateSystem  # states of the joined representation
    x_index: tuple[int, ...]            # first-axis label per coset
    y_index: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.coherent.rep.dim

    @property
    def tolerance(self) -> float:
        return self.coherent.tolerance


@dataclass(frozen=True, eq=False)
class CovarianceRecord:
    element: int
    residual: float
    ok: bool
    obstructed: bool        # matrix equals a scalar multiple of another element's
                            # matrix that moves the values differently


def build_related_pair(
    context: Context, theta: ConceptualVariable, xi: ConceptualVariable, k
) -> RelatedPair:
    """Validate maximality, the relating identity xi = theta o k, and the
    involution condition that applies when the space is the value product.

    `k` is a permutation of the underlying space, in the context group or not.
    """
    k_perm = tuple(int(v) for v in k)
    if sorted(k_perm) != list(range(context.phi_size)):
        raise ValueError("k is not a permutation of the underlying space")
    for var in (theta, xi):
        if not is_maximally_accessible(context, var):
            raise NotMaximal(var.name)
    for p in range(context.phi_size):
        lhs = theta.value_labels[theta.values[k_perm[p]]]
        rhs = xi.value_labels[xi.values[p]]
        if lhs != rhs:
            raise NotRelated(p)
    k_squared = tuple(k_perm[k_perm[p]] for p in range(len(k_perm)))
    k_squared_identity = k_squared == tuple(range(len(k_perm)))
    product_structure = (
        context.phi_size == theta.value_count * xi.value_count
        and len(set(zip(theta.values, xi.values))) == context.phi_size
    )
    if product_structure and not k_squared_identity:
        raise InvolutionViolation(
            "underlying space is the value product but k squared is not the identity"
        )
    return RelatedPair(theta, xi, k_squared_identity)


def build_joint_group(
    pair: RelatedPair,
    g_action: GroupAction,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> JointGroup:
    """Join the first-axis copies, second-axis copies and the swap into N,
    the wreath product G wr Z_2, in closed form (`groups.wreath_product`).

    The supplied group must be transitive with trivial isotropy on the value
    set, so group elements match values one to one: g is the element with
    g . 0 = x for one value x. N is generated by F_a, (x, y) -> (a . x, y),
    and S_a, (x, y) -> (x, a . y), for the moved elements a = 1..k of G
    (k = m - 1), in G's order, then the swap W, (x, y) -> (y, x). Products
    compose right to left, so F_g S_h W^s sends (x, y) to (g . x, h . y)
    when s = 0 and to (g . y, h . x) when s = 1. With one value W is the
    identity and N is the one-element group, with no generator. For m > 1:

    * Distinct. The 2 m^2 triples (g, h, s) give distinct permutations. An
      element with s = 0 maps the line x = 0 onto a line of fixed x, one
      with s = 1 onto a line of fixed y, and for m > 1 these differ. For
      fixed s, the image of (0, 0) is (g . 0, h . 0), which names g and h.
    * Closed. F_a and S_a commute, W F_a W = S_a and W^2 = 1, so right
      multiplication by a generator keeps the form: F_a takes (g, h, 0) to
      (g a, h, 0) and (g, h, 1) to (g, h a, 1); S_a does the same with the
      axes exchanged; W flips s. The triples hold e and are closed under
      right factors that generate N, so they are N, and |N| = 2 m^2. In
      general W F_g' S_h' W = S_g' F_h', so F_g S_h W^s F_g' S_h' W^s' is
      F_(g x) S_(h y) W^(s xor s'), with (x, y) = (g', h'), or (h', g') when
      s = 1: the product `groups.FiniteGroup.products` reads off the triples.
    * Numbered as the breadth-first closure of F_1..F_k, S_1..S_k, W
      (`groups.generate_permutation_group`) numbers it, scanning the
      elements in order and each against the generators in listed order.
      The scan of e finds the generators, elements 1..2k+1. The scan of F_g,
      for g in order, finds (g, a, 0) at S_a for a = 1..k, then (g, e, 1) at
      W; at F_a it meets F's and e. The scan of S_h finds only (e, h, 1), at
      W, as (a, h, 0) was found by F_a's; that of W finds nothing, as
      (e, a, 1) and (a, e, 1) were found by S_a's and F_a's. Every triple
      with s = 0 is now found, so the scan of (g, a, 0), in order, finds
      only (g, a, 1), at W. (g, e, 1) follows (g, 1..k, 0), and (e, h, 1)
      follows every (g, a, 0), so their products (g, b, 1), (g b, e, 1),
      (e, h b, 1) and (b, h, 1) were found, and at W they give F_g and S_h.
      That is all 1 + (2k + 1) + k (k + 1) + k + k^2 = 2 m^2 elements, in
      the order e; F_a; S_a; W; per g, (g, a, 0) for a = 1..k, then
      (g, e, 1); (e, h, 1); (g, h, 1), row-major. So the generators, their
      columns, every word (`bfs_words`) and the point to which each element
      sends each (x, y) are the closure's.

    Nothing about N needs checking once it is built:

    * N is transitive on the product: F_g S_h W^s sends (0, 0) to (x, y)
      for g . 0 = x and h . 0 = y.
    * N is not abelian when m > 1: G is transitive on more than one value,
      so some g moves some value x to g . x != x. Its first-axis copy sends
      (x, x) to (g . x, x) and its second-axis copy to (x, g . x), so the two
      differ, and the swap, which conjugates the one into the other, does not
      commute with the first.

    |N| is known before anything is built: above order_bound it raises
    SizeLimit, "closure exceeds order bound", before any triple or column is
    allocated, and so does a column table above the byte bound on element
    rows (`groups.wreath_product`). The joined group keeps G's action on the
    values, its `value_action`, from which the stages read the points that
    N's elements move (`groups.Triples.images`).
    """
    if not is_transitive(g_action):
        raise NotTransitive("the supplied group is not transitive on the values")
    if isotropy_subgroup(g_action, 0).order != 1:
        raise NontrivialIsotropy("the supplied group has a nontrivial point stabilizer")
    m = g_action.space_size
    if m != pair.theta.value_count:
        raise ValueError("group acts on the wrong number of values")
    n_group = wreath_product(g_action.group, order_bound)
    # the generators are elements 1..2k+1 in the order listed above: the
    # first-axis copies, the second-axis copies, the swap; the copies of the
    # identity of G are the identity of N
    gens, k = n_group.generators, m - 1
    swap_element = gens[-1] if m > 1 else n_group.identity
    return JointGroup(n_group, g_action, (n_group.identity, *gens[:k]),
                      (n_group.identity, *gens[k:2 * k]), swap_element)


def build_swap_matrix(base_rep: UnitaryRepresentation) -> np.ndarray:
    """Unitary involution exchanging vectors drawn from two invariant subspaces.

    Irreducible input forces a scalar, and the identity is the canonical
    choice. Otherwise the first basis vectors of the two split subspaces are
    exchanged and everything orthogonal to them is fixed. That J squares to
    the identity is checked where it is used, by `build_joint_representation`.
    Raises IrreducibleInput when the commutant yields no split.
    """
    if is_irreducible(base_rep):
        return np.eye(base_rep.dim, dtype=complex)
    cols0, cols1 = invariant_subspace_split(base_rep)
    v0 = cols0[:, 0]
    v1 = cols1[:, 0]
    eye = np.eye(base_rep.dim, dtype=complex)
    return (
        eye
        - np.outer(v0, v0.conj())
        - np.outer(v1, v1.conj())
        + np.outer(v1, v0.conj())
        + np.outer(v0, v1.conj())
    )


def build_joint_representation(
    joint: JointGroup, base_rep: UnitaryRepresentation, swap_matrix: np.ndarray
) -> UnitaryRepresentation:
    """Decide from N's defining relations that the generator assignment
    F_g -> U(g), S_g -> B_g = J U(g) J, W -> J extends to N, then extend it.

    N, with first-axis copies F_g, second-axis copies S_g and the swap W, is
    the wreath product G wr Z_2 = (G x G) x| Z_2 (Dixon and Mortimer,
    Permutation Groups, 1996, 2.6). By von Dyck's theorem (D. L. Johnson,
    Presentations of Groups, 1997) the assignment extends to a homomorphism
    exactly when the images satisfy N's defining relations: the F-copies
    multiply as G, which holds as U is a verified representation of G;
    W F_g W = S_g, which holds by the definition of B_g; W^2 = 1, after which
    B_g B_h = J U(g) J^2 U(h) J = B_gh, so the S-copies multiply as G; and
    F_g S_h = S_h F_g. So this decides, in order, each comparison written
    `not residual <= tol`, so that a NaN fails:

    1. J is finite, or ValueError, before any product is taken;
    2. J^2 = I, or NotWellDefined names the swap, words ("swap", "swap"), ();
    3. U(g) B_h = B_h U(g) for every pair of moved elements g, h of G,
       scanned row-major with h in the outer loop;
    4. J J^dagger = I, or ValueError names the swap element; every U(n), a
       product of unitary matrices, is then unitary. With one value no
       element is sent to J, and this is not asked.

    The first failing pair (h, g) raises NotWellDefined at c = S_h F_g, read
    off N's Cayley-graph columns, with the words (`bfs_words`) of S_h and F_g
    joined and the word of c. That is the first pair (a, b) in row-major
    order with U(a*b) != U(a)U(b) in the stack built below, up to a residual
    within rounding of the tolerance. Breadth-first words are the normal form
    F_x S_y W^s, as the generators are listed F, S, W and every moved element
    of G is one, and the elements are numbered e, F_1.., S_1.., W, ... In
    exact arithmetic, once J^2 = I: no row F_g fails, as U(gx) = U(g)U(x); no
    row S_h' whose commutators hold fails, as B_h' U(x) B_y J^s =
    U(x) B_h'y J^s; and row S_h at column F_g compares U(g) B_h, the product
    along the word of c, with B_h U(g): this commutator, float for float.
    Every other residual of the table is rounding, which only a tolerance
    within rounding, such as 1e-15, can see.

    Each element then receives the matrix product along its breadth-first
    word: U(e) = I and U(n) = U(parent) U(s) down the breadth-first tree, one
    batched product per level, so a generator gets its own matrix. A stack
    above REPRESENTATION_BYTE_LIMIT raises SizeLimit before it is allocated.
    N's Cayley table is not read.
    """
    d = base_rep.dim
    tol = base_rep.tolerance
    swap_matrix = np.asarray(swap_matrix, dtype=complex)
    if not np.isfinite(swap_matrix).all():
        raise ValueError("swap matrix has a non-finite entry")
    # products of a J with huge entries overflow to inf and NaN, which fail
    with np.errstate(over="ignore", invalid="ignore"):
        if not _maxabs(swap_matrix @ swap_matrix - np.eye(d)) <= tol:
            raise NotWellDefined(joint.swap_element, ("swap", "swap"), ())
        _check_stack(joint.group.order, d)
        moved = base_rep.matrices[1:]
        sandwiched = swap_matrix @ moved @ swap_matrix

        def broken(hs, gs):
            u, b = moved[gs][None], sandwiched[hs][:, None]
            return ~(np.abs(u @ b - b @ u).max(axis=(2, 3), initial=0.0) <= tol)

        k = len(moved)
        pair = _first_violation((k, k), broken, swap_matrix.itemsize * d * d)
        if pair is not None:
            h, g = pair
            a, b = joint.second_embed[h + 1], joint.first_embed[g + 1]
            c = int(joint.group.columns[b, k + h])
            words = bfs_words(joint.group)
            raise NotWellDefined(c, words[a] + words[b], words[c])
        if k and not _maxabs(swap_matrix @ swap_matrix.conj().T - np.eye(d)) <= tol:
            raise ValueError(f"matrix for element {joint.swap_element} is not unitary")
    # the generators in the order `build_joint_group` lists them; with one
    # value N has none, and the swap's matrix is never read
    gen_mats = np.concatenate([moved, sandwiched, swap_matrix[None]])
    mats = np.empty((joint.group.order, d, d), dtype=complex)
    mats[joint.group.identity] = np.eye(d)
    # the word of an element is its parent's word and one more letter
    for elements, parents, slots in _bfs_levels(joint.group.columns):
        mats[elements] = mats[parents] @ gen_mats[slots]
    mats.setflags(write=False)
    return UnitaryRepresentation(joint.group, d, mats, tol, _BUILT)


def joint_coset_structure(
    joint: JointGroup,
    joint_rep: UnitaryRepresentation,
    f: int,
) -> JointSystem:
    """Coherent states of the basis fiducial e_f under the joined
    representation, with consistent, injective (x, y) coset labels.

    A coset's x label is read off its members lying in the first-axis copy,
    its y label off members in the second-axis copy. Subgroup elements whose
    matrices are scalar can merge cosets; the labeling survives exactly when
    every coset still meets both copies consistently and no two cosets share
    a label pair. Violations raise CosetLabelingError with a witness.

    A labeling implies that the states are the d basis vectors, one each, at
    any tolerance below 1. Every coset meets the first-axis copy, numbered
    e, F_1..F_{m-1} = 0..m-1 (`groups.wreath_product`), so its leader, whose
    state it carries, is some F_a, and U(F_a) = I U(a), the 0/1 matrix of
    the regular representation, exactly. Its state is then e_{a f},
    exactly. For a != b, F_a^-1 F_b moves e_f to an orthogonal
    e_{c f}, an overlap of exactly 0: up to tolerance 1/2 that keeps F_a and
    F_b apart, and above it the 0 is ambiguous and the isotropy decision
    raises NumericalAmbiguity. So the m = d cosets carry distinct basis
    vectors: they are pairwise orthogonal, `basis_index` holds them, and
    they resolve the identity with c = 1 and residual 0. A system whose
    states are not distinct basis vectors, with `basis_index` None, is
    therefore never labeled.
    """
    coherent_system = coherent.build_coherent_system(joint_rep, f)
    # the pair (g . 0, h . 0) to which each element F_g S_h W^s sends (0, 0)
    x_of, y_of = joint.group.triples.images(joint.value_action.act, slice(None), 0, 0)
    x_of, y_of = x_of.tolist(), y_of.tolist()
    first, second = set(joint.first_embed), set(joint.second_embed)
    x_index, y_index = [], []
    for block in coherent_system.cosets.cosets:
        xs = sorted({x_of[n] for n in block if n in first})
        ys = sorted({y_of[n] for n in block if n in second})
        if not xs or not ys:
            raise CosetLabelingError("coset meets no axis copy", block)
        if len(xs) > 1 or len(ys) > 1:
            raise CosetLabelingError("inconsistent axis labels", (block, xs, ys))
        x_index.append(xs[0])
        y_index.append(ys[0])
    labels = list(zip(x_index, y_index))
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise CosetLabelingError("label collision", dup)
    return JointSystem(joint, coherent_system, tuple(x_index), tuple(y_index))


def joint_operators(
    system: JointSystem, theta_values, xi_values
) -> tuple[Operator, Operator]:
    """The two variable operators: each coset state carries the value of its
    x label (first operator) or its y label (second).

    theta_values and xi_values are numeric, one per value-set point.
    """
    m = system.joint.value_action.space_size
    theta_values = np.asarray(theta_values, dtype=float)
    xi_values = np.asarray(xi_values, dtype=float)
    if theta_values.shape != (m,) or xi_values.shape != (m,):
        raise ValueError("need one numeric value per value-set point")
    return (
        coherent.operator_from_variable(system.coherent, theta_values[list(system.x_index)]),
        coherent.operator_from_variable(system.coherent, xi_values[list(system.y_index)]),
    )


def _scalar_elements(rep: UnitaryRepresentation) -> np.ndarray:
    """The elements n whose matrix is a unit scalar, U(n) = lambda I, in
    ascending order: the scalar subgroup Z of the representation.

    lambda is tr U(n) / d, and n is in Z when ||lambda| - 1| < 1e-6 and U(n)
    is within 10 tol of lambda I. Every matrix of the stack is tested in one
    batched pass, in blocks near STEP_BYTES.

    Z gives the classes of elements whose matrices differ only by a unit
    scalar. For a unitary homomorphism U(a) = lambda U(b) holds exactly when
    U(b^-1 a) = U(b)^dagger U(a) = lambda I, that is when a lies in bZ, so
    the classes are the left cosets of Z. Z is a subgroup, as U(e) = I and
    products and inverses of unit scalars are unit scalars, and a normal
    one, as U(g) lambda I U(g)^dagger = lambda I.
    """
    mats, d = rep.matrices, rep.dim
    step = _block_cells(mats.itemsize * d * d)
    scalar = np.empty(len(mats), dtype=bool)
    for a in range(0, len(mats), step):
        block = mats[a:a + step]
        lam = np.trace(block, axis1=1, axis2=2) / d
        residual = np.abs(block - lam[:, None, None] * np.eye(d)).max(axis=(1, 2), initial=0.0)
        scalar[a:a + step] = (np.abs(np.abs(lam) - 1.0) < 1e-6) & (residual <= 10 * rep.tolerance)
    return np.flatnonzero(scalar)


def covariance_records(
    system: JointSystem, a_theta: Operator, theta_values
) -> list[CovarianceRecord]:
    """Conjugation covariance of the first operator under every element of N.

    a_theta is the first operator, built by `joint_operators` from the
    numeric theta_values, one per value-set point. residual =
    || W(n)^dagger A W(n) - A' || with A' built for the moved variable.
    When two elements whose matrices agree up to a scalar move the values
    differently, no operator assignment can satisfy both; such elements are
    flagged obstructed, which explains any failures they cause.

    A residual passes at tol * scale, with scale = max(1, largest |value|)
    as in `_clustered_eigh` (`_residuals` keeps values near the float range
    from overflowing).

    Every element's moved values, theta o g for its triple, are gathered at
    once, |N| rows of m, and the moved operators and residuals are computed
    as stacks, in blocks of elements whose temporaries stay near STEP_BYTES.
    """
    n, d, triples = system.joint.group.order, system.dim, system.joint.group.triples
    # F_g S_h W^s sends (x, y) to (g . x, h . y), or to (g . y, h . x) when
    # s = 1 (`groups.Triples.images`): its moved table is theta o g along
    # axis s, or along axis 0 when theta o g is constant, so two tables are
    # equal exactly when their values and axes are
    values = np.asarray(theta_values, dtype=float)[system.joint.value_action.act[triples.g]]
    axes = np.where((values == values[:, :1]).all(axis=1), 0, triples.s)
    coset_values = np.where(axes[:, None] == 0, values[:, list(system.x_index)],
                            values[:, list(system.y_index)])
    # the leader of each element's class, its coset of the scalar subgroup;
    # a class is obstructed when some member's table differs from its
    # leader's, and the leader is not compared with itself, as a table
    # holding NaN would differ
    leaders = coset_leaders(system.joint.group, _scalar_elements(system.coherent.rep))
    differs = (((values != values[leaders]).any(axis=1) | (axes != axes[leaders]))
               & (leaders != np.arange(n)))
    obstructed = np.zeros(n, dtype=bool)
    obstructed[leaders[differs]] = True
    scale = max(1.0, float(np.abs(np.asarray(theta_values, dtype=float)).max(initial=0.0)))
    mats = system.coherent.rep.matrices
    residuals = np.empty(n)
    step = _block_cells(a_theta.matrix.itemsize * d * max(d, coset_values.shape[1]))
    for a in range(0, n, step):
        w = mats[a:a + step]
        moved = coherent.operator_stack(system.coherent, coset_values[a:a + step])
        residuals[a:a + step] = _residuals(w, a_theta.matrix, moved, scale)
    return [
        CovarianceRecord(t, r, r <= system.tolerance * scale, bool(o))
        for t, (r, o) in enumerate(zip(residuals.tolist(), obstructed[leaders].tolist()))
    ]


def _residuals(w: np.ndarray, a: np.ndarray, moved: np.ndarray, scale: float) -> np.ndarray:
    """max |W^dagger A W - A'| for each matrix W of a stack and each moved
    operator A'. Where that passes the float range, A and A' are scaled by
    2^-k, 2^k the smallest power of two above scale, which is exact, and the
    residuals are scaled back."""
    left = w.conj().swapaxes(1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.abs(left @ a @ w - moved).max(axis=(1, 2), initial=0.0)
    if np.isfinite(residuals).all():
        return residuals
    k = int(np.frexp(scale)[1])
    shrink = np.ldexp(1.0, -k)
    with np.errstate(over="ignore"):
        return np.ldexp(np.abs(left @ (a * shrink) @ w - moved * shrink).max(axis=(1, 2)), k)
