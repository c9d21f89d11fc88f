import itertools
import math

import hypothesis
import numpy as np
import pytest

from cvhilbert import groups, pairing, representations, variables
from cvhilbert.errors import CvhilbertError, SizeLimit

hypothesis.settings.register_profile(
    "default", max_examples=30, deadline=None
)
hypothesis.settings.load_profile("default")

FLIP1 = (2, 3, 0, 1)
FLIP2 = (1, 0, 3, 2)
SWAP = (0, 2, 1, 3)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p * q)(x) = p(q(x)), matching act[p*q] = act[p] o act[q]: the
    reference product of two permutation rows."""
    return tuple(p[q[x]] for x in range(len(q)))


def standard_action(kind: str, n: int, order_bound: int = groups.DEFAULT_ORDER_BOUND):
    """Catalogue groups, cyclic Z_n, dihedral D_n (order 2n) and symmetric
    S_n, and their action on the points, closed from their listed
    permutations; the identity is listed first, so the closure keeps the
    listed numbering."""
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
    elif kind == "dihedral":
        # element i + n*s is r_i * f^s: vertex v -> i + (-1)^s v of the n-gon,
        # and the flips swap two more points, which keeps the action faithful
        # for n <= 2, where the vertices alone do not tell r_i from s_i
        rows = np.empty((2 * n, n + 2), dtype=np.int64)
        rows[:n, :n] = (shift[:, None] + shift) % n
        rows[n:, :n] = (shift[:, None] - shift) % n
        rows[:n, n:] = (n, n + 1)
        rows[n:, n:] = (n + 1, n)
    else:
        rows = list(itertools.permutations(range(n)))
    return groups.generate_permutation_group(rows, order_bound=order_bound)[1]


def standard_group(kind: str, n: int, order_bound: int = groups.DEFAULT_ORDER_BOUND):
    return standard_action(kind, n, order_bound).group


def induced_indices(variable, action, g_action):
    """The element of G that each k of K induces: the map k makes on the
    values, read at the first point of each value, found among G's rows."""
    pick = [variable.values.index(v) for v in range(variable.value_count)]
    vals = np.asarray(variable.values)
    index = {tuple(row): i for i, row in enumerate(g_action.act.tolist())}
    return tuple(index[tuple(vals[row[pick]].tolist())] for row in action.act)


def joint_system(pair, g_group, g_action, base_rep=None, fiducial=None):
    """The joint system of a related pair, by the steps `verify` takes: join
    the groups, build the swap matrix, extend the representation, label the
    cosets. The base representation defaults to G's regular one."""
    joint = pairing.build_joint_group(pair, g_action)
    if base_rep is None:
        base_rep = representations.regular_representation(g_group)
    joint_rep = pairing.build_joint_representation(
        joint, base_rep, pairing.build_swap_matrix(base_rep))
    return pairing.joint_coset_structure(pair, joint, joint_rep, fiducial)


def nine_point_setup():
    """Two three-valued coordinates on a 3x3 product space."""
    shift_first = tuple((((p // 3) + 1) % 3) * 3 + p % 3 for p in range(9))
    shift_second = tuple((p // 3) * 3 + ((p % 3) + 1) % 3 for p in range(9))
    _, k_action = groups.generate_permutation_group([shift_first, shift_second])
    coord1 = variables.make_variable("coord1", [p // 3 for p in range(9)],
                                     numeric_values=[0.0, 1.0, 2.0])
    coord2 = variables.make_variable("coord2", [p % 3 for p in range(9)],
                                     numeric_values=[0.0, 1.0, 2.0])
    ctx = variables.Context(9, k_action, (coord1, coord2))
    swap9 = tuple((p % 3) * 3 + (p // 3) for p in range(9))
    pair = pairing.build_related_pair(ctx, coord1, coord2, swap9)
    g_group, g_action = variables.induced_group(coord1, k_action)
    return ctx, pair, g_group, g_action


@pytest.fixture(scope="session")
def two_bit():
    """The worked two-binary-variable joint system and its ingredients."""
    k_group, k_action = groups.generate_permutation_group([FLIP1, FLIP2])
    theta = variables.make_variable("bit1", [0, 0, 1, 1], numeric_values=[0.0, 1.0])
    xi = variables.make_variable("bit2", [0, 1, 0, 1], numeric_values=[0.0, 1.0])
    context = variables.Context(4, k_action, (theta, xi))
    pair = pairing.build_related_pair(context, theta, xi, SWAP)
    g_group, g_action = variables.induced_group(theta, k_action)
    base_rep = representations.regular_representation(g_group)
    system = joint_system(pair, g_group, g_action, base_rep)
    return {
        "k_group": k_group,
        "k_action": k_action,
        "theta": theta,
        "xi": xi,
        "context": context,
        "pair": pair,
        "g_group": g_group,
        "g_action": g_action,
        "base_rep": base_rep,
        "system": system,
    }


@pytest.fixture(scope="session")
def two_bit_operators(two_bit):
    a_theta, a_xi = pairing.joint_operators(
        two_bit["system"], two_bit["theta"].numeric(), two_bit["xi"].numeric()
    )
    return a_theta, a_xi


@pytest.fixture(scope="session")
def qubit_rep(two_bit):
    """Irreducible two-dimensional representation of the joined group."""
    return two_bit["system"].coherent.rep


def circle_system(n):
    """Value circle: cyclic shifts acting on n labeled points, basis fiducial."""
    from cvhilbert import coherent

    group = standard_group("cyclic", n)
    action = groups.regular_action(group)
    rep = representations.permutation_representation(action)
    system = coherent.build_coherent_system(rep)
    return group, action, rep, system


class GroupMismatch(CvhilbertError):
    pass


def reference_verdict(g, mats, tol=representations.DEFAULT_TOLERANCE):
    """A row-major loop over the table, then one over the elements: the
    first pair (a, b) with U(a*b) != U(a)U(b), else "not unitary", else None.
    Each comparison is `not residual <= tol`, so a NaN fails."""
    for a in range(g.order):
        bad = ~(np.abs(mats[g.cayley[a]] - mats[a] @ mats).max(axis=(1, 2)) <= tol)
        if bad.any():
            return (a, int(np.argmax(bad)))
    if any(not np.abs(u @ u.conj().T - np.eye(len(u))).max() <= tol for u in mats):
        return "not unitary"
    return None


def stack_representation(group, mats, tolerance=representations.DEFAULT_TOLERANCE):
    """A representation held as a stack of matrices, which the package makes
    only for a joined group: the stack must pass the reference check, and is
    then made with the verifying builders' token."""
    mats = np.asarray(mats)
    d = mats.shape[1]
    assert mats.shape == (group.order, d, d)
    assert reference_verdict(group, mats, tolerance) is None
    return representations.UnitaryRepresentation(group, d, mats, tolerance, representations._BUILT)


def direct_sum(rep1, rep2):
    """The block-diagonal representation U1(g) + U2(g) of two
    representations of one group, checked where it is built
    (`stack_representation`)."""
    if rep1.group is not rep2.group:
        raise GroupMismatch("direct sum requires a common group")
    n = rep1.group.order
    d = rep1.dim + rep2.dim
    representations._check_stack(n, d)
    mats = np.zeros((n, d, d), dtype=complex)
    mats[:, : rep1.dim, : rep1.dim] = rep1.matrices
    mats[:, rep1.dim :, rep1.dim :] = rep2.matrices
    mats.setflags(write=False)
    return stack_representation(rep1.group, mats, min(rep1.tolerance, rep2.tolerance))
