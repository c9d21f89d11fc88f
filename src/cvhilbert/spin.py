"""Angular momentum matrices, rotations, planar contexts.

Matrices follow the standard ladder construction: raising and lowering
operators connect adjacent basis labels m in {-r, ..., r}, the third component
is diagonal in m, and the squared total equals r(r+1) times the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpin, NonUnitAxis
from .groups import GroupAction, generate_permutation_group
from .representations import _maxabs
from .variables import ConceptualVariable, Context, is_permissible, make_variable

MAX_SPIN = 12.5


@dataclass(frozen=True, eq=False)
class SpinRepresentation:
    r: float
    dim: int
    m_values: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    aplus: np.ndarray
    aminus: np.ndarray
    asq: np.ndarray


def build_spin(r) -> SpinRepresentation:
    """Spin-r matrices on a (2r+1)-dimensional space, basis ascending in m."""
    r = float(r)
    if r < 0 or abs(2 * r - round(2 * r)) > 1e-12 or r > MAX_SPIN:
        raise InvalidSpin(f"r must be a half-integer in [0, {MAX_SPIN}], got {r}")
    dim = int(round(2 * r)) + 1
    m = -r + np.arange(dim)
    aplus = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        aplus[i + 1, i] = math.sqrt(r * (r + 1) - m[i] * (m[i] + 1))
    aminus = aplus.conj().T
    ax = (aplus + aminus) / 2
    ay = (aplus - aminus) / 2j
    az = np.diag(m).astype(complex)
    asq = ax @ ax + ay @ ay + az @ az
    if _maxabs(asq - r * (r + 1) * np.eye(dim)) > 1e-12 * max(1.0, r * (r + 1)):
        raise InvalidSpin("squared total does not match r(r+1)")
    for a in (aplus, aminus, ax, ay, az, asq):
        a.setflags(write=False)
    return SpinRepresentation(r, dim, m, ax, ay, az, aplus, aminus, asq)


def verify_commutation(sr: SpinRepresentation) -> float:
    """Max residual of [A0, A+-] = +-A+- and [A-, A+] = -2 A0."""
    def comm(a, b):
        return a @ b - b @ a

    res = max(
        _maxabs(comm(sr.az, sr.aplus) - sr.aplus),
        _maxabs(comm(sr.az, sr.aminus) + sr.aminus),
        _maxabs(comm(sr.aminus, sr.aplus) + 2 * sr.az),
    )
    return res


def verify_eigen(sr: SpinRepresentation) -> bool:
    """Each basis vector: A0 eigenvalue m, squared-total eigenvalue r(r+1).

    Column i of A - lambda_i I is the residual of basis vector i, so both
    relations are read off whole matrices.
    """
    bound = 1e-12 * max(1.0, sr.r * (sr.r + 1))
    return (_maxabs(sr.az - np.diag(sr.m_values)) <= bound
            and _maxabs(sr.asq - sr.r * (sr.r + 1) * np.eye(sr.dim)) <= bound)


def rotation_operator(sr: SpinRepresentation, axis, angle: float) -> np.ndarray:
    """exp(i angle (axis . A)) through the eigendecomposition of axis . A."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or abs(np.linalg.norm(axis) - 1.0) > 1e-9:
        raise NonUnitAxis(f"axis must be a unit 3-vector, got {axis!r}")
    generator = axis[0] * sr.ax + axis[1] * sr.ay + axis[2] * sr.az
    evals, evecs = np.linalg.eigh(generator)
    u = (evecs * np.exp(1j * angle * evals)) @ evecs.conj().T
    if _maxabs(u @ u.conj().T - np.eye(sr.dim)) > 1e-10:
        raise NonUnitAxis("rotation failed to be unitary")
    return u


def planar_angles(n_points: int) -> np.ndarray:
    return 2 * math.pi * np.arange(n_points) / n_points


def stern_gerlach_context(n_points: int) -> tuple[Context, list[ConceptualVariable]]:
    """Planar-component variables on an evenly spaced circle of directions.

    Points are unit vectors in the measurement plane, the acting group is the
    cyclic rotation group of the grid, and each grid direction contributes a
    component variable with cosine values. Level sets use rounded cosines so
    exact angle coincidences survive floating arithmetic.
    """
    if n_points < 3:
        raise ValueError("need at least three directions")
    angles = planar_angles(n_points)
    rotation = tuple((p + 1) % n_points for p in range(n_points))
    group, action = generate_permutation_group([rotation])
    variables = []
    for a in range(n_points):
        keys = [float(k) for k in np.round(np.cos(angles - angles[a]), 9)]
        variables.append(make_variable(f"component[{a}]", keys,
                                       numeric_values=list(dict.fromkeys(keys))))
    context = Context(n_points, action, tuple(variables))
    return context, variables


def planar_component_covariance(n_points: int) -> bool:
    """Rotating both the point and the reference direction preserves equalities.

    For every rotation k, every grid direction a and every pair of points with
    equal components along a, the components along the rotated direction of
    the rotated points are equal as well. This is exact on the even grid.
    The components are cosines rounded to nine digits, compared exactly, one
    boolean array of the n^3 pairwise equalities per rotation.
    """
    angles = planar_angles(n_points)
    return _rotated_level_sets_agree(np.round(np.cos(angles[None, :] - angles[:, None]), 9))


def _rotated_level_sets_agree(table: np.ndarray) -> bool:
    """False when some k, a, p1, p2 has table[a, p1] == table[a, p2] but
    table[a+k, p1+k] != table[a+k, p2+k], indices mod n.

    table[a, p] is the component along direction a at point p. Each rotation
    gathers the rotated table with one fancy index and compares its equalities
    with the unrotated ones as whole n x n x n arrays, so no array has more
    than n^3 elements.
    """
    n = len(table)
    equal = table[:, :, None] == table[:, None, :]
    for k in range(n):
        shift = (np.arange(n) + k) % n
        rotated = table[shift[:, None], shift]
        if (equal & (rotated[:, :, None] != rotated[:, None, :])).any():
            return False
    return True


_SIGNED_AXES = ("+x", "-x", "+y", "-y", "+z", "-z")


def octahedral_axes_action() -> GroupAction:
    """Rotation group of the coordinate frame acting on the six signed axes."""
    # quarter turn about x: y -> z -> -y -> -z
    rx = (0, 1, 4, 5, 3, 2)
    # quarter turn about z: x -> y -> -x -> -y
    rz = (2, 3, 1, 0, 4, 5)
    group, action = generate_permutation_group([rx, rz])
    if group.order != 24:
        raise AssertionError("octahedral closure must have order 24")
    return action


def axis_component_variable(axis: str) -> ConceptualVariable:
    """Signed-axis component of the named coordinate direction."""
    values = [{f"+{axis}": 1.0, f"-{axis}": -1.0}.get(label, 0.0) for label in _SIGNED_AXES]
    return make_variable(f"component[{axis}]", values,
                         numeric_values=list(dict.fromkeys(values)))


def full_rotation_counterexample():
    """Witness that an axis component breaks level-set preservation in 3D.

    Returns (action, variable, (k, p1, p2), labels) where k is the first
    rotation in generation order mapping two equal-component axes to axes
    with different components.
    """
    action = octahedral_axes_action()
    var = axis_component_variable("z")
    ok, witness = is_permissible(var, action)
    if ok:
        raise AssertionError("axis component is unexpectedly permissible")
    k, p1, p2 = witness
    return action, var, witness, (_SIGNED_AXES[p1], _SIGNED_AXES[p2])
