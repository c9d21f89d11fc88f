"""Coherent-state systems of basis fiducials: orbits, resolution of identity, operators.

A system is the orbit of a basis fiducial e_f, the fiducial of every
command, collapsed to one state per left coset of its isotropy subgroup.
The orbit is column f of every U(g). Under a permutation representation it
is read off column f of the action, the basis vectors at g . f, with no
orbit, state array or table (`_orbit_isotropy`); under the joined stack it
is gathered off the stack, and the isotropy and its phases are decided from
the float overlaps.

Each state is held as its basis index p, the state being e_p, exactly, at a
distinct p. The projector |x><x| is then the diagonal entry (p, p), so the
resolution of identity and every operator sum c * sum_x v_x |x><x| are read
off the indices in O(d) per operator, plus the O(d^2) of writing the d x d
matrix, with the floats the dense products give. A joined system whose
states are not such basis vectors (cyclic m = 6 and 8, XOR m = 8) has no
indices: its cosets fail the labeling (`pairing.joint_coset_structure`), and
a resolution or an operator asked of it raises NoResolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NoResolution, NumericalAmbiguity
from .groups import CosetSpace, GroupAction, Subgroup, left_cosets, stabilizer_cosets, subgroup
from .representations import Operator, UnitaryRepresentation, _check_operators, _maxabs


@dataclass(frozen=True, eq=False)
class ResolutionResult:
    constant: float
    residual: float
    ok: bool


@dataclass(frozen=True, eq=False)
class CoherentStateSystem:
    """One state per coset of the isotropy of the basis fiducial e_f, the
    state of a coset being U(g) e_f for its representative g, held as its
    basis index p when it is e_p, exactly, at a distinct p for each coset.
    A permutation representation's states always are; `basis_index` is None
    for a joined system whose states are not."""
    rep: UnitaryRepresentation
    isotropy: Subgroup                  # elements fixing e_f up to phase
    alpha: tuple[float, ...]            # phase per isotropy member
    cosets: CosetSpace
    basis_index: np.ndarray | None      # (|X|,) basis index per state

    @property
    def tolerance(self) -> float:
        return self.rep.tolerance

    @functools.cached_property
    def resolution(self) -> ResolutionResult:
        """c * sum |x><x| tested against I, computed once, on first use."""
        return resolution_of_identity(self)


def _parallel(overlaps: np.ndarray, tol: float) -> np.ndarray:
    """The elements whose overlap with the fiducial has modulus at least
    1 - tol, ascending. A modulus inside the band (1 - 2 tol, 1 - tol) is
    too close to that boundary to classify, and the first element with one
    raises NumericalAmbiguity."""
    mags = np.abs(overlaps)
    ambiguous = (mags < 1.0 - tol) & (mags > 1.0 - 2.0 * tol)
    if ambiguous.any():
        g = int(ambiguous.argmax())
        raise NumericalAmbiguity(
            f"overlap modulus {float(mags[g])!r} for element {g} is too close to the boundary"
        )
    return np.flatnonzero(mags >= 1.0 - tol)


def _orbit_isotropy(rep: UnitaryRepresentation, f: int):
    """(orbit, isotropy, phases): column f of every matrix, U(g) e_f in row
    g, and the subgroup fixing e_f up to a unit-modulus scalar, with the
    phase of each member.

    A permutation representation's column is e_{g . f}, and its orbit is
    returned as the (|G|,) basis indices g . f, column f of the action:
    nothing of size |G| * d is built. Its overlaps are exactly 1 at the
    point stabilizer of f and 0 elsewhere, and every phase is 0. A stack's
    column is gathered, with no product.

    Parallelism is decided by |<e_f|U(g)|e_f>| >= 1 - tolerance, for every
    element in one comparison (`_parallel`); an overlap inside the tolerance
    band around that boundary raises NumericalAmbiguity rather than
    silently classifying. Above tolerance 1/2 the band takes in 0, so a
    permutation representation raises at the first element that moves f."""
    tol = rep.tolerance
    if isinstance(rep.source, GroupAction):
        images = rep.source.images(f)
        # the tolerance is below 1, so an overlap of 0 is not parallel: the
        # members are the point stabilizer of f, a subgroup
        members = _parallel((images == f).astype(float), tol)
        return images, Subgroup(rep.group, tuple(members.tolist())), (0.0,) * len(members)
    orbit = rep.matrices[:, :, f]
    overlaps = orbit[:, f]
    members = _parallel(overlaps, tol)
    phases = np.angle(overlaps[members])
    phases[members == rep.group.identity] = 0.0
    # phase condition U(e) e_f = exp(i alpha(e)) e_f, checked exactly here
    residue = orbit[members]
    residue[:, f] -= np.exp(1j * phases)
    off = np.abs(residue).max(axis=1) > 10 * tol
    if off.any():
        m = int(members[off.argmax()])
        raise NumericalAmbiguity(f"isotropy phase inconsistent for element {m}")
    # members are ascending and distinct, as `subgroup` lists them
    return orbit, subgroup(rep.group, members), tuple(phases.tolist())


def build_coherent_system(rep: UnitaryRepresentation, f: int) -> CoherentStateSystem:
    """The coset states of the basis fiducial e_f, 0 <= f < d, each held as
    its basis index."""
    if not 0 <= f < rep.dim:
        raise ValueError(f"fiducial index {f} is outside 0..{rep.dim - 1}")
    orbit, iso, alpha = _orbit_isotropy(rep, f)
    if orbit.ndim == 1:
        # the basis indices g . f: g lies in a * iso exactly when g . f = a . f
        cosets = stabilizer_cosets(iso, orbit)
        index = orbit[list(cosets.representatives)]
    else:
        cosets = left_cosets(rep.group, iso)
        states = orbit[list(cosets.representatives)]
        # each state e_p, exactly, at a distinct p: one nonzero entry per
        # row, read row-major, gives rows 0, 1, 2, ...
        rows, index = np.nonzero(states)
        if not (np.array_equal(rows, np.arange(len(states)))
                and (states[rows, index] == 1.0).all() and np.bincount(index).max() == 1):
            index = None
    if index is not None:
        index.setflags(write=False)
    return CoherentStateSystem(rep, iso, alpha, cosets, index)


def resolution_of_identity(system: CoherentStateSystem) -> ResolutionResult:
    """Test c * sum_x |x><x| against the identity.

    c is computed from the trace, never assumed: the states are basis
    vectors, so c = d / |X|, and the residual is the largest |c b_pp - 1|
    over the diagonal, b_pp 1 at a state's index and 0 elsewhere. A system
    that does not resolve the identity, as a permutation action that is not
    transitive does not, is reported, not raised. Callers read it once per
    system as `system.resolution`. A system whose states are not basis
    vectors raises NoResolution.
    """
    index = system.basis_index
    if index is None:
        raise NoResolution("the coherent states are not distinct basis vectors")
    d = system.rep.dim
    c = d / float(len(index))
    diagonal = np.zeros(d)
    diagonal[index] = c
    residual = _maxabs(diagonal - 1.0)
    return ResolutionResult(c, residual, residual <= system.tolerance)


def operator_from_variable(system: CoherentStateSystem, values) -> Operator:
    """A = c * sum_x values[x] |x><x| over the coset states: the one-row
    case of `operator_stack`, checked where the `Operator` is built."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(system.cosets),):
        raise ValueError("need one numeric value per coset state")
    return Operator(system.rep.dim, _projector_sums(system, values[None])[0],
                    tolerance=system.tolerance)


def operator_stack(system: CoherentStateSystem, values) -> np.ndarray:
    """The (k, d, d) stack A_i = c * sum_x values[i, x] |x><x|, one operator
    per row of a (k, |X|) array of values, checked finite and Hermitian at
    the system's tolerance as one stack."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(system.cosets):
        raise ValueError("need one numeric value per coset state in every row")
    stack = _projector_sums(system, values)
    _check_operators(stack, system.tolerance)
    return stack


def _projector_sums(system: CoherentStateSystem, values: np.ndarray) -> np.ndarray:
    """c * values_i scattered onto the diagonal at the states' indices, for
    each row i of values; raises NoResolution when the states are not basis
    vectors or do not resolve the identity."""
    res = system.resolution
    if not res.ok:
        raise NoResolution(
            f"resolution of identity fails with residual {res.residual:.3e}"
        )
    # each diagonal entry is half + half, the floats of the mean of the dense
    # product c * (states^T values) @ states* and its adjoint, which is
    # Hermitian bit for bit, as a sum of projectors is. Halving first is exact
    # in the normal range and cannot overflow where the sum would. The rest
    # of the matrix is +0.0
    d, index = system.rep.dim, system.basis_index
    half = 0.5 * (res.constant * values)
    a = np.zeros((len(values), d, d), dtype=complex)
    a[:, index, index] = half + half
    return a
