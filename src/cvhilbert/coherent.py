"""Coherent-state systems: fiducial orbits, resolution of identity, operators.

A system is the orbit of a fiducial vector under a representation, collapsed
to one state per left coset of the fiducial's isotropy subgroup. Summing the
state projectors against the counting measure and normalizing by the trace
either reproduces the identity (guaranteed for irreducible representations)
or reports a residual.

The orbit of a basis fiducial e_f is column f of every matrix, U(g) e_f.
Under a permutation representation that column is the basis vector at
g . f, so the overlaps are exactly 1 or 0, the isotropy is the point
stabilizer of f, the cosets are those of the points g . f
(orbit-stabilizer), and each state is e_p at p = g . f for its coset's
representative g: the system is read off column f of the action,
`GroupAction.images(f)`, in O(|G| log |G|), and builds no orbit, no state
array and no table. Under the regular representation that column is the
right products g * f, read off the group's rows. Under a stack, the joined
representation, the orbit is gathered off the stack, with no product. Any
other fiducial takes one batched product over the stack.

When every state is a standard basis vector e_p at a distinct index p, the
projector |x><x| is the single diagonal entry (p, p). The resolution of
identity and every operator sum are then read off the states' basis indices
in O(d) per operator, plus the O(d^2) of writing the d x d matrix, instead of
a d x d x d product. The floats are those the products give: each diagonal
entry is one product c * v, never a sum.
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
    """One state per coset of the fiducial's isotropy, the state of a coset
    being the orbit vector of its representative.

    A system read off a permutation action keeps the basis index of each
    state, g . f for the representative g, in `action_index`, and builds
    no state array until `states` is first read; any other keeps the orbit
    vectors of the representatives in `orbit_states`. One of the two is set.
    """
    rep: UnitaryRepresentation
    fiducial: np.ndarray
    isotropy: Subgroup                  # elements fixing the fiducial up to phase
    alpha: tuple[float, ...]            # phase per isotropy member
    cosets: CosetSpace
    action_index: np.ndarray | None = None  # (|X|,) basis index per state
    orbit_states: np.ndarray | None = None  # (|X|, d) orbit vector per state

    @property
    def tolerance(self) -> float:
        return self.rep.tolerance

    @functools.cached_property
    def states(self) -> np.ndarray:
        """(|X|, d), one unit vector per coset: the orbit states, or e_p at
        each basis index read off the action, built on first read."""
        if self.orbit_states is not None:
            return self.orbit_states
        states = np.zeros((len(self.action_index), self.rep.dim), dtype=complex)
        states[np.arange(len(states)), self.action_index] = 1.0
        states.setflags(write=False)
        return states

    @functools.cached_property
    def basis_index(self) -> np.ndarray | None:
        """The index p of each state when every state is the standard basis
        vector e_p, exactly, at a distinct index; None otherwise. The
        indices read off an action, or derived from `states` on first read."""
        if self.action_index is not None:
            return self.action_index
        # one nonzero entry per row, row-major, gives rows 0, 1, 2, ...
        rows, cols = np.nonzero(self.states)
        if not np.array_equal(rows, np.arange(len(self.states))):
            return None
        if not (self.states[rows, cols] == 1.0).all() or np.bincount(cols).max() > 1:
            return None
        cols.setflags(write=False)
        return cols

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


def _orbit_isotropy(rep: UnitaryRepresentation, fiducial: np.ndarray, f: int | None):
    """(orbit, isotropy, phases): the orbit U(g) fiducial of every element,
    row g for element g, and the subgroup fixing the fiducial up to a
    unit-modulus scalar, with the phase of each member.

    For the basis fiducial e_f (f not None) the orbit is column f of every
    matrix. A permutation representation's column is e_{g . f}, and its
    orbit is returned as the (|G|,) basis indices g . f, column f of the
    action: nothing of size |G| * d is built. Its overlaps are exactly 1 at
    the point stabilizer of f and 0 elsewhere, and every phase is 0. A
    stack's column is gathered, with no product. Any other fiducial takes
    one batched product over the stack.

    Parallelism is decided by |<fiducial|U(g)|fiducial>| >= 1 - tolerance for
    unit vectors, for every element in one comparison (`_parallel`); an
    overlap inside the tolerance band around that boundary raises
    NumericalAmbiguity rather than silently classifying. Above tolerance 1/2
    the band takes in 0, so a permutation representation raises at the
    first element that moves f."""
    tol = rep.tolerance
    if f is not None and isinstance(rep.source, GroupAction):
        images = rep.source.images(f)
        # the tolerance is below 1, so an overlap of 0 is not parallel: the
        # members are the point stabilizer of f, a subgroup
        members = _parallel((images == f).astype(float), tol)
        return images, Subgroup(rep.group, tuple(members.tolist())), (0.0,) * len(members)
    if f is None:
        orbit = rep.matrices @ fiducial
        overlaps = orbit @ fiducial.conj()
    else:
        orbit = rep.matrices[:, :, f]
        overlaps = orbit[:, f]
    members = _parallel(overlaps, tol)
    phases = np.angle(overlaps[members])
    phases[members == rep.group.identity] = 0.0
    # phase condition U(e) psi = exp(i alpha(e)) psi, checked exactly here
    off = np.abs(orbit[members] - np.exp(1j * phases)[:, None] * fiducial).max(axis=1) > 10 * tol
    if off.any():
        m = int(members[off.argmax()])
        raise NumericalAmbiguity(f"isotropy phase inconsistent for element {m}")
    # members are ascending and distinct, as `subgroup` lists them
    return orbit, subgroup(rep.group, members), tuple(phases.tolist())


def build_coherent_system(
    rep: UnitaryRepresentation, fiducial=None
) -> CoherentStateSystem:
    """Assemble the coset states for a fiducial (default: first basis vector)."""
    if fiducial is None:
        fiducial = np.zeros(rep.dim, dtype=complex)
        fiducial[0] = 1.0
    fiducial = np.asarray(fiducial, dtype=complex)
    if abs(np.linalg.norm(fiducial) - 1.0) > rep.tolerance:
        raise ValueError("fiducial must be a unit vector")
    nonzero = np.flatnonzero(fiducial)
    f = int(nonzero[0]) if len(nonzero) == 1 and fiducial[nonzero[0]] == 1.0 else None
    orbit, iso, alpha = _orbit_isotropy(rep, fiducial, f)
    if orbit.ndim == 1:
        # the basis indices g . f: g lies in a * iso exactly when g . f = a . f
        cosets = stabilizer_cosets(iso, orbit)
        index = orbit[list(cosets.representatives)]
        index.setflags(write=False)
        return CoherentStateSystem(rep, fiducial, iso, alpha, cosets, action_index=index)
    cosets = left_cosets(rep.group, iso)
    states = orbit[list(cosets.representatives)]
    states.setflags(write=False)
    return CoherentStateSystem(rep, fiducial, iso, alpha, cosets, orbit_states=states)


def resolution_of_identity(system: CoherentStateSystem) -> ResolutionResult:
    """Test c * sum_x |x><x| against the identity.

    c is computed from the trace, never assumed. A reducible representation
    typically fails here; that outcome is reported, not raised. Callers read
    it once per system as `system.resolution`. Basis states give the
    diagonal sum directly: c = d / |X|, and the residual is the largest
    |c b_pp - 1| over the diagonal, b_pp 1 at a state's index and 0 elsewhere.
    """
    d, index = system.rep.dim, system.basis_index
    if index is None:
        b = system.states.T @ system.states.conj()
        c = d / float(np.trace(b).real)
        residual = _maxabs(c * b - np.eye(d))
    else:
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
    """c * (states^T values_i) @ states* for each row i of values, or, for
    basis states, c * values_i scattered onto the diagonal at the states'
    indices; raises NoResolution when the system does not resolve the
    identity."""
    res = system.resolution
    if not res.ok:
        raise NoResolution(
            f"resolution of identity fails with residual {res.residual:.3e}"
        )
    # the product rounds entries (i, j) and (j, i) apart; a sum of projectors
    # is Hermitian, and so is the mean of a and its adjoint, bit for bit.
    # Halving each term first is exact in the normal range and cannot
    # overflow where the sum would. Basis states take the mean of their
    # diagonal alone, the same floats, and leave the rest +0.0
    index = system.basis_index
    if index is not None:
        d = system.rep.dim
        half = 0.5 * (res.constant * values)
        a = np.zeros((len(values), d, d), dtype=complex)
        a[:, index, index] = half + half
        return a
    a = res.constant * (system.states.T * values[:, None, :]) @ system.states.conj()
    # in place, the mean costs no more passes
    a *= 0.5
    a += a.conj().swapaxes(1, 2)
    return a
