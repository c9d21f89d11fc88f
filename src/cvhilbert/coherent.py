"""Coherent-state systems: fiducial orbits, resolution of identity, operators.

A system is the orbit of a fiducial vector under a representation, collapsed
to one state per left coset of the fiducial's isotropy subgroup. Summing the
state projectors against the counting measure and normalizing by the trace
either reproduces the identity (guaranteed for irreducible representations)
or reports a residual.

When every state is a standard basis vector e_p at a distinct index p, as the
orbit of a basis fiducial under a permutation representation always is, the
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
from .groups import CosetSpace, GroupAction, Subgroup, left_cosets, subgroup
from .representations import Operator, UnitaryRepresentation, _check_operators, _maxabs


@dataclass(frozen=True, eq=False)
class ResolutionResult:
    constant: float
    residual: float
    ok: bool


@dataclass(frozen=True, eq=False)
class CoherentStateSystem:
    rep: UnitaryRepresentation
    fiducial: np.ndarray
    isotropy: Subgroup                  # elements fixing the fiducial up to phase
    alpha: tuple[float, ...]            # phase per isotropy member
    cosets: CosetSpace
    states: np.ndarray                  # (|X|, d), one unit vector per coset

    @property
    def tolerance(self) -> float:
        return self.rep.tolerance

    @functools.cached_property
    def basis_index(self) -> np.ndarray | None:
        """The index p of each state when every state is the standard basis
        vector e_p, exactly, at a distinct index; None otherwise. Derived
        from `states` on first read."""
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


def _orbit_isotropy(rep: UnitaryRepresentation, fiducial: np.ndarray):
    """(orbit, isotropy, phases): the orbit U(g) fiducial of every element,
    row g for element g, and the subgroup fixing the fiducial up to a
    unit-modulus scalar, with the phase of each member. A permutation
    representation moves the entries of the fiducial along its action,
    (U(g) psi)[act[g, x]] = psi[x]; any other is one batched product over
    the stack.

    Parallelism is decided by |<fiducial|U(g)|fiducial>| >= 1 - tolerance for
    unit vectors; overlaps inside the tolerance band around that boundary
    raise NumericalAmbiguity rather than silently classifying."""
    tol = rep.tolerance
    fiducial = np.asarray(fiducial, dtype=complex)
    if abs(np.linalg.norm(fiducial) - 1.0) > tol:
        raise ValueError("fiducial must be a unit vector")
    if isinstance(rep.source, GroupAction):
        act = rep.source.act
        orbit = np.empty(act.shape, dtype=complex)
        orbit[np.arange(len(act))[:, None], act] = fiducial
    else:
        orbit = rep.matrices @ fiducial
    members, phases = [], []
    for g, overlap in enumerate((orbit @ fiducial.conj()).tolist()):
        mag = abs(overlap)
        if mag >= 1.0 - tol:
            members.append(g)
            phases.append(float(np.angle(overlap)) if g != rep.group.identity else 0.0)
        elif mag > 1.0 - 2.0 * tol:
            raise NumericalAmbiguity(
                f"overlap modulus {mag!r} for element {g} is too close to the boundary"
            )
    # members are ascending and distinct, as `subgroup` lists them
    return orbit, subgroup(rep.group, members), tuple(phases)


def build_coherent_system(
    rep: UnitaryRepresentation, fiducial=None
) -> CoherentStateSystem:
    """Assemble the coset states for a fiducial (default: first basis vector)."""
    if fiducial is None:
        fiducial = np.zeros(rep.dim, dtype=complex)
        fiducial[0] = 1.0
    fiducial = np.asarray(fiducial, dtype=complex)
    orbit, iso, alpha = _orbit_isotropy(rep, fiducial)
    cosets = left_cosets(rep.group, iso)
    states = orbit[list(cosets.representatives)]
    # phase condition U(e) psi = exp(i alpha(e)) psi, checked exactly here
    for m, a in zip(iso.members, alpha):
        if _maxabs(orbit[m] - np.exp(1j * a) * fiducial) > 10 * rep.tolerance:
            raise NumericalAmbiguity(f"isotropy phase inconsistent for element {m}")
    states.setflags(write=False)
    return CoherentStateSystem(rep, fiducial, iso, alpha, cosets, states)


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
    index = system.basis_index
    if index is None:
        a = res.constant * (system.states.T * values[:, None, :]) @ system.states.conj()
    else:
        d = system.rep.dim
        a = np.zeros((len(values), d, d), dtype=complex)
        a[:, index, index] = res.constant * values
    # the product rounds entries (i, j) and (j, i) apart; a sum of projectors
    # is Hermitian, and so is the mean of a and its adjoint, bit for bit.
    # Halving each term first is exact in the normal range and cannot
    # overflow where the sum would; in place, it costs no more passes.
    a *= 0.5
    a += a.conj().swapaxes(1, 2)
    return a
