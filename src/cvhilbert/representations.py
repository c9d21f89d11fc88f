"""Unitary representations on finite-dimensional complex spaces.

A representation is verified once, where it is built, and only the two
verifying builders make one, each passing a module-private token. A
permutation representation, as `permutation_representation` and
`regular_representation` build, holds its `GroupAction`,
U(g)[act[g, x], x] = 1. Only the verifying builders in `groups` make an
action, so it inherits the check the action passed there; its stack of 0/1
matrices is built only when `matrices` is first read. The 0/1 matrices of
functions multiply as the functions compose, P_f P_h = P_{f o h}, so a
verified action is a verified representation, and the constructor checks
only that the action is one of its group on C^dim. The one stack of
matrices, the joined representation, is decided by
`pairing.build_joint_representation` from the defining relations of the
joined group before it is built, and takes no further check. A stack of
more than REPRESENTATION_BYTE_LIMIT bytes is refused with SizeLimit before
it is allocated: a permutation representation's when `matrices` is first
read, as it is built only then.

Irreducibility is decided through the commutant: the linear space of matrices
commuting with every representation matrix. Dimension one is the Schur
criterion. The dimension is the character norm (1/|G|) sum_g |tr U(g)|^2
(Schur orthogonality; Serre, Linear Representations of Finite Groups, 2.3),
one batched trace; it is exact because the builder has verified the
multiplication table and unitarity. A basis, needed where a Hermitian
commutant element supplies the invariant subspaces of the joining
construction, is the null space of the stacked commutator system, taken from
the SVD of the system's triangular QR factor.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import IrreducibleInput, NotHermitian, SizeLimit
from .groups import FiniteGroup, GroupAction, _block_cells, regular_action

DEFAULT_TOLERANCE = 1e-9
# Largest commutator system, in bytes of complex entries, that a commutant
# basis may stack; its QR allocates two working copies of the same size on
# top, numpy's and LAPACK's column-major one, and a d^2 x d^2 triangular factor.
COMMUTANT_BYTE_LIMIT = 256 * 2**20
# Largest stack of representation matrices, in bytes of complex entries.
REPRESENTATION_BYTE_LIMIT = 256 * 2**20

# Passed by the verifying builders alone, `permutation_representation` and
# `pairing.build_joint_representation`; `UnitaryRepresentation` refuses a
# call without it.
_BUILT = object()


def _check_stack(order: int, dim: int) -> None:
    nbytes = order * dim * dim * 16
    if nbytes > REPRESENTATION_BYTE_LIMIT:
        raise SizeLimit(
            f"{order} matrices of {dim}x{dim} need {nbytes / 2**20:.0f} MiB, "
            f"above the {REPRESENTATION_BYTE_LIMIT / 2**20:.0f} MiB bound")


@dataclass(frozen=True, eq=False)
class UnitaryRepresentation:
    """U(g) for every element g of a finite group, on C^dim.

    `source` is the `GroupAction` of a permutation representation, U(g)[act[g,
    x], x] = 1 and every other entry 0, whose stack `matrices` builds on first
    read, or the (n, d, d) stack of a joined representation. Only the
    verifying builders make one: each passes the module-private token, and
    the constructor refuses a call without it with TypeError, and a
    tolerance outside (0, 1) with ValueError.
    """
    group: FiniteGroup
    dim: int
    source: GroupAction | np.ndarray    # an action on C^dim, or an (n, d, d) stack
    tolerance: float = DEFAULT_TOLERANCE
    token: InitVar[object] = None

    def __post_init__(self, token):
        if token is not _BUILT:
            raise TypeError("a UnitaryRepresentation is made only by "
                            "permutation_representation and build_joint_representation")
        # at 1 or more every overlap would count as parallel; NaN fails too
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance {self.tolerance!r} is not a positive number below 1")
        if isinstance(self.source, GroupAction) and (
                self.source.group is not self.group or self.source.space_size != self.dim):
            raise ValueError("the action is not one of this group on C^dim")

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        """The read-only (n, d, d) stack; an action's 0/1 stack is built
        here, on first read, after its size is checked."""
        if not isinstance(self.source, GroupAction):
            return self.source
        n, d = self.group.order, self.dim
        _check_stack(n, d)
        mats = np.zeros((n, d, d), dtype=complex)
        mats[np.arange(n)[:, None], self.source.act, np.arange(d)] = 1.0
        mats.setflags(write=False)
        return mats


@dataclass(frozen=True, eq=False)
class Operator:
    dim: int
    matrix: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError("operator matrix has wrong shape")
        _check_operators(self.matrix, self.tolerance)


def _check_operators(stack: np.ndarray, tolerance: float) -> None:
    """Refuse a matrix, or a stack of matrices along the first axes, with a
    non-finite entry (ValueError) or one that is not Hermitian at tolerance.

    When every off-diagonal entry is exactly zero, as on coherent basis
    states, the diagonal decides alone, in O(d) per matrix after the O(d^2)
    zero scan and with no d x d temporary: each off-diagonal 0 is finite and
    equals its mirror, so the verdict and the message are the whole matrix's.
    A NaN off the diagonal counts as nonzero and takes the whole-matrix check.
    """
    diagonal = stack.size > 0 and not _off_diagonal(stack).any()
    if diagonal:
        stack = np.diagonal(stack, axis1=-2, axis2=-1)
    if not np.isfinite(stack).all():
        raise ValueError("operator matrix has a non-finite entry")
    mirror = stack.conj() if diagonal else stack.conj().swapaxes(-1, -2)
    if _maxabs(stack - mirror) > tolerance:
        raise NotHermitian("operator is not Hermitian at tolerance")


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of each d x d matrix of a (..., d, d) array,
    d >= 1, as a (..., d - 1, d) array, a view when the array is C-contiguous.

    Entry (i, i) of a row-major d x d matrix is element i (d + 1) of its
    flattening, so after dropping element 0 each row of d + 1 ends on one
    and its first d elements are off the diagonal."""
    *lead, d, _ = a.shape
    return a.reshape(*lead, d * d)[..., 1:].reshape(*lead, d - 1, d + 1)[..., :-1]


def _maxabs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _clustered_eigh(herm: np.ndarray, tolerance: float):
    """Hermitian eigendecomposition with eigenvalues clustered at tolerance.

    Returns (eigenvalues ascending, canonical-phase eigenvector columns,
    clusters as lists of column indices, scale, order), where an eigenvalue
    joins the current cluster when it lies within tolerance * scale of the
    cluster's last member and scale = max(largest |eigenvalue|, 1). The
    canonical phase makes the first entry above tolerance of each column
    real positive.

    A matrix whose off-diagonal is exactly zero is read off when the largest
    |real part| on its diagonal is 0 or lies in [2^-485, 2^485]: its
    eigenvalues are the real parts of its diagonal sorted stably, which are
    the floats `eigh` returns for it, and its eigenvectors the matching
    columns of the identity, whose phase is already canonical, written as d
    ones into one zeroed d x d matrix. Outside that
    range LAPACK's eigh (zheevd) rescales the matrix by
    sqrt(safe minimum / eps) or its inverse, which rounds the eigenvalues,
    so such a matrix, and one with a NaN or an infinity on its diagonal,
    goes to `eigh`. `order` is the diagonal index of each eigenvalue of a
    read-off matrix, and None for a matrix that `eigh` decomposes. Inside a
    cluster of equal entries the read-off takes the basis vectors by
    ascending index where LAPACK may take another basis of the same
    eigenspace.
    """
    d = len(herm)
    order = None
    if not _off_diagonal(herm).any():
        diagonal = np.diagonal(herm).real
        # a NaN or an infinity fails the range test
        top = float(np.abs(diagonal).max())
        if top == 0.0 or 2.0**-485 <= top <= 2.0**485:
            order = np.argsort(diagonal, kind="stable")
    if order is None:
        evals, evecs = np.linalg.eigh(herm)
    else:
        evals, evecs = diagonal[order], np.zeros((d, d), dtype=complex)
        evecs[order, np.arange(d)] = 1.0
    scale = max(float(np.abs(evals).max()), 1.0)
    clusters: list[list[int]] = [[0]]
    # Python floats: a gap past the largest float is inf, with no warning
    values = evals.tolist()
    for i in range(1, len(values)):
        if values[i] - values[clusters[-1][-1]] <= tolerance * scale:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if order is not None:
        return evals, evecs, clusters, scale, order
    sizable = np.abs(evecs) > tolerance
    found = sizable.any(axis=0)
    lead = evecs[sizable.argmax(axis=0), np.arange(len(evals))]
    phase = np.divide(lead, np.abs(lead), out=np.ones_like(lead), where=found)
    # a column with no entry above tolerance keeps its phase
    cols = np.divide(evecs, phase, out=evecs.copy(), where=found)
    return evals, cols, clusters, scale, None


def permutation_representation(
    action: GroupAction, tolerance: float = DEFAULT_TOLERANCE
) -> UnitaryRepresentation:
    """0/1 matrices with U(g)[g.x, x] = 1, held as the action itself.

    The builders in `groups` verify every action they make, so the
    representation inherits that check and runs none of its own. Its stack
    is built, and its size checked, only when `matrices` is read."""
    return UnitaryRepresentation(action.group, action.space_size, action, tolerance, _BUILT)


def regular_representation(
    group: FiniteGroup, tolerance: float = DEFAULT_TOLERANCE
) -> UnitaryRepresentation:
    """Left translation on coordinate functions over the group itself.

    The action is `groups.regular_action`: its columns are right products,
    read off the group's rows, and its whole table, read only with
    `matrices`, is the group's multiplication table, computed from the
    Cayley-graph columns verified where the group was built.
    """
    return permutation_representation(regular_action(group), tolerance)


def commutant_basis(rep: UnitaryRepresentation) -> list[np.ndarray]:
    """Deterministic basis of {X : X U(g) = U(g) X for all g}.

    Solves the stacked (|G| d^2) x d^2 linear system A through the SVD of
    the d^2 x d^2 triangular factor R of A = QR, the R-SVD (T. F. Chan, "An
    improved algorithm for computing the singular value decomposition",
    ACM TOMS 8(1), 1982): A and R share their singular values and right
    singular vectors. LAPACK's thin SVD of A, `zgesdd` with JOBZ='S', takes
    this path itself for M >= 17N/9 rows, which every group of order two or
    more gives; Q enters only its left factor, which this basis discards. So
    the SVD of R is the one of A bit for bit, without building Q or U. A
    group of order one has an all-zero system, and so an all-zero R. Rank
    decisions use the scale-free threshold tolerance * largest singular
    value. Raises SizeLimit before stacking a system above
    COMMUTANT_BYTE_LIMIT bytes.
    """
    k, d = rep.group.order, rep.dim
    nbytes = k * d**4 * 16
    if nbytes > COMMUTANT_BYTE_LIMIT:
        raise SizeLimit(
            f"commutant system of {k * d * d}x{d * d} needs {nbytes / 2**20:.0f} MiB, "
            f"above the {COMMUTANT_BYTE_LIMIT / 2**20:.0f} MiB bound")
    mats = rep.matrices
    eye = np.eye(d)
    system = np.empty((k, d, d, d, d), dtype=np.result_type(mats, eye))
    # vec(UX - XU) = (U (x) I - I (x) U^T) vec(X), row-major vec: entry
    # (a d + b, c d + e) of element g's block is U[a, c] I[b, e] - I[a, c] U[e, b],
    # the products `np.kron` makes, filled in blocks of elements near STEP_BYTES
    step = _block_cells(system.itemsize * d ** 4)
    for g in range(0, k, step):
        u = mats[g:g + step]
        block = np.multiply(u[:, :, None, :, None], eye[:, None, :], out=system[g:g + step])
        block -= eye[:, None, :, None] * u.transpose(0, 2, 1)[:, None, :, None, :]
    system = system.reshape(k * d * d, d * d)
    # a group has at least one element, so at least d^2 rows, a square R and
    # a square vh
    _, sigma, vh = np.linalg.svd(np.linalg.qr(system, mode="r"), full_matrices=False)
    rank = int(np.sum(sigma > rep.tolerance * float(sigma[0])))
    return [row.conj().reshape(d, d) for row in vh[rank:]]


def character_norm(rep: UnitaryRepresentation) -> float:
    """(1/|G|) sum_g |tr U(g)|^2, the commutant dimension up to rounding."""
    traces = np.einsum("gii->g", rep.matrices)
    return float(np.sum(np.abs(traces) ** 2) / rep.group.order)


def commutant_dimension(rep: UnitaryRepresentation) -> int:
    return round(character_norm(rep))


def is_irreducible(rep: UnitaryRepresentation) -> bool:
    return commutant_dimension(rep) == 1


def invariant_subspace_split(rep: UnitaryRepresentation):
    """Two orthogonal proper invariant subspaces of a reducible representation.

    Uses the eigenspaces of a Hermitian non-scalar commutant element: the
    first basis element whose Hermitian (or, failing that, anti-Hermitian)
    part is non-scalar, eigenvalues ascending. Returns (basis0, basis1) as
    column matrices.
    """
    basis = commutant_basis(rep)
    if len(basis) <= 1:
        raise IrreducibleInput("representation has a trivial commutant")
    d = rep.dim
    tol = rep.tolerance
    herm = None
    for c in basis:
        for cand in ((c + c.conj().T) / 2, (c - c.conj().T) / 2j):
            scale = max(_maxabs(cand), 1.0)
            if _maxabs(cand - (np.trace(cand) / d) * np.eye(d)) > tol * scale:
                herm = cand
                break
        if herm is not None:
            break
    if herm is None:
        raise IrreducibleInput("no non-scalar Hermitian commutant element found")
    _, cols, clusters, _, _ = _clustered_eigh(herm, tol)
    if len(clusters) < 2:
        raise IrreducibleInput("commutant element has a single eigenvalue")
    cols0 = cols[:, clusters[0]]
    cols1 = cols[:, clusters[1]]
    for cols in (cols0, cols1):
        proj = cols @ cols.conj().T
        if _maxabs(rep.matrices @ proj - proj @ rep.matrices) > 10 * tol:
            raise IrreducibleInput("split subspace is not invariant")
    return cols0, cols1
