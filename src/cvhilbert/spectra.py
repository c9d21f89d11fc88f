"""Spectral decomposition, question labeling, and coarsening.

Eigenvalues within the tolerance of each other are clustered into one
projector so discrete multiplicity claims survive floating arithmetic.
Eigenvectors carry a canonical phase (first sizable component real positive)
so basis-change coefficients are reproducible. An operator whose off-diagonal
is exactly zero, as every operator on coherent basis states is, is checked
Hermitian on its diagonal alone (`representations._check_operators`), read
off its diagonal into one zeroed d x d matrix of eigenvectors instead of
decomposed when LAPACK would not rescale it
(`representations._clustered_eigh`), and its reconstruction is checked entry
by entry in O(d).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, NotHermitian
from .representations import Operator, _clustered_eigh, _maxabs
from .variables import ConceptualVariable


@dataclass(frozen=True, eq=False)
class EigenSystem:
    operator: Operator
    eigenvalues: tuple[float, ...]          # distinct, ascending
    multiplicities: tuple[int, ...]
    vectors: np.ndarray                     # (d, d) canonical-phase eigenvector columns
    spectrum: np.ndarray                    # (d,) every eigenvalue, ascending, unclustered

    @property
    def degenerate(self) -> bool:
        return any(m > 1 for m in self.multiplicities)

    @functools.cached_property
    def projectors(self) -> np.ndarray:
        """(k, d, d) Hermitian idempotents, one per distinct eigenvalue, from
        its block of eigenvector columns; built on first read."""
        bounds = np.cumsum((0, *self.multiplicities)).tolist()
        blocks = [np.ascontiguousarray(self.vectors[:, a:b])
                  for a, b in zip(bounds[:-1], bounds[1:])]
        return np.stack([b @ b.conj().T for b in blocks])

    def vector_for(self, cluster: int) -> np.ndarray:
        start = sum(self.multiplicities[:cluster])
        return self.vectors[:, start]


@dataclass(frozen=True, eq=False)
class QuestionAnswer:
    variable: str
    value_label: str
    numeric_value: float
    eigenvector: np.ndarray | None          # None when the answer labels a subspace
    rank: int = 1


def _mean(values: np.ndarray) -> float:
    """The mean of a cluster of eigenvalues, called with overflow ignored;
    where their sum passes the float range, the mean of the values scaled by
    2^-k, 2^k > n, scaled back, which is exact."""
    mean = float(np.mean(values))
    if abs(mean) == np.inf:
        k = len(values).bit_length()
        mean = float(np.ldexp(np.mean(np.ldexp(values, -k)), k))
    return mean


def eigensystem(op: Operator) -> EigenSystem:
    """Hermitian eigendecomposition with tolerance clustering."""
    tol = op.tolerance
    evals, cols, clusters, scale, order = _clustered_eigh(op.matrix, tol)
    with np.errstate(over="ignore"):
        distinct = [_mean(evals[cl]) for cl in clusters]
    mults = [len(cl) for cl in clusters]
    means = np.repeat(distinct, mults)
    if order is None:
        # sum_k lambda_k P_k, with each column weighted by its cluster's mean
        residual = _maxabs((cols * means) @ cols.conj().T - op.matrix)
    else:
        # a read-off diagonal matrix: sum_k lambda_k P_k is diagonal too, and
        # differs from the matrix only where an entry is not its cluster's mean
        residual = _maxabs(means - np.diagonal(op.matrix)[order])
    # a NaN residual fails the comparison
    if not residual <= 100 * tol * scale:
        raise NotHermitian("spectral reconstruction failed")
    return EigenSystem(op, tuple(distinct), tuple(mults), cols, evals)


def verify_values_are_eigenvalues(eig: EigenSystem, variable: ConceptualVariable) -> bool:
    """Clustered spectrum must equal the attained numeric value set."""
    values = sorted(set(variable.numeric()))
    if len(values) != len(eig.eigenvalues):
        return False
    scale = max(max(abs(v) for v in values), 1.0)
    return all(
        abs(l - v) <= eig.operator.tolerance * scale
        for l, v in zip(eig.eigenvalues, values)
    )


def question_answer_labels(eig: EigenSystem, variable: ConceptualVariable) -> list[QuestionAnswer]:
    """One labeled record per distinct eigenvalue.

    Non-degenerate eigenvalues get a canonical-phase eigenvector; degenerate
    ones label their eigenspace, with the rank recorded and no vector.
    """
    numeric = variable.numeric()
    scale = max(max(abs(v) for v in numeric), 1.0)
    # hits[c, i]: numeric value i lies within tolerance of eigenvalue c, the
    # label being that of the first such value. A NaN matches nothing, and a
    # difference beyond the float range is inf, as in Python arithmetic.
    with np.errstate(over="ignore"):
        distance = np.abs(np.subtract.outer(eig.eigenvalues, numeric))
    hits = distance <= eig.operator.tolerance * scale
    first = hits.argmax(axis=1).tolist()
    out = []
    for ci, (lam, mult, idx) in enumerate(zip(eig.eigenvalues, eig.multiplicities, first)):
        label = variable.value_labels[idx] if hits[ci, idx] else f"{lam!r}"
        vec = eig.vector_for(ci) if mult == 1 else None
        out.append(QuestionAnswer(variable.name, label, lam, vec, mult))
    return out


def transition_matrix(eig_a: EigenSystem, eig_b: EigenSystem) -> np.ndarray:
    """Coefficients <a; j | b; i> between two non-degenerate eigenbases.

    Both bases are orthonormal, so the matrix is unitary up to rounding; the
    `transition-unitarity` check of `verify` measures how far."""
    if eig_a.operator.dim != eig_b.operator.dim:
        raise DimensionMismatch("operators act on different spaces")
    if eig_a.degenerate or eig_b.degenerate:
        raise DegenerateSpectrum("transition coefficients need non-degenerate spectra")
    return eig_a.vectors.conj().T @ eig_b.vectors


def operator_for_coarsening(eig: EigenSystem, value_map) -> Operator:
    """Spectral pushforward: apply a value function to the eigenvalues.

    value_map takes a numeric eigenvalue to a numeric value; projectors with
    equal images merge in the resulting operator's spectrum. Chained
    coarsenings pass through degenerate intermediates, which stay well
    defined because the map acts on distinct eigenvalues only.
    """
    a = sum(
        float(value_map(l)) * p for l, p in zip(eig.eigenvalues, eig.projectors)
    )
    return Operator(eig.operator.dim, a, tolerance=eig.operator.tolerance)
