import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cvhilbert import representations, spectra, spin, variables
from cvhilbert.errors import DegenerateSpectrum, DimensionMismatch, NotHermitian
from cvhilbert.representations import Operator


def herm_op(matrix, tol=1e-9):
    m = np.asarray(matrix, dtype=complex)
    return Operator(m.shape[0], m, tolerance=tol)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


class TestEigenSystem:
    def test_identity_three(self):
        eig = spectra.eigensystem(herm_op(np.eye(3)))
        assert eig.eigenvalues == (1.0,)
        assert eig.multiplicities == (3,)

    @pytest.mark.parametrize("top", [1.7976931348623157e308, -1.7e308])
    def test_cluster_sum_past_the_float_range(self, top):
        # the mean of a cluster whose sum overflows is the sum of its shares;
        # LAPACK rescales a matrix this large, which rounds its eigenvalues
        eig = spectra.eigensystem(herm_op(np.diag([top, top, 0.0])))
        big = int(top > 0)
        assert eig.eigenvalues[1 - big] == 0.0
        assert eig.eigenvalues[big] == pytest.approx(top, rel=1e-15)
        assert eig.multiplicities[big] == 2

    def test_diagonal_indicator(self):
        eig = spectra.eigensystem(herm_op(np.diag([0.0, 1.0])))
        assert eig.eigenvalues == (0.0, 1.0)
        assert np.allclose(eig.projectors[0], np.diag([1.0, 0.0]))

    def test_two_bit_operator(self, two_bit_operators):
        a_theta, _ = two_bit_operators
        eig = spectra.eigensystem(a_theta)
        assert eig.eigenvalues == (0.0, 1.0)
        assert eig.multiplicities == (1, 1)

    def test_not_hermitian_rejected(self):
        # the constructor checks once; every operator reaching eigensystem is Hermitian
        with pytest.raises(NotHermitian):
            Operator(2, np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        # nan - nan is nan, and nan > tolerance is False: the Hermitian check
        # alone would pass a NaN on the diagonal
        with pytest.raises(ValueError, match="non-finite"):
            Operator(2, np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_nan_reconstruction_fails(self, monkeypatch):
        # a decomposition whose reconstruction residual is NaN is refused,
        # whether it came from eigh (order None) or was read off a diagonal
        for order in (None, np.arange(2)):
            def nan_eigh(herm, tolerance):
                d = len(herm)
                return (np.full(d, np.nan), np.eye(d, dtype=complex), [list(range(d))],
                        1.0, order)

            monkeypatch.setattr(spectra, "_clustered_eigh", nan_eigh)
            with pytest.raises(NotHermitian, match="reconstruction"):
                spectra.eigensystem(herm_op(np.diag([0.0, 1.0])))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1e-9, 0.3, 1.0]))
    def test_canonical_phase_matches_column_loop(self, d, seed, tol):
        # the reference rotates one column at a time by its first entry above
        # tolerance, a column with none staying as it is; one division of a
        # unit vector by a unit scalar rounds apart from the loop's scalar
        # division by at most a few ulps
        rng = np.random.default_rng(seed)
        herm = random_hermitian(rng, d)
        _, evecs = np.linalg.eigh(herm)
        want = evecs.copy()
        for i, v in enumerate(evecs.T):
            idx = np.nonzero(np.abs(v) > tol)[0]
            if idx.size:
                want[:, i] = v / (v[idx[0]] / abs(v[idx[0]]))
        _, cols, _, _, _ = representations._clustered_eigh(herm, tol)
        assert np.abs(cols - want).max() <= 4 * np.finfo(float).eps
        sizable = np.abs(cols) > tol
        for i in np.flatnonzero(sizable.any(axis=0)):
            lead = cols[sizable[:, i].argmax(), i]
            assert lead.real > 0 and abs(lead.imag) <= 2 * np.finfo(float).eps

    @given(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 1e-10, 0.5, 1.0, 3e8]),
                    min_size=1, max_size=8),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.sampled_from([1e-9, 0.3]))
    # largest entries just outside the range in which LAPACK does not rescale,
    # where a read-off diagonal differs from eigh's floats
    @example(pooled=[1.0], drawn=[6.5e-147, 3.5e-147], tol=1e-9)
    @example(pooled=[1.0], drawn=[1.3e146, 1.1e145], tol=1e-9)
    def test_diagonal_read_off_equals_eigh(self, pooled, drawn, tol):
        # entries from a pool tie; drawn ones are almost surely distinct
        for entries in (pooled, drawn):
            matrix = np.diag(np.array(entries, dtype=complex))
            evals, cols, clusters, scale, order = representations._clustered_eigh(matrix, tol)
            want_evals, want_vecs = np.linalg.eigh(matrix)
            top = max(abs(v) for v in entries)
            read_off = top == 0 or 2.0**-485 <= top <= 2.0**485
            assert (order is not None) == read_off and np.array_equal(evals, want_evals)
            if read_off:
                assert np.array_equal(evals, np.array(entries)[order])
            assert scale == max(float(np.abs(want_evals).max()), 1.0)
            # eigh's columns, basis vectors up to a phase, in canonical phase
            lead = want_vecs[np.abs(want_vecs).argmax(axis=0), np.arange(len(entries))]
            want_cols = want_vecs / (lead / np.abs(lead))
            for cl in clusters:
                got, want = cols[:, cl], want_cols[:, cl]
                assert np.array_equal(got @ got.conj().T, want @ want.conj().T)
            if len(set(entries)) == len(entries):
                assert np.array_equal(cols, want_cols)
            assert np.array_equal(spectra.eigensystem(herm_op(matrix, tol)).spectrum, want_evals)

    def test_only_an_exactly_zero_off_diagonal_is_read_off(self):
        # one tiny entry anywhere off the diagonal, Hermitian at tolerance,
        # keeps eigh
        diagonal = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert representations._clustered_eigh(diagonal, 1e-9)[4] is not None
        for i, j in itertools.permutations(range(3), 2):
            tiny = diagonal.copy()
            tiny[i, j] = 1e-300j
            assert representations._clustered_eigh(tiny, 1e-9)[4] is None

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1e-9, 0.3]))
    def test_projectors_built_when_read(self, d, seed, tol):
        # equal, bit for bit, to one block product per cluster of eigenvector
        # columns; rounded entries make repeated eigenvalues
        rng = np.random.default_rng(seed)
        op = herm_op(np.round(random_hermitian(rng, d)), tol)
        eig = spectra.eigensystem(op)
        assert "projectors" not in vars(eig)
        ends = np.cumsum(eig.multiplicities)
        clusters = [list(range(end - m, end)) for m, end in zip(eig.multiplicities, ends)]
        want = np.stack([eig.vectors[:, cl] @ eig.vectors[:, cl].conj().T for cl in clusters])
        assert np.array_equal(eig.projectors.view(np.uint64), want.view(np.uint64))
        assert eig.projectors is eig.projectors

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_invariants_on_random_hermitian(self, d, seed):
        rng = np.random.default_rng(seed)
        op = herm_op(random_hermitian(rng, d))
        eig = spectra.eigensystem(op)
        total = eig.projectors.sum(axis=0)
        assert np.abs(total - np.eye(d)).max() < 1e-8
        for i in range(len(eig.eigenvalues)):
            pi = eig.projectors[i]
            assert np.abs(pi @ pi - pi).max() < 1e-8
            for j in range(i + 1, len(eig.eigenvalues)):
                assert np.abs(pi @ eig.projectors[j]).max() < 1e-8
        recon = sum(l * p for l, p in zip(eig.eigenvalues, eig.projectors))
        assert np.abs(recon - op.matrix).max() < 1e-7

    def test_affine_covariance(self):
        rng = np.random.default_rng(5)
        base = herm_op(random_hermitian(rng, 4))
        eig = spectra.eigensystem(base)
        for a, b in ((2.0, 1.0), (-1.5, 0.25)):
            moved = spectra.eigensystem(herm_op(a * base.matrix + b * np.eye(4)))
            got = sorted(moved.eigenvalues)
            want = sorted(a * l + b for l in eig.eigenvalues)
            assert np.abs(np.array(got) - np.array(want)).max() < 1e-8
            base_projs = {tuple(np.round(p, 6).ravel()) for p in eig.projectors}
            moved_projs = {tuple(np.round(p, 6).ravel()) for p in moved.projectors}
            assert base_projs == moved_projs


class TestValueChecks:
    def test_unit_variable_spectrum(self, two_bit):
        from cvhilbert import pairing

        ones = variables.make_variable("unit", [0, 0, 0, 0], numeric_values=[1.0])
        a, _ = pairing.joint_operators(two_bit["system"], [1.0, 1.0], [0.0, 1.0])
        op = Operator(2, a.matrix)
        assert spectra.verify_values_are_eigenvalues(spectra.eigensystem(op), ones)

    def test_two_bit_values(self, two_bit, two_bit_operators):
        a_theta, _ = two_bit_operators
        assert spectra.verify_values_are_eigenvalues(spectra.eigensystem(a_theta), two_bit["theta"])

    def test_repeated_value_degenerate(self):
        var = variables.make_variable("two", [0, 0], numeric_values=[2.0])
        eig = spectra.eigensystem(herm_op(2.0 * np.eye(2)))
        assert spectra.verify_values_are_eigenvalues(eig, var)
        assert eig.multiplicities == (2,)

    def test_wrong_values_rejected(self, two_bit, two_bit_operators):
        a_theta, _ = two_bit_operators
        shifted = variables.make_variable("bit1", [0, 0, 1, 1], numeric_values=[0.0, 2.0])
        assert not spectra.verify_values_are_eigenvalues(spectra.eigensystem(a_theta), shifted)


class TestMaximalityBiconditional:
    def test_two_bit_maximal_nondegenerate(self, two_bit, two_bit_operators):
        a_theta, _ = two_bit_operators
        assert variables.is_maximally_accessible(two_bit["context"], two_bit["theta"]) == (
            not spectra.eigensystem(a_theta).degenerate)

    def test_engineered_degenerate_case(self, two_bit, two_bit_operators):
        a_theta, _ = two_bit_operators
        eig = spectra.eigensystem(a_theta)
        collapsed = spectra.operator_for_coarsening(eig, lambda v: 5.0)
        const = variables.make_variable("const", [0, 0, 0, 0], numeric_values=[5.0])
        assert variables.is_maximally_accessible(two_bit["context"], const) == (
            not spectra.eigensystem(collapsed).degenerate)

    def test_circle_identity_variable(self):
        from conftest import circle_system
        from cvhilbert import coherent

        group, action, rep, system = circle_system(4)
        ident = variables.make_variable("point", [0, 1, 2, 3],
                                        numeric_values=[0.0, 1.0, 2.0, 3.0])
        ctx = variables.Context(4, action, (ident,))
        points = [action.act[r, 0] for r in system.cosets.representatives]
        op = coherent.operator_from_variable(system, [ident.numeric()[p] for p in points])
        assert variables.is_maximally_accessible(ctx, ident) == (
            not spectra.eigensystem(op).degenerate)


def looped_labels(eig, variable):
    """The scan over clusters and values that `question_answer_labels`
    replaced, kept as its reference: the first value within tolerance * scale
    of an eigenvalue names it, and an eigenvalue no value matches is named
    by its repr."""
    numeric = variable.numeric()
    scale = max(max(abs(v) for v in numeric), 1.0)
    labels = []
    for lam in eig.eigenvalues:
        label = None
        for idx, nv in enumerate(numeric):
            if abs(nv - lam) <= eig.operator.tolerance * scale:
                label = variable.value_labels[idx]
                break
        labels.append(f"{lam!r}" if label is None else label)
    return labels


VALUE_POOL = [0.0, -0.0, 1.0, 1.0 + 1e-10, 2.5, -1.7e308, 1.7e308, float("nan"), float("inf")]


class TestQuestionAnswers:
    @given(st.lists(st.sampled_from(VALUE_POOL), min_size=1, max_size=6),
           st.lists(st.sampled_from(VALUE_POOL[:7]), min_size=1, max_size=6),
           st.sampled_from([1e-9, 0.3, 1e308]))
    def test_labels_match_the_scan(self, numeric, eigenvalues, tol):
        # repeated and near values (the first wins), a NaN that matches
        # nothing, an infinite value and differences beyond the float range
        var = variables.make_variable("v", list(range(len(numeric))), numeric_values=numeric)
        k = len(eigenvalues)
        eig = spectra.EigenSystem(herm_op(np.eye(k), tol), tuple(eigenvalues), (1,) * k,
                                  np.eye(k, dtype=complex), np.array(eigenvalues))
        got = spectra.question_answer_labels(eig, var)
        assert [q.value_label for q in got] == looped_labels(eig, var)
        assert [q.numeric_value for q in got] == eigenvalues

    def test_indicator_labels(self):
        var = variables.make_variable("bit", [0, 1], numeric_values=[0.0, 1.0])
        labels = spectra.question_answer_labels(spectra.eigensystem(herm_op(np.diag([0.0, 1.0]))), var)
        assert [q.value_label for q in labels] == ["0", "1"]
        assert np.allclose(labels[0].eigenvector, [1, 0])
        assert np.allclose(labels[1].eigenvector, [0, 1])

    def test_degenerate_subspace_label(self):
        var = variables.make_variable("c", [0, 0, 0], numeric_values=[2.0])
        labels = spectra.question_answer_labels(spectra.eigensystem(herm_op(2 * np.eye(3))), var)
        assert len(labels) == 1
        assert labels[0].rank == 3
        assert labels[0].eigenvector is None

    def test_two_bit_second_operator_labels(self, two_bit, two_bit_operators):
        _, a_xi = two_bit_operators
        labels = spectra.question_answer_labels(spectra.eigensystem(a_xi), two_bit["xi"])
        assert [q.value_label for q in labels] == ["0", "1"]
        for q in labels:
            assert q.rank == 1 and q.eigenvector is not None


class TestTransitions:
    def test_same_operator_identity(self, two_bit_operators):
        a_theta, _ = two_bit_operators
        eig = spectra.eigensystem(a_theta)
        t = spectra.transition_matrix(eig, eig)
        assert np.abs(t - np.eye(2)).max() <= 1e-12

    def test_shifted_operator_identity(self, two_bit_operators):
        a_theta, _ = two_bit_operators
        eig_a = spectra.eigensystem(a_theta)
        eig_b = spectra.eigensystem(herm_op(a_theta.matrix + np.eye(2)))
        t = spectra.transition_matrix(eig_a, eig_b)
        assert np.abs(t - np.eye(2)).max() <= 1e-12

    def test_complementary_pair_is_unbiased(self):
        sr = spin.build_spin(0.5)
        eig_z = spectra.eigensystem(herm_op(sr.az))
        eig_x = spectra.eigensystem(herm_op(sr.ax))
        t = spectra.transition_matrix(eig_z, eig_x)
        assert np.abs(np.abs(t) ** 2 - 0.5).max() <= 1e-9

    def test_composition_round_trip(self):
        sr = spin.build_spin(1.0)
        eig_z = spectra.eigensystem(herm_op(sr.az))
        eig_x = spectra.eigensystem(herm_op(sr.ax))
        t_zx = spectra.transition_matrix(eig_z, eig_x)
        t_xz = spectra.transition_matrix(eig_x, eig_z)
        assert np.abs(t_zx @ t_xz - np.eye(3)).max() <= 1e-9

    def test_degenerate_rejected(self):
        eig_a = spectra.eigensystem(herm_op(np.eye(2)))
        eig_b = spectra.eigensystem(herm_op(np.diag([0.0, 1.0])))
        with pytest.raises(DegenerateSpectrum):
            spectra.transition_matrix(eig_a, eig_b)

    def test_dimension_mismatch(self):
        eig_a = spectra.eigensystem(herm_op(np.diag([0.0, 1.0])))
        eig_b = spectra.eigensystem(herm_op(np.diag([0.0, 1.0, 2.0])))
        with pytest.raises(DimensionMismatch):
            spectra.transition_matrix(eig_a, eig_b)


class TestCoarsening:
    def test_identity_map(self, two_bit_operators):
        a_theta, _ = two_bit_operators
        eig = spectra.eigensystem(a_theta)
        out = spectra.operator_for_coarsening(eig, lambda v: v)
        assert np.abs(out.matrix - a_theta.matrix).max() <= 1e-12

    def test_constant_map(self, two_bit_operators):
        a_theta, _ = two_bit_operators
        eig = spectra.eigensystem(a_theta)
        out = spectra.operator_for_coarsening(eig, lambda v: 1.0)
        assert np.abs(out.matrix - np.eye(2)).max() <= 1e-12

    def test_collapse_to_five(self, two_bit_operators):
        a_theta, _ = two_bit_operators
        eig = spectra.eigensystem(a_theta)
        out = spectra.operator_for_coarsening(eig, lambda v: 5.0)
        assert np.abs(out.matrix - 5.0 * np.eye(2)).max() <= 1e-12

    def test_functoriality(self):
        op = herm_op(np.diag([0.0, 1.0, 2.0, 3.0]))
        eig = spectra.eigensystem(op)
        f = lambda v: v // 2
        g = lambda v: v + 1
        once = spectra.operator_for_coarsening(eig, lambda v: g(f(v)))
        f_first = spectra.operator_for_coarsening(eig, f)
        twice = spectra.operator_for_coarsening(spectra.eigensystem(f_first), g)
        assert np.abs(once.matrix - twice.matrix).max() <= 1e-12

    def test_explicit_factoring_permutation_accepted(self, two_bit, two_bit_operators):
        # a permutation of the points whose moved first-bit table is a function
        # f of the first bit moves the first operator to f applied to it
        a_theta, _ = two_bit_operators
        eig = spectra.eigensystem(a_theta)
        bit1 = np.array([0.0, 0.0, 1.0, 1.0])      # at the points 00, 01, 10, 11
        cnot, flip1 = [0, 1, 3, 2], [2, 3, 0, 1]
        assert np.array_equal(bit1[cnot], bit1)
        assert np.array_equal(bit1[flip1], 1.0 - bit1)
        kept = spectra.operator_for_coarsening(eig, lambda v: v)
        flipped = spectra.operator_for_coarsening(eig, lambda v: 1.0 - v)
        back = spectra.operator_for_coarsening(spectra.eigensystem(flipped), lambda v: 1.0 - v)
        assert np.abs(kept.matrix - a_theta.matrix).max() <= 1e-12
        assert np.abs(back.matrix - a_theta.matrix).max() <= 1e-12
        # and the first-bit flip of the joined group transports it the same way
        system = two_bit["system"]
        w = system.coherent.rep.matrices[system.joint.first_embed[1]]
        assert np.abs(w.conj().T @ a_theta.matrix @ w - flipped.matrix).max() <= 1e-12
