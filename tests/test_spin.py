import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvhilbert import groups, spin, variables
from cvhilbert.errors import InvalidSpin, NonUnitAxis

HALF_INTEGERS = [0.5, 1.0, 1.5, 2.0, 2.5]


class TestBuildSpin:
    def test_zero_spin(self):
        sr = spin.build_spin(0)
        assert sr.dim == 1
        assert np.abs(sr.ax).max() == 0.0

    def test_half_spin_pauli_halves(self):
        sr = spin.build_spin(0.5)
        assert np.allclose(sr.ax, np.array([[0, 0.5], [0.5, 0]]))
        assert np.allclose(sr.az, np.diag([-0.5, 0.5]))
        assert np.abs(sr.ax.imag).max() == 0.0
        assert np.abs(sr.az.imag).max() == 0.0

    def test_spin_one_diagonal(self):
        sr = spin.build_spin(1)
        assert np.allclose(sr.az, np.diag([-1.0, 0.0, 1.0]))
        assert sr.dim == 3

    def test_invalid_values(self):
        for bad in (-0.5, 0.3, 13.0):
            with pytest.raises(InvalidSpin):
                spin.build_spin(bad)

    @pytest.mark.parametrize("r", HALF_INTEGERS)
    def test_dimension(self, r):
        assert spin.build_spin(r).dim == int(2 * r) + 1

    @pytest.mark.parametrize("r", HALF_INTEGERS)
    def test_squared_total(self, r):
        sr = spin.build_spin(r)
        assert np.abs(sr.asq - r * (r + 1) * np.eye(sr.dim)).max() <= 1e-12

    def test_real_symmetric_span_for_half(self):
        sr = spin.build_spin(0.5)
        basis = [np.eye(2), 2 * sr.ax.real, 2 * sr.az.real]
        flat = np.stack([b[np.triu_indices(2)] for b in basis])
        assert np.linalg.matrix_rank(flat) == 3


class TestCommutationAndEigen:
    @pytest.mark.parametrize("r", [0.0] + HALF_INTEGERS)
    def test_commutation(self, r):
        assert spin.verify_commutation(spin.build_spin(r)) <= 1e-12

    @pytest.mark.parametrize("r", [0.0] + HALF_INTEGERS)
    def test_eigen(self, r):
        # each basis vector is an eigenvector of A0 with eigenvalue m and of
        # the squared total with r(r+1), at the bound build_spin checks
        sr = spin.build_spin(r)
        assert np.array_equal(sr.az, np.diag(sr.m_values))
        bound = 1e-12 * max(1.0, r * (r + 1))
        assert np.abs(sr.asq - r * (r + 1) * np.eye(sr.dim)).max() <= bound

    def test_specific_eigenvalues(self):
        sr = spin.build_spin(2)
        e = np.zeros(5)
        e[3] = 1.0  # m = +1
        assert np.allclose(sr.az @ e, 1.0 * e)
        assert np.allclose(sr.asq @ e, 6.0 * e)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_axis_spectrum_rotation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        sr = spin.build_spin(1.5)
        gen = n[0] * sr.ax + n[1] * sr.ay + n[2] * sr.az
        evals = np.linalg.eigvalsh(gen)
        assert np.abs(evals - np.array([-1.5, -0.5, 0.5, 1.5])).max() <= 1e-9


class TestRotations:
    def test_zero_angle(self):
        sr = spin.build_spin(1)
        u = spin.rotation_operator(sr, (0, 0, 1.0), 0.0)
        assert np.abs(u - np.eye(3)).max() <= 1e-12

    def test_half_spin_z_pi(self):
        sr = spin.build_spin(0.5)
        u = spin.rotation_operator(sr, (0, 0, 1.0), math.pi)
        assert np.allclose(u, np.diag([np.exp(-1j * math.pi / 2),
                                       np.exp(1j * math.pi / 2)]), atol=1e-12)

    @pytest.mark.parametrize("r", HALF_INTEGERS)
    def test_full_turn_sign(self, r):
        sr = spin.build_spin(r)
        u = spin.rotation_operator(sr, (0, 1.0, 0), 2 * math.pi)
        sign = -1.0 if sr.dim % 2 == 0 else 1.0
        assert np.abs(u - sign * np.eye(sr.dim)).max() <= 1e-10

    def test_double_turn_is_identity(self):
        sr = spin.build_spin(0.5)
        u = spin.rotation_operator(sr, (1.0, 0, 0), 4 * math.pi)
        assert np.abs(u - np.eye(2)).max() <= 1e-10

    def test_non_unit_axis_rejected(self):
        sr = spin.build_spin(0.5)
        with pytest.raises(NonUnitAxis):
            spin.rotation_operator(sr, (1.0, 1.0, 0.0), 1.0)


def _covariance_by_loops(table) -> bool:
    """Brute-force reference for `spin._rotated_level_sets_agree`: every
    rotation k, direction a and pair of points p1, p2 in turn."""
    n = len(table)
    for k in range(n):
        for a in range(n):
            a_rot = (a + k) % n
            for p1 in range(n):
                for p2 in range(n):
                    if table[a, p1] == table[a, p2]:
                        if table[a_rot, (p1 + k) % n] != table[a_rot, (p2 + k) % n]:
                            return False
    return True


class TestPlanarContext:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_rotated_component_covariance(self, n):
        assert spin.planar_component_covariance(n)
        angles = spin.planar_angles(n)
        table = np.round(np.cos(angles[None, :] - angles[:, None]), 9)
        assert _covariance_by_loops(table)

    @given(st.integers(min_value=1, max_value=7), st.booleans(), st.data())
    def test_level_set_check_matches_loops(self, n, circulant, data):
        # small integers give ties; a circulant table, row a the first row
        # shifted by a, always passes, so both verdicts are drawn
        draw = st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n)
        values = np.array(data.draw(draw)).reshape(n, n)
        if circulant:
            shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
            values = values[0][shift]
        assert spin._rotated_level_sets_agree(values) == _covariance_by_loops(values)

    @pytest.mark.parametrize("step", [1, 3 * 6**3, groups.STEP_BYTES])
    def test_rotations_in_blocks(self, step, monkeypatch):
        # blocks of one rotation, of a few and of all give the verdict of the
        # loops, on the planar tables and on tables with ties
        monkeypatch.setattr(groups, "STEP_BYTES", step)
        rng = np.random.default_rng(7)
        tables = [np.round(np.cos(spin.planar_angles(n)[None, :]
                                  - spin.planar_angles(n)[:, None]), 9) for n in (3, 6, 7)]
        tables += [rng.integers(0, 2, (n, n)) for n in (3, 6, 7) for _ in range(4)]
        verdicts = [spin._rotated_level_sets_agree(t) for t in tables]
        assert verdicts == [_covariance_by_loops(t) for t in tables]
        assert True in verdicts and False in verdicts

    def test_level_set_check_fails(self):
        # points 0 and 1 agree along direction 0, but after one rotation
        # points 1 and 2 differ along direction 1
        table = np.array([[0, 0, 1], [0, 1, 2], [0, 1, 2]])
        assert not _covariance_by_loops(table)
        assert not spin._rotated_level_sets_agree(table)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_fixed_component_level_sets_break(self, n):
        # holding the reference direction fixed, a rotation splits the
        # symmetric level set {t, -t}; the covariant statement above is the
        # one that survives; the points are n directions on the circle, the
        # rotations of the grid act on them, and the component is along
        # direction 0, rounded as the planar check rounds it
        _, act = groups.generate_permutation_group([[(p + 1) % n for p in range(n)]])
        component = variables.make_variable(
            "component[0]", np.round(np.cos(spin.planar_angles(n)), 9).tolist())
        ok, witness = variables.is_permissible(component, act)
        assert not ok
        k, p1, p2 = witness
        assert component.values[p1] == component.values[p2]
        assert (component.values[act.act[k, p1]]
                != component.values[act.act[k, p2]])


class TestFullRotationCounterexample:
    def test_documented_witness(self):
        action, var, witness, axes = spin.full_rotation_counterexample()
        k, p1, p2 = witness
        assert (axes[0], axes[1]) == ("+x", "+y")
        # the quarter turn about x sends +y to +z
        assert action.act[k, 2] == 4

    def test_restriction_to_trivial_subgroup_permissible(self):
        var = spin.axis_component_variable("z")
        _, act = groups.generate_permutation_group([], space_size=6)
        ok, _ = variables.is_permissible(var, act)
        assert ok

    def test_x_component_fails_symmetrically(self):
        action = spin.octahedral_axes_action()
        var = spin.axis_component_variable("x")
        ok, witness = variables.is_permissible(var, action)
        assert not ok and witness is not None
