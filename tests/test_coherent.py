import functools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvhilbert import cli, coherent, groups, pairing, representations as reps, variables
from cvhilbert.errors import NoResolution, NotASubgroup, NumericalAmbiguity

from conftest import (circle_system, gram_resolution, point_actions, reference_system,
                      stack_representation, standard_action, standard_group)

ROOT = Path(__file__).resolve().parents[1]
NOT_THE_BASIS = "^the coherent states are not the d basis vectors$"


def isotropy(rep, f):
    """The isotropy subgroup of the basis fiducial e_f and its phases, as
    the system holds them."""
    system = coherent.build_coherent_system(rep, f)
    return system.isotropy, system.alpha


def dense(rep, fiducial):
    """The dense reference of a unit fiducial vector under a representation."""
    return reference_system(rep.group, rep.matrices, rep.tolerance, fiducial)


def basis(rep, f):
    return np.eye(rep.dim, dtype=complex)[f]


def z2_stack(u):
    """Z2 on C^2 with U(1) = u, verified as a representation."""
    return stack_representation(standard_group("cyclic", 2),
                                np.stack([np.eye(2), u]).astype(complex))


class TestIsotropy:
    def test_trivial_group(self):
        g = standard_group("cyclic", 1)
        rep = stack_representation(g, np.ones((1, 1, 1), dtype=complex))
        sub, alpha = isotropy(rep, 0)
        assert sub.members == (0,)
        assert alpha == (0.0,)

    def test_moved_fiducial_has_trivial_isotropy(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        sub, _ = isotropy(rep, 0)
        assert sub.members == (0,)

    def test_antisymmetric_fiducial_fixed_with_phase_pi(self):
        # (e_0 - e_1)/sqrt 2 under the regular representation of Z2, by the
        # dense reference, and the same state as the basis vector e_1 of the
        # basis (e_0 + e_1, e_0 - e_1)/sqrt 2, where the swap is diag(1, -1)
        rep = reps.regular_representation(standard_group("cyclic", 2))
        ref = dense(rep, np.array([1.0, -1.0]) / np.sqrt(2))
        sub, alpha = isotropy(z2_stack(np.diag([1.0, -1.0])), 1)
        for members, phases in ((ref.members, ref.phases), (sub.members, alpha)):
            assert members == (0, 1)
            assert phases[0] == 0.0
            assert abs(phases[1] - np.pi) < 1e-12

    def test_phase_is_character(self, qubit_rep):
        # a random fiducial by the dense reference, and both basis fiducials
        rng = np.random.default_rng(3)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        ref = dense(qubit_rep, v)
        for members, alpha in ((ref.members, ref.phases), *(
                (sub.members, phases) for sub, phases in (isotropy(qubit_rep, f) for f in (0, 1)))):
            pos = {m: i for i, m in enumerate(members)}
            for a in members:
                for b in members:
                    c = int(qubit_rep.group.cayley[a, b])
                    diff = (alpha[pos[a]] + alpha[pos[b]] - alpha[pos[c]]) % (2 * np.pi)
                    assert min(diff, 2 * np.pi - diff) < 1e-9


class TestBuildSystem:
    def test_one_dim_trivial(self):
        g = standard_group("cyclic", 1)
        rep = stack_representation(g, np.ones((1, 1, 1), dtype=complex))
        system = coherent.build_coherent_system(rep, 0)
        assert system.basis_index.tolist() == [0]

    def test_regular_z3_coordinate_states(self):
        _, _, _, system = circle_system(3)
        assert sorted(system.basis_index.tolist()) == [0, 1, 2]

    def test_qubit_exchange_orbit(self, two_bit):
        rep = reps.regular_representation(two_bit["g_group"])
        system = coherent.build_coherent_system(rep, 0)
        assert sorted(system.basis_index.tolist()) == [0, 1]

    def test_fiducial_index_outside_the_basis_rejected(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        for f in (-1, 2):
            with pytest.raises(ValueError, match=f"^fiducial index {f} is outside 0..1$"):
                coherent.build_coherent_system(rep, f)

    def test_states_are_the_orbit(self, qubit_rep):
        # each coset state, e_p at its basis index p, is U(g) e_f for the
        # coset's representative g, as the loop over elements gives it: on
        # the joined stack, a permutation and the regular representation
        z6 = reps.regular_representation(standard_group("cyclic", 6))
        for rep, f in ((qubit_rep, 0), (qubit_rep, 1), (circle_system(5)[2], 0), (z6, 3)):
            system = coherent.build_coherent_system(rep, f)
            looped = np.stack([rep.matrices[g] @ basis(rep, f)
                               for g in system.cosets.representatives])
            assert np.array_equal(looped, np.eye(rep.dim)[system.basis_index])
        # trivial isotropy: one state per element, in element order
        assert circle_system(5)[3].cosets.representatives == tuple(range(5))


class TestResolution:
    """A basis fiducial's system resolves the identity exactly when its
    states are all d basis vectors; its operators are built then, with
    constant 1, and refused otherwise."""

    def test_trivial_system(self):
        g = standard_group("cyclic", 1)
        rep = stack_representation(g, np.ones((1, 1, 1), dtype=complex))
        system = coherent.build_coherent_system(rep, 0)
        assert gram_resolution(dense(rep, basis(rep, 0)).states) == (1.0, 0.0)
        assert coherent.operator_from_variable(system, [2.5]).matrix.tolist() == [[2.5]]

    def test_permutation_orbit_passes_even_when_reducible(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        system = coherent.build_coherent_system(rep, 0)
        assert gram_resolution(dense(rep, basis(rep, 0)).states) == (1.0, 0.0)
        assert np.array_equal(coherent.operator_from_variable(system, [1.0, 1.0]).matrix,
                              np.eye(2))

    def test_reducible_generic_fiducial_fails_with_reported_residual(self):
        # by the dense reference; the basis fiducial of a permutation action
        # that is not transitive fails too: D3 on the triangle and two more
        # points gives e_0, e_1 and e_2 of five, c = 5/3, and a diagonal 0
        # at the other two, so its operators are refused
        rep = reps.regular_representation(standard_group("cyclic", 2))
        fid = np.array([2.0, 1.0]) / np.sqrt(5)
        _, residual = gram_resolution(dense(rep, fid).states)
        # off-diagonal of c*B is 2ab for real (a, b)
        assert abs(residual - 0.8) < 1e-12 and residual > rep.tolerance
        natural = reps.permutation_representation(standard_action("dihedral", 3))
        system = coherent.build_coherent_system(natural, 0)
        assert gram_resolution(dense(natural, basis(natural, 0)).states) == (5 / 3, 1.0)
        assert system.basis_index.tolist() == [0, 1, 2]
        with pytest.raises(NoResolution, match=NOT_THE_BASIS):
            coherent.operator_from_variable(system, [0.0, 1.0, 2.0])

    def test_qubit_system_four_states(self, qubit_rep):
        v = np.array([2.0, 1.0]) / np.sqrt(5)
        ref = dense(qubit_rep, v.astype(complex))
        assert len(ref.cosets) == 4
        c, residual = gram_resolution(ref.states)
        assert residual <= qubit_rep.tolerance
        assert abs(c - 0.5) < 1e-12

    def test_irreducible_rep_resolves_for_random_fiducials(self, qubit_rep):
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            assert gram_resolution(dense(qubit_rep, v).states)[1] <= qubit_rep.tolerance


@functools.cache
def catalogue_systems():
    """(system, dense states) of every basis fiducial e_f under the regular
    and the natural permutation representations of small catalogue groups,
    the states from the dense reference; the dihedral groups' natural
    action, on the n-gon and two more points, is not transitive, so those
    systems do not resolve the identity."""
    systems = []
    for kind, sizes in (("cyclic", range(1, 6)), ("dihedral", range(1, 5)),
                        ("symmetric", range(1, 5))):
        for n in sizes:
            action = standard_action(kind, n)
            for rep in (reps.regular_representation(action.group),
                        reps.permutation_representation(action)):
                systems.extend((coherent.build_coherent_system(rep, f), dense(rep, basis(rep, f)).states)
                               for f in range(rep.dim))
    return tuple(systems)


def product_stack(states, values):
    """c * (states^T values_i) @ states* for each row of values, averaged
    with its adjoint as a sum of projectors is: the dense product."""
    c = gram_resolution(states)[0]
    a = 0.5 * (c * (states.T * values[:, None, :]) @ states.conj())
    return a + a.conj().swapaxes(1, 2)


def einsum_operator(states, values):
    """c * sum_x values[x] |x><x| over the stacked projectors |x><x|, with c
    = d over the trace of their sum."""
    projectors = np.einsum("xi,xj->xij", states, states.conj())
    c = states.shape[1] / float(np.einsum("xii->", projectors).real)
    return c * np.einsum("x,xij->ij", values, projectors)


class TestOperator:
    @given(st.lists(st.floats(-4, 4), min_size=24, max_size=24), st.sampled_from([1.0, 1e8]))
    def test_matrix_products_match_projector_sums(self, two_bit, values, scale):
        # the joined coherent system of the two-bit document (two coordinate
        # states) and the basis-fiducial systems of the catalogue groups,
        # each against the dense states of its fiducial: the operators are
        # built exactly when the Gram matrix resolves the identity with
        # constant 1 and residual 0, reproduce the projector einsums, are
        # Hermitian bit for bit at any scale of the values, as a sum of
        # projectors is, and equal the dense products bit for bit. The dense
        # products are Hermitian bit for bit as well for a complex fiducial,
        # whose four states are no basis vectors
        joined = two_bit["system"].coherent
        fiducial = np.array([0.6 + 0.2j, -0.3 + 0.7j])
        complex_states = dense(joined.rep, fiducial / np.linalg.norm(fiducial)).states
        assert len(complex_states) == 4
        x = scale * np.array(values[:4])
        rows = np.stack([x, -x[::-1], np.zeros_like(x)])
        stack = product_stack(complex_states, rows)
        assert np.array_equal(stack, stack.conj().swapaxes(1, 2))
        assert np.abs(stack[0] - einsum_operator(complex_states, x)).max() <= 1e-12 * scale
        for system, states in ((joined, dense(joined.rep, basis(joined.rep, 0)).states),
                               *catalogue_systems()):
            x = scale * np.array(values[:len(system.cosets)])
            rows = np.stack([x, -x[::-1], np.zeros_like(x)])
            if not check_resolution_rule(system, states, rows):
                continue
            op = coherent.operator_from_variable(system, x)
            assert np.abs(op.matrix - einsum_operator(states, x)).max() <= 1e-12 * scale
            assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_only_distinct_unit_basis_states_are_read_off(self):
        rep = reps.regular_representation(standard_group("symmetric", 3))
        system = coherent.build_coherent_system(rep, 0)
        assert np.array_equal(system.basis_index, [rep.source.act[g, 0] for g in range(6)])
        # off a stack, a unit-modulus entry other than 1 (U(1) e_0 = -i e_1),
        # a state with two entries (U(1) e_0 = 0.6 e_0 + 0.8 e_1) and two
        # cosets on one index all keep no indices, and build no operator. The
        # last needs a stack that is no representation, trusted unchecked:
        # Z3 with U(1) = U(2) = the swap
        turned = z2_stack(np.array([[0, 1j], [-1j, 0]]))
        spread = z2_stack(np.array([[0.6, 0.8], [0.8, -0.6]]))
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        repeated = reps.UnitaryRepresentation(
            standard_group("cyclic", 3), 2, np.stack([np.eye(2, dtype=complex), swap, swap]),
            reps.DEFAULT_TOLERANCE, reps._BUILT)
        for stack in (turned, spread, repeated):
            system = coherent.build_coherent_system(stack, 0)
            assert len(system.cosets) == stack.group.order and system.basis_index is None
            with pytest.raises(NoResolution, match=NOT_THE_BASIS):
                coherent.operator_from_variable(system, np.zeros(len(system.cosets)))

    def test_unit_variable_gives_identity(self):
        _, _, _, system = circle_system(3)
        op = coherent.operator_from_variable(system, [1.0, 1.0, 1.0])
        assert np.abs(op.matrix - np.eye(3)).max() <= 1e-12

    def test_zero_variable_gives_zero(self):
        _, _, _, system = circle_system(3)
        op = coherent.operator_from_variable(system, [0.0, 0.0, 0.0])
        assert np.abs(op.matrix).max() == 0.0

    def test_indicator_on_qubit_states(self, two_bit):
        rep = reps.regular_representation(two_bit["g_group"])
        system = coherent.build_coherent_system(rep, 0)
        op = coherent.operator_from_variable(system, [0.0, 1.0])
        evals = np.linalg.eigvalsh(op.matrix)
        assert np.allclose(sorted(evals), [0.0, 1.0], atol=1e-12)

    def test_no_resolution_raises(self):
        # the basis fiducial of an action that is not transitive: D3 on the
        # triangle and two more points
        rep = reps.permutation_representation(standard_action("dihedral", 3))
        system = coherent.build_coherent_system(rep, 0)
        with pytest.raises(NoResolution, match=NOT_THE_BASIS):
            coherent.operator_from_variable(system, [0.0, 1.0, 2.0])

    def test_scalar_covariance(self):
        _, _, _, system = circle_system(4)
        base = np.array([0.0, 1.0, 2.0, 3.0])
        a, b = 2.5, -1.0
        op1 = coherent.operator_from_variable(system, base)
        op2 = coherent.operator_from_variable(system, a * base + b)
        assert np.abs(op2.matrix - (a * op1.matrix + b * np.eye(4))).max() <= 1e-12

    @given(st.integers(min_value=2, max_value=5))
    def test_covariance_suite_passes_on_circles(self, n):
        group, action, rep, system = circle_system(n)
        values = np.arange(n, dtype=float)
        points = action.act[list(system.cosets.representatives), 0]
        a = coherent.operator_from_variable(system, values[points])
        for t in range(group.order):
            moved = values[action.act[t, points]]
            a_moved = coherent.operator_from_variable(system, moved)
            u = rep.matrices[t]
            assert np.abs(u.conj().T @ a.matrix @ u - a_moved.matrix).max() <= 1e-12


class TestPushforwardEquivalence:
    def test_parity_on_circle(self):
        # sum over underlying points composed with the variable, then normalize;
        # must match the coset-state construction
        _, k_action = groups.generate_permutation_group([[1, 2, 3, 0]])
        parity = variables.make_variable("parity", [0, 1, 0, 1], numeric_values=[0.0, 1.0])
        g_group, g_action = variables.induced_group(parity, k_action)
        rep = reps.regular_representation(g_group)
        system = coherent.build_coherent_system(rep, 0)
        points = g_action.act[list(system.cosets.representatives), 0].tolist()
        numeric = parity.numeric()
        direct = coherent.operator_from_variable(system, [numeric[p] for p in points])

        # the states of the cosets, from the dense reference
        states = dense(rep, basis(rep, 0)).states
        state_of_value = {}
        for x, p in enumerate(points):
            state_of_value[p] = states[x]
        b = np.zeros((rep.dim, rep.dim), dtype=complex)
        a = np.zeros((rep.dim, rep.dim), dtype=complex)
        for phi in range(4):
            v = parity.values[phi]
            s = state_of_value[v]
            b += np.outer(s, s.conj())
            a += numeric[v] * np.outer(s, s.conj())
        c = rep.dim / np.trace(b).real
        assert np.abs(c * a - direct.matrix).max() <= 1e-9


class TestAmbiguityBand:
    def test_near_boundary_overlap_raises(self):
        # reflection pair whose overlap modulus lands inside the tolerance
        # band around the parallelism boundary
        import math

        eps = math.sqrt(3e-9)  # cos(eps) ~ 1 - 1.5e-9, between 1-2tol and 1-tol
        reflection = np.array([[math.cos(eps), math.sin(eps)],
                               [math.sin(eps), -math.cos(eps)]], dtype=complex)
        with pytest.raises(NumericalAmbiguity):
            coherent.build_coherent_system(z2_stack(reflection), 0)


def system_outcome(rep, f):
    """(members, phases, cosets, basis index, system) of the built system
    of e_f, or (error type, text) when the build raises."""
    try:
        system = coherent.build_coherent_system(rep, f)
    except (NumericalAmbiguity, NotASubgroup) as exc:
        return type(exc), str(exc)
    return system.isotropy.members, system.alpha, system.cosets, system.basis_index, system


@functools.cache
def catalogue_stack(kind, n, regular):
    """(group, action, 0/1 stack) of the regular or the natural
    representation of a catalogue group."""
    action = standard_action(kind, n)
    if regular:
        action = groups.regular_action(action.group)
    return action.group, action, reps.permutation_representation(action).matrices


@functools.cache
def joined_stacks():
    """{document: (N, stack)} of the joined representations that `verify`
    builds for the two-bit fixture, cyclic m=2, XOR m=4, and cyclic m=6 and
    XOR m=8, whose coset labels fail."""
    paths = {"two_bit": ROOT / "fixtures" / "two_bit.json",
             **{name: ROOT / "tests" / "golden" / "docs" / f"{name}.json"
                for name in ("cyclic_m2", "xor_m4", "cyclic_m6", "xor_m8")}}
    built, stacks = pairing.build_joint_representation, {}
    for name, path in paths.items():
        with mock.patch.object(pairing, "build_joint_representation",
                               lambda *args: stacks.setdefault(name, built(*args))):
            cli.run_verify(cli.parse_context(str(path)))
    return {name: (rep.group, rep.matrices) for name, rep in stacks.items()}


@st.composite
def permutation_cases(draw):
    """(group, action, 0/1 stack, regular): a catalogue group or a random
    permutation group on up to 8 points, by its regular or natural action."""
    if draw(st.booleans()):
        kind, n = draw(st.sampled_from(
            [("cyclic", n) for n in range(1, 7)] + [("dihedral", n) for n in range(1, 6)]
            + [("symmetric", n) for n in range(3, 6)]))
        regular = draw(st.booleans())
        return (*catalogue_stack(kind, n, regular), regular)
    # one generator on up to 8 points, or two on up to 6: order at most 720
    m = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=1 if m > 6 else 2))
    _, action = groups.generate_permutation_group([tuple(g) for g in gens], space_size=m)
    regular = action.group.order <= 60 and draw(st.booleans())
    if regular:
        action = groups.regular_action(action.group)
    return action.group, action, reps.permutation_representation(action).matrices, regular


def check_resolution_rule(system, states, rows):
    """The operators of a system whose states are basis vectors are built
    exactly when its dense states resolve the identity with constant 1 and
    residual 0, and then equal the dense products bit for bit; otherwise
    they raise NoResolution."""
    if gram_resolution(states) == (1.0, 0.0):
        assert np.array_equal(coherent.operator_stack(system, rows), product_stack(states, rows))
        assert np.array_equal(coherent.operator_from_variable(system, rows[0]).matrix,
                              product_stack(states, rows[:1])[0])
        return True
    with pytest.raises(NoResolution, match=NOT_THE_BASIS):
        coherent.operator_stack(system, rows)
    with pytest.raises(NoResolution, match=NOT_THE_BASIS):
        coherent.operator_from_variable(system, rows[0])
    return False


TOLERANCES = st.floats(0, 1, exclude_min=True, exclude_max=True) | st.sampled_from(
    [reps.DEFAULT_TOLERANCE, 0.5, 0.5000000001, 0.6, 0.999])


class TestBasisFiducial:
    """A basis fiducial's system read off column f, against the dense
    product and the loop over the elements' overlaps."""

    def check(self, rep, matrices, f):
        got = system_outcome(rep, f)
        want = reference_system(rep.group, matrices, rep.tolerance, basis(rep, f))
        if len(want) == 2:
            assert got == want
            return None
        members, phases, cosets, index, system = got
        assert (members, phases) == (want.members, want.phases)
        assert (cosets.cosets, cosets.representatives) == (want.cosets.cosets,
                                                            want.cosets.representatives)
        assert (index is None) == (want.index is None)
        rows = np.stack([np.arange(len(cosets), dtype=float), np.linspace(-1, 1, len(cosets))])
        if index is None:
            with pytest.raises(NoResolution, match=NOT_THE_BASIS):
                coherent.operator_stack(system, rows)
            return system
        assert np.array_equal(index, want.index) and not index.flags.writeable
        assert np.array_equal(np.eye(rep.dim)[index], want.states)
        check_resolution_rule(system, want.states, rows)
        return system

    @given(permutation_cases(), TOLERANCES, st.data())
    def test_permutation_representation_reads_the_action(self, case, tol, data):
        group, action, matrices, regular = case
        rep = (reps.regular_representation(group, tol) if regular
               else reps.permutation_representation(action, tol))
        system = self.check(rep, matrices, data.draw(st.integers(0, rep.dim - 1)))
        # the system keeps the states' indices; the stack is never read
        assert "matrices" not in vars(rep)
        if system is not None:
            assert system.basis_index is not None and system.alpha == (0.0,) * len(system.alpha)

    @given(st.sampled_from(["two_bit", "cyclic_m2", "xor_m4"]), TOLERANCES, st.data())
    def test_joined_stack_gathers_a_column(self, document, tol, data):
        group, matrices = joined_stacks()[document]
        rep = reps.UnitaryRepresentation(group, matrices.shape[1], matrices, tol, reps._BUILT)
        self.check(rep, matrices, data.draw(st.integers(0, rep.dim - 1)))

    def test_ambiguous_above_one_half_at_the_first_moved_element(self):
        # every element but e moves point 0 of the regular action: at
        # tolerance above 1/2 its overlap 0 is inside the band
        rep = reps.regular_representation(standard_group("cyclic", 3), 0.6)
        with pytest.raises(NumericalAmbiguity, match=r"^overlap modulus 0\.0 for element 1 "):
            coherent.build_coherent_system(rep, 0)


class TestStackPath:
    """What the joined stack's system decides from its float overlaps
    alone: the isotropy with its phases, and whether the states are basis
    vectors."""

    def test_two_bit_isotropy_phases_and_indices(self, qubit_rep):
        # U(3), U(4) and U(7) are diag(1, -1), -I and diag(-1, 1), up to
        # rounding: each fixes both basis vectors, two of them up to -1
        pi = np.pi
        for f, alpha, index in ((0, (0.0, 0.0, pi, pi), [0, 1]), (1, (0.0, pi, pi, 0.0), [1, 0])):
            system = coherent.build_coherent_system(qubit_rep, f)
            assert system.isotropy.members == (0, 3, 4, 7)
            assert system.alpha == alpha
            assert system.basis_index.tolist() == index

    @pytest.mark.parametrize("document", ["cyclic_m6", "xor_m8"])
    def test_unlabeled_joined_systems_have_no_indices(self, document):
        # states that are not distinct basis vectors: the cosets fail their
        # labels, and no operator is made
        group, matrices = joined_stacks()[document]
        rep = reps.UnitaryRepresentation(group, matrices.shape[1], matrices,
                                         reps.DEFAULT_TOLERANCE, reps._BUILT)
        system = coherent.build_coherent_system(rep, 0)
        assert system.basis_index is None and len(system.cosets) == 2 * rep.dim
        with pytest.raises(NoResolution, match=NOT_THE_BASIS):
            coherent.operator_from_variable(system, np.zeros(len(system.cosets)))


class TestColumnReadOff:
    """Every basis fiducial's system under a permutation representation,
    read off one column of its action, against the point stabilizer and
    `left_cosets` over the whole table."""

    @given(point_actions())
    def test_every_basis_fiducial(self, action):
        rep = reps.permutation_representation(action)
        systems = [coherent.build_coherent_system(rep, f) for f in range(rep.dim)]
        assert "cayley" not in vars(action.group) and "matrices" not in vars(rep)
        table = action.act
        for f, system in enumerate(systems):
            iso = groups.subgroup(action.group, np.flatnonzero(table[:, f] == f))
            cosets = groups.left_cosets(action.group, iso)
            assert system.isotropy.members == iso.members
            assert system.alpha == (0.0,) * iso.order
            assert (system.cosets.cosets, system.cosets.representatives) == (
                cosets.cosets, cosets.representatives)
            assert np.array_equal(system.basis_index, table[list(cosets.representatives), f])


@st.composite
def small_point_actions(draw):
    """The action on its points of the group that one permutation of up to
    8 points or two of up to 6 generate, transitive or not."""
    m = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=1 if m > 6 else 2))
    return groups.generate_permutation_group([tuple(g) for g in gens], space_size=m)[1]


class TestResolutionRule:
    """Differential: every basis fiducial's operators against the dense
    states' Gram matrix and the dense products."""

    @given(small_point_actions(), st.data())
    def test_operator_built_exactly_when_the_states_resolve_the_identity(self, action, data):
        # under a permutation action, exactly when the orbit of the fiducial
        # is every point, that is, for every fiducial or none
        rep = reps.permutation_representation(action)
        values = st.floats(allow_nan=False, allow_infinity=False)
        built = set()
        for f in range(rep.dim):
            system = coherent.build_coherent_system(rep, f)
            n = len(system.cosets)
            rows = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                               min_size=1, max_size=3)))
            built.add(check_resolution_rule(system, dense(rep, basis(rep, f)).states, rows))
        assert built == {groups.is_transitive(action)}
