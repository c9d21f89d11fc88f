import dataclasses
import functools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvhilbert import cli, coherent, groups, pairing, representations as reps, variables
from cvhilbert.errors import NoResolution, NotASubgroup, NumericalAmbiguity

from conftest import (circle_system, point_actions, stack_representation, standard_action,
                      standard_group)

ROOT = Path(__file__).resolve().parents[1]


def unit_vector(draw_values):
    v = np.array(draw_values, dtype=complex)
    norm = np.linalg.norm(v)
    return v / norm


def isotropy(rep, fiducial):
    """The isotropy subgroup of a fiducial and its phases, as the system holds them."""
    system = coherent.build_coherent_system(rep, fiducial)
    return system.isotropy, system.alpha


class TestIsotropy:
    def test_trivial_group(self):
        g = standard_group("cyclic", 1)
        rep = stack_representation(g, np.ones((1, 1, 1), dtype=complex))
        sub, alpha = isotropy(rep, np.array([1.0]))
        assert sub.members == (0,)
        assert alpha == (0.0,)

    def test_moved_fiducial_has_trivial_isotropy(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        sub, _ = isotropy(rep, np.array([1.0, 0.0]))
        assert sub.members == (0,)

    def test_antisymmetric_fiducial_fixed_with_phase_pi(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        sub, alpha = isotropy(rep, np.array([1.0, -1.0]) / np.sqrt(2))
        assert sub.members == (0, 1)
        assert alpha[0] == 0.0
        assert abs(alpha[1] - np.pi) < 1e-12

    def test_phase_is_character(self, qubit_rep):
        rng = np.random.default_rng(3)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        sub, alpha = isotropy(qubit_rep, v)
        pos = {m: i for i, m in enumerate(sub.members)}
        for a in sub.members:
            for b in sub.members:
                c = int(qubit_rep.group.cayley[a, b])
                diff = (alpha[pos[a]] + alpha[pos[b]] - alpha[pos[c]]) % (2 * np.pi)
                assert min(diff, 2 * np.pi - diff) < 1e-9


class TestBuildSystem:
    def test_one_dim_trivial(self):
        g = standard_group("cyclic", 1)
        rep = stack_representation(g, np.ones((1, 1, 1), dtype=complex))
        system = coherent.build_coherent_system(rep)
        assert system.states.shape == (1, 1)

    def test_regular_z3_coordinate_states(self):
        _, _, _, system = circle_system(3)
        assert np.allclose(np.abs(system.states), np.eye(3))

    def test_qubit_exchange_orbit(self, two_bit):
        rep = reps.regular_representation(two_bit["g_group"])
        system = coherent.build_coherent_system(rep, np.array([1.0, 0.0]))
        assert sorted(tuple(np.round(np.abs(s), 9)) for s in system.states) == [
            (0.0, 1.0), (1.0, 0.0)
        ]

    def test_non_unit_fiducial_rejected(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        with pytest.raises(ValueError):
            coherent.build_coherent_system(rep, np.array([2.0, 0.0]))

    def test_states_are_the_orbit(self, qubit_rep):
        # the batched orbit gives each coset state as the loop over elements did
        fiducial = np.array([0.6 + 0.2j, -0.3 + 0.7j])
        fiducial /= np.linalg.norm(fiducial)
        half = np.array([1, 0, 0, 1, 0, 0]) / np.sqrt(2)
        z6 = reps.regular_representation(standard_group("cyclic", 6))
        for rep, fid in ((qubit_rep, fiducial), (circle_system(5)[2], None), (z6, half)):
            system = coherent.build_coherent_system(rep, fid)
            looped = np.stack([rep.matrices[g] @ system.fiducial
                               for g in system.cosets.representatives])
            assert np.abs(system.states - looped).max() <= 1e-15
        # trivial isotropy: one state per element, in element order
        assert circle_system(5)[3].cosets.representatives == tuple(range(5))


class TestResolution:
    def test_trivial_system(self):
        g = standard_group("cyclic", 1)
        rep = stack_representation(g, np.ones((1, 1, 1), dtype=complex))
        res = coherent.resolution_of_identity(coherent.build_coherent_system(rep))
        assert res.constant == 1.0 and res.residual == 0.0 and res.ok

    def test_permutation_orbit_passes_even_when_reducible(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        system = coherent.build_coherent_system(rep, np.array([1.0, 0.0]))
        res = coherent.resolution_of_identity(system)
        assert res.ok and res.residual == 0.0

    def test_reducible_generic_fiducial_fails_with_reported_residual(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        fid = np.array([2.0, 1.0]) / np.sqrt(5)
        system = coherent.build_coherent_system(rep, fid)
        res = coherent.resolution_of_identity(system)
        assert not res.ok
        # off-diagonal of c*B is 2ab for real (a, b)
        assert abs(res.residual - 0.8) < 1e-12

    def test_qubit_system_four_states(self, qubit_rep):
        v = np.array([2.0, 1.0]) / np.sqrt(5)
        system = coherent.build_coherent_system(qubit_rep, v.astype(complex))
        assert len(system.cosets) == 4
        res = coherent.resolution_of_identity(system)
        assert res.ok
        assert abs(res.constant - 0.5) < 1e-12

    def test_irreducible_rep_resolves_for_random_fiducials(self, qubit_rep):
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            system = coherent.build_coherent_system(qubit_rep, v)
            assert coherent.resolution_of_identity(system).ok


@functools.cache
def catalogue_systems():
    """The coherent system of every basis fiducial e_p under the regular and
    the natural permutation representations of small catalogue groups; the
    dihedral groups' natural action, on the n-gon and two more points, is
    not transitive, so those systems do not resolve the identity."""
    systems = []
    for kind, sizes in (("cyclic", range(1, 6)), ("dihedral", range(1, 5)),
                        ("symmetric", range(1, 5))):
        for n in sizes:
            action = standard_action(kind, n)
            for rep in (reps.regular_representation(action.group),
                        reps.permutation_representation(action)):
                systems.extend(coherent.build_coherent_system(rep, e)
                               for e in np.eye(rep.dim, dtype=complex))
    return tuple(systems)


def gram_resolution(system):
    """(c, residual) from the Gram matrix of the states, as one product."""
    b = system.states.T @ system.states.conj()
    c = system.rep.dim / float(np.trace(b).real)
    return c, float(np.abs(c * b - np.eye(system.rep.dim)).max())


def product_stack(system, values):
    """c * (states^T values_i) @ states* for each row of values, averaged
    with its adjoint as a sum of projectors is: the dense product."""
    c = gram_resolution(system)[0]
    a = 0.5 * (c * (system.states.T * values[:, None, :]) @ system.states.conj())
    return a + a.conj().swapaxes(1, 2)


def einsum_resolution(system):
    """The resolution of identity as an einsum over the state projectors."""
    b = np.einsum("xi,xj->ij", system.states, system.states.conj())
    c = system.rep.dim / float(np.trace(b).real)
    return c, np.abs(c * b - np.eye(system.rep.dim)).max()


def einsum_operator(system, values):
    """c * sum_x values[x] |x><x| over the stacked projectors |x><x|."""
    projectors = np.einsum("xi,xj->xij", system.states, system.states.conj())
    return einsum_resolution(system)[0] * np.einsum("x,xij->ij", values, projectors)


class TestOperator:
    @given(st.lists(st.floats(-4, 4), min_size=24, max_size=24), st.sampled_from([1.0, 1e8]))
    def test_matrix_products_match_projector_sums(self, two_bit, values, scale):
        # the joined coherent system of the two-bit document (two coordinate
        # states), the system of its representation from a complex fiducial
        # (four states that are not) and the basis-fiducial systems of the
        # catalogue groups: the operators reproduce the projector einsums,
        # are Hermitian bit for bit at any scale of the values, as a sum of
        # projectors is, and equal the dense products bit for bit, whether
        # the states' basis indices were read or the products made
        joined = two_bit["system"].coherent
        fiducial = np.array([0.6 + 0.2j, -0.3 + 0.7j])
        complex_states = coherent.build_coherent_system(
            joined.rep, fiducial / np.linalg.norm(fiducial))
        assert joined.basis_index is not None and complex_states.basis_index is None
        for system in (joined, complex_states, *catalogue_systems()):
            res = coherent.resolution_of_identity(system)
            assert (res.constant, res.residual) == gram_resolution(system)
            c, residual = einsum_resolution(system)
            assert abs(res.constant - c) <= 1e-12 and abs(res.residual - residual) <= 1e-12
            if not res.ok:
                continue
            x = scale * np.array(values[:len(system.cosets)])
            op = coherent.operator_from_variable(system, x)
            assert np.abs(op.matrix - einsum_operator(system, x)).max() <= 1e-12 * scale
            assert np.array_equal(op.matrix, op.matrix.conj().T)
            rows = np.stack([x, -x[::-1], np.zeros_like(x)])
            assert np.array_equal(op.matrix, product_stack(system, x[None])[0])
            assert np.array_equal(coherent.operator_stack(system, rows),
                                  product_stack(system, rows))

    def test_only_distinct_unit_basis_states_are_read_off(self):
        rep = reps.regular_representation(standard_group("symmetric", 3))
        e0 = np.eye(6, dtype=complex)[0]
        system = coherent.build_coherent_system(rep, e0)
        assert np.array_equal(system.basis_index, [rep.source.act[g, 0] for g in range(6)])
        # a unit-modulus entry other than 1, repeated indices and a state with
        # two entries all keep the products
        turned = coherent.build_coherent_system(rep, 1j * e0)
        assert turned.basis_index is None
        assert (turned.resolution.constant, turned.resolution.residual) == gram_resolution(turned)
        assert np.array_equal(dataclasses.replace(
            system, action_index=None, orbit_states=system.states).basis_index,
            system.basis_index)
        repeated = system.states[[0, 0, 1, 2, 3, 4]]
        spread = np.vstack([system.states[:5], np.full(6, 6 ** -0.5)])
        for states in (repeated, spread):
            assert dataclasses.replace(
                system, action_index=None, orbit_states=states).basis_index is None

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
        system = coherent.build_coherent_system(rep, np.array([1.0, 0.0]))
        op = coherent.operator_from_variable(system, [0.0, 1.0])
        evals = np.linalg.eigvalsh(op.matrix)
        assert np.allclose(sorted(evals), [0.0, 1.0], atol=1e-12)

    def test_no_resolution_raises(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        fid = np.array([2.0, 1.0]) / np.sqrt(5)
        system = coherent.build_coherent_system(rep, fid)
        with pytest.raises(NoResolution):
            coherent.operator_from_variable(system, [0.0, 1.0])

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
        system = coherent.build_coherent_system(rep)
        points = g_action.act[list(system.cosets.representatives), 0].tolist()
        numeric = parity.numeric()
        direct = coherent.operator_from_variable(system, [numeric[p] for p in points])

        state_of_value = {}
        for x, p in enumerate(points):
            state_of_value[p] = system.states[x]
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

        from cvhilbert.errors import NumericalAmbiguity

        eps = math.sqrt(3e-9)  # cos(eps) ~ 1 - 1.5e-9, between 1-2tol and 1-tol
        g = standard_group("cyclic", 2)
        reflection = np.array([[math.cos(eps), math.sin(eps)],
                               [math.sin(eps), -math.cos(eps)]], dtype=complex)
        rep = stack_representation(g, np.stack([np.eye(2, dtype=complex), reflection]))
        with pytest.raises(NumericalAmbiguity):
            coherent.build_coherent_system(rep, np.array([1.0, 0.0]))


def reference_system(group, matrices, tol, fiducial):
    """The isotropy, cosets and states of a fiducial by the dense
    computation: the orbit as the product of the whole stack with the
    fiducial, and a loop over the elements' overlaps. (members, phases,
    cosets, basis index, states), or (error type, text) when it raises."""
    orbit = matrices @ fiducial
    members, phases = [], []
    try:
        for g, overlap in enumerate((orbit @ fiducial.conj()).tolist()):
            mag = abs(overlap)
            if mag >= 1.0 - tol:
                members.append(g)
                phases.append(float(np.angle(overlap)) if g != group.identity else 0.0)
            elif mag > 1.0 - 2.0 * tol:
                raise NumericalAmbiguity(
                    f"overlap modulus {mag!r} for element {g} is too close to the boundary")
        for m, a in zip(members, phases):
            if np.abs(orbit[m] - np.exp(1j * a) * fiducial).max() > 10 * tol:
                raise NumericalAmbiguity(f"isotropy phase inconsistent for element {m}")
        cosets = groups.left_cosets(group, groups.subgroup(group, members))
    except (NumericalAmbiguity, NotASubgroup) as exc:
        return type(exc), str(exc)
    states = orbit[list(cosets.representatives)]
    # every state e_p, exactly, at a distinct p
    ones = states == 1
    index = ones.argmax(axis=1)
    if not (((states == 0) | ones).all() and (ones.sum(axis=1) == 1).all()
            and len(set(index.tolist())) == len(index)):
        index = None
    return tuple(members), tuple(phases), cosets, index, states


def system_outcome(rep, fiducial):
    """(members, phases, cosets, basis index, states) of the built system,
    or (error type, text) when the build raises."""
    try:
        system = coherent.build_coherent_system(rep, fiducial)
    except (NumericalAmbiguity, NotASubgroup) as exc:
        return type(exc), str(exc)
    return (system.isotropy.members, system.alpha, system.cosets, system.basis_index,
            system.states, system)


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
    builds for the two-bit fixture, cyclic m=2 and XOR m=4."""
    paths = {"two_bit": ROOT / "fixtures" / "two_bit.json",
             "cyclic_m2": ROOT / "tests" / "golden" / "docs" / "cyclic_m2.json",
             "xor_m4": ROOT / "tests" / "golden" / "docs" / "xor_m4.json"}
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


TOLERANCES = st.floats(0, 1, exclude_min=True, exclude_max=True) | st.sampled_from(
    [reps.DEFAULT_TOLERANCE, 0.5, 0.5000000001, 0.6, 0.999])


class TestBasisFiducial:
    """A basis fiducial's system read off column f, against the dense
    product and the loop over the elements' overlaps."""

    def check(self, rep, matrices, f):
        fiducial = np.eye(rep.dim, dtype=complex)[f]
        got = system_outcome(rep, fiducial)
        want = reference_system(rep.group, matrices, rep.tolerance, fiducial)
        if len(want) == 2:
            assert got == want
            return None
        members, phases, cosets, index, states, system = got
        assert (members, phases) == want[:2]
        assert (cosets.cosets, cosets.representatives) == (want[2].cosets,
                                                            want[2].representatives)
        assert (index is None) == (want[3] is None)
        if index is not None:
            assert np.array_equal(index, want[3]) and not index.flags.writeable
        assert np.array_equal(states, want[4]) and not states.flags.writeable
        b = want[4].T @ want[4].conj()
        c = rep.dim / float(np.trace(b).real)
        residual = float(np.abs(c * b - np.eye(rep.dim)).max())
        res = system.resolution
        assert (res.constant, res.residual, res.ok) == (c, residual, residual <= rep.tolerance)
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
            assert system.orbit_states is None and system.alpha == (0.0,) * len(system.alpha)

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
            coherent.build_coherent_system(rep)


class TestColumnReadOff:
    """Every basis fiducial's system under a permutation representation,
    read off one column of its action, against the point stabilizer and
    `left_cosets` over the whole table."""

    @given(point_actions())
    def test_every_basis_fiducial(self, action):
        rep = reps.permutation_representation(action)
        eye = np.eye(rep.dim, dtype=complex)
        systems = [coherent.build_coherent_system(rep, eye[f]) for f in range(rep.dim)]
        assert "cayley" not in vars(action.group) and "matrices" not in vars(rep)
        table = action.act
        for f, system in enumerate(systems):
            iso = groups.subgroup(action.group, np.flatnonzero(table[:, f] == f))
            cosets = groups.left_cosets(action.group, iso)
            assert system.isotropy.members == iso.members
            assert system.alpha == (0.0,) * iso.order
            assert (system.cosets.cosets, system.cosets.representatives) == (
                cosets.cosets, cosets.representatives)
            assert np.array_equal(system.action_index, table[list(cosets.representatives), f])
