import functools
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cvhilbert import cli, coherent, groups, pairing, representations as reps, variables
from cvhilbert.errors import (
    CosetLabelingError,
    InvolutionViolation,
    NotMaximal,
    NotRelated,
    NotWellDefined,
    SizeLimit,
)

from conftest import (SWAP, direct_sum, joint_system, nine_point_setup, reference_system,
                      reference_verdict, stack_representation, standard_group)

TWO_BIT = Path(__file__).resolve().parents[1] / "fixtures" / "two_bit.json"
DOCS = Path(__file__).resolve().parent / "golden" / "docs"
# every golden document but the schema-error one, which does not parse
GOLDEN_DOCS = sorted(p for p in DOCS.glob("*.json") if p.name != "two_bit_names_zero.json")


def one_dim(group, phases):
    return stack_representation(group, np.array([[[p]] for p in phases], dtype=complex))


class TestRelatedPair:
    def test_self_pair_with_identity(self, two_bit):
        ctx, theta = two_bit["context"], two_bit["theta"]
        pair = pairing.build_related_pair(ctx, theta, theta, tuple(range(4)))
        assert pair.k_squared_identity

    def test_two_bit_pair(self, two_bit):
        pair = two_bit["pair"]
        assert pair.k_squared_identity
        assert (pair.theta, pair.xi) == (two_bit["theta"], two_bit["xi"])

    def test_not_related_witness(self, two_bit):
        ctx, theta, xi = two_bit["context"], two_bit["theta"], two_bit["xi"]
        twisted = (2, 0, 3, 1)  # flip of first bit composed with the swap
        with pytest.raises(NotRelated) as exc:
            pairing.build_related_pair(ctx, theta, xi, twisted)
        p = exc.value.witness_point
        assert theta.values[twisted[p]] != xi.values[p]

    def test_not_maximal_rejected(self, two_bit):
        ctx, theta = two_bit["context"], two_bit["theta"]
        const = variables.make_variable("const", [0, 0, 0, 0], numeric_values=[1.0])
        with pytest.raises(NotMaximal):
            pairing.build_related_pair(ctx, const, theta, SWAP)

    def test_involution_required_on_product_space(self, two_bit):
        ctx, theta, xi = two_bit["context"], two_bit["theta"], two_bit["xi"]
        four_cycle = (1, 2, 0, 3)  # relates the bits but squares to a 3-cycle
        with pytest.raises(InvolutionViolation):
            pairing.build_related_pair(ctx, theta, xi, four_cycle)


@st.composite
def transitive_free_actions(draw):
    """A group closed from up to three permutations of at most four points,
    acting on itself by left multiplication with its points relabeled; every
    transitive free action is one of these."""
    size = draw(st.integers(min_value=1, max_value=4))
    gens = draw(st.lists(st.permutations(range(size)), max_size=3))
    group, _ = groups.generate_permutation_group(gens, space_size=size)
    relabel = np.array(draw(st.permutations(range(group.order))))
    # x -> relabel[g * relabel^-1[x]]
    return groups.generate_permutation_group(relabel[group.cayley][:, np.argsort(relabel)])


def regular_symmetric(n):
    """S_n acting on itself by left multiplication, as
    `transitive_free_actions` draws it."""
    return groups.generate_permutation_group(standard_group("symmetric", n).cayley)


def square_pair(m):
    """The variables x and y of the m x m square, related by the swap
    (x, y) -> (y, x) as k."""
    points = range(m * m)
    theta = variables.make_variable("x", [p // m for p in points])
    xi = variables.make_variable("y", [p % m for p in points])
    swap = [(p % m) * m + p // m for p in points]
    _, k_action = groups.generate_permutation_group([swap])
    context = variables.Context(m * m, k_action, (theta, xi))
    return pairing.build_related_pair(context, theta, xi, swap)


def square_join(group, action, order_bound=2 * 24**2):
    """N for G acting on the m values of each axis of the m x m square."""
    return pairing.build_joint_group(square_pair(action.space_size), action, order_bound)


def closed_joint_group(group, action, order_bound):
    """N closed breadth-first from the first-axis copies of G's moved
    elements, their second-axis copies and the swap, as `build_joint_group`
    closed it before N was built in closed form: (group, action,
    first_embed, second_embed, swap_element)."""
    m = action.space_size
    x, y = np.divmod(np.arange(m * m), m)
    moved = action.act[1:group.order]
    gens = [*(moved[:, x] * m + y), *(x * m + moved[:, y]), *([y * m + x] if m > 1 else [])]
    n_group, n_action = groups.generate_permutation_group(gens, space_size=m * m,
                                                          order_bound=order_bound)
    gens, k = n_group.generators, m - 1
    return (n_group, n_action, (0, *gens[:k]), (0, *gens[k:2 * k]), gens[-1] if m > 1 else 0)


def cyclic_values(m):
    return groups.generate_permutation_group([[(x + 1) % m for x in range(m)]])


def xor_values(m):
    return groups.generate_permutation_group(
        [[x ^ (1 << i) for x in range(m)] for i in range(m.bit_length() - 1)], space_size=m)


# G acting regularly on the values of each axis
REGULAR_ACTIONS = {
    **{f"cyclic-m{m}": functools.partial(cyclic_values, m) for m in range(1, 23)},
    **{f"xor-m{m}": functools.partial(xor_values, m) for m in (2, 4, 8, 16)},
    "symmetric-3": functools.partial(regular_symmetric, 3),
    "symmetric-4": functools.partial(regular_symmetric, 4),
}


class TestJointGroup:
    def test_single_value_trivial(self):
        group, action = groups.generate_permutation_group([(0,)], space_size=1)
        const = variables.make_variable("c", [0], numeric_values=[1.0])
        ctx = variables.Context(1, action, (const,))
        pair = pairing.build_related_pair(ctx, const, const, (0,))
        joint = pairing.build_joint_group(pair, action)
        assert joint.group.order == 1

    def test_two_bit_order_eight(self, two_bit):
        joint = two_bit["system"].joint
        assert joint.group.order == 8
        assert groups.is_transitive(joint.action)
        assert not np.array_equal(joint.group.cayley, joint.group.cayley.T)

    def test_three_values_order_eighteen(self):
        ctx, pair, _, g_action = nine_point_setup()
        joint = pairing.build_joint_group(pair, g_action)
        assert joint.group.order == 18
        assert groups.is_transitive(joint.action)

    @given(transitive_free_actions())
    def test_joined_group_transitive_and_not_abelian(self, drawn):
        # the two facts `build_joint_group` proves instead of checking, for a
        # random transitive free G
        group, action = drawn
        m = action.space_size
        points = range(m * m)
        n = square_join(group, action)
        assert set(n.action.act[:, 0].tolist()) == set(points)
        assert np.array_equal(n.group.cayley, n.group.cayley.T) == (m == 1)
        assert n.group.order == (2 * m * m if m > 1 else 1)

    @pytest.mark.parametrize("case", REGULAR_ACTIONS)
    def test_equals_breadth_first_closure(self, case):
        # N in closed form is, element for element, the closure of the axis
        # copies and the swap: rows, generators, columns, embeddings, swap
        # element and the Cayley table filled from the columns
        group, action = REGULAR_ACTIONS[case]()
        joint = square_join(group, action)
        n_group, n_action, first, second, swap = closed_joint_group(group, action, 2 * 24**2)
        assert joint.group.generators == n_group.generators
        assert joint.group.rows.dtype == n_group.rows.dtype
        assert joint.group.columns.dtype == n_group.columns.dtype
        assert np.array_equal(joint.group.rows, n_group.rows)
        assert np.array_equal(joint.group.columns, n_group.columns)
        assert np.array_equal(joint.action.act, n_action.act)
        assert joint.action.space_size == n_action.space_size
        assert (joint.first_embed, joint.second_embed, joint.swap_element) == (first, second, swap)
        assert np.array_equal(joint.group.cayley, n_group.cayley)

    @pytest.mark.parametrize("m", [2, 3, 8, 22])
    def test_order_bound_as_the_closure_words_it(self, m):
        # |N| = 2 m^2 is one above the bound: the closure's message
        group, action = cyclic_values(m)
        with pytest.raises(SizeLimit) as closed:
            closed_joint_group(group, action, 2 * m * m - 1)
        with pytest.raises(SizeLimit, match="^closure exceeds order bound") as built:
            square_join(group, action, 2 * m * m - 1)
        assert str(built.value) == str(closed.value)
        assert square_join(group, action, 2 * m * m).group.order == 2 * m * m

    def test_order_bound_decided_before_rows(self):
        # at m = 40 the rows of N, 3200 of 1600 points, take 39 MiB; the
        # bound is decided from |N| before any of them, or G's table, exists
        group, action = cyclic_values(40)
        pair = square_pair(40)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit, match="^closure exceeds order bound 3199$"):
                pairing.build_joint_group(pair, action, 3199)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert "cayley" not in vars(group)

    def test_embeddings_commute(self, two_bit):
        joint = two_bit["system"].joint
        for a in joint.first_embed:
            for b in joint.second_embed:
                assert joint.group.cayley[a, b] == joint.group.cayley[b, a]

    def test_swap_conjugation_exchanges_copies(self, two_bit):
        joint = two_bit["system"].joint
        j = joint.swap_element
        for g_idx, n in enumerate(joint.first_embed):
            conj = joint.group.cayley[joint.group.cayley[j, n], j]
            assert conj == joint.second_embed[g_idx]


class TestSwapMatrix:
    def test_irreducible_gives_identity(self, qubit_rep):
        j = pairing.build_swap_matrix(qubit_rep)
        assert np.allclose(j, np.eye(2))

    def test_regular_z2_gives_sign_matrix(self):
        rep = reps.regular_representation(standard_group("cyclic", 2))
        j = pairing.build_swap_matrix(rep)
        assert np.allclose(j, np.diag([1.0, -1.0]), atol=1e-9)

    def test_trivial_plus_sign_gives_exchange(self):
        g = standard_group("cyclic", 2)
        rep = direct_sum(one_dim(g, [1, 1]), one_dim(g, [1, -1]))
        j = pairing.build_swap_matrix(rep)
        assert np.allclose(np.abs(j), [[0, 1], [1, 0]], atol=1e-9)

    def test_always_unitary_involution(self):
        for n in (2, 3, 4, 5):
            rep = reps.regular_representation(standard_group("cyclic", n))
            j = pairing.build_swap_matrix(rep)
            assert np.abs(j @ j - np.eye(n)).max() <= 1e-9
            assert np.abs(j @ j.conj().T - np.eye(n)).max() <= 1e-9


class TestJointRepresentation:
    def test_two_bit_matrices(self, two_bit):
        system = two_bit["system"]
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        seen = {
            tuple(np.round(m, 9).ravel()) for m in system.coherent.rep.matrices
        }
        expected = set()
        for m in (np.eye(2), x, z, x @ z):
            expected.add(tuple(np.round(m.astype(complex), 9).ravel()))
            expected.add(tuple(np.round(-m.astype(complex), 9).ravel()))
        assert seen == expected

    def test_corrupted_swap_rejected(self, two_bit):
        joint = two_bit["system"].joint
        base_rep = two_bit["base_rep"]
        bad_j = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NotWellDefined):
            pairing.build_joint_representation(joint, base_rep, bad_j)

    def test_non_unitary_involution_keeps_word_witness(self, two_bit):
        # the commutators are decided before unitarity, so the failing
        # extension is reported with its two words
        system = two_bit["system"]
        bad_j = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
        with pytest.raises(NotWellDefined) as exc:
            pairing.build_joint_representation(system.joint, two_bit["base_rep"], bad_j)
        assert (exc.value.element, exc.value.word_a, exc.value.word_b) == (4, (1, 0), (0, 1))

    @given(transitive_free_actions().filter(lambda drawn: drawn[0].order > 1),
           st.sampled_from(["commutant", "inversion", "random", "non-unitary"]),
           st.integers(0, 2**32 - 1))
    @example(regular_symmetric(3), "commutant", 0)
    @example(regular_symmetric(3), "inversion", 0)
    @example(regular_symmetric(3), "random", 0)
    @example(regular_symmetric(3), "non-unitary", 0)
    @example(regular_symmetric(4), "random", 0)
    @example(regular_symmetric(4), "non-unitary", 0)
    def test_relations_decide_as_the_table_scan(self, drawn, source, seed):
        # the relations against the full check of the stack the extension
        # builds, word by word: the row-major scan of the table for the first
        # failing pair, then unitarity. J is the one `build_swap_matrix`
        # reads off the commutant, the inversion, a random unitary
        # involution, or [[1, 1], [0, -1]] on two random coordinates with the
        # identity on the rest. On S4 the commutant's QR (13824 x 576) and,
        # for the inversion, which extends on every G as it turns left
        # translations into right ones, the scan of all 1152^2 pairs take
        # seconds, so those two are tried on groups up to order 12
        group, action = drawn
        hypothesis.assume(source in ("random", "non-unitary") or group.order <= 12)
        joint, base_rep = square_join(group, action), reps.regular_representation(group)
        d = base_rep.dim
        rng = np.random.default_rng(seed)
        if source == "commutant":
            swap = pairing.build_swap_matrix(base_rep)
        elif source == "inversion":
            swap = inversion_swap(base_rep)
        elif source == "random":
            swap = random_unitary_involution(d, rng)
        else:
            swap = np.eye(d, dtype=complex)
            coordinates = rng.choice(d, 2, replace=False)
            swap[np.ix_(coordinates, coordinates)] = [[1, 1], [0, -1]]
        outcome = extension_outcome(joint, base_rep, swap)
        hypothesis.event(f"|G|={group.order} {source} {'fails' if outcome else 'extends'}")
        assert outcome == reference_outcome(joint, base_rep, swap)

    def test_overflowing_commutator_fails(self, two_bit):
        # [[1, x], [0, -1]] squares to I for every x; at x = 1e300 the
        # commutators overflow to inf and NaN, and a NaN residual fails
        bad_j = np.array([[1.0, 1e300], [0.0, -1.0]], dtype=complex)
        with pytest.raises(NotWellDefined) as exc:
            pairing.build_joint_representation(two_bit["system"].joint, two_bit["base_rep"], bad_j)
        assert (exc.value.element, exc.value.word_a, exc.value.word_b) == (4, (1, 0), (0, 1))

    def test_non_unitary_swap_refused(self, two_bit):
        # J anticommutes with the flip X of the regular representation of
        # Z_2, so J X J = -X commutes with X and every relation holds; J is
        # an involution, cosh^2 - sinh^2 = 1, but not unitary
        joint = two_bit["system"].joint
        c, s = np.cosh(1.0), np.sinh(1.0)
        bad_j = np.array([[c, s], [-s, -c]], dtype=complex)
        with pytest.raises(ValueError, match=f"matrix for element {joint.swap_element} is not"):
            pairing.build_joint_representation(joint, two_bit["base_rep"], bad_j)
        assert reference_outcome(joint, two_bit["base_rep"], bad_j) == "not unitary"

    def test_three_value_join_not_well_defined(self):
        ctx, pair, g_group, g_action = nine_point_setup()
        joint = pairing.build_joint_group(pair, g_action)
        base_rep = reps.regular_representation(g_group)
        j = pairing.build_swap_matrix(base_rep)
        with pytest.raises(NotWellDefined) as exc:
            pairing.build_joint_representation(joint, base_rep, j)
        assert exc.value.word_a != exc.value.word_b

    def test_irreducibility_with_trivial_inputs(self, two_bit):
        joint = two_bit["system"].joint
        g = two_bit["g_group"]
        flat = direct_sum(one_dim(g, [1, 1]), one_dim(g, [1, 1]))
        joint_rep = pairing.build_joint_representation(joint, flat, np.eye(2, dtype=complex))
        assert reps.commutant_dimension(joint_rep) == 4

    def test_two_bit_irreducible(self, two_bit):
        system = two_bit["system"]
        assert reps.commutant_dimension(system.coherent.rep) == 1

    def test_trivial_joined_group_without_generators(self):
        group, action = groups.generate_permutation_group([(0,)], space_size=1)
        const = variables.make_variable("c", [0], numeric_values=[1.0])
        pair = pairing.build_related_pair(variables.Context(1, action, (const,)),
                                          const, const, (0,))
        system = joint_system(pair, group, action)
        assert system.joint.group.generators == ()
        assert reps.character_norm(system.coherent.rep) == 1.0
        # no element is sent to J, so a non-unitary involution is not refused
        c, s = np.cosh(1.0), np.sinh(1.0)
        flat = direct_sum(one_dim(group, [1]), one_dim(group, [1]))
        joined = pairing.build_joint_representation(system.joint, flat,
                                                     np.array([[c, s], [-s, -c]]))
        assert np.array_equal(joined.matrices, np.eye(2)[None])

    def test_tolerance_reaches_joint_system(self, two_bit):
        base_rep = reps.regular_representation(two_bit["g_group"], 1e-6)
        system = joint_system(two_bit["pair"], two_bit["g_group"], two_bit["g_action"], base_rep)
        assert system.tolerance == 1e-6


class TestCosetStructure:
    def test_trivial_single_label(self):
        group, action = groups.generate_permutation_group([(0,)], space_size=1)
        const = variables.make_variable("c", [0], numeric_values=[1.0])
        ctx = variables.Context(1, action, (const,))
        pair = pairing.build_related_pair(ctx, const, const, (0,))
        system = joint_system(pair, group, action)
        assert len(system.coherent.cosets) == 1
        assert system.x_index == (0,) and system.y_index == (0,)

    def test_two_bit_structure(self, two_bit):
        system = two_bit["system"]
        assert system.coherent.isotropy.order == 4
        assert len(system.coherent.cosets) == 2
        assert list(zip(system.x_index, system.y_index)) == [(0, 0), (1, 1)]
        assert system.coherent.basis_index.tolist() == [0, 1]

    def test_generic_fiducial_fails_labeling(self, two_bit, monkeypatch):
        # the isotropy and cosets of a fiducial that is no basis vector, from
        # the dense reference, given to the labeling in place of e_0's
        system = two_bit["system"]
        rep = system.coherent.rep
        psi = np.array([2.0, 1.0], dtype=complex) / np.sqrt(5)
        ref = reference_system(rep.group, rep.matrices, rep.tolerance, psi)
        generic = coherent.CoherentStateSystem(
            rep, groups.subgroup(rep.group, ref.members), ref.phases, ref.cosets, ref.index)
        monkeypatch.setattr(coherent, "build_coherent_system", lambda *args: generic)
        with pytest.raises(CosetLabelingError):
            pairing.joint_coset_structure(system.joint, rep, 0)

    def coset_states(self, system):
        """U(r) e_0 for each coset representative r, by the dense product."""
        rep = system.coherent.rep
        return np.stack([rep.matrices[r] @ np.eye(rep.dim)[0]
                         for r in system.coherent.cosets.representatives])

    def test_value_state_vectors_distinct(self, two_bit):
        vectors = self.coset_states(two_bit["system"])
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert np.abs(vectors[i] - vectors[j]).max() > 1e-9

    def test_coset_states_pairwise_non_parallel(self, two_bit):
        states = self.coset_states(two_bit["system"])
        overlaps = np.abs(states.conj() @ states.T)
        assert overlaps[~np.eye(len(states), dtype=bool)].max() < 1 - 1e-9

    @given(st.sampled_from(["two_bit", "cyclic_m1", "cyclic_m2", "xor_m4"]),
           st.floats(0, 0.5, exclude_min=True), st.integers(0, 40))
    def test_labels_imply_distinct_basis_states(self, document, tolerance, fiducial_index):
        # why `verify` reports no injectivity or resolution of its own: once
        # the labels pass, each coset's leader is a first-axis copy F_a and its
        # state a basis vector, one per coset, at any tolerance up to 1/2.
        # XOR on two values is the shift of cyclic_m2
        path = TWO_BIT if document == "two_bit" else DOCS / f"{document}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["options"] = {"tolerance": tolerance, "fiducial_index": fiducial_index}
        label, systems = pairing.joint_coset_structure, []

        def spy(*args):
            systems.append(label(*args))
            return systems[-1]

        with mock.patch.object(pairing, "joint_coset_structure", spy):
            cli.run_verify(cli.document_from_mapping(raw))
        for system in systems:
            states, m = system.coherent, system.joint.value_size
            assert max(states.cosets.representatives) < m
            assert sorted(states.basis_index.tolist()) == list(range(system.dim))
            assert (states.resolution.constant, states.resolution.residual) == (1.0, 0.0)


class TestJointOperators:
    def test_resolution_constant(self, two_bit):
        res = coherent.resolution_of_identity(two_bit["system"].coherent)
        assert res.ok
        assert res.constant == 1.0
        assert res.residual == 0.0

    def test_operators_are_diagonal_indicators(self, two_bit_operators):
        a_theta, a_xi = two_bit_operators
        assert np.abs(a_theta.matrix - np.diag([0.0, 1.0])).max() <= 1e-12
        assert np.abs(a_xi.matrix - np.diag([0.0, 1.0])).max() <= 1e-12

    def test_spectra_exactly_zero_one(self, two_bit_operators):
        for op in two_bit_operators:
            evals = np.linalg.eigvalsh(op.matrix)
            assert np.abs(np.sort(evals) - np.array([0.0, 1.0])).max() <= 1e-12

    def test_unit_theta_gives_identity(self, two_bit):
        a, _ = pairing.joint_operators(two_bit["system"], [1.0, 1.0], [0.0, 1.0])
        assert np.abs(a.matrix - np.eye(2)).max() <= 1e-12

    def test_zero_xi_gives_zero(self, two_bit):
        _, b = pairing.joint_operators(two_bit["system"], [0.0, 1.0], [0.0, 0.0])
        assert np.abs(b.matrix).max() == 0.0

    def test_marginals_sum_to_identity(self, two_bit):
        # the operators of the value indicators are the marginal projectors
        marginals = [pairing.joint_operators(two_bit["system"], e, e) for e in np.eye(2)]
        for axis in (0, 1):
            total = sum(ops[axis].matrix for ops in marginals)
            assert np.abs(total - np.eye(2)).max() <= 1e-9

    def test_degenerate_pair_commutes(self, two_bit_operators):
        a_theta, a_xi = two_bit_operators
        comm = a_theta.matrix @ a_xi.matrix - a_xi.matrix @ a_theta.matrix
        assert np.abs(comm).max() == 0.0


class TestCovariance:
    def test_records_cover_group(self, two_bit, two_bit_operators):
        system = two_bit["system"]
        records = pairing.covariance_records(
            system, two_bit_operators[0], two_bit["theta"].numeric())
        assert len(records) == system.joint.group.order

    def test_every_element_passes_or_is_obstructed(self, two_bit, two_bit_operators):
        system = two_bit["system"]
        records = pairing.covariance_records(
            system, two_bit_operators[0], two_bit["theta"].numeric())
        for rec in records:
            assert rec.ok or rec.obstructed

    def test_swap_transports_first_to_second(self, two_bit, two_bit_operators):
        system = two_bit["system"]
        a_theta, a_xi = two_bit_operators
        j = system.joint.swap_element
        w = system.coherent.rep.matrices[j]
        assert np.abs(w.conj().T @ a_theta.matrix @ w - a_xi.matrix).max() <= 1e-12

    def test_first_bit_flip_complements(self, two_bit, two_bit_operators):
        system = two_bit["system"]
        a_theta, _ = two_bit_operators
        n = system.joint.first_embed[1]  # nontrivial first-axis copy
        w = system.coherent.rep.matrices[n]
        moved = w.conj().T @ a_theta.matrix @ w
        assert np.abs(moved - (np.eye(2) - a_theta.matrix)).max() <= 1e-12

    def test_transported_operator_matches_value_motion(self, two_bit, two_bit_operators):
        system = two_bit["system"]
        records = pairing.covariance_records(
            system, two_bit_operators[0], two_bit["theta"].numeric())
        # the swap turns the first-axis grid variable into the second-axis one
        rec = records[system.joint.swap_element]
        assert rec.element == system.joint.swap_element
        assert rec.ok and rec.residual <= 1e-12

    def test_obstruction_is_scalar_collision(self, two_bit, two_bit_operators):
        system = two_bit["system"]
        records = pairing.covariance_records(
            system, two_bit_operators[0], two_bit["theta"].numeric())
        failing = [r for r in records if not r.ok]
        assert failing, "the worked example is known to have obstructed elements"
        for rec in failing:
            assert rec.obstructed
        # the simultaneous flip is represented by a scalar yet moves the values
        both = system.joint.group.cayley[system.joint.first_embed[1], system.joint.second_embed[1]]
        w = system.coherent.rep.matrices[both]
        assert np.abs(w + np.eye(2)).max() <= 1e-12


def word_products(joint, base_rep, swap_matrix, words):
    """The reference extension: for every element, the generator matrices
    multiplied left to right along its whole word, starting from I. The
    generators are the first-axis copies of G's elements 1..|G|-1, their
    second-axis copies, then the swap when there are two values or more."""
    moved = range(1, base_rep.group.order)
    gen_mats = [*(base_rep.matrices[g] for g in moved),
                *(swap_matrix @ base_rep.matrices[g] @ swap_matrix for g in moved),
                *([swap_matrix] if joint.value_size > 1 else [])]
    assert len(gen_mats) == len(joint.group.generators)
    mats = []
    for word in words:
        acc = np.eye(base_rep.dim, dtype=complex)
        for slot in word:
            acc = acc @ gen_mats[slot]
        mats.append(acc)
    return np.stack(mats)


def random_unitary_involution(d, rng):
    """V diag(+-1) V^dagger for a random unitary V and random signs."""
    v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (v * rng.choice([-1.0, 1.0], size=d)) @ v.conj().T


def extension_outcome(joint, base_rep, swap_matrix):
    """None when the extension is built, (element, word, word) when it is
    not well defined, "not unitary" when J is not."""
    try:
        pairing.build_joint_representation(joint, base_rep, swap_matrix)
    except NotWellDefined as exc:
        return exc.element, exc.word_a, exc.word_b
    except ValueError as exc:
        assert "is not unitary" in str(exc)
        return "not unitary"
    return None


def reference_outcome(joint, base_rep, swap_matrix):
    """The outcome the full check gives on the products along every word:
    the first failing pair (a, b) named by the element a*b, the words of a
    and of b joined, and the word of a*b."""
    words = groups.bfs_words(joint.group)
    verdict = reference_verdict(joint.group, word_products(joint, base_rep, swap_matrix, words),
                                base_rep.tolerance)
    if verdict is None or verdict == "not unitary":
        return verdict
    a, b = verdict
    c = int(joint.group.cayley[a, b])
    return c, words[a] + words[b], words[c]


def looped_classes(system):
    """The reference classes of matrices equal up to a unit scalar: each
    element against each earlier class leader in turn, one product and
    trace per pair. The leader of each element's class, its first member."""
    mats, d, tol = system.coherent.rep.matrices, system.dim, system.tolerance
    leaders, firsts = [], []
    for a in range(len(mats)):
        for r in firsts:
            prod = mats[a] @ mats[r].conj().T
            lam = np.trace(prod) / d
            if abs(abs(lam) - 1.0) < 1e-6 and np.abs(prod - lam * np.eye(d)).max() <= 10 * tol:
                leaders.append(r)
                break
        else:
            leaders.append(a)
            firsts.append(a)
    return leaders


def scalar_leaders(system):
    """The class leaders the covariance stage reads: the coset leaders of
    the scalar subgroup."""
    return groups.coset_leaders(system.joint.group,
                                pairing._scalar_elements(system.coherent.rep)).tolist()


def theta_operator(system, theta_values):
    """The first operator of a joint system for one value per value-set point."""
    return pairing.joint_operators(system, theta_values, theta_values)[0]


def looped_covariance(system, theta_values):
    """The reference stage: one moved table, axis, operator and sandwich
    product per element in turn. (element, residual, ok, obstructed) per
    element; a residual is ok at the tolerance times max(1, largest |value|)."""
    a_theta = theta_operator(system, theta_values)
    labels = (list(system.x_index), list(system.y_index))
    n, m = system.joint.group.order, system.joint.value_size
    act = system.joint.action.act
    theta_arr = np.asarray(theta_values, dtype=float)
    moved_tables = [theta_arr[act[t] // m] for t in range(n)]
    classes = looped_classes(system)
    obstructed_class = set()
    for ci in set(classes):
        tables = {tuple(moved_tables[t].tolist()) for t in range(n) if classes[t] == ci}
        if len(tables) > 1:
            obstructed_class.add(ci)
    records = []
    for t in range(n):
        w = system.coherent.rep.matrices[t]
        by_x = moved_tables[t].reshape(m, m)
        if np.all(by_x == by_x[:, :1]):
            values, axis = by_x[:, 0], 0
        elif np.all(by_x == by_x[:1, :]):
            values, axis = by_x[0, :], 1
        else:
            raise pairing.UndefinedTransport(
                f"moved variable does not factor through either axis for element {t}")
        a_moved = coherent.operator_from_variable(system.coherent, values[labels[axis]])
        residual = float(np.abs(w.conj().T @ a_theta.matrix @ w - a_moved.matrix).max())
        bound = system.tolerance * max(1.0, float(np.abs(theta_arr).max()))
        records.append((t, residual, residual <= bound, classes[t] in obstructed_class))
    return records


def assert_records_match(records, want):
    assert [(r.element, r.ok, r.obstructed) for r in records] == [(t, ok, o) for t, _, ok, o in want]
    got = np.array([r.residual for r in records])
    assert np.array_equal(got.view(np.uint64), np.array([w[1] for w in want]).view(np.uint64))


@functools.cache
def verified_systems():
    """{document: (system, first operator, theta values)} for every golden
    document whose `verify` reaches the covariance stage."""
    stage = pairing.covariance_records
    found = {}

    def spy(system, a_theta, theta_values):
        found[doc.stem] = (system, a_theta, theta_values)
        return stage(system, a_theta, theta_values)

    with mock.patch.object(pairing, "covariance_records", spy):
        for doc in [*GOLDEN_DOCS, TWO_BIT]:
            cli.run_verify(cli.parse_context(str(doc)))
    return found


class TestCovarianceAgainstLoop:
    def test_golden_documents(self):
        systems = verified_systems()
        assert {"two_bit", "cyclic_m2", "xor_m4", "two_bit_spin_suite"} <= set(systems)
        # the loop subtracts unscaled, which passes the float range at values
        # of ±1.7e308; TestLargeValues in test_cli.py covers that document
        for name, (system, a_theta, theta_values) in systems.items():
            if name == "two_bit_huge_values":
                continue
            assert_records_match(pairing.covariance_records(system, a_theta, theta_values),
                                 looped_covariance(system, theta_values))

    @given(st.sampled_from(["two_bit", "xor_m4"]), st.data())
    def test_random_values(self, document, data):
        # ties among the values decide which classes are obstructed
        system, _, _ = verified_systems()[document]
        value = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e6, 1e6))
        m = system.joint.value_size
        theta_values = data.draw(st.lists(value, min_size=m, max_size=m))
        a_theta = theta_operator(system, theta_values)
        assert_records_match(pairing.covariance_records(system, a_theta, theta_values),
                             looped_covariance(system, theta_values))

    @pytest.mark.parametrize("step", [groups.STEP_BYTES, 3 * 16 * 4 * 4, 1])
    def test_elements_in_blocks(self, step):
        # blocks of one element, of a few and of all give the same records
        system, a_theta, theta_values = verified_systems()["xor_m4"]
        with mock.patch.object(groups, "STEP_BYTES", step):
            records = pairing.covariance_records(system, a_theta, theta_values)
        assert_records_match(records, looped_covariance(system, theta_values))

    def test_operator_count_independent_of_joined_group_order(self, monkeypatch):
        built = []
        check = reps.Operator.__post_init__

        def counting(op):
            built.append(op)
            check(op)

        monkeypatch.setattr(reps.Operator, "__post_init__", counting)
        orders, counts = [], []
        for doc in (TWO_BIT, DOCS / "xor_m4.json"):
            built.clear()
            report = cli.run_verify(cli.parse_context(str(doc)))
            orders.append(next(c.detail for c in report.checks if c.cid == "joint-group[0]"))
            counts.append(len(built))
        assert "order=8" in orders[0] and "order=32" in orders[1]
        assert 0 < counts[0] == counts[1]

    def test_first_undefined_transport_named(self, two_bit):
        # a table that factors through neither axis, after one that does
        system = two_bit["system"]
        tables = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(pairing.UndefinedTransport, match="for element 1$"):
            pairing._axis_values(system, tables)

    def test_constant_table_takes_x_axis(self, two_bit):
        values, axes = pairing._axis_values(two_bit["system"], np.array([[2.0] * 4, [0, 1, 0, 1.0]]))
        assert axes.tolist() == [0, 1]
        assert values.tolist() == [[2.0, 2.0], [0.0, 1.0]]


class TestBatchedAgainstLoops:
    def test_golden_documents(self, monkeypatch):
        # every joined representation that `verify` builds for the golden
        # documents, against the loop
        extend = pairing.build_joint_representation
        seen = {"extensions": 0}

        def extend_spy(joint, base_rep, swap_matrix):
            rep = extend(joint, base_rep, swap_matrix)
            words = groups.bfs_words(joint.group)
            want = word_products(joint, base_rep, np.asarray(swap_matrix, dtype=complex), words)
            assert np.array_equal(rep.matrices.view(np.uint64), want.view(np.uint64))
            seen["extensions"] += 1
            return rep

        monkeypatch.setattr(pairing, "build_joint_representation", extend_spy)
        for doc in GOLDEN_DOCS:
            cli.run_verify(cli.parse_context(str(doc)))
        assert seen["extensions"] >= 5

    def test_golden_classes(self):
        # the classes of every system that reaches the covariance stage
        systems = verified_systems()
        assert len(systems) >= 5
        for system, _, _ in systems.values():
            assert scalar_leaders(system) == looped_classes(system)

    @pytest.mark.parametrize("step", [groups.STEP_BYTES, 3 * 16 * 4, 1])
    def test_classes_in_blocks(self, two_bit, step):
        # blocks of one element, of a few and of all give the same classes
        system = two_bit["system"]
        with mock.patch.object(groups, "STEP_BYTES", step):
            assert scalar_leaders(system) == looped_classes(system)
        assert len(set(looped_classes(system))) == 4


def product_document(m, moves):
    """A document on the m x m value square, point (x, y) at x*m + y: K moves
    each axis by the given permutations of the values, the variables read
    x and y, and k is the swap (x, y) -> (y, x)."""
    size = m * m
    gens = [[move[p // m] * m + p % m for p in range(size)] for move in moves]
    gens += [[(p // m) * m + move[p % m] for p in range(size)] for move in moves]
    values = [float(x) for x in range(m)]
    return {
        "schema_version": "1",
        "phi_space": {"size": size},
        "group_K": {"generators": gens},
        "variables": [{"name": "a", "values": [p // m for p in range(size)], "numeric_values": values},
                      {"name": "b", "values": [p % m for p in range(size)], "numeric_values": values}],
        "maximal_family": ["a", "b"],
        "pairs": [{"theta": "a", "xi": "b", "k": [(p % m) * m + p // m for p in range(size)]}],
    }


def inversion_swap(base_rep):
    """The swap J e_g = e_(g^-1) on G's regular representation."""
    j = np.zeros((base_rep.dim, base_rep.dim), dtype=complex)
    inverse = (base_rep.group.cayley == base_rep.group.identity).argmax(axis=1)
    j[inverse, np.arange(base_rep.dim)] = 1.0
    return j


# (moves, commutant dimension): the cyclic shift on m values, where G = Z_m,
# and the XOR by each power of two below m, where G = Z_2^k. The dimension is
# the number of orbitals, (m + #{g : g^2 = e}) / 2: floor(m/2) + 1 on Z_m
# and m on Z_2^k.
INVERSION_RUNGS = {
    **{f"cyclic-m{m}": ([[(x + 1) % m for x in range(m)]], m // 2 + 1) for m in range(2, 13)},
    **{f"xor-m{m}": ([[x ^ (1 << i) for x in range(m)] for i in range(m.bit_length() - 1)], m)
       for m in (2, 4, 8)},
}


class TestInversionRungs:
    """The product documents with the inversion as the swap matrix, in
    place of the one `build_swap_matrix` reads off the commutant: every
    rung extends and labels its cosets, so the later stages run at scale."""

    @pytest.mark.parametrize("rung", INVERSION_RUNGS)
    def test_rung(self, rung, monkeypatch):
        moves, dim = INVERSION_RUNGS[rung]
        m = len(moves[0])
        label, systems = pairing.joint_coset_structure, []

        def label_spy(*args):
            systems.append(label(*args))
            return systems[-1]

        monkeypatch.setattr(pairing, "build_swap_matrix", inversion_swap)
        monkeypatch.setattr(pairing, "joint_coset_structure", label_spy)
        report = cli.run_verify(cli.document_from_mapping(product_document(m, moves)))
        checks = {c.cid: c for c in report.checks}
        assert checks["well-defined-extension[0]"].status == "pass"
        assert checks["coset-labels[0]"].status == "pass"
        assert checks["irreducibility[0]"].detail == f"commutant_dim={dim}"
        system, = systems
        rep = system.coherent.rep
        if rep.group.order <= 128:
            assert len(reps.commutant_basis(rep)) == dim
        assert scalar_leaders(system) == looped_classes(system)
        if m <= 6:
            values = [float(x) for x in range(m)]
            assert_records_match(
                pairing.covariance_records(system, theta_operator(system, values), values),
                looped_covariance(system, values))


class TestExplicitTransformations:
    def test_non_factoring_table_rejected(self, two_bit):
        system = two_bit["system"]
        four_cycle = [1, 2, 3, 0]
        theta = np.asarray(two_bit["theta"].numeric())
        table = theta[np.asarray(four_cycle) // system.joint.value_size]
        with pytest.raises(pairing.UndefinedTransport):
            pairing._axis_values(system, table[None])
