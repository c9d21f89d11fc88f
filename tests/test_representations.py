import dataclasses
import functools
import gc
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvhilbert import cli, coherent, groups, pairing, representations as reps
from cvhilbert.errors import IrreducibleInput, SizeLimit

from conftest import (GroupMismatch, direct_sum, nine_point_setup, stack_representation,
                      standard_action, standard_group)


def z(n):
    return standard_group("cyclic", n)


def one_dim(group, phases):
    return stack_representation(group, np.array([[[p]] for p in phases], dtype=complex))


def assert_commutant_dimension(rep, expected):
    """Both methods: the character norm and the size of the SVD basis."""
    assert reps.commutant_dimension(rep) == len(reps.commutant_basis(rep)) == expected
    assert abs(reps.character_norm(rep) - expected) < 1e-9


def joined_arguments(document):
    """The (joint, base representation, swap matrix) that `verify` extends
    for a golden document."""
    seen = []
    original = pairing.build_joint_representation

    def spy(*args):
        seen.append(args)
        return original(*args)

    path = Path(__file__).resolve().parent / "golden" / "docs" / document
    with mock.patch.object(pairing, "build_joint_representation", spy):
        cli.run_verify(cli.parse_context(str(path)))
    return seen[0]


def joined_representation(document):
    """The joined representation `verify` builds for a golden document."""
    return pairing.build_joint_representation(*joined_arguments(document))


class TestConstructions:
    def test_trivial_group_permutation_rep(self):
        _, act = groups.generate_permutation_group([], space_size=2)
        rep = reps.permutation_representation(act)
        assert np.allclose(rep.matrices[0], np.eye(2))

    def test_swap_rep(self):
        _, act = groups.generate_permutation_group([[0, 1], [1, 0]])
        rep = reps.permutation_representation(act)
        assert np.allclose(rep.matrices[1], [[0, 1], [1, 0]])

    def test_s3_natural_is_valid(self):
        act = standard_action("symmetric", 3)   # S3 on its three points
        rep = reps.permutation_representation(act)
        # the verified action is the check; spot-check one product
        a, b = 2, 4
        assert np.allclose(rep.matrices[act.group.cayley[a, b]], rep.matrices[a] @ rep.matrices[b])

    def test_regular_rep_dims(self):
        for n in (1, 2, 3):
            rep = reps.regular_representation(z(n))
            assert rep.dim == n

    def test_regular_z3_shift_matrices(self):
        rep = reps.regular_representation(z(3))
        e1 = np.zeros(3)
        e1[0] = 1
        # generator translates the basis cyclically
        moved = rep.matrices[1] @ e1
        assert np.allclose(moved, [0, 1, 0])

    def test_bad_homomorphism_rejected(self):
        # a stack is made only by the builder of the joined representation,
        # which decides the extension first; a call without its token is
        # refused, whatever the stack
        g = z(2)
        mats = np.stack([np.eye(2, dtype=complex),
                         np.array([[0, 1j], [1j, 0]])])
        with pytest.raises(TypeError, match="made only by"):
            reps.UnitaryRepresentation(g, 2, mats)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_one_dimensional_z3_refused(self, bad):
        # the trivial representation of Z_3 on C^1 joined with a non-finite
        # J: a NaN passes every comparison written residual > tolerance, so
        # J is refused before any product is taken
        _, pair, g_group, g_action = nine_point_setup()
        joint = pairing.build_joint_group(pair, g_action)
        with mock.patch.object(pairing, "_first_violation") as scan:
            with pytest.raises(ValueError, match="swap matrix has a non-finite entry"):
                pairing.build_joint_representation(joint, one_dim(g_group, [1, 1, 1]),
                                                   np.array([[bad]]))
        assert not scan.called

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_joined_stack_refused(self, bad):
        joint, base_rep, swap = joined_arguments("xor_m4.json")
        swap = swap.copy()
        swap[0, -1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pairing.build_joint_representation(joint, base_rep, swap)


def zero_one_stack(table, m):
    """The 0/1 matrices of the functions in the rows of an (n, m) table."""
    n = len(table)
    mats = np.zeros((n, m, m), dtype=complex)
    mats[np.arange(n)[:, None], table, np.arange(m)] = 1.0
    return mats


# Valid actions: regular actions and S3 on three points.
ACTIONS = [("cyclic", 4), ("dihedral", 3), ("symmetric", 3), "s3-natural"]


@functools.cache
def _action(source):
    if source == "s3-natural":
        return standard_action("symmetric", 3)
    return groups.regular_action(standard_group(*source))


@st.composite
def random_actions(draw):
    """The action of the group one or two random permutations of up to five
    points generate, on those points."""
    m = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=2))
    return groups.generate_permutation_group([tuple(g) for g in gens], space_size=m)[1]


def outcome(call):
    """(orbit, isotropy members, phases) of `coherent._orbit_isotropy`, or
    (None, exception type, message) when it raises."""
    try:
        orbit, sub, phases = call()
    except ValueError as exc:
        return None, type(exc), str(exc)
    return orbit, sub.members, phases


class TestPermutationTables:
    @settings(max_examples=100)
    @given(st.sampled_from(ACTIONS).map(_action) | random_actions(),
           st.sampled_from([reps.DEFAULT_TOLERANCE, 1.0, 1.5]), st.booleans(), st.data())
    def test_table_backed_equals_stack_built_by_hand(self, action, tol, basis, data):
        # the representation that holds a verified action against the 0/1
        # stack of its table built by hand and read back off: the stack, the
        # character norm and the orbit of a fiducial
        group, m = action.group, action.space_size
        built = [reps.permutation_representation(action, tol),
                 stack_representation(group, zero_one_stack(action.act, m), tol)]
        held, by_hand = built
        assert "matrices" not in vars(held)
        assert np.array_equal(held.matrices.view(np.uint64), by_hand.matrices.view(np.uint64))
        assert not held.matrices.flags.writeable
        assert reps.character_norm(held) == reps.character_norm(by_hand)
        if basis:
            fiducial = np.eye(m, dtype=complex)[data.draw(st.integers(0, m - 1))]
        else:
            parts = data.draw(st.lists(st.floats(-1, 1), min_size=2 * m, max_size=2 * m))
            fiducial = np.array(parts[:m]) + 1j * np.array(parts[m:])
            if np.linalg.norm(fiducial) < 0.1:
                fiducial[0] = 1.0
            fiducial /= np.linalg.norm(fiducial)
        orbits = [outcome(lambda: coherent._orbit_isotropy(rep, fiducial)) for rep in built]
        assert orbits[0][1:] == orbits[1][1:]
        assert (orbits[0][0] is None) == (orbits[1][0] is None)
        if orbits[0][0] is not None:
            assert np.array_equal(*(o[0] for o in orbits))


class TestHeldAction:
    """A permutation representation holds a verified action, not a table."""

    def test_integer_table_refused(self):
        # U(e) would be the swap: an integer table is not a verified action,
        # and a call without the builders' token is refused
        with pytest.raises(TypeError, match="made only by"):
            reps.UnitaryRepresentation(z(2), 2, np.array([[1, 0], [0, 1]]))

    @pytest.mark.parametrize("action", [lambda: groups.regular_action(z(2)),
                                        lambda: groups.regular_action(z(3))],
                             ids=["same-order", "other-order"])
    def test_action_of_another_group_refused(self, action):
        with pytest.raises(ValueError, match="not one of this group"):
            reps.UnitaryRepresentation(z(2), 2, action(), reps.DEFAULT_TOLERANCE, reps._BUILT)

    def test_copy_with_another_stack_refused(self):
        # the token is an init-only field, so a copy does not carry it over
        rep = reps.regular_representation(z(2))
        with pytest.raises(TypeError, match="made only by"):
            dataclasses.replace(rep, source=np.stack([np.eye(2, dtype=complex)] * 2))

    def test_group_freed_without_the_cycle_collector(self):
        # the representation, its action and its group form no reference
        # cycle, so dropping them frees the group at once
        gc.disable()
        try:
            group = standard_group("symmetric", 3)
            rep = reps.regular_representation(group)
            assert reps.character_norm(rep) == 6.0
            freed = weakref.ref(group)
            del group, rep
            assert freed() is None
        finally:
            gc.enable()


class TestCommutant:
    def test_one_dimensional(self):
        rep = one_dim(z(3), [1, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
        assert reps.commutant_dimension(rep) == 1
        assert reps.is_irreducible(rep)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_regular_cyclic(self, n):
        rep = reps.regular_representation(z(n))
        assert_commutant_dimension(rep, n)
        assert reps.is_irreducible(rep) == (n == 1)

    def test_regular_s3(self):
        # two one-dimensional irreducibles once, the two-dimensional one twice
        rep = reps.regular_representation(standard_group("symmetric", 3))
        assert_commutant_dimension(rep, 1 + 1 + 2**2)

    def test_s3_natural_two_blocks(self):
        rep = reps.permutation_representation(standard_action("symmetric", 3))
        assert_commutant_dimension(rep, 2)

    def test_s4_natural_two_blocks(self):
        assert_commutant_dimension(reps.permutation_representation(standard_action("symmetric", 4)), 2)

    def test_qubit_rep_irreducible(self, qubit_rep):
        # the joined representation of the two-bit document
        assert reps.is_irreducible(qubit_rep)
        assert_commutant_dimension(qubit_rep, 1)

    @pytest.mark.parametrize("document, expected", [("xor_m4.json", 3), ("cyclic_m6.json", 5),
                                                    ("cyclic_m8.json", 7)])
    def test_joined_representations(self, document, expected):
        # the dimensions the golden reports print, from the character norm
        assert_commutant_dimension(joined_representation(document), expected)

    def test_double_copy_dimension(self):
        g = z(2)
        sign = one_dim(g, [1, -1])
        assert_commutant_dimension(direct_sum(sign, sign), 4)

    def test_inequivalent_sum_dimension(self):
        g = z(2)
        triv = one_dim(g, [1, 1])
        sign = one_dim(g, [1, -1])
        assert_commutant_dimension(direct_sum(triv, sign), 2)

    def test_commutant_elements_commute(self):
        rep = reps.regular_representation(z(4))
        for c in reps.commutant_basis(rep):
            for u in rep.matrices:
                assert np.abs(c @ u - u @ c).max() < 1e-9

    def test_size_limit_before_allocation(self):
        # 32 blocks of 32^2 x 32^2 complex entries: 512 MiB
        with pytest.raises(SizeLimit, match="512 MiB"):
            reps.commutant_basis(reps.regular_representation(z(32)))

    def test_tolerance_reaches_regular_representation(self):
        assert reps.regular_representation(z(3), 1e-6).tolerance == 1e-6


def kron_system(rep):
    """The reference commutator system: one `np.kron` pair per element."""
    eye = np.eye(rep.dim)
    return np.concatenate([np.kron(u, eye) - np.kron(eye, u.T) for u in rep.matrices])


# Representations whose commutator systems are compared with the kron loop:
# 0/1 stacks, complex phases, a direct sum and the joined representations of
# two golden documents, whose products carry signed zeros.
SYSTEMS = {
    "regular Z2": lambda: reps.regular_representation(z(2)),
    "regular Z7": lambda: reps.regular_representation(z(7)),
    "regular S3": lambda: reps.regular_representation(standard_group("symmetric", 3)),
    "phases Z4": lambda: one_dim(z(4), [1, 1j, -1, -1j]),
    "sum Z3": lambda g=z(3): direct_sum(
        reps.regular_representation(g), one_dim(g, [1, np.exp(2j * np.pi / 3),
                                                    np.exp(-2j * np.pi / 3)])),
    "joined xor m4": lambda: joined_representation("xor_m4.json"),
    "joined cyclic m6": lambda: joined_representation("cyclic_m6.json"),
}


class TestCommutantSystem:
    @pytest.mark.parametrize("step", [groups.STEP_BYTES, 3 * 16 * 7**4, 1])
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_system_matches_kron_loop(self, name, step, monkeypatch):
        # blocks of one element, of a few and of all fill the QR input bit
        # for bit as the loop does, signed zeros included
        rep = SYSTEMS[name]()
        seen = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            seen.append(a.copy())
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        monkeypatch.setattr(groups, "STEP_BYTES", step)
        reps.commutant_basis(rep)
        want = kron_system(rep)
        assert seen[0].shape == want.shape
        assert np.array_equal(seen[0].view(np.uint64), want.view(np.uint64))

    def test_bound_checked_before_matrices_read(self, monkeypatch):
        monkeypatch.setattr(reps, "COMMUTANT_BYTE_LIMIT", 16 * 2 * 2**4 - 1)
        rep = reps.regular_representation(z(2))
        with pytest.raises(SizeLimit, match="commutant system of 8x4"):
            reps.commutant_basis(rep)
        assert "matrices" not in vars(rep)


def reference_commutant_basis(rep):
    """The null space from the thin SVD of the whole system, with the rank
    rule of `commutant_basis`."""
    _, sigma, vh = np.linalg.svd(kron_system(rep), full_matrices=False)
    if sigma[0] == 0.0:
        null_rows = vh
    else:
        null_rows = vh[int(np.sum(sigma > rep.tolerance * float(sigma[0]))):]
    return [row.conj().reshape(rep.dim, rep.dim) for row in null_rows]


# Representations beyond SYSTEMS whose bases are compared with the SVD of the
# whole system: the regular ladder, the base representation of the XOR-product
# document with m = 8, and groups of order one, whose systems are all zeros.
BASES = {
    **SYSTEMS,
    **{f"regular Z{m}": lambda m=m: reps.regular_representation(z(m)) for m in range(1, 13)},
    "base xor m8": lambda: joined_arguments("xor_m8.json")[1],
    "trivial on 2 points": lambda: reps.permutation_representation(
        groups.generate_permutation_group([], space_size=2)[1]),
}


class TestCommutantSecondMethod:
    @pytest.mark.parametrize("name", list(BASES))
    def test_basis_matches_svd_of_whole_system(self, name):
        # LAPACK factors a tall system before its SVD and builds the right
        # singular vectors from R alone, so the basis is the same bit for bit
        rep = BASES[name]()
        got, want = reps.commutant_basis(rep), reference_commutant_basis(rep)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestStackBound:
    def test_regular_z512_refused_before_allocation(self):
        # 512 matrices of 512x512 complex entries: 2 GiB; the rotations of
        # the 512-gon, closed from the rotation by one, are the regular action
        # of Z_512. The representation is held as its action, and its stack
        # is refused when first read
        _, action = groups.generate_permutation_group([(np.arange(512) + 1) % 512])
        rep = reps.permutation_representation(action)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit, match="2048 MiB, above the 256 MiB bound"):
                rep.matrices
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_direct_sum_refused(self, monkeypatch):
        # two 1x1 matrices stack 32 bytes, their sum's 2x2 ones 128
        monkeypatch.setattr(reps, "REPRESENTATION_BYTE_LIMIT", 64)
        sign = one_dim(z(2), [1, -1])
        with pytest.raises(SizeLimit, match="2 matrices of 2x2"):
            direct_sum(sign, sign)


class TestSplit:
    def test_regular_z2_eigenvectors(self):
        rep = reps.regular_representation(z(2))
        b0, b1 = reps.invariant_subspace_split(rep)
        vecs = np.abs(np.column_stack([b0[:, 0], b1[:, 0]]))
        expect = np.full((2, 2), 1 / np.sqrt(2))
        assert np.allclose(vecs, expect, atol=1e-12)

    def test_s3_constant_block(self):
        rep = reps.permutation_representation(standard_action("symmetric", 3))
        b0, b1 = reps.invariant_subspace_split(rep)
        dims = sorted([b0.shape[1], b1.shape[1]])
        assert dims == [1, 2]
        constant = min((b0, b1), key=lambda b: b.shape[1])
        assert np.allclose(np.abs(constant[:, 0]), np.full(3, 1 / np.sqrt(3)), atol=1e-9)

    def test_block_structure_of_double_sum(self):
        g = z(2)
        triv = one_dim(g, [1, 1])
        rep = direct_sum(triv, triv)
        b0, b1 = reps.invariant_subspace_split(rep)
        assert b0.shape[1] + b1.shape[1] <= 2
        for cols in (b0, b1):
            proj = cols @ cols.conj().T
            for u in rep.matrices:
                assert np.abs(u @ proj - proj @ u).max() < 1e-9

    def test_projector_commutes_property(self):
        rep = reps.regular_representation(standard_group("dihedral", 3))
        b0, b1 = reps.invariant_subspace_split(rep)
        proj = b0 @ b0.conj().T
        for u in rep.matrices:
            assert np.abs(u @ proj - proj @ u).max() <= 1e-9

    def test_irreducible_input_rejected(self, qubit_rep):
        with pytest.raises(IrreducibleInput):
            reps.invariant_subspace_split(qubit_rep)

    def test_non_invariant_split_refused(self, monkeypatch):
        # the first basis vector of C^3 spans no subspace invariant under the
        # shifts of Z_3
        eigh = reps._clustered_eigh

        def turned(herm, tolerance):
            evals, _, clusters, scale, order = eigh(herm, tolerance)
            return evals, np.eye(len(evals), dtype=complex), clusters, scale, order

        monkeypatch.setattr(reps, "_clustered_eigh", turned)
        with pytest.raises(IrreducibleInput, match="not invariant"):
            reps.invariant_subspace_split(reps.regular_representation(z(3)))


class TestDirectSum:
    def test_trivial_sum(self):
        g = z(2)
        triv = one_dim(g, [1, 1])
        rep = direct_sum(triv, triv)
        assert rep.dim == 2
        assert np.allclose(rep.matrices[1], np.eye(2))

    def test_sign_plus_trivial(self):
        g = z(2)
        triv = one_dim(g, [1, 1])
        sign = one_dim(g, [1, -1])
        rep = direct_sum(sign, triv)
        assert np.allclose(rep.matrices[1], np.diag([-1, 1]))

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            direct_sum(one_dim(z(2), [1, 1]), one_dim(z(3), [1, 1, 1]))


@given(st.integers(min_value=1, max_value=5))
def test_integer_matrix_reps_are_exact(n):
    rep = reps.regular_representation(z(n))
    cay = rep.group.cayley
    for a in range(n):
        for b in range(n):
            assert np.abs(rep.matrices[cay[a, b]] - rep.matrices[a] @ rep.matrices[b]).max() == 0.0
