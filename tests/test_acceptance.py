"""Acceptance suite: one test per release criterion, one printed line each.

Where a criterion admits two readings because the underlying construction
cannot satisfy both (documented in the project notes), the implemented
reading is stated in the criterion line.
"""

import time
from pathlib import Path

import numpy as np

from cvhilbert import cli, coherent, groups, pairing, representations as reps
from cvhilbert import spectra, spin, variables
from cvhilbert.errors import NoResolution

from conftest import (circle_system, gram_resolution, reference_system, standard_action,
                      standard_group)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TWO_BIT = str(FIXTURES / "two_bit.json")
CORRUPTED = str(FIXTURES / "two_bit_corrupted.json")

CATALOGUE = [
    ("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5), ("cyclic", 6),
    ("dihedral", 3), ("dihedral", 4), ("symmetric", 3), ("symmetric", 4),
]


def announce(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_group_action_suites():
    start = time.perf_counter()
    for kind, n in CATALOGUE:
        g = standard_group(kind, n)
        act = groups.regular_action(g)     # builders verify all axioms
        for a in range(g.order):
            members = {g.identity}
            x = a
            while x != g.identity:
                members.add(x)
                x = int(g.cayley[x, a])
            sub = groups.subgroup(g, members)
            assert len(groups.left_cosets(g, sub)) * sub.order == g.order
        for p in range(act.space_size):
            orbit = set(act.act[:, p].tolist())
            assert len(orbit) * groups.isotropy_subgroup(act, p).order == g.order
    elapsed = time.perf_counter() - start
    announce(1, elapsed < 1.0,
             f"axioms, coset counting and orbit-stabilizer hold on the catalogue "
             f"({elapsed:.3f}s)")


def test_criterion_2_abelian_obstruction():
    ok = True
    for n in range(2, 7):
        rep = reps.regular_representation(standard_group("cyclic", n))
        ok &= reps.commutant_dimension(rep) == n
        ok &= not reps.is_irreducible(rep)
    announce(2, ok, "regular cyclic representations have commutant dimension n "
                    "and are never irreducible for n >= 2")


def test_criterion_3_resolution_of_identity(qubit_rep):
    # a random fiducial's states come from the dense reference, as no
    # command builds them. A basis fiducial's system resolves the identity
    # exactly when its states are all d basis vectors: its operators are
    # built then, and refused otherwise
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        ref = reference_system(qubit_rep.group, qubit_rep.matrices, qubit_rep.tolerance, v)
        worst = max(worst, gram_resolution(ref.states)[1])
    reducible = reps.regular_representation(standard_group("cyclic", 2))
    ref = reference_system(reducible.group, reducible.matrices, reducible.tolerance,
                           np.array([2.0, 1.0]) / np.sqrt(5))
    residual = gram_resolution(ref.states)[1]
    # both basis fiducials of the qubit, and that of D3 on the triangle and
    # two more points, an action that is not transitive
    natural = reps.permutation_representation(standard_action("dihedral", 3))
    rule = []
    for rep, f in ((qubit_rep, 0), (qubit_rep, 1), (natural, 0)):
        system = coherent.build_coherent_system(rep, f)
        states = reference_system(rep.group, rep.matrices, rep.tolerance, np.eye(rep.dim)[f]).states
        try:
            coherent.operator_from_variable(system, np.ones(len(system.cosets)))
            built = True
        except NoResolution:
            built = False
        rule.append((len(system.basis_index) == rep.dim,
                     gram_resolution(states) == (1.0, 0.0), built))
    announce(3, worst <= 1e-9 and residual > 1e-9
             and rule == [(True, True, True)] * 2 + [(False, False, False)],
             f"ten random fiducials resolve the identity on the irreducible two-dimensional "
             f"system (worst residual {worst:.2e}), and a generic fiducial of the reducible "
             f"fixture does not (residual {residual:.2e}); a basis fiducial's operators are "
             f"built exactly when its states are the d basis vectors, which resolve the "
             f"identity with constant 1 and residual 0: both of the qubit's are, and the "
             f"intransitive action's {len(system.cosets)} states of {natural.dim} raise "
             f"NoResolution")


def test_criterion_4_two_bit_end_to_end(two_bit, two_bit_operators):
    start = time.perf_counter()
    system = two_bit["system"]
    joint = system.joint
    assert joint.group.order == 8
    # F_g S_h W^s sends (0, 0) to (g . 0, h . 0): every point of the 2 x 2 square
    zero, triples = joint.value_action.images(0), joint.group.triples
    assert set(zip(zero[triples.g].tolist(), zero[triples.h].tolist())) == {
        (x, y) for x in range(2) for y in range(2)}
    # representation extension decided from the joined group's defining relations
    assert system.coherent.rep.group is joint.group
    assert reps.commutant_dimension(system.coherent.rep) == 1
    # coset labeling on the four-point product: consistent and injective
    labels = list(zip(system.x_index, system.y_index))
    assert len(set(labels)) == len(labels)
    a_theta, a_xi = two_bit_operators
    for op in (a_theta, a_xi):
        assert np.abs(op.matrix - op.matrix.conj().T).max() <= 1e-12
        evals = np.sort(np.linalg.eigvalsh(op.matrix))
        assert np.abs(evals - np.array([0.0, 1.0])).max() <= 1e-12
    unit, _ = pairing.joint_operators(system, [1.0, 1.0], two_bit["xi"].numeric())
    assert np.abs(unit.matrix - np.eye(2)).max() <= 1e-12
    elapsed = time.perf_counter() - start
    announce(4, elapsed < 1.0,
             f"two-bit chain: joined group of order 8 transitive on 4 points, "
             f"verified extension, trivial commutant, injective coset labels, "
             f"both operators Hermitian with spectra {{0, 1}}, unit variable "
             f"gives the identity ({elapsed:.3f}s)")


def test_criterion_5_conjugation_covariance(two_bit, two_bit_operators):
    worst_single = 0.0
    for n in (3, 4, 5):
        group, action, rep, system = circle_system(n)
        values = np.arange(n, dtype=float)
        points = [action.act[r, 0] for r in system.cosets.representatives]
        a = coherent.operator_from_variable(system, [values[p] for p in points])
        for t in range(group.order):
            moved = coherent.operator_from_variable(
                system, [values[action.act[t, p]] for p in points])
            u = rep.matrices[t]
            resid = np.abs(u.conj().T @ a.matrix @ u - moved.matrix).max()
            worst_single = max(worst_single, float(resid))
    assert worst_single <= 1e-9

    system = two_bit["system"]
    a_theta, a_xi = two_bit_operators
    records = pairing.covariance_records(system, a_theta, two_bit["theta"].numeric())
    assert all(r.residual <= 1e-9 for r in records if r.ok)
    assert all(r.ok or r.obstructed for r in records)
    w = system.coherent.rep.matrices[system.joint.swap_element]
    swap_resid = np.abs(w.conj().T @ a_theta.matrix @ w - a_xi.matrix).max()
    assert swap_resid <= 1e-12
    flagged = sum(1 for r in records if not r.ok)
    announce(5, True,
             f"operator transport holds for every element of every circle fixture "
             f"(worst residual {worst_single:.2e}) and for every two-bit element "
             f"not carrying the machine-flagged scalar obstruction ({flagged} of "
             f"{len(records)} flagged); the relating swap carries the first "
             f"operator to the second exactly ({swap_resid:.2e})")


def test_criterion_6_spectral_properties(two_bit, two_bit_operators):
    a_theta, a_xi = two_bit_operators
    assert spectra.verify_values_are_eigenvalues(spectra.eigensystem(a_theta), two_bit["theta"])
    assert spectra.verify_values_are_eigenvalues(spectra.eigensystem(a_xi), two_bit["xi"])

    # context 1: the two-bit pair, maximal and non-degenerate
    assert variables.is_maximally_accessible(two_bit["context"], two_bit["theta"]) == (
        not spectra.eigensystem(a_theta).degenerate)
    # context 2: engineered degenerate coarsening, non-maximal and degenerate
    eig = spectra.eigensystem(a_theta)
    collapsed = spectra.operator_for_coarsening(eig, lambda v: 5.0)
    const = variables.make_variable("const", [0, 0, 0, 0], numeric_values=[5.0])
    assert variables.is_maximally_accessible(two_bit["context"], const) == (
        not spectra.eigensystem(collapsed).degenerate)
    # context 3: four-point circle with its identity variable
    group, action, rep, system = circle_system(4)
    ident = variables.make_variable("point", [0, 1, 2, 3],
                                    numeric_values=[0.0, 1.0, 2.0, 3.0])
    ctx = variables.Context(4, action, (ident,))
    points = [action.act[r, 0] for r in system.cosets.representatives]
    op = coherent.operator_from_variable(system, [ident.numeric()[p] for p in points])
    assert spectra.verify_values_are_eigenvalues(spectra.eigensystem(op), ident)
    assert variables.is_maximally_accessible(ctx, ident) == (
        not spectra.eigensystem(op).degenerate)

    t_pair = spectra.transition_matrix(spectra.eigensystem(a_theta),
                                       spectra.eigensystem(a_xi))
    unitary_resid = np.abs(t_pair @ t_pair.conj().T - np.eye(2)).max()
    assert unitary_resid <= 1e-9

    sr = spin.build_spin(0.5)
    eig_z = spectra.eigensystem(reps.Operator(2, sr.az))
    eig_x = spectra.eigensystem(reps.Operator(2, sr.ax))
    t_mub = spectra.transition_matrix(eig_z, eig_x)
    mub_resid = np.abs(np.abs(t_mub) ** 2 - 0.5).max()
    assert mub_resid <= 1e-9
    announce(6, True,
             "eigenvalues equal variable values on all fixtures; the "
             "maximality/non-degeneracy biconditional holds on three contexts "
             "including an engineered degenerate one; basis-change matrices are "
             "unitary and the dimension-two maximally complementary pair has all "
             f"squared coefficients 1/2 (max deviation {mub_resid:.2e})")


def test_criterion_7_spin_suite():
    start = time.perf_counter()
    for twice_r in (1, 2, 3, 4, 5):
        r = twice_r / 2
        sr = spin.build_spin(r)
        assert sr.dim == twice_r + 1
        assert spin.verify_commutation(sr) <= 1e-12
        assert np.array_equal(sr.az, np.diag(sr.m_values))
        bound = 1e-12 * max(1.0, r * (r + 1))
        assert np.abs(sr.asq - r * (r + 1) * np.eye(sr.dim)).max() <= bound
        if sr.dim % 2 == 0:
            u = spin.rotation_operator(sr, (0.0, 0.0, 1.0), 2 * np.pi)
            assert np.abs(u + np.eye(sr.dim)).max() <= 1e-10
    elapsed = time.perf_counter() - start
    announce(7, elapsed < 1.0,
             f"ladder commutators within 1e-12, exact basis eigenvalues, "
             f"dimension 2r+1, and the half-integer full-turn sign flip for "
             f"r in 1/2..5/2 ({elapsed:.3f}s)")


def test_criterion_8_planar_permissibility_and_witness():
    for n in range(3, 13):
        assert spin.planar_component_covariance(n), f"covariance failed at n={n}"
    action, var, witness, axes = spin.full_rotation_counterexample()
    k, p1, p2 = witness
    assert (axes[0], axes[1]) == ("+x", "+y")
    assert var.values[p1] == var.values[p2]
    assert (var.values[action.act[k, p1]] != var.values[action.act[k, p2]])
    announce(8, True,
             "planar component permissibility, in the covariant reading the "
             "construction supports (rotating the reference direction with the "
             "points), holds exhaustively for n = 3..12; the full rotation group "
             "returns the documented witness (quarter turn about x, +x, +y)")


def test_criterion_9_cli_determinism(capsys):
    code1 = cli.main(["verify", TWO_BIT])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", TWO_BIT])
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    code3 = cli.main(["verify", CORRUPTED])
    out3 = capsys.readouterr().out
    assert code3 == 2
    assert "FAIL permissibility[bit1]" in out3 and "witness=k=" in out3
    announce(9, True,
             "verify is byte-identical across runs and exits 0 on the shipped "
             "fixture; the corrupted fixture exits 2 with a level-set witness")
