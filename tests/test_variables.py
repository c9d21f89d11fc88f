import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cvhilbert import groups, variables
from cvhilbert.errors import NotAccessible, NotPermissible, SizeLimit
from cvhilbert.spin import axis_component_variable, octahedral_axes_action

from conftest import compose, induced_indices


def shift_action(n):
    return groups.generate_permutation_group([[(x + k) % n for x in range(n)] for k in range(n)])[1]


def trivial_action(m):
    return groups.generate_permutation_group([], space_size=m)[1]


def reference_induced_group(variable, action):
    """Induced maps, Cayley table and the map of each k, as an index into
    the maps, by Python loops: the identity map, then the maps in order of
    first appearance over k."""
    vals = variable.values
    pick = [vals.index(v) for v in range(variable.value_count)]
    induced = [tuple(vals[action.act[k][p]] for p in pick) for k in range(action.group.order)]
    maps = [tuple(range(variable.value_count))]
    maps += [m for i, m in enumerate(induced) if m not in maps and m not in induced[:i]]
    index = {m: i for i, m in enumerate(maps)}
    table = [[index[compose(p, q)] for q in maps] for p in maps]
    return [list(m) for m in maps], table, tuple(index[m] for m in induced)


@st.composite
def residues_under_shifts(draw):
    """A relabelled residue mod a divisor of n, permissible under shifts."""
    n = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    labels = draw(st.permutations(range(d)))
    return shift_action(n), variables.make_variable("v", [labels[p % d] for p in range(n)])


@st.composite
def labellings_under_random_k(draw):
    """K closed from 0 to 4 generators on up to 7 points, the identity and
    repeated generators among them, and a random labelling of the points.
    The labelling is mostly one into blocks of equal size that the
    generators permute, so that it is permissible and K -> G need not be
    one to one. A K above order 120 is rejected, to keep the reference loop
    small."""
    rng = draw(st.randoms(use_true_random=True))
    count = rng.randint(1, 3)
    size = rng.randint(1, 7 // count)
    n = count * size
    points = rng.sample(range(n), n)
    blocks = [points[i:i + size] for i in range(0, n, size)]
    table = [0] * n
    for b, block in enumerate(blocks):
        for p in block:
            table[p] = b

    def block_map():
        # the blocks permuted, each mapped onto its image in a random order
        row = [0] * n
        for block, target in zip(blocks, rng.sample(blocks, count)):
            for p, q in zip(block, rng.sample(target, size)):
                row[p] = q
        return tuple(row)

    pool = [tuple(range(n))] + [block_map() for _ in range(rng.randint(1, 3))]
    gens = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
    try:
        _, action = groups.generate_permutation_group(gens, space_size=n, order_bound=120)
    except SizeLimit:
        reject()
    if rng.random() < 0.25:     # any labelling, seldom permissible
        table = [rng.randrange(n) for _ in range(n)]
    return action, variables.make_variable("v", table)


PARITY4 = variables.make_variable("parity", [0, 1, 0, 1], numeric_values=[0.0, 1.0])
IDENT4 = variables.make_variable("point", [0, 1, 2, 3], numeric_values=[0.0, 1.0, 2.0, 3.0])
CONST4 = variables.make_variable("const", [0, 0, 0, 0], numeric_values=[1.0])


class TestPermissibility:
    def test_trivial_group_always_permissible(self):
        ok, witness = variables.is_permissible(PARITY4, trivial_action(4))
        assert ok and witness is None

    def test_parity_under_shifts(self):
        ok, _ = variables.is_permissible(PARITY4, shift_action(4))
        assert ok

    def test_axis_component_rejected_in_3d(self):
        action = octahedral_axes_action()
        var = axis_component_variable("z")
        ok, witness = variables.is_permissible(var, action)
        assert not ok
        k, p1, p2 = witness
        # equal components before, different after
        assert var.values[p1] == var.values[p2]
        moved1 = var.values[action.apply(k, p1)]
        moved2 = var.values[action.apply(k, p2)]
        assert moved1 != moved2

    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_witnesses_are_valid(self, n, data):
        action = shift_action(n)
        table = data.draw(st.lists(
            st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
        if len(set(table)) < max(table) + 1:
            table = [v - min(table) for v in table]
        try:
            var = variables.make_variable("v", table)
        except ValueError:
            return
        ok, witness = variables.is_permissible(var, action)
        if not ok:
            k, p1, p2 = witness
            assert var.values[p1] == var.values[p2]
            assert (var.values[action.apply(k, p1)]
                    != var.values[action.apply(k, p2)])


def reference_permissibility(variable, action):
    """The loop `is_permissible` ran over every element before it checked the
    generators first: the first (k, p1, p2) by element, then level set by
    smallest point, then point."""
    vals = variable.values
    # the level sets, in order of their smallest points
    blocks = {}
    for p, v in enumerate(vals):
        blocks.setdefault(v, []).append(p)
    for k in range(action.group.order):
        row = action.act[k]
        for block in blocks.values():
            for p in block[1:]:
                if vals[row[p]] != vals[row[block[0]]]:
                    return False, (k, block[0], p)
    return True, None


class TestPermissibilityWitness:
    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda size: st.tuples(
            st.lists(st.permutations(range(size)), max_size=3),
            st.lists(st.integers(min_value=0, max_value=3), min_size=size, max_size=size))))
    def test_matches_reference_loop(self, case):
        # random K and a random value table: permissible or not, the verdict
        # and the witness are those of the loop over every element
        gens, table = case
        _, action = groups.generate_permutation_group(gens, space_size=len(table))
        var = variables.make_variable("v", table)
        assert variables.is_permissible(var, action) == reference_permissibility(var, action)

    def test_witness_in_level_set_order(self):
        # under the shift by one, point 2 is the smallest point whose image
        # leaves its level set, but the level set {0, 3} comes first
        var = variables.make_variable("v", [0, 1, 1, 0])
        assert variables.is_permissible(var, shift_action(4)) == (False, (1, 0, 3))
        assert reference_permissibility(var, shift_action(4)) == (False, (1, 0, 3))


class TestInducedGroup:
    def test_constant_gives_trivial_group(self):
        g, act = variables.induced_group(CONST4, shift_action(4))
        assert g.order == 1

    def test_parity_under_shifts(self):
        g, act = variables.induced_group(PARITY4, shift_action(4))
        assert g.order == 2
        # even shifts act trivially on the two values
        assert induced_indices(PARITY4, shift_action(4), act) == (0, 1, 0, 1)

    def test_identity_variable_faithful(self):
        g, act = variables.induced_group(IDENT4, shift_action(4))
        assert g.order == 4
        assert len(set(induced_indices(IDENT4, shift_action(4), act))) == 4

    def test_not_permissible_raises(self):
        action = octahedral_axes_action()
        var = axis_component_variable("z")
        with pytest.raises(NotPermissible):
            variables.induced_group(var, action)

    @settings(max_examples=200)
    @given(st.one_of(residues_under_shifts(), labellings_under_random_k()))
    def test_matches_reference_loop(self, case):
        # G's rows are the induced maps in order of first appearance over K,
        # and each k's map is the loop's; a labelling that is not permissible
        # is refused
        action, var = case
        if not variables.is_permissible(var, action)[0]:
            with pytest.raises(NotPermissible):
                variables.induced_group(var, action)
            return
        g, act = variables.induced_group(var, action)
        maps, table, ref_hom = reference_induced_group(var, action)
        assert act.act.tolist() == maps
        assert g.cayley.tolist() == table
        assert induced_indices(var, action, act) == ref_hom

    @settings(max_examples=200)
    @given(st.one_of(residues_under_shifts(), labellings_under_random_k()))
    def test_equals_closure_of_generator_images(self, case):
        # G read off K's closure is, element for element, the group closed
        # breadth-first from the maps of K's generators: the same rows in the
        # same order, the same generating set and the same columns
        action, var = case
        if not variables.is_permissible(var, action)[0]:
            reject()
        g, act = variables.induced_group(var, action)
        pick = [var.values.index(v) for v in range(var.value_count)]
        images = np.asarray(var.values)[action.act[list(action.group.generators)][:, pick]]
        ref, ref_act = groups.generate_permutation_group(
            images, space_size=var.value_count, order_bound=action.group.order)
        assert g.generators == ref.generators
        assert g.rows.dtype == ref.rows.dtype and g.columns.dtype == ref.columns.dtype
        assert np.array_equal(g.rows, ref.rows)
        assert np.array_equal(g.columns, ref.columns)
        assert np.array_equal(act.act, ref_act.act) and act.space_size == ref_act.space_size

    def test_induced_action_matches_defining_equation(self):
        base = shift_action(4)
        g, act = variables.induced_group(PARITY4, base)
        hom = induced_indices(PARITY4, base, act)
        for k in range(base.group.order):
            for p in range(4):
                lhs = act.apply(hom[k], PARITY4.values[p])
                rhs = PARITY4.values[base.apply(k, p)]
                assert lhs == rhs


class TestRefinesAndAccessibility:
    def test_refines_self(self):
        f, strict = variables.refines(PARITY4, PARITY4)
        assert f == (0, 1) and not strict

    def test_identity_refines_parity(self):
        f, strict = variables.refines(IDENT4, PARITY4)
        assert f == (0, 1, 0, 1) and strict

    def test_parity_does_not_refine_identity(self):
        assert variables.refines(PARITY4, IDENT4) is None

    def test_refines_is_reflexive_and_transitive(self):
        coarser = variables.make_variable("half", [0, 0, 1, 1])
        chain = [IDENT4, PARITY4, CONST4, coarser]
        for v in chain:
            got = variables.refines(v, v)
            assert got is not None and not got[1]
        for a in chain:
            for b in chain:
                for c in chain:
                    if variables.refines(a, b) and variables.refines(b, c):
                        assert variables.refines(a, c) is not None

    def test_maximality(self):
        ctx = variables.Context(4, shift_action(4), (PARITY4,))
        assert variables.is_maximally_accessible(ctx, PARITY4)
        assert not variables.is_maximally_accessible(ctx, CONST4)
        with pytest.raises(NotAccessible):
            variables.is_maximally_accessible(ctx, IDENT4)

    def test_family_member_strictly_refined_by_another_not_maximal(self):
        # every member matches its own partition; PARITY4 strictly refines CONST4
        ctx = variables.Context(4, shift_action(4), (PARITY4, CONST4))
        assert variables.is_maximally_accessible(ctx, PARITY4)
        assert not variables.is_maximally_accessible(ctx, CONST4)

    def test_coarsening_of_family_member_not_maximal(self):
        ident_ctx = variables.Context(4, shift_action(4), (IDENT4,))
        merged = variables.make_variable("merged", [0, 0, 1, 2])
        assert not variables.is_maximally_accessible(ident_ctx, merged)
