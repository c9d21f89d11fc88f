import dataclasses
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvhilbert import cli, groups, pairing, variables
from cvhilbert.errors import NotASubgroup, SizeLimit

from conftest import (all_products, compose, induced_indices, point_actions, point_rows,
                      standard_action, standard_group)

ROOT = Path(__file__).resolve().parent.parent


class TestBuildGroup:
    def test_trivial(self):
        g = standard_group("cyclic", 1)
        assert g.order == 1 and g.identity == 0

    def test_z3_by_hand(self):
        g = standard_group("cyclic", 3)
        assert g.order == 3
        assert g.identity == 0
        # the inverse of a is the column of its row that holds the identity
        assert (g.cayley[[1, 2]] == g.identity).argmax(axis=1).tolist() == [2, 1]


class TestPermutationRows:
    """`generate_permutation_group` refuses a row that is not a permutation
    before it composes any, and keeps the rows it is given, identity first,
    in their listed order."""

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 2]], [[0, 1], [-1, 0]],
                                      [[0, 1, 2], [3, 0, 1]]])
    def test_out_of_range(self, rows):
        with pytest.raises(ValueError) as exc:
            groups.generate_permutation_group(rows)
        message = f"generator {tuple(rows[1])} is not a permutation of {len(rows[0])} points"
        assert str(exc.value) == message

    @pytest.mark.parametrize("rows, witness", [
        ([[0, 1], [0, 0]], (0, 0)),
        ([[0, 1, 2], [0, 0, 1]], (0, 0, 1)),
    ])
    def test_not_a_permutation(self, rows, witness):
        with pytest.raises(ValueError) as exc:
            groups.generate_permutation_group(rows)
        message = f"generator {witness} is not a permutation of {len(rows[0])} points"
        assert str(exc.value) == message

    def test_rows_are_the_action(self):
        rows = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        g, act = groups.generate_permutation_group(rows)
        assert act.group is g and act.space_size == 3
        assert act.act.tolist() == rows.tolist() and not act.act.flags.writeable
        assert g.cayley.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


class TestStandardGroups:
    def test_cyclic_2(self):
        assert standard_group("cyclic", 2).order == 2

    def test_dihedral_3_nonabelian(self):
        d3 = standard_group("dihedral", 3)
        assert d3.order == 6
        assert not np.array_equal(d3.cayley, d3.cayley.T)
        # a rotation and a flip do not commute
        assert d3.cayley[1, 3] != d3.cayley[3, 1]

    def test_symmetric_3_isomorphic_to_dihedral_3(self):
        s3 = standard_group("symmetric", 3)
        d3 = standard_group("dihedral", 3)
        # every non-abelian group of order 6 is isomorphic to S3
        assert s3.order == d3.order == 6
        for g in (s3, d3):
            assert not np.array_equal(g.cayley, g.cayley.T)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            standard_group("cyclic", 5000)
        with pytest.raises(SizeLimit):
            standard_group("symmetric", 7)

    @given(st.integers(min_value=1, max_value=12))
    def test_cyclic_orders_and_commutativity(self, n):
        g = standard_group("cyclic", n)
        assert g.order == n
        assert np.array_equal(g.cayley, g.cayley.T)

    @given(st.integers(min_value=1, max_value=8))
    def test_dihedral_order(self, n):
        assert standard_group("dihedral", n).order == 2 * n


class TestActions:
    def test_trivial_group_on_five_points(self):
        _, act = groups.generate_permutation_group([], space_size=5)
        assert act.space_size == 5

    def test_z4_rotation(self):
        _, act = groups.generate_permutation_group([[1, 2, 3, 0]])
        assert groups.is_transitive(act)


class TestOrbitsAndIsotropy:
    def test_trivial_orbits(self):
        _, act = groups.generate_permutation_group([], space_size=3)
        assert not groups.is_transitive(act)

    def test_swap_orbits(self):
        _, act = groups.generate_permutation_group([[0, 1, 2], [1, 0, 2]])
        assert not groups.is_transitive(act)
        # point 0 fixed, the others swapped
        _, act = groups.generate_permutation_group([[0, 1, 2], [0, 2, 1]])
        assert not groups.is_transitive(act)

    def test_transitive_z4(self):
        _, act = groups.generate_permutation_group([[1, 2, 3, 0]])
        assert groups.is_transitive(act)

    def test_one_point_space_transitive(self):
        _, act = groups.generate_permutation_group([], space_size=1)
        assert groups.is_transitive(act)

    def test_regular_action_trivial_isotropy(self):
        act = groups.regular_action(standard_group("cyclic", 3))
        iso = groups.isotropy_subgroup(act, 0)
        assert iso.members == (0,)

    def test_s3_natural_point_stabilizer(self):
        act = standard_action("symmetric", 3)
        iso = groups.isotropy_subgroup(act, 2)
        assert iso.order == 2

    def test_isotropy_contains_identity(self):
        z4, act = groups.generate_permutation_group([[1, 2, 3, 0]])
        for p in range(4):
            assert z4.identity in groups.isotropy_subgroup(act, p).members


class TestCosets:
    def test_whole_group(self):
        z4 = standard_group("cyclic", 4)
        sub = groups.subgroup(z4, range(4))
        assert len(groups.left_cosets(z4, sub)) == 1

    def test_trivial_subgroup(self):
        z4 = standard_group("cyclic", 4)
        sub = groups.subgroup(z4, [0])
        cs = groups.left_cosets(z4, sub)
        assert len(cs) == 4
        assert cs.representatives == (0, 1, 2, 3)

    def test_z4_half(self):
        z4 = standard_group("cyclic", 4)
        sub = groups.subgroup(z4, [0, 2])
        cs = groups.left_cosets(z4, sub)
        assert cs.cosets == ((0, 2), (1, 3))

    def test_not_a_subgroup(self):
        z4 = standard_group("cyclic", 4)
        with pytest.raises(NotASubgroup):
            groups.subgroup(z4, [0, 1])


class TestGeneratedGroups:
    def test_identity_generator(self):
        g, act = groups.generate_permutation_group([(0, 1)])
        assert g.order == 1

    def test_single_transposition(self):
        g, act = groups.generate_permutation_group([(1, 0)])
        assert g.order == 2

    def test_two_transpositions_make_s3(self):
        g, act = groups.generate_permutation_group([(1, 0, 2), (0, 2, 1)])
        assert g.order == 6
        assert groups.is_transitive(act)

    def test_generators_reproduced(self):
        gens = [(1, 0, 2), (0, 2, 1)]
        g, act = groups.generate_permutation_group(gens)
        rows = set(map(tuple, act.act.tolist()))
        for p in gens:
            assert p in rows

    def test_idempotent_regeneration(self):
        g, act = groups.generate_permutation_group([(1, 0, 2), (0, 2, 1)])
        g2, _ = groups.generate_permutation_group(act.act.tolist())
        assert g2.order == g.order

    def test_order_bound(self):
        with pytest.raises(SizeLimit):
            groups.generate_permutation_group(
                [tuple((i + 1) % 40 for i in range(40))], order_bound=10
            )

    def test_generator_not_a_permutation(self):
        with pytest.raises(ValueError, match=r"generator \(0, 0, 2\) is not a permutation of 3"):
            groups.generate_permutation_group([(1, 0, 2), (0, 0, 2)])

    def test_space_size_refused_before_allocation(self):
        # one identity row of 10^8 points would be 800 MB of int64
        with pytest.raises(SizeLimit, match="MiB bound"):
            groups.generate_permutation_group([], space_size=10**8)

    def test_row_bytes_bound_during_closure(self, monkeypatch):
        # 20 rows of 40 points fit, the 40 rotations do not
        monkeypatch.setattr(groups, "PERMUTATION_BYTE_LIMIT", 20 * 40 * 8)
        with pytest.raises(SizeLimit, match="permutations of 40 points"):
            groups.generate_permutation_group([tuple((i + 1) % 40 for i in range(40))])

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda size: st.lists(st.permutations(range(size)), max_size=3).map(
            lambda gens: (size, gens))))
    def test_closure_matches_reference(self, case):
        size, gens = case
        elements, table = reference_closure(gens, size)
        g, act = groups.generate_permutation_group(gens, space_size=size)
        assert act.act.tolist() == elements
        assert g.cayley.tolist() == table

    def test_bfs_words_cover(self):
        g, act = groups.generate_permutation_group([(1, 0, 2), (0, 2, 1)])
        gens = list(g.generators)
        assert gens == [1, 2]  # BFS indices of the two generators
        words = groups.bfs_words(g)
        assert words == reference_bfs_words(g.cayley.tolist(), gens)
        for i, w in enumerate(words):
            acc = g.identity
            for slot in w:
                acc = int(g.cayley[acc, gens[slot]])
            assert acc == i


class TestBuildersOnly:
    """A group or an action comes only from the verifying builders."""

    def test_action_table_refused(self):
        # not an action: the identity is listed second
        with pytest.raises(TypeError, match="verifying builders"):
            groups.GroupAction(standard_group("cyclic", 2), 2, [[1, 0], [0, 1]])

    def test_group_refused(self):
        g = standard_group("cyclic", 3)
        with pytest.raises(TypeError, match="verifying builders"):
            groups.FiniteGroup(g.rows, g.generators, g.columns)

    def test_replace_does_not_carry_the_token(self):
        action = groups.regular_action(standard_group("cyclic", 2))
        with pytest.raises(TypeError, match="verifying builders"):
            dataclasses.replace(action, act=np.array([[1, 0], [0, 1]]))
        with pytest.raises(TypeError, match="verifying builders"):
            dataclasses.replace(action.group, rows=action.group.rows[::-1])

    @pytest.mark.parametrize("kind,n", [("cyclic", 1), ("cyclic", 4), ("dihedral", 3),
                                        ("symmetric", 3)])
    def test_regular_action(self, kind, n):
        g = standard_group(kind, n)
        action = groups.regular_action(g)
        assert action.group is g and action.space_size == g.order
        assert action.act is g.cayley
        # (a * b) . x == a . (b . x) for every a, b and x
        assert np.array_equal(action.act[g.cayley], action.act[:, action.act])


# symmetric_n7.json is left out: its K, S7 of order 5040, passes the order
# bound of the document, and the |K|^2 loop would take 25 million steps;
# two_bit_names_zero.json is the schema-error golden, which does not parse
DOCUMENTS = sorted((ROOT / "fixtures").glob("*.json")) + sorted(
    p for p in (ROOT / "tests" / "golden" / "docs").glob("*.json")
    if p.name not in ("symmetric_n7.json", "two_bit_names_zero.json"))


@pytest.mark.parametrize("path", DOCUMENTS, ids=[p.name for p in DOCUMENTS])
def test_induced_maps_are_homomorphisms(path):
    # K -> G of every permissible variable, each k's map found among G's
    # rows, against the |K|^2 loop over the reference tables of both groups
    doc = cli.parse_context(str(path))
    k, k_action = groups.generate_permutation_group(
        doc.generators, space_size=doc.phi_size, order_bound=doc.max_order)
    table_k = reference_table(k.rows).tolist()
    permissible = 0
    for var in doc.variables.values():
        if not variables.is_permissible(var, k_action)[0]:
            continue
        g, g_action = variables.induced_group(var, k_action)
        hom = induced_indices(var, k_action, g_action)
        assert hom[k.identity] == g.identity
        assert reference_homomorphism(hom, table_k, reference_table(g.rows).tolist()) is None
        permissible += 1
    assert permissible


CATALOGUE = [
    ("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5), ("cyclic", 6),
    ("dihedral", 3), ("dihedral", 4), ("symmetric", 3), ("symmetric", 4),
    ("dihedral", 150),
]


def reference_closure(gens, size):
    """Breadth-first closure and Cayley table by Python loops over tuples."""
    ident = tuple(range(size))
    elements, index, queue = [ident], {ident: 0}, [ident]
    while queue:
        current = queue.pop(0)
        for g in gens:
            cand = compose(current, tuple(g))
            if cand not in index:
                index[cand] = len(elements)
                elements.append(cand)
                queue.append(cand)
    table = [[index[compose(p, q)] for q in elements] for p in elements]
    return [list(p) for p in elements], table


def reference_scan(rows):
    """The |G|^2 closure scan of the listed-set builder before groups kept
    their generator columns: every pair of rows is composed, and each product is
    looked up among the sorted rows by a whole-row key. Returns (table, None)
    with the Cayley table, or (None, (a, b)) with the first pair in row-major
    order whose product is not listed."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    n, m = rows.shape

    def keys(table):
        return np.ascontiguousarray(table).view(np.dtype((np.void, 8 * m)))[:, 0]

    order = np.argsort(keys(rows))
    listed = keys(rows)[order]
    table = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        products = keys(rows[a][rows])          # rows[a] o rows[b] for every b
        found = np.minimum(np.searchsorted(listed, products), n - 1)
        unlisted = listed[found] != products
        if unlisted.any():
            return None, (a, int(np.argmax(unlisted)))
        table[a] = order[found]
    return table, None


def reference_table(rows):
    table, witness = reference_scan(rows)
    assert witness is None
    return table


def formula_table(kind, n):
    """The catalogue tables by formula: r_i r_j = r_{i+j}, D_n as rotation^i
    flip^s with the flip conjugating a rotation to its inverse, and S_n as
    composition of the permutations in lexicographic order."""
    if kind == "cyclic":
        return [[(i + j) % n for j in range(n)] for i in range(n)]
    if kind == "dihedral":
        def mul(a, b):
            i1, s1 = a % n, a // n
            i2, s2 = b % n, b // n
            return (i1 + (i2 if s1 == 0 else -i2)) % n + n * ((s1 + s2) % 2)
        return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]


@pytest.mark.parametrize("kind,n", [("cyclic", n) for n in (1, 2, 3, 6, 300)]
                         + [("dihedral", n) for n in (1, 2, 3, 4, 150)]
                         + [("symmetric", n) for n in (1, 2, 3, 4)])
def test_catalogue_tables_match_formula(kind, n):
    # every order is built from permutations, the 300- and 150-gons included
    g = standard_group(kind, n)
    assert g.cayley.tolist() == formula_table(kind, n)
    assert g.identity == 0


@pytest.mark.parametrize("kind,n", CATALOGUE)
def test_lagrange_on_cyclic_subgroups(kind, n):
    g = standard_group(kind, n)
    for a in range(g.order):
        members = {g.identity}
        x = a
        while x != g.identity:
            members.add(x)
            x = int(g.cayley[x, a])
        sub = groups.subgroup(g, members)
        cs = groups.left_cosets(g, sub)
        assert len(cs) * sub.order == g.order


@pytest.mark.parametrize("kind,n", CATALOGUE)
def test_orbit_stabilizer_on_regular_action(kind, n):
    g = standard_group(kind, n)
    act = groups.regular_action(g)
    for p in range(act.space_size):
        orbit = set(act.act[:, p].tolist())
        iso = groups.isotropy_subgroup(act, p)
        assert len(orbit) * iso.order == g.order


class TestColumnReadOff:
    """Right products read off the rows, and a point stabilizer, its cosets
    and their leaders read off one column of the action, against the Cayley
    table and the products of `subgroup` and `left_cosets` over it."""

    @given(point_actions())
    def test_right_products_are_table_columns(self, action):
        g = action.group
        products = [g.right_products(b) for b in range(g.order)]
        assert "cayley" not in vars(g)
        for b, column in enumerate(products):
            assert np.array_equal(column, g.cayley[:, b])

    @given(point_actions())
    def test_stabilizer_cosets_are_left_cosets(self, action):
        g = action.group
        images = [action.images(f) for f in range(action.space_size)]
        read_off = [groups.isotropy_subgroup(action, f) for f in range(action.space_size)]
        assert "cayley" not in vars(g)
        table = action.act
        for f, (column, sub) in enumerate(zip(images, read_off)):
            assert np.array_equal(column, table[:, f])
            want = groups.subgroup(g, np.flatnonzero(table[:, f] == f))
            assert sub.parent is g and sub.members == want.members
            assert np.array_equal(groups.stabilizer_leaders(column),
                                  groups.coset_leaders(g, want.members))
            got, ref = groups.stabilizer_cosets(sub, column), groups.left_cosets(g, want)
            assert got.parent is g and got.subgroup is sub
            assert (got.cosets, got.representatives) == (ref.cosets, ref.representatives)


# Row-major references for the table scans: the first failing tuple of a
# plain Python loop, in the order the reports print it.

def reference_homomorphism(mapping, ta, tb):
    for a1, a2 in itertools.product(range(len(ta)), repeat=2):
        if mapping[ta[a1][a2]] != tb[mapping[a1]][mapping[a2]]:
            return (a1, a2)
    return None


def reference_subgroup_message(g, members):
    mset = sorted(set(members))
    if g.identity not in mset:
        return "identity missing"
    for a in mset:
        if g.cayley[a].tolist().index(g.identity) not in mset:
            return f"inverse of {a} missing"
        for b in mset:
            if int(g.cayley[a, b]) not in mset:
                return f"not closed at ({a}, {b})"
    return None


SMALL = [("cyclic", 1), ("cyclic", 4), ("cyclic", 6), ("dihedral", 2), ("dihedral", 3),
         ("dihedral", 4), ("symmetric", 3)]
# the default step, one that takes several whole rows, and one that cuts a row
STEPS = st.sampled_from([groups.STEP_BYTES, 64, 8])


def _raised(fn, *args):
    try:
        fn(*args)
    except NotASubgroup as exc:
        return exc
    return None


class TestScanWitnesses:
    """One corrupted entry; the scan names the same tuple as the loop."""

    @given(st.sampled_from(SMALL), STEPS, st.data())
    def test_subgroup_messages(self, group, step, data):
        g = standard_group(*group)
        a = data.draw(st.integers(0, g.order - 1))
        members = [g.identity]
        while g.cayley[members[-1], a] != g.identity:
            members.append(int(g.cayley[members[-1], a]))
        members[data.draw(st.integers(0, len(members) - 1))] = data.draw(
            st.integers(0, g.order - 1))
        with mock.patch.object(groups, "STEP_BYTES", step):
            exc = _raised(groups.subgroup, g, members)
        expected = reference_subgroup_message(g, members)
        assert (exc and str(exc)) == expected


def reference_bfs_words(table, gens):
    """The queue loop `bfs_words` had before it expanded whole levels over
    generator columns, on a multiplication table."""
    words = [None] * len(table)
    words[0] = ()
    queue = [0]
    while queue:
        v = queue.pop(0)
        for slot, g in enumerate(gens):
            w = table[v][g]
            if words[w] is None:
                words[w] = words[v] + (slot,)
                queue.append(w)
    return words


def joined_group_m8():
    """The joined group N that `verify` builds for the cyclic m=8 document."""
    built = []
    original = pairing.build_joint_group

    def spy(*args):
        built.append(original(*args))
        return built[-1]

    path = Path(__file__).resolve().parent / "golden" / "docs" / "cyclic_m8.json"
    with mock.patch.object(pairing, "build_joint_group", spy):
        cli.run_verify(cli.parse_context(str(path)))
    return built[0]


class TestWords:
    @pytest.mark.parametrize("kind,n", CATALOGUE)
    def test_catalogue_generators_and_words(self, kind, n):
        g = standard_group(kind, n)
        table = reference_table(g.rows).tolist()
        # closed from its listed elements, identity first, in listed order
        assert list(g.generators) == list(range(g.order))
        assert groups.bfs_words(g) == reference_bfs_words(table, list(g.generators))

    def test_joined_group_m8(self):
        joint = joined_group_m8()
        n = joint.group
        assert n.order == 128
        table = reference_table(point_rows(joint)).tolist()
        assert groups.bfs_words(n) == reference_bfs_words(table, list(n.generators))

    def test_trivial_group(self):
        g = standard_group("cyclic", 1)
        assert g.order == 1
        assert groups.bfs_words(g) == [()]


# Random generator sets: up to three permutations of at most six points.
GENERATOR_SETS = st.integers(min_value=1, max_value=6).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.permutations(range(size)), max_size=3)))


def assert_breadth_first(g):
    """Element i of a closure is the i-th that a breadth-first search of its
    Cayley graph from the identity discovers."""
    found = [e for elements, _, _ in groups._bfs_levels(g.columns) for e in elements.tolist()]
    assert found == list(range(1, g.order))


def assert_matches_reference(g, closed=True, rows=None):
    """Everything a group computes from its generator columns and its
    products against the |G|^2 reference table of its rows, or of the given
    point rows of a group that holds none; the breadth-first numbering too
    for a group `closed` from its generators."""
    if closed:
        assert_breadth_first(g)
    table = reference_table(g.rows if rows is None else rows)
    n = g.order
    assert all_products(g).tolist() == table.tolist()
    # the cyclic subgroup of the last element, its coset leaders, and the
    # product of every element with it
    last, members = n - 1, [g.identity]
    while table[members[-1], last] != g.identity:
        members.append(int(table[members[-1], last]))
    assert groups.subgroup(g, members).members == tuple(sorted(members))
    assert groups.coset_leaders(g, members).tolist() == table[:, members].min(axis=1).tolist()
    assert g.columns.tolist() == table[:, list(g.generators)].tolist()
    assert groups.bfs_words(g) == reference_bfs_words(table.tolist(), list(g.generators))


class TestGeneratorColumns:
    """Groups built from generators against the table of every pair."""

    @pytest.mark.parametrize("kind,n", CATALOGUE)
    def test_catalogue(self, kind, n):
        assert_matches_reference(standard_group(kind, n), closed=False)

    @given(GENERATOR_SETS)
    def test_generated(self, case):
        size, gens = case
        g, act = groups.generate_permutation_group(gens, space_size=size)
        assert act.act is g.rows
        assert list(g.generators) == [act.act.tolist().index(list(p)) for p in gens]
        assert_matches_reference(g)

    @given(GENERATOR_SETS, st.randoms())
    def test_listed(self, case, rng):
        # the elements of a generated group listed in another order
        size, gens = case
        rows = groups.generate_permutation_group(gens, space_size=size)[0].rows.tolist()
        rest = rows[1:]
        rng.shuffle(rest)
        g, _ = groups.generate_permutation_group([rows[0]] + rest, space_size=size)
        assert g.rows.tolist() == [rows[0]] + rest
        assert_matches_reference(g)

    def test_joined_group_m8(self):
        joint = joined_group_m8()
        g = joint.group
        assert g.order == 128 and len(g.generators) == 15
        assert g.rows is None and "cayley" not in vars(g)
        assert_matches_reference(g, rows=point_rows(joint))
        assert "cayley" not in vars(g)

    def test_one_closure_pass(self):
        # (0 1)(2 3 4): point 0 tells the generator from the identity, but its
        # square fixes 0; products are matched by their whole rows, so one
        # breadth-first pass tells the square from the identity
        calls = []
        original = groups._breadth_first

        def spy(*args):
            calls.append(args)
            return original(*args)

        with mock.patch.object(groups, "_breadth_first", spy):
            g, _ = groups.generate_permutation_group([[1, 0, 3, 4, 2]])
            assert len(calls) == 1
            with pytest.raises(SizeLimit, match="order bound 5"):
                groups.generate_permutation_group([[1, 0, 3, 4, 2]], order_bound=5)
        assert len(calls) == 2
        assert g.order == 6
        assert_matches_reference(g)


def joined_cyclic(m):
    """N for the product of two variables of m values under Z_m on each axis,
    related by the swap, joined as `verify` joins it: |N| = 2 m^2."""
    x, y = np.divmod(np.arange(m * m), m)
    _, k_action = groups.generate_permutation_group([(x + 1) % m * m + y, x * m + (y + 1) % m])
    theta, xi = variables.make_variable("x", x.tolist()), variables.make_variable("y", y.tolist())
    context = variables.Context(m * m, k_action, (theta, xi))
    pair = pairing.build_related_pair(context, theta, xi, tuple((y * m + x).tolist()))
    _, g_action = variables.induced_group(theta, k_action)
    return pairing.build_joint_group(pair, g_action).group


def k_of(name):
    doc = cli.parse_context(str(Path(__file__).resolve().parent / "golden" / "docs" / name))
    return groups.generate_permutation_group(doc.generators, space_size=doc.phi_size)[0]


def dihedral_on_polygon(n):
    """D_n of order 2n, closed from the rotation and a reflection of the n-gon."""
    x = np.arange(n)
    return groups.generate_permutation_group([(x + 1) % n, -x % n])[0]


CLOSURES = {
    "cyclic_m16.json": lambda: k_of("cyclic_m16.json"),
    "D512": lambda: dihedral_on_polygon(512),
    "N-cyclic-m16": lambda: joined_cyclic(16),
}


@pytest.mark.parametrize("source", CLOSURES)
def test_deep_closures_are_breadth_first(source):
    # a closure is numbered breadth-first at any depth (D512 has 257 levels)
    assert_breadth_first(CLOSURES[source]())


def reference_left_cosets(table, members):
    """The loop `left_cosets` had before it read the coset leaders: each
    element not yet in a coset starts the next one."""
    seen, cosets = set(), []
    for a in range(len(table)):
        if a not in seen:
            block = tuple(sorted(table[a][h] for h in members))
            seen.update(block)
            cosets.append(block)
    return tuple(cosets)


@pytest.mark.parametrize("kind,n", [*SMALL, ("symmetric", 4)])
def test_cosets_match_reference(kind, n):
    # the cyclic subgroups and the point stabilizers of the group's rows
    action = standard_action(kind, n)
    g, table = action.group, action.group.cayley.tolist()
    subs = [groups.isotropy_subgroup(action, p) for p in range(action.space_size)]
    for a in range(g.order):
        members = [g.identity]
        while table[members[-1]][a] != g.identity:
            members.append(table[members[-1]][a])
        subs.append(groups.subgroup(g, members))
    for sub in subs:
        leaders = groups.coset_leaders(g, sub.members)
        assert leaders.tolist() == [min(table[a][h] for h in sub.members) for a in range(g.order)]
        cosets = groups.left_cosets(g, sub)
        assert cosets.cosets == reference_left_cosets(table, sub.members)
        assert cosets.representatives == tuple(c[0] for c in cosets.cosets)
