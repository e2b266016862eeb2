"""Plumbing graphs: validation, exact definiteness, automorphisms, I/O."""

import json
import re
import time
import tracemalloc
from collections import OrderedDict
from fractions import Fraction
from types import MappingProxyType
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from milnorbook import (
    Divisor,
    PlumbingGraph,
    VertexPermutation,
    chain_graph,
    e8_graph,
    graph_from_dict,
    graph_to_dict,
    intersection_matrix,
    is_milnor_fillable,
    is_negative_definite,
    load_graph,
    save_graph,
    solve_exact,
    star_graph,
    valency,
    validate_graph,
    vertex_orbits,
)
from milnorbook.errors import (
    DimensionMismatch,
    Disconnected,
    InputError,
    LoopEdge,
    NegativeGenus,
    NonContiguousIds,
)

from milnorbook import graphs, minimal_divisor
from milnorbook.graphs import _form_product
from oracles import (
    automorphism_group,
    dense_form_product,
    fraction_ldlt,
    full_suite,
    principal_minor_signs_definite,
    rational_least_point,
    rational_solution,
    reference_validate_graph,
)


@st.composite
def plumbing_graphs(draw, max_vertices=5):
    r = draw(st.integers(1, max_vertices))
    genus = tuple(draw(st.lists(st.integers(0, 2), min_size=r, max_size=r)))
    euler = tuple(draw(st.lists(st.integers(-5, 3), min_size=r, max_size=r)))
    edges = []
    for i in range(1, r):
        edges.append((draw(st.integers(0, i - 1)), i))
    if r >= 2:
        extra = draw(
            st.lists(
                st.tuples(st.integers(0, r - 1), st.integers(0, r - 1)),
                max_size=5,
            )
        )
        edges.extend((min(a, b), max(a, b)) for a, b in extra if a != b)
    return PlumbingGraph(genus, euler, tuple(edges))


def permutations_of(r):
    return st.permutations(list(range(r)))


@st.composite
def symmetric_trees(draw):
    """Trees with deep symmetry, which ``plumbing_graphs`` seldom draws: k
    copies of a random weighted rooted tree joined to a new centre, or two
    copies whose roots are joined by one edge (a central edge), sometimes
    with the weight of one deepest vertex of one copy changed; the vertex
    ids are then shuffled."""
    n = draw(st.integers(1, 4))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    genus = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    euler = draw(st.lists(st.integers(-3, -1), min_size=n, max_size=n))
    bicentral = draw(st.booleans())
    copies = 2 if bicentral else draw(st.integers(2, 3))
    genera, eulers, edges, roots = [], [], [], []
    if not bicentral:
        genera.append(0)
        eulers.append(-copies - 1)
    for _ in range(copies):
        roots.append(len(eulers))
        edges += [(roots[-1] + p, roots[-1] + i) for i, p in enumerate(parents, 1)]
        genera += genus
        eulers += euler
    edges += [(roots[0], roots[1])] if bicentral else [(0, root) for root in roots]
    if draw(st.booleans()):
        depth = [0]
        for p in parents:
            depth.append(depth[p] + 1)
        deepest = max(range(n), key=depth.__getitem__)
        eulers[draw(st.sampled_from(roots)) + deepest] -= 1
    g = PlumbingGraph(tuple(genera), tuple(eulers), tuple(edges))
    return g.relabel(draw(permutations_of(g.vertex_count)))


@st.composite
def symmetric_systems(draw, max_size=6):
    """Symmetric integer rows and a right-hand side: zero diagonals,
    singular forms (two equal rows) and dominant negative diagonals, which
    make definite and semidefinite forms, all occur."""
    r = draw(st.integers(1, max_size))
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    if r >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
        rows[i] = list(rows[j])
        for row in rows:
            row[i] = row[j]
    if draw(st.booleans()):
        for i, row in enumerate(rows):
            row[i] = -sum(abs(x) for j, x in enumerate(row) if j != i) - draw(
                st.integers(0, 2)
            )
    rhs = draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
    return rows, rhs


def definite_solution(m, rhs):
    """The solution of ``m . x = rhs`` where ``m`` is negative definite, else
    None: one definiteness test, then the solve."""
    return solve_exact(m, rhs) if is_negative_definite(m) else None


# A value that is not an integer, or is a bool: validation must reject it.
ODD_VALUES = (True, False, -2.0, -1.7, "0", "-2", None)
# True once in 25 or in 6 draws, and False as the simplest example.
RARELY = st.sampled_from([False] * 24 + [True])
SOMETIMES = st.sampled_from([False] * 5 + [True])


def _build(kind, payload):
    """A fresh object from a recipe, so that generators can be read twice."""
    if kind == "dict":
        return dict(payload)
    if kind == "ordered":
        return OrderedDict(payload)
    if kind == "proxy":
        return MappingProxyType(dict(payload))
    if kind == "list":
        return list(payload)
    if kind == "tuple":
        return tuple(payload)
    if kind == "generator":
        return (x for x in payload)
    return payload  # a bare value in place of a list


def build_document(recipe):
    """``(vertices, edges)`` from a recipe of :func:`graph_document_recipes`."""
    return tuple(
        _build(kind, [_build(*item) for item in items] if kind != "bare" else items)
        for kind, items in recipe
    )


@st.composite
def graph_document_recipes(draw):
    """Recipes of JSON-like graph documents, mostly well formed.

    Records are dicts, ordered dicts, mapping proxies, lists, tuples or
    generators; now and then a record is a bare value, a list of two or
    four fields or a mapping without a key, a field is a bool, a float, a
    numeric string or None, an id is repeated or out of range, a genus is
    negative, an edge is a loop, has an unknown end, is not a pair or not a
    list, a tree edge is dropped (a disconnected graph), or a whole list is
    a string, an integer or a mapping.
    """
    def rare():
        return draw(RARELY)

    r = draw(st.integers(0, 6))
    ids = list(draw(st.permutations(range(r))))
    if r and draw(SOMETIMES):
        ids[draw(st.integers(0, r - 1))] = draw(st.sampled_from([ids[-1], r, r + 2, -1]))

    def field(value):
        return draw(st.sampled_from(ODD_VALUES)) if rare() else value

    def sequence(items, extra, kinds=("list", "list", "tuple", "generator")):
        """A list-like recipe of ``items``; now and then one item short, one
        item ``extra`` long, or a bare value in its place."""
        if not rare():
            return draw(st.sampled_from(kinds)), items
        return draw(st.sampled_from([
            ("list", items[:-1]),
            ("list", items + [extra]),
            ("bare", "abc"), ("bare", 5), ("bare", None), ("bare", {"a": 1}),
        ]))

    vertices = []
    for vid in ids:
        genus = -1 if rare() else draw(st.integers(0, 2))
        values = [field(vid), field(genus), field(draw(st.integers(-4, 1)))]
        kind = draw(st.sampled_from(("dict", "ordered", "proxy", "list", "tuple", "generator")))
        if kind in ("dict", "ordered", "proxy"):
            pairs = list(zip(("id", "genus", "euler"), values))
            if rare():
                del pairs[draw(st.integers(0, 2))]
            vertices.append((kind, draw(st.permutations(pairs))))
        else:
            vertices.append(sequence(values, 0, (kind,)))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, r)]
    if pairs and draw(SOMETIMES):
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    if r and draw(SOMETIMES):
        pairs.append(draw(st.sampled_from([(0, 0), (r - 1, r - 1), (0, r), (-1, 0)])))
    ends = st.integers(0, max(r - 1, 0))
    pairs += draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=2))
    edges = [sequence([field(a), field(b)], 0) for a, b in draw(st.permutations(pairs))]
    return sequence(vertices, ("bare", 0)), sequence(edges, ("bare", 0))


def _outcome(validate, recipe):
    """The graph ``validate`` builds, or its exception's class and message
    (object addresses, which differ between two builds of one generator,
    masked)."""
    try:
        return validate(*build_document(recipe))
    except Exception as exc:
        return type(exc), re.sub(r"0x[0-9a-f]+", "0x?", str(exc))


# Construction and validation -------------------------------------------------

class _Count(int):
    """An int subclass that is not a bool."""


class TestValidation:
    def test_loop_edge_rejected(self):
        with pytest.raises(LoopEdge):
            PlumbingGraph((0, 0), (-2, -2), ((1, 1),))

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected) as info:
            PlumbingGraph((0, 0, 0), (-2, -2, -2), ((0, 1),))
        assert info.value.vertex == 2

    def test_negative_genus_rejected(self):
        with pytest.raises(NegativeGenus):
            PlumbingGraph((0, -1), (-2, -2), ((0, 1),))

    def test_edge_to_unknown_vertex_rejected(self):
        with pytest.raises(NonContiguousIds):
            PlumbingGraph((0,), (-2,), ((0, 3),))

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            PlumbingGraph((), (), ())

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            PlumbingGraph((0, 0), (-2,), ())

    def test_edges_normalized_and_sorted(self):
        g = PlumbingGraph((0, 0, 0), (-2, -2, -2), ((2, 1), (1, 0), (2, 0)))
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_multi_edge_multiplicities(self):
        g = PlumbingGraph((0, 0), (-3, -3), ((0, 1), (1, 0)))
        assert g.edges == ((0, 1), (0, 1))
        assert g.adjacency == ({1: 2}, {0: 2})

    def test_adjacency_is_derived_and_not_compared(self):
        g = PlumbingGraph((0, 0, 0), (-2, -3, -2), ((1, 0), (0, 1), (1, 2)))
        assert g.adjacency == ({1: 2}, {0: 2, 2: 1}, {1: 1})
        same = PlumbingGraph((0, 0, 0), (-2, -3, -2), ((2, 1), (0, 1), (0, 1)))
        assert g == same and hash(g) == hash(same)
        assert "adjacency" not in repr(g)

    @given(plumbing_graphs())
    def test_adjacency_lists_neighbours_in_ascending_order(self, g):
        """The search order, and so the isomorphism found first, relies on
        it."""
        assert all(list(near) == sorted(near) for near in g.adjacency)

    def test_validate_graph_duplicate_id(self):
        with pytest.raises(NonContiguousIds, match="duplicate id 0"):
            validate_graph([(0, 0, -2), (0, 0, -2)], [])

    def test_validate_graph_finds_a_duplicate_id_in_a_large_graph(self):
        # A chain of 50,000 vertices whose last vertex repeats id 25,000:
        # counting every id in the list, as the search once did, is
        # quadratic in the number of vertices.
        r = 50_000
        vertices = [(i, 0, -2) for i in range(r - 1)] + [(25_000, 0, -2)]
        edges = [(i, i + 1) for i in range(r - 1)]
        start = time.perf_counter()
        with pytest.raises(NonContiguousIds, match="duplicate id 25000$"):
            validate_graph(vertices, edges)
        assert time.perf_counter() - start < 10.0

    def test_validate_graph_gap_in_ids(self):
        with pytest.raises(NonContiguousIds):
            validate_graph([(0, 0, -2), (2, 0, -2)], [(0, 2)])

    def test_validate_graph_mapping_form(self):
        g = validate_graph(
            [{"id": 1, "genus": 0, "euler": -3}, {"id": 0, "genus": 1, "euler": -2}],
            [[0, 1]],
        )
        assert g.genus == (1, 0) and g.euler == (-2, -3)

    def test_validate_graph_mapping_missing_key(self):
        with pytest.raises(InputError, match="lacks key"):
            validate_graph([{"id": 0, "genus": 0}], [])

    def test_validate_graph_bad_edge_shape(self):
        with pytest.raises(InputError, match="not a pair"):
            validate_graph([(0, 0, -2)], [[0]])

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ([{"id": 0, "genus": 0, "euler": -1.7}], []),  # not read as -1
            ([{"id": 0, "genus": 0, "euler": -2.0}], []),
            ([{"id": 0, "genus": True, "euler": -2}], []),
            ([{"id": "0", "genus": 0, "euler": -2}], []),
            ([(0, 0, -2), (1, 0, -2)], [(0, 1.0)]),
            ([(0, 0, -2), (1, 0, -2)], [(0, False)]),
            ([(0, 0)], []),  # vertex lists have exactly three entries
            ([(0, 0, -2, 7)], []),
            ([None], []),
            ("abc", []),
            (5, []),
            ([(0, 0, -2)], 5),
            ([(0, 0, -2)], ["ab"]),
        ],
    )
    def test_validate_graph_rejects_non_integers_and_bad_shapes(
        self, vertices, edges
    ):
        with pytest.raises(InputError):
            validate_graph(vertices, edges)

    @given(graph_document_recipes())
    @settings(max_examples=400)
    def test_validation_matches_the_reference_validator(self, recipe):
        """No input is coerced that the former validator rejected, and every
        rejection keeps its exception class and message."""
        found = _outcome(validate_graph, recipe)
        assert found == _outcome(reference_validate_graph, recipe)
        if isinstance(found, PlumbingGraph):
            assert found.adjacency == reference_validate_graph(
                *build_document(recipe)).adjacency

    def test_validation_reads_every_record_and_list_kind(self):
        vertices = [
            {"id": 0, "genus": 0, "euler": -2},
            OrderedDict([("euler", -3), ("id", 1), ("genus", 1)]),
            MappingProxyType({"id": 2, "genus": 0, "euler": -2}),
            [3, 0, -4],
            (4, 0, -2),
            (x for x in (5, 0, -2)),
        ]
        edges = ([0, 1], (1, 2), (x for x in (3, 2)), [3, 4], [5, 4])
        g = validate_graph((v for v in vertices), edges)
        assert g == PlumbingGraph(
            (0, 1, 0, 0, 0, 0), (-2, -3, -2, -4, -2, -2),
            ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),
        )

    @pytest.mark.parametrize("form", ["mapping", "triple"])
    def test_an_int_subclass_is_accepted_as_itself(self, form):
        """Exact ints take a fast path; any other int is still read through
        the one check, and kept, not converted."""
        zero, one, genus, euler = (_Count(x) for x in (0, 1, 2, -3))
        records = [(zero, zero, -2), (one, genus, euler)]
        if form == "mapping":
            records = [dict(zip(("id", "genus", "euler"), r)) for r in records]
        g = validate_graph(records, [[one, zero]])
        assert g.genus == (0, 2) and g.euler == (-2, -3) and g.edges == ((0, 1),)
        assert g.genus[0] is zero and g.genus[1] is genus and g.euler[1] is euler
        assert g.edges[0][0] is zero and g.edges[0][1] is one

    @pytest.mark.parametrize("form", ["mapping", "triple"])
    @pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "string"])
    @pytest.mark.parametrize("field", ["id", "genus", "euler", 0, 1])
    def test_a_non_integer_is_rejected_in_every_field(self, form, bad, field):
        """One message per field, whether or not the other fields of the
        record are exact ints."""
        records = [[0, 0, -2], [1, 0, -2]]
        edge = [0, 1]
        if isinstance(field, str):
            records[1][("id", "genus", "euler").index(field)] = bad
            what = f"vertex {field}"
        else:
            edge[field] = bad
            what = "edge end"
        if form == "mapping":
            records = [dict(zip(("id", "genus", "euler"), r)) for r in records]
        message = f"{what} must be an integer, got {bad!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            validate_graph(records, [edge])

    def test_divisor_rejects_negative_multiplicity(self):
        with pytest.raises(InputError):
            Divisor((1, -1))

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(InputError):
            VertexPermutation((0, 0))


# Intersection form -----------------------------------------------------------

class TestIntersectionForm:
    def test_matrix_of_multi_edge_chain(self):
        g = PlumbingGraph((0, 0, 1), (-2, -3, -5), ((0, 1), (0, 1), (1, 2)))
        assert intersection_matrix(g) == (
            (-2, 2, 0),
            (2, -3, 1),
            (0, 1, -5),
        )

    def test_matrix_validation(self):
        with pytest.raises(InputError, match="square"):
            is_negative_definite(((-1, 0),))
        with pytest.raises(InputError, match="symmetric"):
            is_negative_definite(((-1, 1), (0, -1)))

    def test_apply_is_exact_integer_product(self):
        g = chain_graph([-2, -2])
        assert _form_product(g, (1, 1)) == [-1, -1]
        with pytest.raises(DimensionMismatch):
            _form_product(g, (1,))

    @given(plumbing_graphs(), st.data())
    def test_sparse_product_matches_dense_rows(self, g, data):
        m = data.draw(
            st.lists(
                st.integers(-50, 50),
                min_size=g.vertex_count,
                max_size=g.vertex_count,
            )
        )
        assert tuple(_form_product(g, m)) == dense_form_product(g, m)

    @pytest.mark.parametrize(
        "rows, verdict",
        [
            ([[-1]], True),
            ([[0]], False),
            ([[1]], False),
            ([[-2, 1], [1, -2]], True),
            ([[-1, 1], [1, -1]], False),  # determinant zero
            ([[-2, 3], [3, -2]], False),
            ([[0, 1], [1, 0]], False),  # hyperbolic plane
            ([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], True),
        ],
    )
    def test_definiteness_frozen_verdicts(self, rows, verdict):
        assert is_negative_definite(rows) is verdict

    def test_definiteness_accepts_matrix_object(self):
        assert is_negative_definite(intersection_matrix(e8_graph())) is True
        assert is_negative_definite(e8_graph()) is True

    @given(plumbing_graphs())
    def test_graph_and_its_rows_get_one_verdict(self, g):
        assert is_negative_definite(g) == is_negative_definite(intersection_matrix(g))

    def test_e8_is_fillable(self):
        assert is_milnor_fillable(e8_graph()) is True

    def test_positive_euler_not_fillable(self):
        assert is_milnor_fillable(chain_graph([1])) is False

    @given(plumbing_graphs())
    def test_definiteness_matches_principal_minor_oracle(self, g):
        m = intersection_matrix(g)
        assert is_negative_definite(m) == principal_minor_signs_definite(m)

    @given(plumbing_graphs(), st.data())
    def test_definiteness_invariant_under_relabeling(self, g, data):
        sigma = data.draw(permutations_of(g.vertex_count))
        assert is_milnor_fillable(g) == is_milnor_fillable(g.relabel(sigma))

    @given(plumbing_graphs())
    def test_solve_exact_matches_rational_oracle(self, g):
        """The shared elimination solves I x = c exactly, also past zero
        leading minors; the oracle finds no solution only when I is
        singular, and then the solve must raise."""
        m = intersection_matrix(g)
        c = [-(valency(g, i) + 2 * g.genus[i]) for i in range(g.vertex_count)]
        expected = rational_least_point(g)
        if expected is None:
            with pytest.raises(InputError, match="degenerate"):
                solve_exact(m, c)
            return
        assert solve_exact(m, c) == expected
        definite = definite_solution(m, c)
        assert definite == (expected if is_negative_definite(m) else None)

    @given(symmetric_systems())
    def test_solve_exact_matches_gauss_jordan_on_symmetric_rows(self, system):
        rows, rhs = system
        expected = rational_solution(rows, rhs)
        definite = principal_minor_signs_definite(rows)
        assert is_negative_definite(rows) is definite
        assert definite_solution(rows, rhs) == (
            expected if definite else None
        )
        if expected is None:
            with pytest.raises(InputError, match="^intersection form is degenerate$"):
                solve_exact(rows, rhs)
        else:
            assert solve_exact(rows, rhs) == expected

    @given(plumbing_graphs(), st.data())
    def test_solution_follows_relabeling(self, g, data):
        sigma = data.draw(permutations_of(g.vertex_count))
        c = [-(valency(g, i) + 2 * g.genus[i]) for i in range(g.vertex_count)]
        moved = [0] * g.vertex_count
        for i, x in enumerate(c):
            moved[sigma[i]] = x
        h = g.relabel(sigma)
        for solve in (definite_solution, solve_exact):
            try:
                x = solve(g, c)
            except InputError:
                with pytest.raises(InputError, match="degenerate"):
                    solve(h, moved)
                continue
            y = solve(h, moved)
            assert (y is None) == (x is None)
            if x is not None:
                assert all(y[sigma[i]] == x[i] for i in range(g.vertex_count))

    def test_star_centre_first_and_last_get_one_answer(self):
        g = star_graph(-5, [-2, -3, -2, -4])
        last = g.relabel([4, 0, 1, 2, 3])
        c = [-(valency(g, i) + 2 * g.genus[i]) for i in range(5)]
        x = definite_solution(g, c)
        assert x is not None
        assert definite_solution(last, c[1:] + c[:1]) == (
            x[1:] + x[:1]
        )

    def test_solve_exact_solves_a_definite_star_sparse(self):
        """A definite form is solved sparse, leaves first: squared, the
        centre's row would couple every pair of the 600 legs.  Each leg
        gives ``x_leg = (x_0 + 1) / 2``, and the centre's row
        ``-301 x_0 + 300 (x_0 + 1) = -600`` gives ``x_0 = 900``."""
        star = star_graph(-301, [-2] * 600)
        c = [-(valency(star, i) + 2 * star.genus[i]) for i in range(601)]
        assert is_negative_definite(star)
        start = time.perf_counter()
        x = solve_exact(star, c)
        assert time.perf_counter() - start < 1.0
        assert x == (900,) + (Fraction(901, 2),) * 600

    def test_solve_exact_pivots_past_a_zero_leading_minor(self):
        assert solve_exact([[0, 1], [1, 0]], [2, 3]) == (3, 2)
        assert definite_solution([[0, 1], [1, 0]], [2, 3]) is None
        with pytest.raises(InputError, match="degenerate"):
            solve_exact([[-1, 1], [1, -1]], [1, 1])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: is_negative_definite([[-1.7]]),
            lambda: is_negative_definite([["-2"]]),
            lambda: is_negative_definite([[True]]),
            lambda: solve_exact([[-2.9, 1], [1, -2]], [1, 1]),
            lambda: solve_exact([[-2]], [1.5]),
        ],
        ids=["float-entry", "string-entry", "bool-entry", "float-solve", "float-rhs"],
    )
    def test_non_integer_input_is_rejected(self, call):
        with pytest.raises(InputError, match="must be an integer"):
            call()

    def test_long_chain_definiteness(self):
        """A_300 is definite and A_299 ending in a 0 weight is not; both
        need every pivot."""
        assert is_milnor_fillable(chain_graph([-2] * 300))
        assert not is_milnor_fillable(chain_graph([-2] * 299 + [0]))

    def test_long_chain_definiteness_holds_no_dense_copy(self):
        """Dense rows of A_3000 alone would hold 9 * 10^6 list slots (72 MB);
        the sparse elimination keeps about 1 MB."""
        g = chain_graph([-2] * 3000)
        tracemalloc.start()
        try:
            assert is_negative_definite(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_star_with_1600_legs_closed_forms(self):
        """Centre e with k legs of weight -2 has determinant (-2)^k (e + k/2).
        With k = 1600 the centre -1600 is definite, and (3, 2, ..., 2) meets
        every constraint with zero slack; the centre -800 is semidefinite."""
        definite = star_graph(-1600, [-2] * 1600)
        assert minimal_divisor(definite).multiplicities == (3,) + (2,) * 1600
        assert vertex_orbits(definite) == (0,) + (1,) * 1600
        assert not is_milnor_fillable(star_graph(-800, [-2] * 1600))


class TestEliminationReference:
    """The sparse elimination against dense LDL^T over Fractions: the same
    verdict, the same determinant and the same solutions."""

    @staticmethod
    def check(form, rows, rhs):
        """``form`` (a graph or raw rows) and its dense ``rows`` give one
        answer; the elimination leaves its inputs as they were."""
        definite, det, solution = fraction_ldlt(rows, rhs)
        sparse, diagonal = graphs._as_rows(form)
        before = ([dict(row) for row in sparse], list(diagonal), list(rhs))
        solved = graphs._eliminate(sparse, diagonal, rhs)
        assert ([dict(row) for row in sparse], list(diagonal), list(rhs)) == before
        assert graphs._eliminate(sparse, diagonal, None) == (
            (None, det) if definite else None
        )
        assert (solved is not None) is definite
        if definite:
            numerators, found = solved
            assert found == det
            assert tuple(Fraction(y, det) for y in numerators) == solution
        assert definite_solution(form, rhs) == solution
        expected = solution if definite else rational_solution(rows, rhs)
        if expected is None:
            with pytest.raises(InputError, match="^intersection form is degenerate$"):
                solve_exact(form, rhs)
        else:
            assert solve_exact(form, rhs) == expected

    @given(symmetric_systems(max_size=8))
    @settings(max_examples=200)
    def test_raw_rows(self, system):
        rows, rhs = system
        self.check(rows, rows, rhs)

    @given(plumbing_graphs(max_vertices=8), st.data())
    def test_graphs(self, g, data):
        rhs = data.draw(st.lists(st.integers(-5, 5), min_size=g.vertex_count,
                                 max_size=g.vertex_count))
        self.check(g, intersection_matrix(g), rhs)

    def test_a200_and_a_200_leg_star(self):
        """Dense LDL^T in index order eliminates the chain from one end and
        the star, relabeled with its centre last, leaves first, so neither
        fills in; the package pivots the star's leaves first as it is."""
        chain = chain_graph([-2] * 200)
        c = [-(valency(chain, i) + 2 * chain.genus[i]) for i in range(200)]
        self.check(chain, intersection_matrix(chain), c)
        star = star_graph(-101, [-2] * 200)
        images = [200] + list(range(200))
        moved = star.relabel(images)
        c = [-(valency(star, i) + 2 * star.genus[i]) for i in range(201)]
        definite, det, x = fraction_ldlt(intersection_matrix(moved), c[1:] + c[:1])
        assert definite and det == -(2**200)  # (-2)^200 (e + 100), e = -101
        assert graphs._eliminate(star.adjacency, star.euler, None) == (None, det)
        solution = tuple(x[images[i]] for i in range(201))
        assert definite_solution(star, c) == solution
        assert solve_exact(star, c) == solution
        assert not is_negative_definite(star_graph(-100, [-2] * 200))


# Vertex quantities -----------------------------------------------------------

class TestVertexQuantities:
    def test_valency_counts_multi_edges(self):
        g = PlumbingGraph((0, 0), (-3, -3), ((0, 1), (0, 1)))
        assert valency(g, 0) == 2 and valency(g, 1) == 2

    def test_valency_of_star_center(self):
        assert valency(star_graph(-2, [-2, -2, -2]), 0) == 3

    def test_bad_vertex_index(self):
        with pytest.raises(InputError):
            valency(chain_graph([-2]), 1)
        with pytest.raises(InputError):
            valency(chain_graph([-2]), -1)


# Automorphisms ---------------------------------------------------------------

class TestAutomorphisms:
    def test_d4_star_has_order_six(self):
        group = automorphism_group(star_graph(-2, [-2, -2, -2]))
        assert len(group) == 6
        assert all(sigma(0) == 0 for sigma in group)

    def test_e8_is_rigid(self):
        assert len(automorphism_group(e8_graph())) == 1

    def test_symmetric_chain_has_reversal(self):
        group = automorphism_group(chain_graph([-2, -2, -2]))
        assert len(group) == 2
        assert group[1].images == (2, 1, 0)

    def test_weights_break_symmetry(self):
        group = automorphism_group(chain_graph([-2, -3]))
        assert len(group) == 1

    def test_identity_comes_first(self):
        group = automorphism_group(star_graph(-1, [-2, -2]))
        assert group[0].images == (0, 1, 2)

    @given(plumbing_graphs(max_vertices=4))
    def test_group_axioms(self, g):
        group = automorphism_group(g)
        images = {sigma.images for sigma in group}
        assert tuple(range(g.vertex_count)) in images
        for sigma in group:
            inverse = sorted(range(g.vertex_count), key=sigma)
            assert tuple(inverse) in images
            for tau in group:
                assert tuple(sigma(j) for j in tau.images) in images

    @given(plumbing_graphs(max_vertices=4))
    def test_automorphisms_fix_the_graph(self, g):
        for sigma in automorphism_group(g):
            relabeled = g.relabel(sigma.images)
            assert relabeled.genus == g.genus
            assert relabeled.euler == g.euler
            assert relabeled.edges == g.edges

    @given(plumbing_graphs())
    def test_orbits_match_the_group(self, g):
        group = automorphism_group(g)
        assert vertex_orbits(g) == tuple(
            min(sigma(i) for sigma in group) for i in range(g.vertex_count)
        )

    @given(plumbing_graphs(), st.data())
    def test_orbits_are_relabeling_equivariant(self, g, data):
        sigma = data.draw(permutations_of(g.vertex_count))
        orbits = vertex_orbits(g)
        relabeled = vertex_orbits(g.relabel(sigma))
        for i in range(g.vertex_count):
            for j in range(g.vertex_count):
                assert (orbits[i] == orbits[j]) == (
                    relabeled[sigma[i]] == relabeled[sigma[j]]
                )

    def test_tree_orbits_need_no_search(self):
        """On every tree of the suite the orbits come from the canonical
        labelling: neither the refinement nor the backtracking search is
        entered."""
        trees = [g for g in full_suite() if len(g.edges) == g.vertex_count - 1]
        assert trees
        expected = []
        for g in trees:
            group = automorphism_group(g)
            expected.append(
                tuple(min(sigma(i) for sigma in group) for i in range(g.vertex_count))
            )
        with patch.object(graphs, "_isomorphisms", side_effect=AssertionError), \
                patch.object(graphs, "_equitable_cells", side_effect=AssertionError):
            assert [vertex_orbits(g) for g in trees] == expected

    @given(symmetric_trees())
    def test_orbits_of_symmetric_trees_match_the_group(self, g):
        group = automorphism_group(g)
        assert vertex_orbits(g) == tuple(
            min(sigma(i) for sigma in group) for i in range(g.vertex_count)
        )

    @given(symmetric_trees(), st.data())
    def test_orbits_of_symmetric_trees_are_relabeling_equivariant(self, g, data):
        sigma = data.draw(permutations_of(g.vertex_count))
        orbits = vertex_orbits(g)
        relabeled = vertex_orbits(g.relabel(sigma))
        for i in range(g.vertex_count):
            for j in range(g.vertex_count):
                assert (orbits[i] == orbits[j]) == (
                    relabeled[sigma[i]] == relabeled[sigma[j]]
                )

    @pytest.mark.parametrize("r", [3000, 3001, 5001])
    def test_orbits_of_long_chains(self, r):
        """The reversal pairs vertex i with r - 1 - i.  A_3000's centre is
        its middle edge and A_3001's its middle vertex; A_5001 is 2,500
        levels deep, beyond the recursion limit of a recursive pass."""
        assert vertex_orbits(chain_graph([-2] * r)) == tuple(
            min(i, r - 1 - i) for i in range(r)
        )

    def test_orbits_finer_than_the_cells_of_a_graph_with_cycles(self):
        """The Frucht graph is 3-regular with no automorphism but the
        identity: with equal weights it is one equitable cell, and only the
        search separates its twelve orbits."""
        shifts = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
        edges = {(i, (i + 1) % 12) for i in range(12)}
        edges |= {(i, (i + d) % 12) for i, d in enumerate(shifts)}
        g = PlumbingGraph((0,) * 12, (-3,) * 12, tuple({tuple(sorted(e)) for e in edges}))
        assert len(g.edges) == 18
        assert vertex_orbits(g) == tuple(range(12))

    def test_orbits_of_a_twelve_leg_star(self):
        """12! automorphisms, found as two orbits without listing them."""
        g = star_graph(-13, [-2] * 12)
        assert vertex_orbits(g) == (0,) + (1,) * 12

    @given(plumbing_graphs(), st.data())
    def test_relabel_roundtrip_through_inverse(self, g, data):
        sigma = VertexPermutation(
            tuple(data.draw(permutations_of(g.vertex_count)))
        )
        inverse = sorted(range(g.vertex_count), key=sigma)
        assert g.relabel(inverse).relabel(sigma.images) == g


# Serialization ---------------------------------------------------------------

class TestSerialization:
    @given(plumbing_graphs())
    def test_dict_round_trip(self, g):
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_file_round_trip(self, tmp_path):
        g = e8_graph()
        path = tmp_path / "graph.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_document_is_plain_json(self, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(chain_graph([-2, -2]), path)
        doc = json.loads(path.read_text())
        assert doc["vertices"][0] == {"id": 0, "genus": 0, "euler": -2}
        assert doc["edges"] == [[0, 1]]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_graph(tmp_path / "absent.json")

    def test_load_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="line 1"):
            load_graph(path)

    def test_document_missing_keys(self):
        with pytest.raises(InputError, match="lacks key"):
            graph_from_dict({"vertices": []})
        with pytest.raises(InputError, match="mapping"):
            graph_from_dict([1, 2, 3])
