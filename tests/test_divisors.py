"""Minimal divisors: descent, exhaustive oracle, certificates, inverses."""

import random
import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import milnorbook.divisors as divisors
from milnorbook import (
    Divisor,
    binding_multiplicities,
    chain_graph,
    check_theorem_conditions,
    constraint_vector,
    divisor_from_multiplicities,
    e8_graph,
    is_milnor_fillable,
    minimal_divisor,
    oracle_minimal_divisor,
    star_graph,
    valency,
    PlumbingGraph,
)
from milnorbook.errors import (
    BoundTooSmall,
    DimensionMismatch,
    InputError,
    IterationCapExceeded,
    NonEffectiveSolution,
    NonIntegralSolution,
    NotNegativeDefinite,
)

from oracles import (
    box_scan_minimal_divisor,
    brute_force_feasible_points,
    brute_force_minimal_divisor,
    dense_form_product,
    nd_suite,
    rational_ceiling,
    rational_least_point,
    scan_minimal_divisor,
)


def small_nd_graphs():
    return st.sampled_from([g for g in nd_suite() if g.vertex_count <= 3])


D4 = star_graph(-2, [-2, -2, -2])
# Warm-started at ceil(I^-1 c) = (8, 15, 20), the descent repairs four times.
FOUR_REPAIRS = PlumbingGraph((1, 1, 0), (-3, -3, -2), ((0, 2), (1, 2), (1, 2)))
# Least divisor (25, 22, 9, 15, 6, 14): the benchmark's largest oracle box
# is this tree at bound 30, the CLI's default is bound 40.
SIX_VERTEX_TREE = PlumbingGraph(
    (1, 1, 0, 0, 1, 1),
    (-2, -2, -3, -2, -3, -2),
    ((0, 1), (0, 2), (0, 5), (1, 3), (3, 4)),
)

# Centre -3 with five -2 legs: every pair of legs shares the centre's row.
# Least divisor (15, 8, 8, 8, 8, 8).
SIX_VERTEX_STAR = star_graph(-3, [-2] * 5)

# K_{3,3} with -4 weights: its least coupled pair is adjacent, so its least
# points are raised in rounds.  Least divisor (3, 3, 3, 3, 3, 3).
SIX_VERTEX_K33 = PlumbingGraph(
    (0,) * 6, (-4,) * 6, tuple((a, b) for a in range(3) for b in range(3, 6))
)

# The oracle's slab sizes under test: the default, one value of the first
# grid coordinate per slab, and seven rows, which leave a ragged last slab.
SLAB_ROWS = (divisors._SLAB_ROWS, 1, 7)

# One graph per path through the oracle, with its least divisor and bounds
# below and above that divisor's largest entry (a least entry 1 has no
# bound below it).
SCAN_SHAPES = [
    # The zero divisor satisfies the only row and must be left out.
    ("genus-0-vertex", PlumbingGraph((0,), (-2,), ()), (1,), (1, 4)),
    ("genus-3-vertex", PlumbingGraph((3,), (-2,), ()), (3,), (2, 3, 5)),
    # Adjacent pairs: every row is coupled, and the rounds raise the least
    # point.
    ("chain-2-2", chain_graph([-2, -2]), (1, 1), (1, 4)),
    ("chain-2-2-genus-1", PlumbingGraph((1, 1), (-2, -2), ((0, 1),)), (3, 3), (2, 3, 6)),
    ("triangle-double-edge",
     PlumbingGraph((1, 0, 0), (-4, -4, -3), ((0, 1), (0, 1), (1, 2), (0, 2))),
     (5, 5, 4), (4, 5, 8)),
    # K_{3,3}: the least coupled pairs are adjacent, and the rows through
    # u's other edges bound u from above on the grid.
    ("k33-adjacent-pair",
     PlumbingGraph((0, 0, 1, 0, 0, 0), (-4, -6, -4, -5, -4, -5),
                   tuple((a, b) for a in range(3) for b in range(3, 6))),
     (3, 2, 4, 3, 3, 3), (3, 4, 5)),
    # K5: every row is coupled, so the least point comes from the rounds
    # alone.
    ("k5", PlumbingGraph((0,) * 5, (-5,) * 5, tuple(combinations(range(5), 2))),
     (4, 4, 4, 4, 4), (3, 4)),
    # K_{3,3} with an edge inside one part: the least coupled pair (0, 5)
    # is adjacent, and rows 3 and 4 see u = 0 but not x = 5.
    ("k33-inner-edge-adjacent-pair",
     PlumbingGraph((1, 0, 0, 0, 0, 0), (-5,) * 6,
                   tuple((a, b) for a in range(3) for b in range(3, 6)) + ((3, 4),)),
     (4, 3, 3, 4, 4, 3), (3, 4, 6)),
    # A pair that no row couples; its zero grid row must stay masked.
    ("trap-path", PlumbingGraph((0, 0, 0, 1), (-4,) * 4, ((0, 3), (1, 2), (2, 3))),
     (1, 1, 2, 2), (1, 3, 8)),
    # Non-adjacent pairs whose coupled rows are read at the least point.
    ("four-cycle-two-coupled",
     PlumbingGraph((1, 0, 0, 0), (-2, -3, -2, -3), ((0, 1), (1, 2), (2, 3), (0, 3))),
     (7, 5, 6, 5), (6, 7, 9)),
    ("six-vertex-star", SIX_VERTEX_STAR, (15, 8, 8, 8, 8, 8), (8, 15)),
]


def _scan_reach(g, bound):
    """max(bound + 1, max_i(|c_i| + bound * sum_j |I_ij|)), read off the
    weights and valencies."""
    c = constraint_vector(g)
    return max(
        bound + 1,
        max(
            abs(k) + bound * (abs(e) + sum(neighbours.values()))
            for k, e, neighbours in zip(c, g.euler, g.adjacency)
        ),
    )


def _dtype_boundaries():
    """Chains with one heavy vertex whose oracle reach is the largest at or
    below each type's maximum, and the next one above it.  A heavy vertex
    of weight -E and valency v reaches v + bound (E + v); the chains whose
    least divisor has an entry 3 are too small at bound 2."""
    shapes = [  # (bound, weights), None marking the heavy vertex
        (2, (None, -2)),
        (2, (-2, None)),
        (2, (-2, None, -2)),
        (2, (None, -2, -2)),
        (3, (None, -2, -2)),
        (3, (-2, -2, None)),
    ]
    for limit, narrow, wide in ((2**15 - 1, np.int16, np.int32),
                                (2**31 - 1, np.int32, np.int64)):
        for bound, shape in shapes:
            heavy = shape.index(None)
            v = (heavy > 0) + (heavy < len(shape) - 1)
            heaviest = (limit - v) // bound - v
            below, above = (
                chain_graph([-e if w is None else w for w in shape])
                for e in (heaviest, heaviest + 1)
            )
            assert limit - bound < _scan_reach(below, bound) <= limit
            assert limit < _scan_reach(above, bound) <= limit + bound
            yield below, bound, narrow
            yield above, bound, wide


DTYPE_BOUNDARIES = list(_dtype_boundaries())


# Frozen examples -------------------------------------------------------------

class TestFrozenExamples:
    @pytest.mark.parametrize(
        "graph, divisor, counts",
        [
            (chain_graph([-1]), (1,), (1,)),
            (chain_graph([-2]), (1,), (2,)),
            (chain_graph([-2, -2]), (1, 1), (1, 1)),
            (chain_graph([-2, -2, -2]), (2, 3, 2), (1, 2, 1)),
            (chain_graph([-3], genus=[1]), (1,), (3,)),
            (D4, (9, 5, 5, 5), (3, 1, 1, 1)),
        ],
    )
    def test_divisor_and_multiplicities(self, graph, divisor, counts):
        d = minimal_divisor(graph)
        assert d.multiplicities == divisor
        assert binding_multiplicities(graph, d) == counts

    def test_d4_oracle_confirms_frozen_value(self):
        assert oracle_minimal_divisor(D4, 12).multiplicities == (9, 5, 5, 5)

    def test_e8_divisor_saturates_every_constraint(self):
        """The E8 form is unimodular, so the least real solution of
        I x = c is integral and must equal the least divisor; the exact
        rational solve is an independent route to the same vector."""
        g = e8_graph()
        d = minimal_divisor(g)
        assert d.multiplicities == (57, 113, 167, 219, 269, 181, 91, 135)
        report = check_theorem_conditions(g, d)
        assert report.inequality_slack == (0,) * 8
        assert report.multiplicities == tuple(
            valency(g, i) for i in range(8)
        )
        exact = rational_least_point(g)
        assert all(v.denominator == 1 for v in exact)
        assert tuple(int(v) for v in exact) == d.multiplicities

    def test_constraint_vector_examples(self):
        assert constraint_vector(D4) == (-3, -1, -1, -1)
        assert constraint_vector(e8_graph()) == (
            -1, -2, -2, -2, -3, -2, -1, -1,
        )
        assert constraint_vector(chain_graph([-3], genus=[1])) == (-2,)


# Descent behavior ------------------------------------------------------------

class TestDescent:
    def test_rejects_non_definite_graph(self):
        with pytest.raises(NotNegativeDefinite):
            minimal_divisor(chain_graph([0]))

    def test_iteration_cap(self):
        """The cap bounds repair steps above the rational lower bound, which
        this graph needs four of (D4 needs none)."""
        with patch.object(divisors, "REPAIR_CAP", 4):
            assert minimal_divisor(FOUR_REPAIRS).multiplicities == (9, 16, 22)
        with patch.object(divisors, "REPAIR_CAP", 3):
            with pytest.raises(IterationCapExceeded, match="more than 3 repair"):
                minimal_divisor(FOUR_REPAIRS)

    def test_long_chain_returns_its_divisor(self):
        """A_185's least divisor has mass about 10^6.  It is
        m_i = (i + 1)(185 - i) - 1: second differences of -2 inside and -1
        at the ends give I m = c exactly, so m is feasible and every
        feasible divisor dominates it."""
        g = chain_graph([-2] * 185)
        d = minimal_divisor(g)
        assert d.multiplicities == tuple((i + 1) * (185 - i) - 1 for i in range(185))
        assert check_theorem_conditions(g, d).inequality_slack == (0,) * 185

    def test_huge_genus_vertex_returns_its_divisor(self):
        """m = ceil(2g / |e|) with g = 10^6, e = -1, reached with no repair."""
        g = PlumbingGraph((10**6,), (-1,), ())
        with patch.object(divisors, "REPAIR_CAP", 0):
            assert minimal_divisor(g).multiplicities == (2_000_000,)

    @given(small_nd_graphs())
    @settings(max_examples=50)
    def test_divisor_is_feasible_and_nonzero(self, g):
        report = check_theorem_conditions(g, minimal_divisor(g))
        assert report.satisfies_inequality
        assert report.multiplicities_positive
        assert not report.zero_divisor

    @given(small_nd_graphs())
    @settings(max_examples=50)
    def test_divisor_dominates_rational_least_point(self, g):
        """Every feasible divisor lies above the exact real solution of
        I x = c; the least divisor must respect the componentwise ceiling,
        with equality when the solution is integral."""
        d = minimal_divisor(g).multiplicities
        exact = rational_least_point(g)
        floor = rational_ceiling(exact)
        assert all(m >= f for m, f in zip(d, floor))
        # A nonzero integral solution is itself feasible, hence least; the
        # zero solution is excluded by the nonzero requirement on divisors.
        if all(v.denominator == 1 for v in exact) and any(exact):
            assert d == floor


def mixed_chain(rng: random.Random, n: int) -> PlumbingGraph:
    """The benchmark's mixed chain: -2 runs of fixed lengths, each closed by
    a -3, in seeded order, cut to n vertices."""
    runs = [1, 2, 2, 3, 3, 4, 5, 6] * (n // 30 + 1)
    rng.shuffle(runs)
    eulers = []
    for length in runs:
        eulers += [-2] * length + [-3]
    return chain_graph(eulers[:n])


@st.composite
def definite_trees(draw, max_vertices=12):
    r = draw(st.integers(1, max_vertices))
    edges = tuple((draw(st.integers(0, i - 1)), i) for i in range(1, r))
    g = PlumbingGraph(
        tuple(draw(st.lists(st.integers(0, 1), min_size=r, max_size=r))),
        tuple(draw(st.lists(st.integers(-4, -1), min_size=r, max_size=r))),
        edges,
    )
    assume(is_milnor_fillable(g))
    return g


@st.composite
def definite_stars(draw):
    """A centre with legs of one to three vertices each."""
    genus, euler, edges = [draw(st.integers(0, 1))], [draw(st.integers(-9, -1))], []
    for leg in draw(st.lists(st.lists(st.integers(-4, -2), min_size=1, max_size=3),
                             min_size=1, max_size=8)):
        previous = 0
        for e in leg:
            genus.append(0)
            euler.append(e)
            edges.append((previous, len(euler) - 1))
            previous = len(euler) - 1
    g = PlumbingGraph(tuple(genus), tuple(euler), tuple(edges))
    assume(is_milnor_fillable(g))
    return g


class TestDescentReference:
    """The heap-fed descent against the former scan-based one: the same
    divisor after the same number of repairs, read off ``REPAIR_CAP``."""

    @staticmethod
    def check(g, repairs=None):
        divisor, needed = scan_minimal_divisor(g)
        if repairs is not None:
            assert needed == repairs
        with patch.object(divisors, "REPAIR_CAP", needed):
            assert minimal_divisor(g).multiplicities == divisor
        if needed:
            with patch.object(divisors, "REPAIR_CAP", needed - 1):
                with pytest.raises(IterationCapExceeded):
                    minimal_divisor(g)

    @given(definite_trees())
    @settings(max_examples=150)
    def test_random_definite_trees(self, g):
        self.check(g)

    @given(definite_stars())
    @settings(max_examples=100)
    def test_stars(self, g):
        self.check(g)

    def test_fixed_graphs(self):
        for g in (FOUR_REPAIRS, SIX_VERTEX_TREE, D4, e8_graph()):
            self.check(g)

    def test_the_benchmark_mixed_chains(self):
        """The two mixed chains of the large-graph benchmark workload at seed
        53 take 51 and 84 repairs above the rational bound."""
        rng = random.Random("plumbing-large:53")
        for n, repairs in ((100, 51), (150, 84)):
            self.check(mixed_chain(rng, n), repairs)


# Exhaustive oracle -----------------------------------------------------------

class TestOracle:
    def test_rejects_bad_bound(self):
        with pytest.raises(InputError):
            oracle_minimal_divisor(D4, 0)

    def test_rejects_non_definite_graph(self):
        with pytest.raises(NotNegativeDefinite):
            oracle_minimal_divisor(chain_graph([1]), 5)

    def test_bound_too_small_reported(self):
        with pytest.raises(BoundTooSmall):
            oracle_minimal_divisor(D4, 8)

    @pytest.mark.parametrize("pinned", [None, 7, 1], ids=["default", "7", "1"])
    @given(g=small_nd_graphs(), bound=st.integers(2, 6))
    @settings(max_examples=40)
    def test_interval_scan_matches_naive_grid(self, pinned, g, bound):
        """The interval-collapse search agrees point for point with a
        nested-loop scan of the same box, including infeasibility.  The
        default id draws the bound; the others pin it at 7, above the drawn
        range, and at 1, the smallest box, where most graphs have no
        feasible point.  Each box is scanned at every size of SLAB_ROWS."""
        if pinned is not None:
            bound = pinned
        naive = brute_force_minimal_divisor(g, bound)
        for slab_rows in SLAB_ROWS:
            with patch.object(divisors, "_SLAB_ROWS", slab_rows):
                if naive is None:
                    with pytest.raises(BoundTooSmall):
                        oracle_minimal_divisor(g, bound)
                else:
                    assert oracle_minimal_divisor(g, bound).multiplicities == naive

    @pytest.mark.parametrize(
        "g, least, bounds",
        [shape[1:] for shape in SCAN_SHAPES],
        ids=[shape[0] for shape in SCAN_SHAPES],
    )
    def test_every_scan_shape_matches_the_brute_force(self, g, least, bounds):
        """Each path through the oracle answers as the brute force does,
        BoundTooSmall included, at every size of SLAB_ROWS.  Five and six
        vertices are checked by the vectorised box scan, which agrees with
        the nested-loop scan on the smaller shapes."""
        for bound in bounds:
            expected = least if bound >= max(least) else None
            if g.vertex_count > 4:
                assert box_scan_minimal_divisor(g, bound) == expected
            else:
                assert brute_force_minimal_divisor(g, bound) == expected
                assert box_scan_minimal_divisor(g, bound) == expected
            for slab_rows in SLAB_ROWS:
                with patch.object(divisors, "_SLAB_ROWS", slab_rows):
                    if expected is None:
                        with pytest.raises(BoundTooSmall):
                            oracle_minimal_divisor(g, bound)
                    else:
                        found = oracle_minimal_divisor(g, bound).multiplicities
                        assert found == expected, slab_rows

    def test_every_slab_is_scanned(self, monkeypatch):
        """The tree at bound 30 has 31^3 grid rows per value of the first
        grid coordinate, so each of its 31 values is one slab.  All are
        scanned, also those past the first with a feasible row: stopping
        there would assume the min-closure that the oracle verifies."""
        slabs = []
        scan = divisors._slab_least_point

        def counted(*args):
            slabs.append(scan(*args))
            return slabs[-1]

        monkeypatch.setattr(divisors, "_slab_least_point", counted)
        d = oracle_minimal_divisor(SIX_VERTEX_TREE, 30)
        assert d.multiplicities == (25, 22, 9, 15, 6, 14)
        assert len(slabs) == 31
        assert sum(found is not None for found in slabs) > 1

    def test_adjacent_shapes_take_an_adjacent_pair(self):
        """The shapes the rounds serve: their least coupled pair is
        adjacent, and on the inner-edge K_{3,3} u keeps rows that do not see
        x."""
        shapes = {name: g for name, g, _, _ in SCAN_SHAPES}
        for name in ("k5", "k33-adjacent-pair", "k33-inner-edge-adjacent-pair"):
            g = shapes[name]
            u, x = divisors._coupling_pair(g)
            assert x in g.adjacency[u], name
        g = shapes["k33-inner-edge-adjacent-pair"]
        assert divisors._coupling_pair(g) == (0, 5)
        assert {0, *g.adjacency[0]} - {5, *g.adjacency[5]} == {3, 4}

    @pytest.mark.parametrize("k", [2, 10, 30])
    def test_slow_contraction_pair_matches_the_descent(self, k):
        """Two vertices joined by k edges, weights -1 and -(k^2 + 1): from
        zero each round would raise x by about one, k^2 + k rounds to the
        least divisor (k^3 + k^2 + k, k^2 + k); one below its larger entry
        the box holds no feasible point."""
        g = PlumbingGraph((0, 0), (-1, -(k * k + 1)), ((0, 1),) * k)
        d = minimal_divisor(g)
        assert d.multiplicities == (k**3 + k * k + k, k * k + k)
        assert oracle_minimal_divisor(g, 10**6) == d
        with pytest.raises(BoundTooSmall):
            oracle_minimal_divisor(g, max(d.multiplicities) - 1)

    def test_slow_contraction_pair_starts_at_its_rational_solution(self, monkeypatch):
        """The k = 400 pair at bound 10^8: from zero its rounds would number
        k^2 + k = 160,400, two own-row divisions each.  Started at the
        ceiling of the own rows' rational solution, which is integral here,
        one round confirms it: two divisions for the start, two for the
        round."""
        k = 400
        g = PlumbingGraph((0, 0), (-1, -(k * k + 1)), ((0, 1),) * k)
        d = minimal_divisor(g)
        assert d.multiplicities == (64160400, 160400)
        divisions = []
        floor_divide = np.floor_divide

        def counted(*args, **kwargs):
            divisions.append(1)
            return floor_divide(*args, **kwargs)

        monkeypatch.setattr(np, "floor_divide", counted)
        assert oracle_minimal_divisor(g, 10**8) == d
        assert len(divisions) == 4

    def test_pair_start_is_skipped_beyond_int64(self):
        """Weights -2^33 at both ends of one edge: the own rows'
        determinant 2^66 - 1 fits no 64-bit integer, so the rounds start
        from zero, and still reach the least divisor."""
        g = chain_graph([-(2**33)] * 2)
        assert oracle_minimal_divisor(g, 3) == minimal_divisor(g) == Divisor((1, 1))

    def test_rounds_stop_at_the_bound(self, monkeypatch):
        """Values are capped at the bound, so the k = 30 pair, whose rounds
        from zero would number about 900, takes at most 2 (bound + 1) at
        bound 10: two own-row divisions per round."""
        g = PlumbingGraph((0, 0), (-1, -901), ((0, 1),) * 30)
        divisions = []
        floor_divide = np.floor_divide

        def counted(*args, **kwargs):
            divisions.append(1)
            return floor_divide(*args, **kwargs)

        monkeypatch.setattr(np, "floor_divide", counted)
        with pytest.raises(BoundTooSmall):
            oracle_minimal_divisor(g, 10)
        assert 0 < len(divisions) <= 2 * 2 * (10 + 1)

    def test_streamed_block_size_is_capped(self, monkeypatch):
        """A grid of (bound + 1)^(r - 2) rows whose arrays, counted over the
        whole grid, would exceed the byte budget is refused before anything
        is allocated; at the budget it runs."""
        need = divisors._grid_bytes(4, 13**2)
        monkeypatch.setattr(divisors, "_GRID_BYTES", need - 1)
        with pytest.raises(InputError, match=r"box \[0, 12\]\^4"):
            oracle_minimal_divisor(D4, 12)
        monkeypatch.setattr(divisors, "_GRID_BYTES", need)
        assert oracle_minimal_divisor(D4, 12).multiplicities == (9, 5, 5, 5)

    def test_seven_vertices_at_bound_24_refused_before_allocating(self):
        """E7 at bound 24 has a grid of 25^5 rows, about 1.4 GB of arrays
        counted over the whole grid: the budget refuses it before anything
        is allocated."""
        e7 = PlumbingGraph(
            (0,) * 7, (-2,) * 7, tuple((i, i + 1) for i in range(5)) + ((2, 6),)
        )
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"box \[0, 24\]\^7 is too large"):
                oracle_minimal_divisor(e7, 24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("r, bound", [(4, 40), (4, 365), (5, 40), (6, 30), (6, 40)])
    def test_routine_boxes_fit_the_budget(self, r, bound):
        """The suite's bound-40 and straggler boxes, the benchmark's largest
        boxes and r = 6 at the CLI's default bound are admitted."""
        grid_rows = (bound + 1) ** (r - 2)
        assert divisors._grid_bytes(r, grid_rows) <= divisors._GRID_BYTES
        assert (bound + 1) ** (r - 1) <= divisors._ABSURD_ROWS

    def test_memory_does_not_grow_with_the_bound(self):
        """A two-vertex box has a grid of one row, whose least point the
        rounds raise in place, so a box of 10^6 values per coordinate needs
        no array of that length."""
        tracemalloc.start()
        try:
            d = oracle_minimal_divisor(chain_graph([-2, -2]), 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.multiplicities == (1, 1)
        assert peak < 4 * 2**20

    def test_two_vertex_box_at_bound_4e9_refused_before_allocating(self):
        """Two vertices have a grid of one row, so the byte budget does not
        bound them: at bound 4e9 the rounds could number up to 8e9.  The
        box's 4e9 prefixes are beyond _ABSURD_ROWS, and it is refused
        before anything is allocated."""
        tracemalloc.start()
        try:
            with pytest.raises(
                InputError, match=r"^box \[0, 4000000000\]\^2 is too large to enumerate$"
            ):
                oracle_minimal_divisor(chain_graph([-2, -2]), 4 * 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "g, bound, dtype",
        DTYPE_BOUNDARIES,
        ids=[f"{g.euler}-bound{b}" for g, b, _ in DTYPE_BOUNDARIES],
    )
    def test_value_type_boundaries_match_naive_grid(self, g, bound, dtype):
        """Boxes whose reach sits just below and just above 2^15 - 1 and
        2^31 - 1 take the narrower and the wider type, and both answer as
        the nested-loop scan does, infeasibility included."""
        assert divisors._value_type(_scan_reach(g, bound)) is dtype
        naive = brute_force_minimal_divisor(g, bound)
        if naive is None:
            with pytest.raises(BoundTooSmall):
                oracle_minimal_divisor(g, bound)
        else:
            assert oracle_minimal_divisor(g, bound).multiplicities == naive

    @pytest.mark.parametrize(
        "g, bound, message",
        [
            (chain_graph([-2]), 10**20, r"box \[0, 100000000000000000000\]\^1 holds"),
            (chain_graph([-(10**19), -2]), 40, r"box \[0, 40\]\^2 holds"),
            # Its int64 products v * lead passed 2^63 and wrapped unseen.
            (chain_graph([-4 * 10**18, -2, -2]), 40, r"box \[0, 40\]\^3 holds"),
        ],
        ids=["bound-1e20", "euler-1e19", "euler-4e18"],
    )
    def test_values_beyond_int64_are_an_input_error(self, g, bound, message):
        """A box whose values no 64-bit integer holds is refused before
        anything is allocated; the descent still answers it exactly."""
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=message + " values up to \\d+, beyond"):
                oracle_minimal_divisor(g, bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert minimal_divisor(g) == Divisor(
            brute_force_minimal_divisor(g, 3)
        )

    def test_six_vertices_at_bound_30_hold_narrow_values(self):
        """The benchmark's largest box: in int16 its peak is under half of
        _grid_bytes, the whole grid's arrays at 8 bytes per value.  Scanned
        slab by slab it is far lower; the test below pins that."""
        tracemalloc.start()
        try:
            d = oracle_minimal_divisor(SIX_VERTEX_TREE, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.multiplicities == (25, 22, 9, 15, 6, 14)
        assert peak < divisors._grid_bytes(6, 31**4) / 2

    def test_six_vertex_star_at_bound_30_holds_narrow_values(self):
        """The six-vertex star, whose every pair of legs shares a coupled
        row, stays under the same limit as the tree, which has a pair no
        row couples."""
        tracemalloc.start()
        try:
            d = oracle_minimal_divisor(SIX_VERTEX_STAR, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.multiplicities == (15, 8, 8, 8, 8, 8)
        assert peak < divisors._grid_bytes(6, 31**4) / 2

    @pytest.mark.parametrize(
        "g, least",
        [
            (SIX_VERTEX_TREE, (25, 22, 9, 15, 6, 14)),
            (SIX_VERTEX_STAR, (15, 8, 8, 8, 8, 8)),
            (SIX_VERTEX_K33, (3, 3, 3, 3, 3, 3)),
        ],
        ids=["tree", "star", "k33"],
    )
    def test_r6_boxes_at_the_default_bound_hold_one_slab(self, g, least):
        """At the CLI's default bound of 40 the grid has 41^4 rows, 35 to
        46 MB of narrow arrays held whole.  Scanned slab by slab, the peak
        is one slab's arrays: about 1 MB on the tree, the star and K_{3,3}."""
        tracemalloc.start()
        try:
            d = oracle_minimal_divisor(g, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.multiplicities == least
        assert peak < 4 * 2**20

    @given(small_nd_graphs())
    @settings(max_examples=40)
    def test_feasible_set_is_min_closed(self, g):
        """Componentwise minima of feasible divisors stay feasible; this is
        the property that makes 'the' least divisor well defined."""
        points = brute_force_feasible_points(g, 6)
        if len(points) < 2:
            return
        sample = points[:: max(1, len(points) // 12)]
        c = constraint_vector(g)
        for p, q in combinations(sample, 2):
            met = tuple(min(a, b) for a, b in zip(p, q))
            products = dense_form_product(g, met)
            assert all(
                products[i] <= c[i] for i in range(g.vertex_count)
            )

    def test_straggler_class_agrees_at_its_exact_bound(self):
        """The largest divisor in the default family exceeds the standard
        search box; at a box that actually contains it the oracle agrees."""
        g = PlumbingGraph(
            genus=(1, 1, 1, 1),
            euler=(-3, -3, -2, -4),
            edges=((0, 3), (1, 2), (1, 3), (2, 3), (2, 3)),
        )
        d = minimal_divisor(g)
        assert max(d.multiplicities) == 365
        with pytest.raises(BoundTooSmall):
            oracle_minimal_divisor(g, 40)
        assert oracle_minimal_divisor(g, 365) == d


# Multiplicities and the inverse map -----------------------------------------

class TestMultiplicities:
    def test_zero_divisor_rejected(self):
        with pytest.raises(InputError):
            binding_multiplicities(chain_graph([-2]), Divisor((0,)))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            binding_multiplicities(chain_graph([-2]), Divisor((1, 1)))
        with pytest.raises(DimensionMismatch):
            divisor_from_multiplicities(chain_graph([-2]), (1, 1))
        with pytest.raises(DimensionMismatch):
            check_theorem_conditions(chain_graph([-2]), Divisor((1, 1)))

    def test_non_integral_solution_reported(self):
        with pytest.raises(NonIntegralSolution) as info:
            divisor_from_multiplicities(chain_graph([-2]), (1,))
        assert info.value.vertex == 0

    def test_non_effective_solution_reported(self):
        with pytest.raises(NonEffectiveSolution):
            divisor_from_multiplicities(chain_graph([-2, -2]), (-3, 3))

    @given(small_nd_graphs(), st.data())
    @settings(max_examples=60)
    def test_round_trip_on_random_effective_divisors(self, g, data):
        m = data.draw(
            st.lists(
                st.integers(0, 9),
                min_size=g.vertex_count,
                max_size=g.vertex_count,
            ).filter(lambda v: any(v))
        )
        d = Divisor(tuple(m))
        n = binding_multiplicities(g, d)
        assert divisor_from_multiplicities(g, n) == d

    def test_report_flags_on_zero_divisor(self):
        report = check_theorem_conditions(chain_graph([-2]), Divisor((0,)))
        assert report.zero_divisor
        assert not report.multiplicities_positive
        assert not report.satisfies_inequality

    def test_report_detects_asymmetric_divisor(self):
        report = check_theorem_conditions(D4, Divisor((9, 5, 5, 6)))
        assert not report.aut_invariant

    def test_inverse_pivots_past_a_zero_leading_minor(self):
        """I = [[0, 1], [1, -1]] is nonsingular although its first leading
        minor vanishes; the solve exchanges rows instead of failing."""
        g = chain_graph([0, -1])
        assert divisor_from_multiplicities(g, (-2, -1)).multiplicities == (3, 2)

    def test_a_definite_round_trip_is_not_squared(self):
        """On the 200-leg star the definite elimination stays sparse; the
        normal equations fill a 200 x 200 block at the centre and traced
        5.7 MB."""
        g = star_graph(-200, [-2] * 200)
        d = minimal_divisor(g)
        n = binding_multiplicities(g, d)
        tracemalloc.start()
        try:
            assert divisor_from_multiplicities(g, n) == d
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_report_to_dict_shape(self):
        report = check_theorem_conditions(D4, minimal_divisor(D4))
        doc = report.to_dict()
        assert doc["divisor"] == [9, 5, 5, 5]
        assert doc["multiplicities"] == [3, 1, 1, 1]
        assert doc["aut_invariant"] is True
        assert doc["satisfies_inequality"] is True
        assert all(s >= 0 for s in doc["slack"])
