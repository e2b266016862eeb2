"""Decorated graphs and the canonical open book pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from milnorbook import (
    DecoratedLinkGraph,
    PlumbingGraph,
    binding_multiplicities,
    chain_graph,
    decorated_isomorphic,
    e8_graph,
    minimal_divisor,
    star_graph,
    ubiquitous_open_book,
    valency,
)
from milnorbook.errors import (
    AllZero,
    DimensionMismatch,
    InputError,
    NotMilnorFillable,
)

from oracles import nd_suite


class TestDecoratedGraph:
    def test_negative_arrowheads_rejected(self):
        with pytest.raises(InputError):
            DecoratedLinkGraph(chain_graph([-2]), (-1,))

    @pytest.mark.parametrize("count", [1.5, True, "2"])
    def test_non_integer_arrowheads_rejected(self, count):
        with pytest.raises(InputError, match=r"arrowhead count n_1 must be an integer"):
            DecoratedLinkGraph(chain_graph([-2, -2]), (1, count))

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            DecoratedLinkGraph(chain_graph([-2, -2]), (0, 0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            DecoratedLinkGraph(chain_graph([-2]), (1, 1))

    def test_zero_arrowheads_flagged_not_rejected(self):
        decorated = DecoratedLinkGraph(chain_graph([-2, -2]), (0, 2))
        assert 0 in decorated.arrowheads
        assert decorated.binding_components == 2

    def test_to_text_frozen(self):
        decorated = DecoratedLinkGraph(chain_graph([-2]), (2,))
        assert decorated.to_text() == "vertex 0: (0, -2, 2 arrows)\nedges: (none)"

    def test_to_text_lists_edges(self):
        decorated = DecoratedLinkGraph(chain_graph([-2, -2]), (1, 1))
        assert decorated.to_text().endswith("edges: [0,1]")


class TestPipeline:
    def test_rejects_non_fillable_graph(self):
        with pytest.raises(NotMilnorFillable):
            ubiquitous_open_book(chain_graph([0]))

    def test_single_vertex_report(self):
        report = ubiquitous_open_book(chain_graph([-2]))
        assert report.divisor.multiplicities == (1,)
        assert report.graph.arrowheads == (2,)
        assert report.binding_components == 2
        assert report.fillable and report.aut_invariant
        assert 0 not in report.graph.arrowheads
        assert report.commentary  # the uniqueness note travels with the data

    def test_e8_report_frozen(self):
        g = e8_graph()
        report = ubiquitous_open_book(g)
        assert report.divisor.multiplicities == (
            57, 113, 167, 219, 269, 181, 91, 135,
        )
        assert report.graph.arrowheads == tuple(valency(g, i) for i in range(8))
        assert report.binding_components == 14
        assert report.aut_invariant
        # per-vertex rows carry (valency, genus, euler, multiplicity, n, slack)
        for i, (v, genus, euler, m, n, slack) in enumerate(report.per_vertex):
            assert v == valency(g, i)
            assert genus == 0 and euler == -2
            assert m == report.divisor.multiplicities[i]
            assert n == v and slack == 0

    def test_to_dict_shape(self):
        doc = ubiquitous_open_book(star_graph(-2, [-2, -2, -2])).to_dict()
        assert doc["divisor"] == [9, 5, 5, 5]
        assert doc["arrowheads"] == [3, 1, 1, 1]
        assert doc["binding_components"] == 6
        assert doc["per_vertex"][0] == {
            "valency": 3,
            "genus": 0,
            "euler": -2,
            "multiplicity": 9,
            "arrowheads": 3,
            "slack": 0,
        }

    @pytest.mark.parametrize("length", [1, 2])
    def test_twelve_equal_legs_are_invariant(self, length):
        """The star's 12! automorphisms are never listed: invariance is
        read off its vertex orbits."""
        edges = []
        for leg in range(12):
            previous = 0
            for step in range(length):
                vertex = 1 + leg * length + step
                edges.append((previous, vertex))
                previous = vertex
        r = 1 + 12 * length
        g = PlumbingGraph((0,) * r, (-13,) + (-2,) * (r - 1), tuple(edges))
        report = ubiquitous_open_book(g)
        assert report.aut_invariant is True
        assert len(set(report.divisor.multiplicities)) == 1 + length

    @given(st.sampled_from([g for g in nd_suite() if g.vertex_count <= 3]))
    @settings(max_examples=60)
    def test_arrowheads_always_positive(self, g):
        report = ubiquitous_open_book(g)
        assert all(n >= 1 for n in report.graph.arrowheads)
        assert report.aut_invariant


class TestIsomorphism:
    @given(
        st.sampled_from([g for g in nd_suite() if g.vertex_count <= 3]),
        st.data(),
    )
    @settings(max_examples=50)
    def test_relabeled_decorations_are_isomorphic(self, g, data):
        sigma = data.draw(st.permutations(list(range(g.vertex_count))))
        n = binding_multiplicities(g, minimal_divisor(g))
        a = DecoratedLinkGraph(g, n)
        pushed = [0] * g.vertex_count
        for i, image in enumerate(sigma):
            pushed[image] = n[i]
        b = DecoratedLinkGraph(g.relabel(sigma), tuple(pushed))
        assert decorated_isomorphic(a, b)

    def test_different_arrowheads_not_isomorphic(self):
        g = chain_graph([-2, -2])
        assert not decorated_isomorphic(
            DecoratedLinkGraph(g, (1, 2)), DecoratedLinkGraph(g, (1, 1))
        )

    def test_arrowhead_placement_matters(self):
        g = chain_graph([-2, -3])
        assert not decorated_isomorphic(
            DecoratedLinkGraph(g, (1, 2)), DecoratedLinkGraph(g, (2, 1))
        )

    def test_weight_mismatch_not_isomorphic(self):
        a = DecoratedLinkGraph(chain_graph([-2, -2]), (1, 1))
        b = DecoratedLinkGraph(chain_graph([-2, -3]), (1, 1))
        assert not decorated_isomorphic(a, b)

    def test_genus_mismatch_not_isomorphic(self):
        a = DecoratedLinkGraph(chain_graph([-2]), (1,))
        b = DecoratedLinkGraph(chain_graph([-2], genus=[1]), (1,))
        assert not decorated_isomorphic(a, b)

    def test_multi_edge_count_matters(self):
        double = PlumbingGraph((0, 0), (-3, -3), ((0, 1), (0, 1)))
        single = PlumbingGraph((0, 0), (-3, -3), ((0, 1),))
        assert not decorated_isomorphic(
            DecoratedLinkGraph(double, (1, 1)), DecoratedLinkGraph(single, (1, 1))
        )
