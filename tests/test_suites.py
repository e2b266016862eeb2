"""Verification corpora: completeness, canonicity, and equivariance."""

from dataclasses import replace
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from milnorbook import (
    PlumbingGraph,
    SuiteSpec,
    is_milnor_fillable,
    iter_suite,
    labeled_connected_count,
    minimal_divisor,
)
from milnorbook.errors import InputError, NegativeGenus
from milnorbook.suites import _euler_classes, _iter_edge_classes

from oracles import (
    automorphism_group,
    full_suite,
    nd_suite,
    reference_edge_euler_classes,
    reference_suite,
)

# Specs the enumeration is pinned on against the reference: the default
# family, an Euler window with indefinite classes, an unsorted window with a
# nonnegative weight (the only window that does not ascend, so vectors below
# a refuted one follow it, and a pruning test that compared the wrong way
# would show), three genus values, multiplicity 3, and a family of at most
# two vertices, where a pair vector has at most one entry and a weight
# vector at most two.
REFERENCE_SPECS = {
    "default": SuiteSpec(),
    "euler-window": SuiteSpec(max_vertices=3, euler_values=(-3, -2, -1, 0, 1)),
    "euler-unsorted": SuiteSpec(euler_values=(-1, -4, 0, -2)),
    "genus-3": SuiteSpec(genus_values=(0, 1, 2)),
    "multiplicity-3": SuiteSpec(max_edge_multiplicity=3),
    "two-vertices": SuiteSpec(
        max_vertices=2,
        euler_values=(-3, -2, -1, 0, 1),
        genus_values=(0, 1, 2),
        max_edge_multiplicity=3,
    ),
}


class TestEnumeration:
    def test_negative_definite_class_counts(self):
        """Regression pin: sizes of the default verification family."""
        by_rank = {}
        for g in nd_suite():
            by_rank[g.vertex_count] = by_rank.get(g.vertex_count, 0) + 1
        assert by_rank == {1: 8, 2: 51, 3: 690, 4: 13084}
        assert len(nd_suite()) == 13833

    def test_definite_classes_are_a_subset(self):
        assert len(nd_suite()) < len(full_suite())
        assert all(is_milnor_fillable(g) for g in nd_suite())

    def test_no_weight_window_violations(self):
        spec = SuiteSpec()
        for g in full_suite():
            assert g.vertex_count <= spec.max_vertices
            assert all(e in spec.euler_values for e in g.euler)
            assert all(gg in spec.genus_values for gg in g.genus)
            assert all(k <= spec.max_edge_multiplicity
                       for neighbours in g.adjacency for k in neighbours.values())

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_orbit_sizes_account_for_every_labeled_graph(self, r):
        """Sum of orbit sizes r!/|Aut| equals the direct labeled count.

        Exact equality certifies simultaneously that no isomorphism class
        is missing and that no class is enumerated twice.
        """
        spec = SuiteSpec()
        classes = [
            g
            for g in iter_suite(spec, negative_definite_only=False)
            if g.vertex_count == r
        ]
        total = sum(
            factorial(r) // len(automorphism_group(g)) for g in classes
        )
        assert total == labeled_connected_count(r, spec)

    def test_orbit_size_identity_on_four_vertices_small_window(self):
        spec = SuiteSpec(
            max_vertices=4,
            euler_values=(-2, -1),
            genus_values=(0,),
            max_edge_multiplicity=2,
        )
        classes = [
            g
            for g in iter_suite(spec, negative_definite_only=False)
            if g.vertex_count == 4
        ]
        total = sum(
            factorial(4) // len(automorphism_group(g)) for g in classes
        )
        assert total == labeled_connected_count(4, spec)


class TestSharedEdges:
    """Suite graphs share one validated template per edge configuration."""

    def test_adjacency_matches_a_fresh_construction(self):
        """``adjacency`` takes no part in equality, so the reference
        comparison cannot see it; compare it with a constructed graph's."""
        pool = [g for g in nd_suite() + full_suite() if g.vertex_count <= 3]
        assert pool
        for g in pool:
            assert g.adjacency == PlumbingGraph(g.genus, g.euler, g.edges).adjacency

    def test_negative_genus_is_still_refused(self):
        with pytest.raises(NegativeGenus, match=r"^vertex 0 has genus -1 < 0$"):
            next(iter_suite(SuiteSpec(genus_values=(-1, 0))))

    @pytest.mark.parametrize(
        "genus, euler",
        [((0, 0), (-2,)), ((0,), (-2, -2)), ((0,), (-2,)), ((0, 0, 0), (-2, -2, -2))],
        ids=["short-euler", "short-genus", "both-short", "both-long"],
    )
    def test_reweighted_refuses_wrong_lengths(self, genus, euler):
        template = PlumbingGraph((0, 0), (0, 0), ((0, 1),))
        with pytest.raises(
            InputError, match=r"^genus and euler weight lists differ in length$"
        ):
            template._reweighted(genus, euler)


class TestEquivariance:
    @given(st.data())
    @settings(max_examples=40)
    def test_minimal_divisor_is_relabeling_equivariant(self, data):
        """sigma(minimal divisor of g) = minimal divisor of sigma(g).

        This is why checking one representative per class covers the whole
        labeled family.
        """
        pool = [g for g in nd_suite() if g.vertex_count <= 3]
        g = data.draw(st.sampled_from(pool))
        sigma = data.draw(st.permutations(list(range(g.vertex_count))))
        divisor = minimal_divisor(g).multiplicities
        relabeled = minimal_divisor(g.relabel(sigma)).multiplicities
        pushed = [0] * len(divisor)
        for i, image in enumerate(sigma):
            pushed[image] = divisor[i]
        assert relabeled == tuple(pushed)

    @given(st.data())
    @settings(max_examples=40)
    def test_automorphism_count_is_relabeling_invariant(self, data):
        pool = [g for g in full_suite() if g.vertex_count <= 3]
        g = data.draw(st.sampled_from(pool))
        sigma = data.draw(st.permutations(list(range(g.vertex_count))))
        assert len(automorphism_group(g)) == len(
            automorphism_group(g.relabel(sigma))
        )


class TestReference:
    """The enumeration yields the former enumeration's sequence, kept
    verbatim in ``oracles`` as the reference."""

    @pytest.mark.parametrize("name", REFERENCE_SPECS)
    def test_edge_euler_classes_match_the_reference(self, name):
        """Same (edges, euler) pairs in the same order, each with the same
        residual stabilizer, on every vertex count.  The layers hold each
        stabilizer as the weight actions of its members other than the
        identity; an action maps (0, ..., r - 1) to the inverse of its
        permutation, and a group holds the inverse of each member."""
        spec = REFERENCE_SPECS[name]
        for r in range(1, spec.max_vertices + 1):
            identity = tuple(range(r))
            got = [
                (edges, euler, {identity, *(act(identity) for act in residual)})
                for edges, stabilizer in _iter_edge_classes(r, spec)
                for euler, residual in _euler_classes(r, stabilizer, spec)
            ]
            assert got == [
                (edges, euler, set(residual))
                for edges, euler, residual in reference_edge_euler_classes(r, spec)
            ]

    @pytest.mark.parametrize("definite", [True, False], ids=["definite", "all"])
    @pytest.mark.parametrize("name", REFERENCE_SPECS)
    def test_suite_matches_the_reference(self, name, definite):
        """Same graphs in the same order.  Four vertices with three genus
        values or multiplicity 3 give 5.7e5 and 6.9e5 classes in all, so
        those families are compared in full on three vertices."""
        spec = REFERENCE_SPECS[name]
        if name == "default":
            got = nd_suite() if definite else full_suite()
        else:
            if not definite:
                spec = replace(spec, max_vertices=min(spec.max_vertices, 3))
            got = tuple(iter_suite(spec, negative_definite_only=definite))
        assert got == tuple(reference_suite(spec, negative_definite_only=definite))
        assert {g.vertex_count for g in got} == set(range(1, spec.max_vertices + 1))
