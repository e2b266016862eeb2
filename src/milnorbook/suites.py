"""Exhaustive verification corpora of small plumbing graphs.

The solver's correctness battery runs over every connected graph with at
most four vertices, Euler weights in a small window, genus 0 or 1, and edge
multiplicity at most 2.  Relabeling a graph conjugates every quantity the
battery checks (descent output, oracle output, binding multiplicities), so
one representative per isomorphism class gives full coverage of the family;
the enumeration therefore yields canonical representatives only.  Coverage
is itself certified in the tests by an orbit-size count against the labeled
family and by a relabeling-equivariance property test.

A tuple is orbit-minimal when no permutation in its layer's group maps it
to a lexicographically smaller tuple.  Each vertex permutation's action on
multiplicity and weight vectors is an index map built once per vertex
count and applied as one ``operator.itemgetter`` call; the identity is
never applied.

Definiteness depends on edges and Euler weights only, so :func:`iter_suite`
decides it once per (edges, euler) pair, before genus is expanded, by
eliminating the pair's form directly (``graphs._eliminate``) on the
adjacency of one validated template graph per edge configuration, with
the Euler vector as its diagonal.
It is monotone in the Euler weights: if ``diag(e) + K`` is not negative
definite and ``e' >= e`` componentwise, then ``diag(e') + K`` adds a
positive semidefinite matrix to it and is not negative definite either.
So within one edge configuration every Euler vector that dominates the
last refuted one is skipped without a probe; the test is componentwise,
so it holds for any order of the Euler window.  Every yielded graph is the
template reweighted (``PlumbingGraph._reweighted``): only its weights are
checked, since the edges and their connectivity were checked once on the
template.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import ge, itemgetter
from typing import Iterator, Sequence

from .graphs import PlumbingGraph, _eliminate

__all__ = ["SuiteSpec", "iter_suite", "labeled_connected_count"]


@dataclass(frozen=True)
class SuiteSpec:
    """Parameters of the verification family."""

    max_vertices: int = 4
    euler_values: tuple[int, ...] = (-4, -3, -2, -1)
    genus_values: tuple[int, ...] = (0, 1)
    max_edge_multiplicity: int = 2


def _connected(r: int, pairs: Sequence[tuple[int, int]], mult: Sequence[int]) -> bool:
    parent = list(range(r))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), k in zip(pairs, mult):
        if k:
            parent[find(a)] = find(b)
    return len({find(i) for i in range(r)}) == 1


def _action(images: Sequence[int]):
    """The push-forward of vectors along the bijection p -> images[p], or
    None for the identity, which fixes every vector.

    The image of ``v`` has ``v[p]`` at ``images[p]``, so it is one
    ``itemgetter`` call on the inverse index map, built here once.  A
    bijection that moves an index moves at least two, so the getter holds
    two indices or more and returns a tuple, never a bare entry.
    """
    if all(p == q for p, q in enumerate(images)):
        return None
    return itemgetter(*sorted(range(len(images)), key=images.__getitem__))


def _iter_edge_classes(r: int, spec: SuiteSpec):
    """Canonical connected edge configurations with their stabilizers.

    A vertex permutation sigma acts on multiplicity vectors through its
    permutation of the pairs and on weight vectors through itself; both
    actions are built once per permutation.  The stabilizer lists the
    actions on weights of every sigma other than the identity that fixes
    the configuration.
    """
    pairs = list(combinations(range(r), 2))
    index = {p: i for i, p in enumerate(pairs)}
    group = []
    for sigma in permutations(range(r)):
        moved = [
            index[min(sigma[a], sigma[b]), max(sigma[a], sigma[b])] for a, b in pairs
        ]
        group.append((_action(moved), _action(sigma)))
    for mult in product(range(spec.max_edge_multiplicity + 1), repeat=len(pairs)):
        if not _connected(r, pairs, mult):
            continue
        images = [on_edges(mult) if on_edges else mult for on_edges, _ in group]
        if min(images) < mult:
            continue
        stabilizer = [
            on_weights
            for (_, on_weights), image in zip(group, images)
            if on_weights and image == mult
        ]
        edges = tuple(
            pair for pair, k in zip(pairs, mult) for _ in range(k)
        )
        yield edges, stabilizer


def _euler_classes(r: int, stabilizer, spec: SuiteSpec):
    """Euler weight vectors that ``stabilizer`` maps to none smaller, each
    with the part of ``stabilizer`` that fixes it."""
    for euler in product(spec.euler_values, repeat=r):
        images = [act(euler) for act in stabilizer]
        if images and min(images) < euler:
            continue
        yield euler, [act for act, image in zip(stabilizer, images) if image == euler]


def iter_suite(
    spec: SuiteSpec | None = None,
    *,
    negative_definite_only: bool = True,
) -> Iterator[PlumbingGraph]:
    """One representative per isomorphism class of the family.

    Canonical forms are computed in layers: edge configuration up to the
    symmetric group, Euler weights up to the edge stabilizer, genus weights
    up to the (edges, euler) stabilizer.  Each layer keeps the orbit-minimal
    tuple, so the composite is a canonical form for the weighted graph.

    With ``negative_definite_only``, an Euler vector that dominates the
    last one refuted on the same edge configuration is skipped unprobed:
    raising diagonal entries adds a positive semidefinite matrix, so a form
    that is not negative definite stays so.  Every graph shares the edges
    and adjacency of one template graph per edge configuration, validated
    once; only the weights are checked per graph.
    """
    spec = spec or SuiteSpec()
    for r in range(1, spec.max_vertices + 1):
        zeros = (0,) * r
        for edges, stabilizer in _iter_edge_classes(r, spec):
            template = PlumbingGraph(zeros, zeros, edges)
            refuted = None
            for euler, residual in _euler_classes(r, stabilizer, spec):
                if negative_definite_only:
                    if refuted and all(map(ge, euler, refuted)):
                        continue
                    if _eliminate(template.adjacency, euler, None) is None:
                        refuted = euler
                        continue
                for genus in product(spec.genus_values, repeat=r):
                    if any(act(genus) < genus for act in residual):
                        continue
                    yield template._reweighted(genus, euler)


def labeled_connected_count(r: int, spec: SuiteSpec | None = None) -> int:
    """Number of labeled connected weighted graphs on exactly r vertices.

    Direct product count, no isomorphism reduction; the tests compare this
    against the orbit sizes of the enumerated classes to certify that the
    class enumeration misses nothing.
    """
    spec = spec or SuiteSpec()
    pairs = list(combinations(range(r), 2))
    edge_configs = sum(
        1
        for mult in product(range(spec.max_edge_multiplicity + 1), repeat=len(pairs))
        if _connected(r, pairs, mult)
    )
    weights = (len(spec.euler_values) * len(spec.genus_values)) ** r
    return edge_configs * weights
