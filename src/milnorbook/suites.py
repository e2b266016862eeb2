"""Exhaustive verification corpora of small plumbing graphs.

The solver's correctness battery runs over every connected graph with at
most four vertices, Euler weights in a small window, genus 0 or 1, and edge
multiplicity at most 2.  Relabeling a graph conjugates every quantity the
battery checks (descent output, oracle output, binding multiplicities), so
one representative per isomorphism class gives full coverage of the family;
the enumeration therefore yields canonical representatives only.  Coverage
is itself certified in the tests by an orbit-size count against the labeled
family and by a relabeling-equivariance property test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterator, Sequence

from .graphs import PlumbingGraph, is_negative_definite

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


def _permuted_edges(
    mult: Sequence[int],
    sigma: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    index: dict[tuple[int, int], int],
) -> tuple[int, ...]:
    out = [0] * len(pairs)
    for (a, b), k in zip(pairs, mult):
        ia, ib = sigma[a], sigma[b]
        out[index[(min(ia, ib), max(ia, ib))]] = k
    return tuple(out)


def _permuted_weights(weights: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(weights)
    for i, w in enumerate(weights):
        out[sigma[i]] = w
    return tuple(out)


def _iter_edge_classes(r: int, spec: SuiteSpec):
    """Canonical connected edge configurations with their stabilizers."""
    pairs = list(combinations(range(r), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(r)))
    for mult in product(range(spec.max_edge_multiplicity + 1), repeat=len(pairs)):
        if not _connected(r, pairs, mult):
            continue
        images = [(sigma, _permuted_edges(mult, sigma, pairs, index)) for sigma in perms]
        if min(img for _, img in images) < mult:
            continue
        stabilizer = [sigma for sigma, img in images if img == mult]
        edges = tuple(
            pair for pair, k in zip(pairs, mult) for _ in range(k)
        )
        yield edges, stabilizer


def iter_edge_euler_classes(r: int, spec: SuiteSpec):
    """Canonical (edges, euler) pairs with residual stabilizers.

    Genus plays no role in definiteness, so callers filtering on the
    intersection form can prune at this level before expanding genus.
    """
    for edges, stabilizer in _iter_edge_classes(r, spec):
        for euler in product(spec.euler_values, repeat=r):
            images = [(s, _permuted_weights(euler, s)) for s in stabilizer]
            if min(img for _, img in images) < euler:
                continue
            residual = [s for s, img in images if img == euler]
            yield edges, euler, residual


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
    """
    spec = spec or SuiteSpec()
    for r in range(1, spec.max_vertices + 1):
        for edges, euler, residual in iter_edge_euler_classes(r, spec):
            if negative_definite_only:
                probe = PlumbingGraph((0,) * r, euler, edges)
                if not is_negative_definite(probe):
                    continue
            for genus in product(spec.genus_values, repeat=r):
                if any(_permuted_weights(genus, s) < genus for s in residual):
                    continue
                yield PlumbingGraph(genus, euler, edges)


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
