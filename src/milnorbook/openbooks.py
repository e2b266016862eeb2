"""Decorated link graphs and the canonical open book pipeline.

Arrowheads attached to a vertex record binding components: n_i generic
fibers of the circle bundle over that vertex.  The pipeline turns a
fillable plumbing graph into its canonical decorated graph by way of the
minimal divisor, and certifies the properties that make the decorated data
a complete invariant (all n_i >= 1, automorphism invariance, decided from
vertex orbits).  Decorated graphs are compared with the package's one
backtracking isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AllZero,
    DimensionMismatch,
    InputError,
    NotMilnorFillable,
    NotNegativeDefinite,
)
from .divisors import check_theorem_conditions, constraint_vector, minimal_divisor
from .graphs import Divisor, PlumbingGraph, _integer, find_isomorphism

__all__ = [
    "DecoratedLinkGraph",
    "OpenBookReport",
    "ubiquitous_open_book",
    "decorated_isomorphic",
]

UNIQUENESS_NOTE = (
    "every binding multiplicity is positive, so all horizontal open books "
    "with this binding are isomorphic; the decorated graph determines the "
    "open book"
)


@dataclass(frozen=True)
class DecoratedLinkGraph:
    """Plumbing graph plus per-vertex arrowhead counts.

    Arrowheads are a multiset per vertex (generic fibers are
    interchangeable), so only counts are stored.  At least one arrowhead is
    required; vertices with zero arrowheads are legal, although uniqueness
    of the horizontal open book needs every count positive.
    """

    base: PlumbingGraph
    arrowheads: tuple[int, ...]

    def __post_init__(self):
        if len(self.arrowheads) != self.base.vertex_count:
            raise DimensionMismatch(
                f"{len(self.arrowheads)} arrowhead counts for "
                f"{self.base.vertex_count} vertices"
            )
        for i, n in enumerate(self.arrowheads):
            if _integer(n, f"arrowhead count n_{i}") < 0:
                raise InputError(f"arrowhead count n_{i} = {n} is negative")
        if all(n == 0 for n in self.arrowheads):
            raise AllZero("an open book needs at least one binding component")

    @property
    def binding_components(self) -> int:
        return sum(self.arrowheads)

    def to_text(self) -> str:
        """Vertex list with (genus, euler, arrows) labels plus edges."""
        lines = [
            f"vertex {i}: ({self.base.genus[i]}, {self.base.euler[i]}, "
            f"{self.arrowheads[i]} arrows)"
            for i in range(self.base.vertex_count)
        ]
        edges = " ".join(f"[{a},{b}]" for a, b in self.base.edges) or "(none)"
        lines.append(f"edges: {edges}")
        return "\n".join(lines)


@dataclass(frozen=True)
class OpenBookReport:
    """Full certificate bundle for the canonical open book of a graph."""

    graph: DecoratedLinkGraph
    divisor: Divisor
    binding_components: int
    per_vertex: tuple[tuple[int, int, int, int, int, int], ...]
    fillable: bool
    aut_invariant: bool
    commentary: str

    def to_dict(self) -> dict:
        return {
            "fillable": self.fillable,
            "divisor": list(self.divisor.multiplicities),
            "arrowheads": list(self.graph.arrowheads),
            "binding_components": self.binding_components,
            "per_vertex": [
                {
                    "valency": v,
                    "genus": g,
                    "euler": e,
                    "multiplicity": m,
                    "arrowheads": n,
                    "slack": s,
                }
                for v, g, e, m, n, s in self.per_vertex
            ],
            "aut_invariant": self.aut_invariant,
            "commentary": self.commentary,
        }


def ubiquitous_open_book(g: PlumbingGraph) -> OpenBookReport:
    """Fillability check, minimal divisor, binding data, certificates.

    The resulting arrowhead counts are always strictly positive, which is
    the hypothesis under which the decorated graph determines the open book
    up to isomorphism; that fact is recorded as commentary, not computed.
    Fillability is decided by the descent's own elimination.
    """
    try:
        divisor = minimal_divisor(g)
    except NotNegativeDefinite:
        raise NotMilnorFillable(
            "the intersection form is not negative definite; "
            "no Milnor filling exists"
        ) from None
    certificates = check_theorem_conditions(g, divisor)
    counts = certificates.multiplicities
    decorated = DecoratedLinkGraph(g, counts)
    # Valencies v_i = -c_i - 2 g_i, read off the constraint vector.
    bounds = constraint_vector(g)
    per_vertex = tuple(
        (
            -bounds[i] - 2 * g.genus[i],
            g.genus[i],
            g.euler[i],
            divisor.multiplicities[i],
            counts[i],
            certificates.inequality_slack[i],
        )
        for i in range(g.vertex_count)
    )
    return OpenBookReport(
        graph=decorated,
        divisor=divisor,
        binding_components=decorated.binding_components,
        per_vertex=per_vertex,
        fillable=True,
        aut_invariant=certificates.aut_invariant,
        commentary=UNIQUENESS_NOTE,
    )


def decorated_isomorphic(a: DecoratedLinkGraph, b: DecoratedLinkGraph) -> bool:
    """Existence of a vertex bijection preserving genus, Euler weight,
    edge multiplicities, and arrowhead counts."""
    return find_isomorphism(a.base, b.base, a.arrowheads, b.arrowheads) is not None
