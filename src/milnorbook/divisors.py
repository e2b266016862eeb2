"""Minimal effective divisors on negative definite plumbing lattices.

The existence theorem needs an effective divisor D = sum(m_i E_i) != 0 with
D . E_i <= -(v_i + 2 g_i) at every vertex.  We return the canonical choice:
the componentwise-least feasible divisor, computed by Laufer's computation
sequence warm-started at the exact rational lower bound I^-1 c, and
cross-checked by an independent exhaustive search.  Automorphism invariance
is decided from the vertex orbits.  Everything here is exact integer or
rational arithmetic; no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundTooSmall,
    DimensionMismatch,
    InputError,
    InternalInvariantError,
    IterationCapExceeded,
    NonEffectiveSolution,
    NonIntegralSolution,
    NotNegativeDefinite,
)
from .graphs import (
    Divisor,
    PlumbingGraph,
    intersection_matrix,
    is_milnor_fillable,
    solve_exact,
    valency,
    vertex_orbits,
)

__all__ = [
    "ConstraintVector",
    "MultiplicityVector",
    "DivisorReport",
    "constraint_vector",
    "minimal_divisor",
    "oracle_minimal_divisor",
    "binding_multiplicities",
    "divisor_from_multiplicities",
    "check_theorem_conditions",
]

# The repair phase after the warm start terminates on a definite lattice;
# the cap bounds the repair steps, as defense in depth.
REPAIR_CAP = 10**6


@dataclass(frozen=True)
class ConstraintVector:
    """Per-vertex bounds c_i = -(v_i + 2 g_i); never positive."""

    bounds: tuple[int, ...]


@dataclass(frozen=True)
class MultiplicityVector:
    """Binding multiplicities n_i = -D . E_i; solver outputs have n_i >= 1."""

    counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class DivisorReport:
    """Certificate bundle for one divisor against one graph."""

    divisor: Divisor
    multiplicities: MultiplicityVector
    inequality_slack: tuple[int, ...]
    aut_invariant: bool
    zero_divisor: bool
    multiplicities_positive: bool
    satisfies_inequality: bool

    def to_dict(self) -> dict:
        return {
            "divisor": list(self.divisor.multiplicities),
            "multiplicities": list(self.multiplicities.counts),
            "slack": list(self.inequality_slack),
            "aut_invariant": self.aut_invariant,
            "zero_divisor": self.zero_divisor,
            "multiplicities_positive": self.multiplicities_positive,
            "satisfies_inequality": self.satisfies_inequality,
        }


def constraint_vector(g: PlumbingGraph) -> ConstraintVector:
    """c_i = -(v_i + 2 g_i).

    Feasibility D . E_i <= c_i is the inequality (D + E + K) . E_i + 2 <= 0
    rewritten through adjunction: E . E_i = e_i + v_i and K . E_i =
    2 g_i - 2 - e_i, so the Euler weights cancel.
    """
    return ConstraintVector(
        tuple(-(valency(g, i) + 2 * g.genus[i]) for i in range(g.vertex_count))
    )


def minimal_divisor(
    g: PlumbingGraph,
    *,
    selection: Callable[[Sequence[int]], int] | None = None,
    cap: int = REPAIR_CAP,
) -> Divisor:
    """Componentwise-least effective D != 0 with D . E_i <= c_i for all i.

    One exact elimination decides definiteness and solves I x* = c.  The
    negative of I is inverse-positive (a definite matrix with non-negative
    off-diagonal entries), so every feasible divisor m, having I m <= c,
    dominates x*; it also has m_i >= 1: for r >= 2 each c_i <= -1 while
    m_i = 0 would give D . E_i >= 0, and for r = 1 effectivity plus D != 0
    forces m >= 1.  The descent therefore starts at max(1, ceil(x*_i)) and
    repairs: while some vertex violates its constraint, it raises that
    vertex's multiplicity by one (Laufer's computation sequence).  Each
    increment is forced (any feasible divisor dominating the current one
    must exceed it at the violated vertex, because off-diagonal
    intersection numbers are >= 0), so the iterate stays a lower bound of
    the feasible set and the first feasible iterate is the least element.
    ``cap`` bounds the number of repair steps.

    ``selection`` picks the vertex to bump among the violated ones; the
    default takes the lowest index.  The result does not depend on this
    choice (a tested property).
    """
    matrix = intersection_matrix(g)
    c = constraint_vector(g).bounds
    lower = solve_exact(matrix, c, require_negative_definite=True)
    if lower is None:
        raise NotNegativeDefinite("descent requires a negative definite graph")
    r = g.vertex_count
    m = [max(1, math.ceil(x)) for x in lower]
    products = list(matrix.apply(m))
    repairs = 0
    while True:
        violated = [i for i in range(r) if products[i] > c[i]]
        if not violated:
            return Divisor(tuple(m))
        i = violated[0] if selection is None else selection(violated)
        if i not in violated:
            raise InputError("selection returned a non-violated vertex")
        if repairs == cap:
            raise IterationCapExceeded(
                f"descent needed more than {cap} repair steps above the "
                "rational lower bound"
            )
        m[i] += 1
        repairs += 1
        for j in range(r):
            products[j] += matrix.entries[j][i]


# Prefix grids at or below this row count are materialized whole and their
# matrix products memoized; larger boxes stream in blocks of fixed leading
# coordinate.  Both paths scan the same lattice points.
_FAST_ROWS = 2_000_000
_ABSURD_ROWS = 5_000_000_000
# A streamed block holds (bound + 1)^(r - 2) rows, and about 2 r int64
# arrays of that length sit beside it.  The cap admits r <= 6 at bound 40
# (41^4 rows); E7 at bound 40 would need 41^5 rows, several GB.
_BLOCK_ROWS = 10_000_000


@lru_cache(maxsize=8)
def _prefix_grid(dims: int, bound: int) -> np.ndarray:
    """All vectors in [0, bound]^dims as rows, lexicographic, int64."""
    if dims == 0:
        return np.zeros((1, 0), dtype=np.int64)
    axes = np.indices((bound + 1,) * dims, dtype=np.int64)
    grid = axes.reshape(dims, -1).T
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=16)
def _prefix_products(entries: tuple, bound: int) -> tuple[np.ndarray, ...]:
    """Row products prefix . rows[i, :r-1], shared across genus variants
    (the intersection matrix does not see genus)."""
    rows = np.array(entries, dtype=np.int64)
    prefix = _prefix_grid(len(entries) - 1, bound)
    out = []
    for i in range(len(entries)):
        product = prefix @ rows[i, : len(entries) - 1]
        product.setflags(write=False)
        out.append(product)
    return tuple(out)


def _interval_scan(rows, c, bound, prefix, bases, origin_row):
    """Feasible-interval pass over one block of prefixes.

    Returns (mins over the block or None, minimal feasible last coordinate
    or None).  ``origin_row`` indexes the all-zero divisor within the block,
    or is None when the block cannot contain it.
    """
    r = len(rows)
    last = r - 1
    lo = np.zeros(len(prefix), dtype=np.int64)
    hi = np.full(len(prefix), bound, dtype=np.int64)
    mask = np.ones(len(prefix), dtype=bool)
    for i in range(r):
        coeff = int(rows[i][last])
        if i == last:
            # e_last * x <= c_i - base with e_last < 0: lower bound on x.
            e_abs = -coeff
            np.maximum(lo, (bases[i] - c[i] + e_abs - 1) // e_abs, out=lo)
        elif coeff == 0:
            mask &= bases[i] <= c[i]
        else:
            np.minimum(hi, (c[i] - bases[i]) // coeff, out=hi)
    # Excluding the zero divisor only affects the all-zero prefix row.
    if origin_row is not None:
        lo[origin_row] = max(lo[origin_row], 1)
    mask &= lo <= hi
    if not mask.any():
        return None, None
    big = bound + 1
    prefix_mins = [
        int(np.where(mask, prefix[:, j], big).min()) for j in range(last)
    ]
    return prefix_mins, int(np.where(mask, lo, big).min())


def oracle_minimal_divisor(g: PlumbingGraph, bound: int) -> Divisor:
    """Exhaustive search over 0 <= m_i <= bound, independent of the descent.

    Scans every lattice point of the box: the first r-1 coordinates are
    enumerated outright, and for each such prefix the admissible values of
    the last coordinate form an interval computed directly from the
    constraint rows (the last diagonal entry is negative, so its row bounds
    the coordinate from below; rows through an edge to the last vertex bound
    it from above).  Returns the componentwise minimum of the feasible set
    and verifies that this minimum is itself feasible, which is the lattice
    min-closure property the descent's canonicity rests on.
    """
    if bound < 1:
        raise InputError("search bound must be at least 1")
    if not is_milnor_fillable(g):
        raise NotNegativeDefinite("oracle requires a negative definite graph")
    r = g.vertex_count
    last = r - 1
    total_rows = (bound + 1) ** last
    if total_rows > _ABSURD_ROWS:
        raise InputError(f"box [0, {bound}]^{r} is too large to enumerate")
    streamed = last >= 2 and total_rows > _FAST_ROWS
    if streamed and (bound + 1) ** (last - 1) > _BLOCK_ROWS:
        raise InputError(
            f"box [0, {bound}]^{r} is too large to enumerate: its blocks of "
            f"{(bound + 1) ** (last - 1)} rows exceed {_BLOCK_ROWS}"
        )
    matrix = intersection_matrix(g)
    rows = matrix.entries
    c = constraint_vector(g).bounds

    found = False
    mins = [bound + 1] * r
    if not streamed:
        prefix = _prefix_grid(last, bound)
        bases = _prefix_products(rows, bound)
        prefix_mins, last_min = _interval_scan(rows, c, bound, prefix, bases, 0)
        if prefix_mins is not None:
            found = True
            mins = prefix_mins + [last_min]
    else:
        # Stream blocks of fixed leading coordinate; only the inner
        # sub-products are shared, the leading term is a scalar shift.
        np_rows = np.array(rows, dtype=np.int64)
        sub = _prefix_grid(last - 1, bound)
        sub_bases = [sub @ np_rows[i, 1:last] for i in range(r)]
        block = np.empty((len(sub), last), dtype=np.int64)
        block[:, 1:] = sub
        for a in range(bound + 1):
            block[:, 0] = a
            bases = [sub_bases[i] + a * int(np_rows[i, 0]) for i in range(r)]
            origin = 0 if a == 0 else None
            prefix_mins, last_min = _interval_scan(
                rows, c, bound, block, bases, origin
            )
            if prefix_mins is None:
                continue
            found = True
            for j in range(last):
                mins[j] = min(mins[j], prefix_mins[j])
            mins[last] = min(mins[last], last_min)
    if not found:
        raise BoundTooSmall(f"no feasible divisor with all m_i <= {bound}")
    result = Divisor(tuple(mins))

    products = matrix.apply(result.multiplicities)
    feasible = not result.is_zero and all(
        products[i] <= c[i] for i in range(r)
    )
    if not feasible:
        raise InternalInvariantError(
            "componentwise minimum of the feasible set is not feasible; "
            "min-closure violated"
        )
    return result


def binding_multiplicities(g: PlumbingGraph, d: Divisor) -> MultiplicityVector:
    """n_i = -(I . m)_i, the number of binding circles over vertex i.

    For the minimal divisor these satisfy n_i >= v_i + 2 g_i, and n_i >= 1
    even in the single-vertex genus-0 case where the constraint alone is
    vacuous: there D = m E with E^2 < 0 forces n = -m e > 0.
    """
    if len(d) != g.vertex_count:
        raise DimensionMismatch(
            f"divisor of length {len(d)} against {g.vertex_count} vertices"
        )
    if d.is_zero:
        raise InputError("binding multiplicities need a non-zero divisor")
    products = intersection_matrix(g).apply(d.multiplicities)
    return MultiplicityVector(tuple(-p for p in products))


def divisor_from_multiplicities(g: PlumbingGraph, n: MultiplicityVector) -> Divisor:
    """Exact inverse of the multiplicity map: solve I . m = -n.

    Succeeds only when the rational solution is integral and effective,
    establishing the round trip with binding_multiplicities; otherwise the
    offending entry shows n is not realizable by an effective divisor.
    """
    if len(n) != g.vertex_count:
        raise DimensionMismatch(
            f"multiplicity vector of length {len(n)} against "
            f"{g.vertex_count} vertices"
        )
    solution = solve_exact(intersection_matrix(g), [-k for k in n.counts])
    for i, value in enumerate(solution):
        if value.denominator != 1:
            raise NonIntegralSolution(i, value)
    for i, value in enumerate(solution):
        if value < 0:
            raise NonEffectiveSolution(i, int(value))
    return Divisor(tuple(int(v) for v in solution))


def check_theorem_conditions(g: PlumbingGraph, d: Divisor) -> DivisorReport:
    """Report the existence-theorem certificates for an arbitrary divisor.

    Violations are reported, never thrown: slack may be negative, the zero
    divisor is flagged (conditions vacuously fail), and automorphism
    invariance holds when the divisor is constant on every vertex orbit of
    the weighted automorphism group, which is the same as being fixed by
    every automorphism.
    """
    if len(d) != g.vertex_count:
        raise DimensionMismatch(
            f"divisor of length {len(d)} against {g.vertex_count} vertices"
        )
    matrix = intersection_matrix(g)
    c = constraint_vector(g).bounds
    products = matrix.apply(d.multiplicities)
    slack = tuple(c[i] - products[i] for i in range(g.vertex_count))
    counts = MultiplicityVector(tuple(-p for p in products))
    orbits = vertex_orbits(g)
    aut_invariant = all(
        m == d.multiplicities[orbits[i]] for i, m in enumerate(d.multiplicities)
    )
    positive = all(k >= 1 for k in counts.counts)
    return DivisorReport(
        divisor=d,
        multiplicities=counts,
        inequality_slack=slack,
        aut_invariant=aut_invariant,
        zero_divisor=d.is_zero,
        multiplicities_positive=positive and not d.is_zero,
        satisfies_inequality=all(s >= 0 for s in slack) and not d.is_zero,
    )
