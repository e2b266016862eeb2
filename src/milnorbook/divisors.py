"""Minimal effective divisors on negative definite plumbing lattices.

The existence theorem needs an effective divisor D = sum(m_i E_i) != 0 with
D . E_i <= -(v_i + 2 g_i) at every vertex.  We return the canonical choice:
the componentwise-least feasible divisor, computed by Laufer's computation
sequence warm-started at the exact rational lower bound I^-1 c, and
cross-checked by an independent exhaustive search.  The validated graph is
the form: products D . E_i are read off its adjacency, and the exact
elimination takes the graph itself.  Automorphism invariance is decided
from the vertex orbits.  Everything here is exact integer or rational
arithmetic; no floating point.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

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
    _eliminate,
    _form_product,
    is_milnor_fillable,
    solve_exact,
    vertex_orbits,
)
from ._lazy import lazy_import

np = lazy_import("numpy")  # only the box oracle uses NumPy; it loads there

__all__ = [
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
class DivisorReport:
    """Certificate bundle for one divisor against one graph; the binding
    multiplicities are n_i = -D . E_i."""

    divisor: Divisor
    multiplicities: tuple[int, ...]
    inequality_slack: tuple[int, ...]
    aut_invariant: bool
    zero_divisor: bool
    multiplicities_positive: bool
    satisfies_inequality: bool

    def to_dict(self) -> dict:
        return {
            "divisor": list(self.divisor.multiplicities),
            "multiplicities": list(self.multiplicities),
            "slack": list(self.inequality_slack),
            "aut_invariant": self.aut_invariant,
            "zero_divisor": self.zero_divisor,
            "multiplicities_positive": self.multiplicities_positive,
            "satisfies_inequality": self.satisfies_inequality,
        }


def constraint_vector(g: PlumbingGraph) -> tuple[int, ...]:
    """The bounds c_i = -(v_i + 2 g_i), never positive.

    Feasibility D . E_i <= c_i is the inequality (D + E + K) . E_i + 2 <= 0
    rewritten through adjunction: E . E_i = e_i + v_i and K . E_i =
    2 g_i - 2 - e_i, so the Euler weights cancel.
    """
    return tuple(
        -(sum(neighbours.values()) + 2 * k)
        for neighbours, k in zip(g.adjacency, g.genus)
    )


def minimal_divisor(g: PlumbingGraph) -> Divisor:
    """Componentwise-least effective D != 0 with D . E_i <= c_i for all i.

    One exact elimination decides definiteness and solves I x* = c as
    x* = y / det, y integer.  The negative of I is inverse-positive (a
    definite matrix with non-negative off-diagonal entries), so every
    feasible divisor m, having I m <= c, dominates x*; it also has m_i >= 1:
    for r >= 2 each c_i <= -1 while m_i = 0 would give D . E_i >= 0, and for
    r = 1 effectivity plus D != 0 forces m >= 1.  The descent therefore
    starts at max(1, ceil(x*_i)) = max(1, -(-y_i // det)) and repairs:
    while some vertex violates its constraint, it raises that vertex's
    multiplicity by one (Laufer's computation sequence).  Each increment is
    forced (any feasible divisor dominating the current one must exceed it
    at the violated vertex, because off-diagonal intersection numbers are
    >= 0), so the iterate stays a lower bound of the feasible set and the
    first feasible iterate is the least element, whichever violated vertex
    is raised; this one raises the lowest index.
    A raise lowers only the raised vertex's product and raises only its
    neighbours', so a vertex stays violated until it is raised: a heap fed
    by the raised vertex and its neighbours holds the violated vertices, and
    no repair scans all r of them.  ``REPAIR_CAP`` bounds the repair steps.
    """
    c = constraint_vector(g)
    solved = _eliminate(g.adjacency, g.euler, c)
    if solved is None:
        raise NotNegativeDefinite("descent requires a negative definite graph")
    numerators, det = solved
    m = [max(1, -(-y // det)) for y in numerators]
    products = _form_product(g, m)
    violated = [i for i, (p, k) in enumerate(zip(products, c)) if p > k]
    repairs = 0
    while violated:  # ascending, so already a heap
        if repairs == REPAIR_CAP:
            raise IterationCapExceeded(
                f"descent needed more than {REPAIR_CAP} repair steps above the "
                "rational lower bound"
            )
        i = violated[0]
        m[i] += 1
        repairs += 1
        products[i] += g.euler[i]
        if products[i] <= c[i]:
            heapq.heappop(violated)
        for j, k in g.adjacency[i].items():
            products[j] += k
            if c[j] < products[j] <= c[j] + k:  # violated by this raise
                heapq.heappush(violated, j)
    return Divisor(tuple(m))


# Boxes with more prefixes than this would take too long to search.  It
# admits r = 6 at bound 40 (41^5, about 1.16e8 prefixes) and refuses the
# two-vertex box at bound 4e9.  A two-vertex box has a grid of one row, so
# the grid budget below does not bound it; this cap bounds its rounds,
# 2 (bound + 1) at most.
_ABSURD_ROWS = 2**28
# Byte budget for the work of one call, checked against _grid_bytes before
# anything is allocated.  It admits r = 6 at bound 40 (41^4 grid rows,
# 373 MB) and refuses r = 7 at bound 24 (25^5 rows, 1.45 GB).
_GRID_BYTES = 2**29
# Grid rows per slab of the oracle's scan, at least one value of the first
# grid coordinate.  A box whose grid fits one slab is scanned in one pass.
_SLAB_ROWS = 2**15


def _grid_bytes(r: int, grid_rows: int) -> int:
    """Bytes the oracle's arrays would take over a whole grid of
    ``grid_rows`` rows on r vertices, counted at 8 bytes per value: the
    work one call scans, slab by slab.

    The two intervals, the mask, the row being built and the coupled rows'
    slacks take at most 16 r + 36 bytes per grid row in int64.
    """
    return grid_rows * (16 * r + 36)


# The oracle's integer types, narrowest first, with their maxima.
_VALUE_TYPES = (("int16", 2**15 - 1), ("int32", 2**31 - 1), ("int64", 2**63 - 1))


def _value_type(reach: int):
    """The first of int16, int32 and int64 whose maximum is at least
    ``reach``, or None when no 64-bit integer holds it."""
    for name, largest in _VALUE_TYPES:
        if largest >= reach:
            return getattr(np, name)
    return None


def _narrow(coeff, part, lo, hi, ok):
    """Narrow, in place, the interval [lo, hi] of one coordinate x and the
    mask ``ok`` by one constraint ``coeff * x <= part``; ``part`` is
    overwritten.  Only x's own row has ``coeff < 0``, a lower bound; a row
    through an edge to x bounds it from above; a row that does not see x
    holds or fails."""
    if coeff == 0:
        ok &= part >= 0
        return
    np.floor_divide(part, abs(coeff), out=part)
    if coeff < 0:
        np.negative(part, out=part)
        np.maximum(lo, part, out=lo)
    else:
        np.minimum(hi, part, out=hi)


def _coupling_pair(g: PlumbingGraph) -> tuple[int, int]:
    """The first pair (u, x), u < x, that the fewest constraint rows see
    together, a pair of non-adjacent vertices before an adjacent one.
    Row i sees vertex j when I_ij != 0, so the rows that see j are j
    itself and its neighbours."""
    rows_seeing = [{j, *neighbours} for j, neighbours in enumerate(g.adjacency)]

    def coupling(pair):
        u, x = pair
        return len(rows_seeing[u] & rows_seeing[x]), x in g.adjacency[u]

    return min(combinations(range(g.vertex_count), 2), key=coupling)


def _slab_least_point(g, c, bound, dtype, u, x, ranges, shape):
    """The componentwise minimum of the feasible points of one slab of the
    oracle's grid, as a list over the vertices, or None when the slab has
    none.  ``ranges`` maps each grid coordinate to the values it takes in
    the slab, broadcast along its own axis of ``shape``."""
    r = g.vertex_count
    grid_rows = math.prod(shape)
    lo_u, lo_x = (np.zeros(grid_rows, dtype=dtype) for _ in range(2))
    hi_u, hi_x = (np.full(grid_rows, bound, dtype=dtype) for _ in range(2))
    ok = np.ones(grid_rows, dtype=bool)
    coupled = []
    for i, neighbours in enumerate(g.adjacency):
        row = {i: g.euler[i], **neighbours}
        slack = np.full(grid_rows, c[i], dtype=dtype)
        view = slack.reshape(shape)
        for j in ranges:
            if j in row:
                np.subtract(view, row[j] * ranges[j], out=view)
        at_u, at_x = row.get(u, 0), row.get(x, 0)
        if at_u and at_x:
            coupled.append((at_u, at_x, slack))
        elif at_u:
            _narrow(at_u, slack, lo_u, hi_u, ok)
        else:
            _narrow(at_x, slack, lo_x, hi_x, ok)
    del slack, view
    if r == 1:
        np.maximum(lo_x, 1, out=lo_x)  # the zero divisor is not a solution
    ok &= lo_u <= hi_u
    ok &= lo_x <= hi_x
    # Capping both at the bound changes no surviving row and keeps every
    # product within reach.
    np.minimum(lo_u, bound, out=lo_u)
    np.minimum(lo_x, bound, out=lo_x)
    live = None
    if coupled and x in g.adjacency[u]:
        # u's own row and x's are coupled: the rounds run on the surviving
        # grid rows only, compressed one array at a time so that no two
        # full-slab copies of one array are held at once.
        live = ok
        lo_u = lo_u[live]
        hi_u = hi_u[live]
        lo_x = lo_x[live]
        hi_x = hi_x[live]
        for n, (at_u, at_x, slack) in enumerate(coupled):
            coupled[n] = (at_u, at_x, slack[live])
        del slack
        ok = np.ones(len(lo_u), dtype=bool)
        own = [
            (at_u, slack, lo_u, at_x, lo_x) if at_u < 0 else (at_x, slack, lo_x, at_u, lo_u)
            for at_u, at_x, slack in coupled
            if min(at_u, at_x) < 0
        ]
        # u < x, so u's own row comes first.  As equalities the own rows
        # e_u u + k x = s_u and k u + e_x x = s_x give u = (e_x s_u - k s_x)
        # / det and x = (e_u s_x - k s_u) / det.  A slack s_j is at most
        # -c_j + bound * (v_j - k) in size: c_j less the grid's terms.
        (e_u, s_u, _, k, _), (e_x, s_x, _, _, _) = own
        size_u, size_x = (
            -c[j] + bound * (sum(g.adjacency[j].values()) - k) for j in (u, x)
        )
        det = e_u * e_x - k * k
        wide = _value_type(
            max(bound, det, k * size_x - e_x * size_u, k * size_u - e_u * size_x)
        )
        if wide is not None:
            for lo, mine, theirs, e_theirs in (
                (lo_u, s_u, s_x, e_x),
                (lo_x, s_x, s_u, e_u),
            ):
                start = np.multiply(mine, -e_theirs, dtype=wide)
                start += np.multiply(theirs, k, dtype=wide)
                np.floor_divide(start, det, out=start)
                np.negative(start, out=start)
                np.minimum(start, bound, out=start)
                np.maximum(lo, start, out=lo)
            del start
        part = np.empty_like(lo_u)
        moved = np.empty(len(lo_u), dtype=bool)
        while True:
            raised = False
            for at_own, slack, lo, at_other, other in own:
                # lo >= ceil((at_other * other - slack) / |at_own|), capped.
                np.multiply(other, at_other, out=part)
                np.subtract(slack, part, out=part)
                np.floor_divide(part, -at_own, out=part)
                np.negative(part, out=part)
                np.minimum(part, bound, out=part)
                np.greater(part, lo, out=moved)
                if moved.any():
                    raised = True
                    np.maximum(lo, part, out=lo)
            if not raised:
                break
        del part, moved
        ok &= lo_u <= hi_u
        ok &= lo_x <= hi_x
    for at_u, at_x, slack in coupled:
        slack -= at_u * lo_u
        slack -= at_x * lo_x
        ok &= slack >= 0
    if not ok.any():
        return None
    m = [0] * r
    m[x] = int(lo_x[ok].min())
    if u is not None:
        m[u] = int(lo_u[ok].min())
    if live is not None:
        live[live] = ok  # back onto the grid
        ok = live
    seen = ok.reshape(shape)
    for a, (j, values) in enumerate(ranges.items()):
        others = tuple(b for b in range(len(shape)) if b != a)
        m[j] = values.item(np.argmax(seen.any(axis=others)))
    return m


def oracle_minimal_divisor(g: PlumbingGraph, bound: int) -> Divisor:
    """Exhaustive search over 0 <= m_i <= bound, independent of the descent.

    Covers every lattice point of the box.  Two vertices u and x are read
    as intervals, the other r - 2 coordinates form the grid.  A row sees
    vertex j when I_ij != 0, and a row that sees both u and x is
    *coupled*; the pair is the one with the fewest coupled rows, a pair
    of non-adjacent vertices before an adjacent one (``_coupling_pair``).
    Each row's slack c_i - sum_j I_ij m_j over the grid is built once, one
    multiply-add per grid coordinate that the row sees.  On the
    grid, a row that sees neither u nor x narrows the mask, and a row that
    sees only one of them narrows that coordinate's interval (a vertex's
    own row bounds it from below, a row through an edge to it from
    above).

    Every grid row is then read at its least point, by one rule that rests
    on the signs of the definite form.  Only u's own row (diagonal
    e_u < 0) bounds u from below, by a non-decreasing function of x, and
    likewise for x; every other coupled row bounds both u and x from
    above.  Starting at (lo_u, lo_x), each of u and x is raised, in
    rounds, to its own row's bound at the other's value until nothing
    moves.  Every point that meets both own rows lies above each iterate,
    so where the result is still at most (hi_u, hi_x) it is the grid row's
    least such point, and the grid row is feasible exactly when the
    coupled rows hold there.  When u and x are not adjacent no own row is
    coupled and no round runs; when they are (of the small suite's
    classes, only the complete graphs), the rounds run on the surviving
    grid rows.  Each round raises some value or is the last, and values
    are capped at the bound, so there are at most 2 (bound + 1) rounds.
    They start higher, at the ceiling of the rational solution of the two
    own rows taken as equalities, capped at the bound: their 2 x 2 block
    is negative definite with off-diagonal entries >= 0, so its negative
    is inverse-positive and every point that meets both own rows lies
    above that solution.  A pair that contracts slowly, such as weights
    -1 and -(k^2 + 1) joined by k edges, then takes a round or two, not
    k^2 + k.  Its numerators are held exactly in the narrowest type that
    fits their size, bounded through each own row's constant and grid
    terms, and the start is skipped when no 64-bit integer does.
    The minima of u, x and the grid come straight off the least points of
    the feasible grid rows.  The zero divisor satisfies a row only on a
    single genus-0 vertex: for r >= 2 every c_i <= -1.  Returns the
    componentwise minimum of the feasible set and verifies that this
    minimum is itself feasible, which is the lattice min-closure property
    the descent's canonicity rests on.

    A grid of more than _SLAB_ROWS rows is scanned in slabs along its
    first axis, each of max(1, _SLAB_ROWS // tail) values of the first grid
    coordinate, where tail = (bound + 1)^(r - 3) rows share a value; a
    smaller grid is one slab.  The answer is the componentwise minimum over
    every slab's feasible points.  No slab is skipped: stopping at the first
    feasible one would assume the min-closure checked here.  Memory is
    bounded by one slab, max(_SLAB_ROWS, tail) rows, whatever the box.
    Boxes whose arrays would take more than ``_GRID_BYTES`` bytes over the
    whole grid at 8 bytes per value (``_grid_bytes``) are refused before
    anything is allocated, which bounds a call's work.

    No value the oracle holds exceeds reach = max(bound + 1, max_i(|c_i| +
    bound * sum_j |I_ij|)) in size: not the grid, the partial sums of a
    row's slack, the interval bounds, nor a coupled row's slack less
    at_u * u + at_x * x, which a round reads as slack - k x, because u and
    x are capped at the bound first.  Every array is held in the narrowest
    of int16, int32 and int64 that fits reach, so the answer is exact in
    any of them; a box whose reach exceeds int64 is refused before
    anything is allocated.
    """
    if bound < 1:
        raise InputError("search bound must be at least 1")
    if not is_milnor_fillable(g):
        raise NotNegativeDefinite("oracle requires a negative definite graph")
    r = g.vertex_count
    last = r - 1
    if (bound + 1) ** last > _ABSURD_ROWS:
        raise InputError(f"box [0, {bound}]^{r} is too large to enumerate")
    dims = max(last - 1, 0)
    grid_rows = (bound + 1) ** dims
    need = _grid_bytes(r, grid_rows)
    if need > _GRID_BYTES:
        raise InputError(
            f"box [0, {bound}]^{r} is too large to enumerate: its grid of "
            f"{grid_rows} rows needs about {need} bytes, above the budget of "
            f"{_GRID_BYTES}"
        )
    c = constraint_vector(g)
    reach = max(
        bound + 1,
        max(
            abs(k) + bound * (abs(e) + sum(neighbours.values()))
            for k, e, neighbours in zip(c, g.euler, g.adjacency)
        ),
    )
    dtype = _value_type(reach)
    if dtype is None:
        raise InputError(
            f"box [0, {bound}]^{r} holds values up to {reach}, beyond the "
            "64-bit integers of the scan"
        )
    # A single vertex is read as x alone, with no u.
    u, x = _coupling_pair(g) if r > 1 else (None, 0)
    inner = [j for j in range(r) if j not in (u, x)]
    # Grid coordinate j as a range that broadcasts along its own axis.
    ranges = {
        j: np.arange(bound + 1, dtype=dtype).reshape(
            tuple(-1 if b == a else 1 for b in range(dims))
        )
        for a, j in enumerate(inner)
    }
    # One slab, or slabs of `step` values of the first grid coordinate.
    shape = (bound + 1,) * dims
    least = None
    if grid_rows <= _SLAB_ROWS:
        least = _slab_least_point(g, c, bound, dtype, u, x, ranges, shape)
    else:
        tail = grid_rows // (bound + 1)
        step = max(1, _SLAB_ROWS // tail)
        for start in range(0, bound + 1, step):
            first = ranges[inner[0]][start : start + step]
            slab = {**ranges, inner[0]: first}
            found = _slab_least_point(
                g, c, bound, dtype, u, x, slab, (len(first), *shape[1:])
            )
            if found is not None:
                least = found if least is None else list(map(min, least, found))
    if least is None:
        raise BoundTooSmall(f"no feasible divisor with all m_i <= {bound}")
    result = Divisor(tuple(least))

    products = _form_product(g, result.multiplicities)
    feasible = not result.is_zero and all(
        products[i] <= c[i] for i in range(r)
    )
    if not feasible:
        raise InternalInvariantError(
            "componentwise minimum of the feasible set is not feasible; "
            "min-closure violated"
        )
    return result


def binding_multiplicities(g: PlumbingGraph, d: Divisor) -> tuple[int, ...]:
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
    products = _form_product(g, d.multiplicities)
    return tuple(-p for p in products)


def divisor_from_multiplicities(g: PlumbingGraph, n: Sequence[int]) -> Divisor:
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
    solution = solve_exact(g, [-k for k in n])
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
    c = constraint_vector(g)
    products = _form_product(g, d.multiplicities)
    slack = tuple(c[i] - products[i] for i in range(g.vertex_count))
    counts = tuple(-p for p in products)
    orbits = vertex_orbits(g)
    aut_invariant = all(
        m == d.multiplicities[orbits[i]] for i, m in enumerate(d.multiplicities)
    )
    positive = all(k >= 1 for k in counts)
    return DivisorReport(
        divisor=d,
        multiplicities=counts,
        inequality_slack=slack,
        aut_invariant=aut_invariant,
        zero_divisor=d.is_zero,
        multiplicities_positive=positive and not d.is_zero,
        satisfies_inequality=all(s >= 0 for s in slack) and not d.is_zero,
    )
