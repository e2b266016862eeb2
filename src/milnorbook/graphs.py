"""Plumbing graphs: weighted multigraphs, intersection forms, exact
definiteness and solves, valencies, and weighted automorphisms.

A plumbing graph is a finite connected multigraph whose vertices carry a
genus g_i >= 0 and an integer Euler weight e_i.  Loops are forbidden: the
curves a good resolution glues along are smooth, so a component never meets
itself, while two distinct components may meet several times (multi-edges).
The intersection form I has diagonal e_i and off-diagonal entries the edge
multiplicities, so the graph carries its own form: its adjacency, built
once on construction, gives every product I . m and every elimination
sparsely.  Negative definiteness of I is the fillability criterion and is
decided in exact integer arithmetic, never floating point, by the one
fraction-free elimination that also solves I x = rhs.  Vertex orbits and
isomorphisms come from one backtracking search, pruned by the equitable
partition of the weighted graph; a tree's orbits come from its canonical
labelling, with no refinement and no search.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    Disconnected,
    InputError,
    LoopEdge,
    NegativeGenus,
    NonContiguousIds,
)

__all__ = [
    "PlumbingGraph",
    "Divisor",
    "VertexPermutation",
    "validate_graph",
    "intersection_matrix",
    "is_negative_definite",
    "solve_exact",
    "is_milnor_fillable",
    "valency",
    "vertex_orbits",
    "find_isomorphism",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
    "save_graph",
    "chain_graph",
    "star_graph",
    "e8_graph",
]


@dataclass(frozen=True)
class PlumbingGraph:
    """Connected weighted multigraph with contiguous vertex ids 0..r-1.

    ``edges`` stores each unordered pair as (min, max); a pair repeated k
    times is an edge of multiplicity k.  Instances are validated on
    construction, so every reachable value satisfies the type invariants.
    ``adjacency[i]`` maps each neighbour j of i, ascending, to the edge
    multiplicity k_ij; it is derived from the sorted ``edges`` once, takes
    no part in equality or hashing, and must not be modified.
    """

    genus: tuple[int, ...]
    euler: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[dict[int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        r = len(self.genus)
        if len(self.euler) != r:
            raise InputError("genus and euler weight lists differ in length")
        for i, g in enumerate(self.genus):
            if g < 0:
                raise NegativeGenus(i, g)
        normalized = []
        for a, b in self.edges:
            if a == b:
                raise LoopEdge(a)
            if not (0 <= a < r and 0 <= b < r):
                raise NonContiguousIds(f"edge [{a}, {b}] references an unknown vertex")
            normalized.append((a, b) if a < b else (b, a))
        edges = tuple(sorted(normalized))
        object.__setattr__(self, "edges", edges)
        if r == 0:
            raise InputError("a plumbing graph needs at least one vertex")
        adjacency: list[dict[int, int]] = [{} for _ in range(r)]
        for a, b in edges:
            k = adjacency[a].get(b, 0) + 1
            adjacency[a][b] = adjacency[b][a] = k
        object.__setattr__(self, "adjacency", tuple(adjacency))
        self._check_connected()

    def _check_connected(self):
        reached = _search_order(self.adjacency, 0)
        if len(reached) != self.vertex_count:
            raise Disconnected(min(set(range(self.vertex_count)).difference(reached)))

    def _reweighted(self, genus, euler) -> "PlumbingGraph":
        """This graph's edges with the weights ``genus`` and ``euler``.

        Only the weights are checked, as the constructor checks them (both
        lists must have one entry per vertex); the edges and the adjacency
        do not depend on them, so they are shared with this graph, not
        normalized, sorted and searched again.
        """
        if len(euler) != len(genus) or len(genus) != self.vertex_count:
            raise InputError("genus and euler weight lists differ in length")
        for i, g in enumerate(genus):
            if g < 0:
                raise NegativeGenus(i, g)
        graph = object.__new__(PlumbingGraph)
        object.__setattr__(graph, "genus", genus)
        object.__setattr__(graph, "euler", euler)
        object.__setattr__(graph, "edges", self.edges)
        object.__setattr__(graph, "adjacency", self.adjacency)
        return graph

    @property
    def vertex_count(self) -> int:
        return len(self.genus)

    def relabel(self, images: Sequence[int]) -> "PlumbingGraph":
        """Push the graph forward along vertex map i -> images[i]."""
        r = self.vertex_count
        genus = [0] * r
        euler = [0] * r
        for i in range(r):
            genus[images[i]] = self.genus[i]
            euler[images[i]] = self.euler[i]
        edges = tuple((images[a], images[b]) for a, b in self.edges)
        return PlumbingGraph(tuple(genus), tuple(euler), edges)


@dataclass(frozen=True)
class Divisor:
    """Effective divisor sum(m_i E_i), one multiplicity per vertex.

    The zero divisor is representable (``is_zero``) but is never a valid
    solver output: the existence theorem requires D != 0.
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        for i, m in enumerate(self.multiplicities):
            if m < 0:
                raise InputError(f"divisor multiplicity m_{i} = {m} is negative")

    @property
    def is_zero(self) -> bool:
        return all(m == 0 for m in self.multiplicities)

    def __len__(self) -> int:
        return len(self.multiplicities)


@dataclass(frozen=True)
class VertexPermutation:
    """Vertex bijection i -> images[i]; certified automorphisms preserve
    genus, Euler weight, and every edge multiplicity."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise InputError("images do not form a permutation of 0..r-1")

    def __call__(self, i: int) -> int:
        return self.images[i]


def _integer(value, what: str) -> int:
    """``value`` itself when it is an integer; booleans, floats and strings
    are rejected, never coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _items(value, what: str) -> list:
    """The entries of a list-like value; strings and mappings are not lists."""
    if isinstance(value, (str, bytes, Mapping)):
        raise InputError(f"{what} must be a list, got {value!r}")
    try:
        return list(value)
    except TypeError:
        raise InputError(f"{what} must be a list, got {value!r}") from None


def validate_graph(vertices: Iterable, edges: Iterable) -> PlumbingGraph:
    """Build a PlumbingGraph from raw vertex/edge lists.

    Vertices may be (id, genus, euler) triples or mappings with those keys;
    ids must be exactly 0..r-1 in any order.  Edges are 2-element sequences
    of vertex ids; duplicates encode multi-edges.  Every id, genus, Euler
    weight and edge end must be an ``int`` (not a ``bool``); anything else
    raises :class:`InputError`.
    """
    entries = _items(vertices, "vertices")
    r = len(entries)
    genus = [None] * r  # None until some vertex claims the id
    euler = [0] * r
    ids = []
    for entry in entries:
        if type(entry) is dict or isinstance(entry, Mapping):
            try:
                vid, g, e = entry["id"], entry["genus"], entry["euler"]
            except KeyError as missing:
                raise InputError(f"vertex record lacks key {missing}") from None
        else:
            fields = _items(entry, "vertex entry")
            if len(fields) != 3:
                raise InputError(f"vertex entry {entry!r} is not [id, genus, euler]")
            vid, g, e = fields
        if not (type(vid) is int and type(g) is int and type(e) is int):
            vid = _integer(vid, "vertex id")
            g = _integer(g, "vertex genus")
            e = _integer(e, "vertex euler")
        ids.append(vid)
        if 0 <= vid < r and genus[vid] is None:
            genus[vid] = g
            euler[vid] = e
    if None in genus:  # an id is repeated or out of range
        ids.sort()
        # ids is sorted, so the first adjacent equal pair is the least duplicate.
        dupe = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
        if dupe is not None:
            raise NonContiguousIds(f"duplicate id {dupe}")
        raise NonContiguousIds(f"got ids {ids}")
    pairs = []
    for edge in _items(edges, "edges"):
        seq = edge if type(edge) is list else _items(edge, "edge")
        if len(seq) != 2:
            raise InputError(f"edge {seq} is not a pair")
        a, b = seq
        if not (type(a) is int and type(b) is int):
            a, b = _integer(a, "edge end"), _integer(b, "edge end")
        pairs.append((a, b))
    return PlumbingGraph(tuple(genus), tuple(euler), tuple(pairs))


def intersection_matrix(g: PlumbingGraph) -> tuple[tuple[int, ...], ...]:
    """Dense rows of I(Gamma): diagonal Euler weights, off-diagonal edge
    multiplicities."""
    rows = []
    for i, neighbours in enumerate(g.adjacency):
        row = [0] * g.vertex_count
        row[i] = g.euler[i]
        for j, k in neighbours.items():
            row[j] = k
        rows.append(tuple(row))
    return tuple(rows)


def _form_product(g: PlumbingGraph, m: Sequence[int]) -> list[int]:
    """Exact (I . m)_i = e_i m_i + sum_j k_ij m_j, read off the adjacency."""
    if len(m) != g.vertex_count:
        raise DimensionMismatch(
            f"vector of length {len(m)} against {g.vertex_count} vertices"
        )
    return [
        e * x + sum(k * m[j] for j, k in neighbours.items())
        for e, x, neighbours in zip(g.euler, m, g.adjacency)
    ]


def _as_rows(m) -> tuple:
    """``(rows, diagonal)`` of a form: sparse off-diagonal rows
    ``{column: entry}`` and the diagonal as a list, a validated graph's read
    off its adjacency, raw rows checked to be integer, square and
    symmetric."""
    if isinstance(m, PlumbingGraph):
        return m.adjacency, m.euler
    rows = [[_integer(x, "matrix entry") for x in row] for row in m]
    r = len(rows)
    for row in rows:
        if len(row) != r:
            raise InputError("matrix must be square")
    for i in range(r):
        for j in range(i + 1, r):
            if rows[i][j] != rows[j][i]:
                raise InputError("matrix must be symmetric")
    return (
        [{j: x for j, x in enumerate(row) if x and j != i} for i, row in enumerate(rows)],
        [row[i] for i, row in enumerate(rows)],
    )


def _eliminate(rows, diagonal, rhs):
    """Fraction-free (Bareiss) symmetric elimination of the form with
    off-diagonal rows ``rows`` (``{column: entry}``) and diagonal
    ``diagonal``, neither of which it modifies: ``(numerators, det)`` of
    the solution of ``form . x = rhs`` (numerators None without ``rhs``),
    or None at the first pivot that refutes negative definiteness.

    Each pivot is a remaining vertex with the fewest off-diagonal entries,
    so a tree's leaves go first and nothing fills in (Parter, SIAM Review
    3, 1961); its pivot ratios are then Neumann's plumbing continued
    fractions.  Pivot p_s is the leading minor of order s + 1 in pivot
    order, so by Sylvester's law of inertia the form is negative definite
    iff every p_s is nonzero with sign (-1)^(s+1).  A step that does not
    meet an entry only rescales it by p_s / p_{s-1}; these factors
    telescope, so each entry keeps the step it was last updated at and is
    brought up to date by one exact division when next read.  The working
    rows are ``dict`` copies of ``rows`` with one stamp dict each (absent:
    0).  The diagonal and the right-hand side, which is never pivoted, are
    plain integer lists; a step updates both at the same vertices, so they
    share one stamp list.  Every ``x_i * det`` is an integer (Cramer), so
    back substitution divides exactly.
    """
    r = len(diagonal)
    rows = [dict(row) for row in rows]
    diagonal = list(diagonal)
    b = None if rhs is None else list(rhs)
    stamp: list[dict[int, int]] = [{} for _ in rows]
    at = [0] * r  # the step each diagonal and rhs entry was last updated at
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots = [1]  # pivots[s] = p_{s-1}, with p_{-1} = 1
    factor = []  # (pivot, p, [(neighbour, entry)], rhs entry) per step
    for s in range(r):
        degree, k = heapq.heappop(heap)
        while rows[k] is None or degree != len(rows[k]):  # eliminated, or stale
            degree, k = heapq.heappop(heap)
        row, rows[k], steps = rows[k], None, stamp[k]
        down = pivots[s]
        p, t = diagonal[k], at[k]
        p = p if t == s else p * down // pivots[t]
        if p == 0 or (p < 0) != (s % 2 == 0):
            return None
        pivots.append(p)
        near = []
        if b is not None:
            bk = b[k] if t == s else b[k] * down // pivots[t]
            factor.append((k, p, near, bk))
        for j, x in row.items():
            del rows[j][k]
            t = steps.get(j, 0)
            near.append((j, x if t == s else x * down // pivots[t]))
        for n, (i, x) in enumerate(near):
            z, t = diagonal[i], at[i]
            z = z if t == s else z * down // pivots[t]
            diagonal[i] = (z * p - x * x) // down
            if b is not None:
                z = b[i] if t == s else b[i] * down // pivots[t]
                b[i] = (z * p - x * bk) // down
            at[i] = s + 1
            entries, steps = rows[i], stamp[i]
            for j, y in near[n + 1:]:  # no later pair adds to rows[i]
                z, t = entries.get(j, 0), steps.get(j, 0)
                z = z if t == s else z * down // pivots[t]
                entries[j] = rows[j][i] = (z * p - x * y) // down
                steps[j] = stamp[j][i] = s + 1
            heapq.heappush(heap, (len(entries), i))
    det = pivots[r]
    if b is None:
        return None, det
    y = [0] * r
    for k, p, near, bk in reversed(factor):
        y[k] = (det * bk - sum(x * y[j] for j, x in near)) // p
    return y, det


def is_negative_definite(m) -> bool:
    """Exact test: the form is negative definite.

    ``m`` is a :class:`PlumbingGraph`, whose form is read off its
    adjacency, or raw rows.  The pivots of the sparse elimination shared
    with :func:`solve_exact`, leaves first, decide it; elimination stops at
    the first zero or wrongly signed one.  Raw entries must be ``int``;
    floats, strings and bools raise :class:`InputError`, as do rows that
    are not square and symmetric.
    """
    return _eliminate(*_as_rows(m), None) is not None


def solve_exact(m, rhs: Sequence[int]) -> tuple[Fraction, ...]:
    """Exact rational solution of ``m . x = rhs``, for a graph's form or raw
    rows as in :func:`is_negative_definite`.

    Uses the same elimination as :func:`is_negative_definite`, sparse and
    leaves first.  When that elimination meets a pivot refuting
    definiteness, it runs again on the normal equations ``-m^2 . x = -m .
    rhs``, whose form is negative definite exactly when ``m`` is
    nonsingular, and a singular ``m`` raises :class:`InputError`, as does any
    entry of ``m`` or ``rhs`` that is not an ``int``.
    """
    rows, diagonal = _as_rows(m)
    rhs = [_integer(b, "right-hand side entry") for b in rhs]
    if len(rhs) != len(diagonal):
        raise DimensionMismatch(
            f"right-hand side of length {len(rhs)} against {len(diagonal)} rows"
        )
    solved = _eliminate(rows, diagonal, rhs)
    if solved is None:
        full = [{i: d, **row} for i, (d, row) in enumerate(zip(diagonal, rows))]
        square = [{} for _ in full]
        for entries, row in zip(square, full):
            for k, x in row.items():
                for j, y in full[k].items():
                    entries[j] = entries.get(j, 0) - x * y
        rhs = [-sum(x * rhs[j] for j, x in row.items()) for row in full]
        diagonal = [entries.pop(i) for i, entries in enumerate(square)]
        solved = _eliminate(square, diagonal, rhs)
        if solved is None:
            raise InputError("intersection form is degenerate")
    numerators, det = solved
    return tuple(Fraction(y, det) for y in numerators)


def is_milnor_fillable(g: PlumbingGraph) -> bool:
    """Fillability criterion: the intersection form is negative definite.

    Connectivity, the other hypothesis, is enforced by the graph type.
    """
    return is_negative_definite(g)


def valency(g: PlumbingGraph, i: int) -> int:
    """v_i = E_i . (E - E_i): edge-ends at vertex i, counting multiplicity."""
    if not 0 <= i < g.vertex_count:
        raise InputError(f"no vertex {i}")
    return sum(g.adjacency[i].values())


def _equitable_cells(adjacency: Sequence[Mapping[int, int]], labels) -> list[int]:
    """Cell of each vertex in the coarsest equitable refinement of the
    partition by ``labels`` (McKay, Practical graph isomorphism, 1981).

    In an equitable partition any two vertices of one cell have the same
    number of edges, counted with multiplicity, into every cell.  The cells
    are split one splitter cell at a time; a split cell that is not waiting
    to be used as a splitter queues all its parts but the largest
    (Hopcroft), so each vertex joins a splitter O(log r) times.
    Isomorphisms map every vertex into its own cell, so the cells prune the
    search without losing any solution.
    """
    groups: dict = {}
    for v, label in enumerate(labels):
        groups.setdefault(label, []).append(v)
    cells = [set(groups[label]) for label in sorted(groups)]
    cell_of = [0] * len(adjacency)
    for c, members in enumerate(cells):
        for v in members:
            cell_of[v] = c
    pending = list(range(len(cells)))
    queued = [True] * len(cells)
    while pending:
        w = pending.pop()
        queued[w] = False
        count: dict[int, int] = {}
        for u in cells[w]:
            for v, k in adjacency[u].items():
                count[v] = count.get(v, 0) + k
        hit: dict[int, list[int]] = {}
        for v in count:
            hit.setdefault(cell_of[v], []).append(v)
        for c, members in hit.items():
            by_count: dict[int, list[int]] = {}
            for v in members:
                by_count.setdefault(count[v], []).append(v)
            parts = [by_count[n] for n in sorted(by_count)]
            if len(members) == len(cells[c]):
                # every member has an edge into w; the first part keeps c
                parts.pop(0)
            split = [] if queued[c] else [c]
            for part in parts:
                cells[c].difference_update(part)
                cells.append(set(part))
                queued.append(False)
                for v in part:
                    cell_of[v] = len(cells) - 1
                split.append(len(cells) - 1)
            if not queued[c]:
                split.remove(max(split, key=lambda d: len(cells[d])))
            for d in split:
                queued[d] = True
                pending.append(d)
    return cell_of


def _search_order(adjacency: Sequence[Mapping[int, int]], start: int) -> list[int]:
    """Breadth-first order from ``start``, neighbours ascending: every later
    vertex has an earlier neighbour, whose image restricts its own."""
    order = [start]
    seen = {start}
    for v in order:
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _isomorphisms(adj_a, adj_b, candidates, order):
    """Backtracking search for vertex bijections a -> b that carry every
    edge multiplicity, with vertex v mapped into ``candidates[v]``.

    Vertices are assigned in ``order``; each image must match the edges
    from v to every vertex assigned before it, in both graphs.  Yields each
    solution as a fresh list of images, lazily, so a caller that needs one
    stops the search at the first.
    """
    images = [-1] * len(adj_a)
    preimages = [-1] * len(adj_b)

    def consistent(v: int, w: int) -> bool:
        for u, k in adj_a[v].items():
            x = images[u]
            if x >= 0 and adj_b[w].get(x) != k:
                return False
        for x, k in adj_b[w].items():
            u = preimages[x]
            if u >= 0 and adj_a[v].get(u) != k:
                return False
        return True

    depth = 0
    choices = [iter(candidates[order[0]])]
    while choices:
        v = order[depth]
        if images[v] >= 0:
            preimages[images[v]] = -1
            images[v] = -1
        for w in choices[depth]:
            if preimages[w] < 0 and consistent(v, w):
                images[v] = w
                preimages[w] = v
                break
        else:
            choices.pop()
            depth -= 1
            continue
        if depth + 1 == len(order):
            yield list(images)
        else:
            depth += 1
            choices.append(iter(candidates[order[depth]]))


def find_isomorphism(
    a: PlumbingGraph, b: PlumbingGraph, labels_a: Sequence, labels_b: Sequence
) -> VertexPermutation | None:
    """A vertex bijection a -> b preserving genus, Euler weight, edge
    multiplicities and the extra per-vertex labels, or None.

    Both graphs are refined together, as one disjoint union, so that their
    cells correspond; differing cell sizes refute isomorphism before any
    search.
    """
    r = a.vertex_count
    if b.vertex_count != r:
        return None
    adj_a, adj_b = a.adjacency, b.adjacency
    union = list(adj_a) + [{x + r: k for x, k in adj.items()} for adj in adj_b]
    labels = [
        (g.genus[i], g.euler[i], extra[i])
        for g, extra in ((a, labels_a), (b, labels_b))
        for i in range(r)
    ]
    cells = _equitable_cells(union, labels)
    members: dict[int, list[int]] = {}
    for x in range(r):
        members.setdefault(cells[x + r], []).append(x)
    if sorted(cells[:r]) != sorted(cells[r:]):
        return None
    candidates = [members[cells[v]] for v in range(r)]
    found = next(_isomorphisms(adj_a, adj_b, candidates, _search_order(adj_a, 0)), None)
    return None if found is None else VertexPermutation(tuple(found))


def _cell_members(g: PlumbingGraph) -> list[list[int]]:
    """For each vertex, the sorted members of its equitable cell."""
    cells = _equitable_cells(
        g.adjacency, [(g.genus[i], g.euler[i]) for i in range(g.vertex_count)]
    )
    members: dict[int, list[int]] = {}
    for v, c in enumerate(cells):
        members.setdefault(c, []).append(v)
    return [members[c] for c in cells]


def _tree_orbits(g: PlumbingGraph) -> tuple[int, ...]:
    """``vertex_orbits`` of a tree, by the AHU canonical labelling rooted
    at its centre, in one pass up and one down.

    Leaves are peeled in FIFO order, one layer after another, so a vertex
    is reached after all its children, and its one neighbour left then is
    its parent; the last vertex reached is the centre.  When the two
    vertices of the last layer are adjacent, the centre is that edge and
    both ends are roots.  A vertex's code interns its weights with the
    sorted codes of its children, so two vertices share a code exactly
    when their rooted subtrees are isomorphic.  Going back down, a vertex's
    key interns its parent's key with its own code.
    """
    adjacency = g.adjacency
    r = g.vertex_count
    labels = list(zip(g.genus, g.euler))
    degree = [len(neighbours) for neighbours in adjacency]
    order = [v for v, d in enumerate(degree) if d <= 1]
    layer = [0] * r
    done = [False] * r
    parent = [-1] * r
    children: dict[int, list[int]] = {}  # the codes of each parent's children
    codes: dict = {}
    code = [0] * r
    for v in order:  # appends while it reads: FIFO
        done[v] = True
        below = children.get(v)
        c = code[v] = codes.setdefault(
            labels[v] if below is None else (*labels[v], *sorted(below)), len(codes)
        )
        for w in adjacency[v]:
            if done[w]:
                continue
            d = degree[w] = degree[w] - 1
            if d == 1:
                layer[w] = layer[v] + 1
                order.append(w)
            elif d == 0 and layer[w] == layer[v]:
                break  # v and w are the two ends of the central edge
            parent[v] = w
            if w in children:
                children[w].append(c)
            else:
                children[w] = [c]
            break
    keys: dict = {}
    key = [-1] * r
    for v in reversed(order):
        p = parent[v]
        key[v] = keys.setdefault((key[p] if p >= 0 else -1, code[v]), len(keys))
    least: dict[int, int] = {}
    return tuple(least.setdefault(k, v) for v, k in enumerate(key))


def vertex_orbits(g: PlumbingGraph) -> tuple[int, ...]:
    """Orbit of every vertex under the weighted automorphism group, named
    by the orbit's least vertex.

    On a tree (r - 1 edges, counted with multiplicity) every automorphism
    fixes the centre, the vertex or edge left after peeling leaves layer by
    layer, as it maps leaves to leaves.  So two vertices share an orbit
    exactly when their parents do and their rooted subtrees are
    isomorphic, which the AHU canonical labelling (Aho, Hopcroft and
    Ullman, The Design and Analysis of Computer Algorithms, 1974, 3.2)
    decides in one rooted pass, with no refinement and no search
    (``_tree_orbits``).  Otherwise, for each pair (i, j) of one equitable
    cell not yet known to share an orbit, the shared backtracking search
    looks for one automorphism taking i to j; every automorphism found
    merges v with its image for all v in a union-find.  Pairs in one cell
    but different orbits cost a failed search.
    """
    if len(g.edges) == g.vertex_count - 1:
        return _tree_orbits(g)
    adjacency = g.adjacency
    candidates = _cell_members(g)
    root = list(range(g.vertex_count))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i in range(g.vertex_count):
        for j in candidates[i]:
            if j <= i or find(i) == find(j):
                continue
            pinned = list(candidates)
            pinned[i] = [j]
            images = next(
                _isomorphisms(
                    adjacency, adjacency, pinned, _search_order(adjacency, i)
                ),
                None,
            )
            if images is None:
                continue
            for v, w in enumerate(images):
                a, b = find(v), find(w)
                if a != b:
                    root[max(a, b)] = min(a, b)
    return tuple(find(v) for v in range(g.vertex_count))


# serialization -------------------------------------------------------------

def graph_from_dict(doc: Mapping) -> PlumbingGraph:
    """Parse the graph document format: keys "vertices" and "edges"."""
    if not isinstance(doc, Mapping):
        raise InputError("graph document must be a mapping")
    try:
        vertices = doc["vertices"]
        edges = doc["edges"]
    except KeyError as missing:
        raise InputError(f"graph document lacks key {missing}") from None
    return validate_graph(vertices, edges)


def graph_to_dict(g: PlumbingGraph) -> dict:
    """Emit the document format, vertices ordered by id."""
    return {
        "vertices": [
            {"id": i, "genus": g.genus[i], "euler": g.euler[i]}
            for i in range(g.vertex_count)
        ],
        "edges": [[a, b] for a, b in g.edges],
    }


def load_graph(path) -> PlumbingGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read graph file: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"graph file is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError("graph file nests too deeply to parse") from None
    return graph_from_dict(doc)


def save_graph(g: PlumbingGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_dict(g), handle, indent=1)
        handle.write("\n")


# small constructors used throughout the tests and scripts ------------------

def chain_graph(eulers: Sequence[int], genus: Sequence[int] | None = None) -> PlumbingGraph:
    """Linear chain 0 - 1 - ... - (r-1) with the given weights."""
    r = len(eulers)
    gs = tuple(genus) if genus is not None else (0,) * r
    return PlumbingGraph(gs, tuple(eulers), tuple((i, i + 1) for i in range(r - 1)))


def star_graph(center_euler: int, leg_eulers: Sequence[int]) -> PlumbingGraph:
    """One central vertex 0 joined to one vertex per leg, all genus 0."""
    r = 1 + len(leg_eulers)
    eulers = (center_euler,) + tuple(leg_eulers)
    return PlumbingGraph((0,) * r, eulers, tuple((0, i) for i in range(1, r)))


def e8_graph() -> PlumbingGraph:
    """The E8 tree: chain of seven (0,-2) vertices, eighth vertex on node 4."""
    edges = tuple((i, i + 1) for i in range(6)) + ((4, 7),)
    return PlumbingGraph((0,) * 8, (-2,) * 8, edges)
