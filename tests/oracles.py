"""Independent oracles and shared corpora for the test suite.

Everything here deliberately avoids the package's own algorithms: the
definiteness oracle characterizes negative definiteness through *all*
principal minors computed by memoized Laplace expansion (the package uses
leading minors via fraction-free elimination), the divisor oracle scans a
box point by point (the package descends or collapses intervals), and the
rational bound solves the linear system exactly (the package never forms
an inverse), and products with the intersection form run over its dense
rows (the package reads them off the graph's adjacency).  Agreement
between such different routes is the evidence the acceptance battery rests
on.

Some entries are exceptions.  The sampler references solve one draw at a
time with scalar arithmetic (a radial root-find for charts, damped
Gauss–Newton for hypersurfaces, whose closed-form step is the package's
formula taken one scalar at a time), and the contact point record is built
one sample at a time; the package's block solves and block records must
reproduce them bit for bit, not merely agree with them.  Their tangent and
level bases are the package's Householder forms, taken one row at a time
with the same operations; the SVD bases those forms replaced are kept here
as the reference (:func:`svd_kernel_bases`).  The former radial root-find,
a fixed-step bisection, is kept as the reference the safeguarded Newton
loop must agree with to a few ulp.  The adaptation
search's verification, one point at a time, is the reference its block
form must meet within the report contract of ``tests/test_contract.py``.
The suite enumeration's reference is the package's former enumeration,
kept verbatim: it permutes weight and multiplicity vectors one entry at a
time and probes definiteness on a validated graph per (edges, euler)
pair; the package's enumeration must yield the same sequence.  The
former graph validator is kept verbatim too, and the package's one-pass
validator must build the same graph or raise the same exception with the
same message (:func:`reference_validate_graph`).  The sparse elimination is
checked against dense LDL^T over Fractions (:func:`fraction_ldlt`), and
the heap-fed descent against the former scan-based one, which reuses the
package's rational solve for its warm start (:func:`scan_minimal_divisor`).
The automorphism group is listed with the package's own backtracking search,
which the package itself only ever asks for one solution at a time.  And :func:`eval_forms` reads the package's point record at one
sample, named for the hand checks; :func:`gradient_identity_residuals`
tests that record's hermitian form against finite differences of the
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
import typing
from math import ceil
from typing import Iterator, Sequence

import numpy as np

from milnorbook import (
    PlumbingGraph,
    Polynomial,
    Samples,
    SuiteSpec,
    VertexPermutation,
    constraint_vector,
    intersection_matrix,
    is_negative_definite,
    iter_suite,
    solve_exact,
)
from milnorbook import varieties
from milnorbook.contact import (
    _CONDITION_CEILING,
    _EXP_CAP,
    _FD_STEP,
    _Block,
    _im_covector,
    _on_binding,
    _real_omega,
    _stencil,
)
from milnorbook.errors import InputError, NonContiguousIds, NumericalFinding, SingularMetric
from milnorbook.graphs import _cell_members, _isomorphisms, _search_order
from milnorbook.polynomials import PolynomialBlock
from milnorbook.suites import _connected
from milnorbook.varieties import (
    _ATTEMPTS_PER_SAMPLE,
    _MAX_DOUBLINGS,
    Hypersurface,
    SmoothChart,
)


def principal_minor_signs_definite(rows) -> bool:
    """Negative definite iff every nonempty principal minor of A restricted
    to an index set S has sign (-1)^|S|.

    Determinants are computed over the integers by Laplace expansion along
    the first row, memoized on (row set, column set), so no elimination
    code is shared with the implementation under test.
    """
    rows = [tuple(int(x) for x in row) for row in rows]
    r = len(rows)

    @lru_cache(maxsize=None)
    def det(row_set: tuple[int, ...], col_set: tuple[int, ...]) -> int:
        if not row_set:
            return 1
        i = row_set[0]
        rest = row_set[1:]
        total = 0
        sign = 1
        for position, j in enumerate(col_set):
            entry = rows[i][j]
            if entry:
                remaining = col_set[:position] + col_set[position + 1 :]
                total += sign * entry * det(rest, remaining)
            sign = -sign
        return total

    indices = list(range(r))
    for size in range(1, r + 1):
        for subset in _subsets(indices, size):
            minor = det(subset, subset)
            if size % 2 == 1:
                if minor >= 0:
                    return False
            elif minor <= 0:
                return False
    return True


def _subsets(indices, size):
    from itertools import combinations

    return combinations(indices, size)


def dense_form_product(g: PlumbingGraph, m) -> tuple[int, ...]:
    """I . m as a row-by-column product over a dense matrix filled from the
    edge list, one count per edge (the package reads its adjacency)."""
    r = g.vertex_count
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        rows[i][i] = g.euler[i]
    for a, b in g.edges:
        rows[a][b] += 1
        rows[b][a] += 1
    return tuple(sum(entry * x for entry, x in zip(row, m)) for row in rows)


def automorphism_group(g: PlumbingGraph) -> list[VertexPermutation]:
    """All vertex permutations preserving weights and edge multiplicities.

    Lists every solution of the package's backtracking search, so its cost
    grows with the group order (k! for k equal legs of a star); keep the
    graphs small.  The result is sorted by image tuple and starts with the
    identity.
    """
    adjacency = g.adjacency
    found = [
        VertexPermutation(tuple(images))
        for images in _isomorphisms(
            adjacency, adjacency, _cell_members(g), _search_order(adjacency, 0)
        )
    ]
    found.sort(key=lambda p: p.images)
    return found


def brute_force_feasible_points(g: PlumbingGraph, bound: int):
    """Every nonzero divisor in [0, bound]^r satisfying the constraints.

    Pure nested-loop scan; exponential, so callers keep r and bound tiny.
    """
    c = constraint_vector(g)
    r = g.vertex_count
    feasible = []
    for m in product(range(bound + 1), repeat=r):
        if all(x == 0 for x in m):
            continue
        products = dense_form_product(g, m)
        if all(products[i] <= c[i] for i in range(r)):
            feasible.append(m)
    return feasible


def brute_force_minimal_divisor(g: PlumbingGraph, bound: int):
    """Componentwise minimum of the brute-force feasible set, or None."""
    feasible = brute_force_feasible_points(g, bound)
    if not feasible:
        return None
    return tuple(min(p[i] for p in feasible) for i in range(g.vertex_count))


def box_scan_minimal_divisor(g: PlumbingGraph, bound: int, *, inner: int = 4):
    """:func:`brute_force_minimal_divisor` for boxes too large to loop over.

    Every point of the box is still checked in full: the last ``inner``
    coordinates form one NumPy array of points per point of the others,
    and every product I . m is taken over the dense rows.
    """
    rows = np.array(intersection_matrix(g), dtype=np.int64)
    c = np.array(constraint_vector(g), dtype=np.int64)[:, None]
    r = g.vertex_count
    k = min(r, inner)
    tail = np.indices((bound + 1,) * k).reshape(k, -1)
    tail_products = rows[:, r - k:] @ tail
    least = None
    for head in product(range(bound + 1), repeat=r - k):
        products = tail_products + (rows[:, : r - k] @ np.array(head, dtype=np.int64))[:, None]
        feasible = (products <= c).all(axis=0)
        if not any(head):
            feasible[0] = False  # the zero divisor
        if not feasible.any():
            continue
        point = list(head) + tail[:, feasible].min(axis=1).tolist()
        least = point if least is None else [min(a, b) for a, b in zip(least, point)]
    return None if least is None else tuple(least)


def rational_solution(rows, rhs) -> tuple[Fraction, ...] | None:
    """Exact solution of rows . x = rhs, or None when rows is singular.

    Gauss-Jordan elimination over Fractions with a row exchange past every
    zero pivot, independent of the package's solver.
    """
    r = len(rows)
    a = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(r)]
    for col in range(r):
        pivot_row = next((i for i in range(col, r) if a[i][col] != 0), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for i in range(r):
            if i != col and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][r] for i in range(r))


def rational_least_point(g: PlumbingGraph) -> tuple[Fraction, ...] | None:
    """Least *real* feasible point: the exact solution of I x = c, or None
    when I is singular.

    The negative of the intersection matrix is inverse-positive, so every
    real solution of I x <= c dominates the equality solution; the least
    integer divisor therefore dominates the componentwise ceiling of this
    vector, with equality whenever the solution is already integral.
    """
    return rational_solution(intersection_matrix(g), constraint_vector(g))


def rational_ceiling(values) -> tuple[int, ...]:
    return tuple(int(ceil(v)) for v in values)


# Validation, elimination and descent references ------------------------------

def _reference_integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _reference_items(value, what: str) -> list:
    if isinstance(value, (str, bytes, typing.Mapping)):
        raise InputError(f"{what} must be a list, got {value!r}")
    try:
        return list(value)
    except TypeError:
        raise InputError(f"{what} must be a list, got {value!r}") from None


def reference_validate_graph(vertices, edges) -> PlumbingGraph:
    """The package's validator as it stood before its one-pass rewrite, kept
    verbatim with its helpers: every vertex becomes a checked triple through
    a generator, the ids are sorted and compared with 0..r-1, and every edge
    is copied into a list before it is checked.  The rewrite must build the
    same graph, or raise the same exception class with the same message."""
    triples = []
    for entry in _reference_items(vertices, "vertices"):
        if isinstance(entry, typing.Mapping):
            try:
                fields = (entry["id"], entry["genus"], entry["euler"])
            except KeyError as missing:
                raise InputError(f"vertex record lacks key {missing}") from None
        else:
            fields = _reference_items(entry, "vertex entry")
            if len(fields) != 3:
                raise InputError(f"vertex entry {entry!r} is not [id, genus, euler]")
        triples.append(
            tuple(
                _reference_integer(value, f"vertex {name}")
                for value, name in zip(fields, ("id", "genus", "euler"))
            )
        )
    ids = sorted(t[0] for t in triples)
    r = len(triples)
    if ids != list(range(r)):
        dupe = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
        if dupe is not None:
            raise NonContiguousIds(f"duplicate id {dupe}")
        raise NonContiguousIds(f"got ids {ids}")
    genus = [0] * r
    euler = [0] * r
    for vid, g, e in triples:
        genus[vid] = g
        euler[vid] = e
    pairs = []
    for edge in _reference_items(edges, "edges"):
        seq = _reference_items(edge, "edge")
        if len(seq) != 2:
            raise InputError(f"edge {seq} is not a pair")
        pairs.append(
            (_reference_integer(seq[0], "edge end"), _reference_integer(seq[1], "edge end"))
        )
    return PlumbingGraph(tuple(genus), tuple(euler), tuple(pairs))


def fraction_ldlt(rows, rhs=None):
    """``(negative_definite, det, solution)`` of a symmetric integer form by
    dense LDL^T over Fractions, in index order, without pivoting.

    The form is negative definite iff every D_k < 0, since D_k is the ratio
    of consecutive leading minors; the elimination stops at the first D_k
    that is not, and returns ``(False, None, None)``.  Otherwise det is the
    product of the D_k, and the solution of ``rows . x = rhs`` (None without
    ``rhs``) comes from the two triangular solves.  Only the nonzero entries
    of a pivot row are read, so a form whose index order eliminates leaves
    first costs O(r^2).
    """
    r = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    factors = []  # (k, D_k, [(i, L_ik)]) per step
    det = Fraction(1)
    for k in range(r):
        d = a[k][k]
        if d >= 0:
            return False, None, None
        det *= d
        below = [(i, a[k][i]) for i in range(k + 1, r) if a[k][i]]
        for i, x in below:
            for j, y in below:
                a[i][j] -= x * y / d
        factors.append((k, d, [(i, x / d) for i, x in below]))
    if rhs is None:
        return True, det, None
    z = [Fraction(b) for b in rhs]
    for k, _, column in factors:  # L z = rhs
        for i, ell in column:
            z[i] -= ell * z[k]
    x = [zk / d for zk, (_, d, _) in zip(z, factors)]
    for k, _, column in reversed(factors):  # L^T x = D^-1 z
        x[k] -= sum(ell * x[i] for i, ell in column)
    return True, det, tuple(x)


def scan_minimal_divisor(g: PlumbingGraph) -> tuple[tuple[int, ...], int]:
    """The descent as it stood before its heap, with its repair count: the
    warm start is the ceiling of the package's rational solution of
    I x = c, and each repair scans all r vertices for the lowest-index
    violated one, over the dense rows of the form."""
    c = constraint_vector(g)
    assert is_negative_definite(g), "the descent needs a negative definite graph"
    lower = solve_exact(g, c)
    rows = intersection_matrix(g)
    m = [max(1, math.ceil(x)) for x in lower]
    products = list(dense_form_product(g, m))
    repairs = 0
    while True:
        i = next((i for i in range(g.vertex_count) if products[i] > c[i]), None)
        if i is None:
            return tuple(m), repairs
        m[i] += 1
        repairs += 1
        products = [p + x for p, x in zip(products, rows[i])]


# Suite enumeration reference --------------------------------------------------

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


def _reference_edge_classes(r: int, spec: SuiteSpec):
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


def reference_edge_euler_classes(r: int, spec: SuiteSpec):
    """Canonical (edges, euler) pairs with residual stabilizers.

    Genus plays no role in definiteness, so callers filtering on the
    intersection form can prune at this level before expanding genus.
    """
    for edges, stabilizer in _reference_edge_classes(r, spec):
        for euler in product(spec.euler_values, repeat=r):
            images = [(s, _permuted_weights(euler, s)) for s in stabilizer]
            if min(img for _, img in images) < euler:
                continue
            residual = [s for s, img in images if img == euler]
            yield edges, euler, residual


def reference_suite(
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
        for edges, euler, residual in reference_edge_euler_classes(r, spec):
            if negative_definite_only:
                probe = PlumbingGraph((0,) * r, euler, edges)
                if not is_negative_definite(probe):
                    continue
            for genus in product(spec.genus_values, repeat=r):
                if any(_permuted_weights(genus, s) < genus for s in residual):
                    continue
                yield PlumbingGraph(genus, euler, edges)


# Cached corpora --------------------------------------------------------------

@lru_cache(maxsize=1)
def nd_suite() -> tuple[PlumbingGraph, ...]:
    """One representative per negative definite isomorphism class."""
    return tuple(iter_suite())


@lru_cache(maxsize=1)
def full_suite() -> tuple[PlumbingGraph, ...]:
    """All isomorphism classes of the family, both verdicts."""
    return tuple(iter_suite(negative_definite_only=False))


@lru_cache(maxsize=1)
def suite_matrices() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Distinct intersection matrices of the family (genus plays no role):
    the forms of its all-genus-0 classes, one per (edges, euler) class."""
    return tuple(intersection_matrix(g) for g in full_suite() if not any(g.genus))


def random_weighted_graph(rng, max_vertices=6, euler_range=(-5, 3), max_mult=3):
    """Random connected weighted multigraph: spanning tree plus extras."""
    r = int(rng.integers(1, max_vertices + 1))
    euler = tuple(int(rng.integers(euler_range[0], euler_range[1] + 1)) for _ in range(r))
    edges = []
    for i in range(1, r):
        edges.append((int(rng.integers(0, i)), i))
    if r >= 2:
        for _ in range(int(rng.integers(0, 2 * r))):
            a = int(rng.integers(0, r))
            b = int(rng.integers(0, r))
            if a != b:
                edges.append((min(a, b), max(a, b)))
    mult = {}
    for pair in edges:
        mult[pair] = min(mult.get(pair, 0) + 1, max_mult)
    flat = tuple(pair for pair, k in mult.items() for _ in range(k))
    return PlumbingGraph((0,) * r, euler, flat)


def _radial_profile(chart: SmoothChart, direction: np.ndarray) -> np.ndarray:
    """Real coefficients of ``t -> rho(t * direction)`` as a 1-D polynomial.

    For each component ``phi_k``, grouping terms by total degree gives a
    one-variable complex polynomial ``b(t)``; then ``|b(t)|^2`` has real
    coefficients equal to the autocorrelation of the coefficient vector,
    and ``rho`` along the ray is the sum over components.
    """
    max_degree = max(poly.total_degree for poly in chart.components)
    profile = np.zeros(2 * max_degree + 1)
    for poly in chart.components:
        coeffs = np.zeros(max_degree + 1, dtype=complex)
        for exponents, coefficient in poly.terms:
            value = coefficient
            for base, power in zip(direction, exponents):
                if power:
                    value *= base**power
            coeffs[sum(exponents)] += value
        squared = np.convolve(coeffs, np.conj(coeffs)).real
        profile[: squared.size] += squared
    return profile


def _solve_radial(profile: np.ndarray, epsilon: float):
    """Smallest ``t > 0`` with ``profile(t) = epsilon``, or None: the
    package's bracket search and safeguarded Newton loop, one draw at a
    time in scalar arithmetic.  Both start at the root ``(epsilon /
    a_m)^(1/m)`` of the lowest-order term ``a_m t^m``, taken with Python's
    ``**`` (libm's ``pow``, as ``np.float_power``), where it is positive and
    finite; the search starts at 1 otherwise, and the loop at the bracket's
    midpoint when the start is not in the bracket."""

    def value(t: float) -> float:
        return float(np.polynomial.polynomial.polyval(t, profile))

    start = None
    order = next((m for m, c in enumerate(profile) if c != 0.0), 0)
    ratio = epsilon / float(profile[order]) if order else math.nan
    if 0.0 < ratio < math.inf:
        start = ratio ** (1.0 / order)
    probe, low, high = start or 1.0, 0.0, math.inf
    for _ in range(_MAX_DOUBLINGS):
        below = value(probe) < epsilon  # NaN from overflow is past the level
        if below:
            low = probe
        else:
            high = probe
        if low > 0.0 and high < math.inf:
            break
        probe = 2.0 * probe if below else 0.5 * probe
    if high == math.inf:
        return None
    derivative = np.polynomial.polynomial.polyder(profile)
    t = start if start is not None and low <= start <= high else 0.5 * (low + high)
    for _ in range(varieties._ROOT_ROUNDS):
        x = t
        v = value(x)
        slope = float(np.polynomial.polynomial.polyval(x, derivative))
        if v < epsilon:
            low = x
        else:
            high = x
        mid = 0.5 * (low + high)
        t = mid
        if slope != 0.0 and math.isfinite(slope):
            newton = x - (v - epsilon) / slope
            if low <= newton <= high:
                t = newton
        if abs(t - x) < 4.0 * math.ulp(x) or mid == low or mid == high:
            break
    if t <= 0.0:
        return None
    return t


def bisect_radial(profile: np.ndarray, epsilon: float):
    """Smallest ``t > 0`` with ``profile(t) = epsilon``, or None, by the
    package's former root-find: bracket doubling from ``t = 1``, 80
    fixed bisection steps and at most 8 Newton steps.  The accuracy
    reference of the safeguarded Newton loop."""

    def value(t: float) -> float:
        return float(np.polynomial.polynomial.polyval(t, profile))

    high = 1.0
    for _ in range(_MAX_DOUBLINGS):
        v = value(high)
        if not (v < epsilon):  # NaN from overflow counts as "past the level"
            break
        high *= 2.0
    else:
        return None
    low = 0.0
    for _ in range(80):
        mid = 0.5 * (low + high)
        if value(mid) < epsilon:
            low = mid
        else:
            high = mid
    t = 0.5 * (low + high)
    derivative = np.polynomial.polynomial.polyder(profile)
    for _ in range(8):
        residual = value(t) - epsilon
        if abs(residual) <= 0.5 * 1e-12 * epsilon:
            break
        slope = float(np.polynomial.polynomial.polyval(t, derivative))
        if slope == 0.0 or not math.isfinite(slope):
            break
        t -= residual / slope
    if t <= 0.0 or not math.isfinite(t):
        return None
    return t


def per_draw_chart_samples(chart: SmoothChart, epsilon: float, count: int, seed: int):
    """``(point, rho_value)`` of the chart sampler run one draw at a time.

    Each draw is two ``standard_normal(n)`` calls, real part first, solved
    by the scalar radial profile and root-find above; the budget and the
    level test are the package's.
    """
    n = chart.ambient_dim
    rng = np.random.default_rng(seed)
    accepted = []
    attempts = 0
    budget = max(_ATTEMPTS_PER_SAMPLE * count, 50)
    while len(accepted) < count and attempts < budget:
        attempts += 1
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            continue
        direction = raw / norm
        t = _solve_radial(_radial_profile(chart, direction), epsilon)
        if t is None:
            continue
        point = t * direction
        values = np.array([poly.evaluate(point) for poly in chart.components])
        rho_value = float(np.sum(np.abs(values) ** 2))
        if abs(rho_value - epsilon) > varieties._LEVEL_TOLERANCE * epsilon:
            continue
        accepted.append((point, rho_value))
    return accepted


def _real_system(
    surface: Hypersurface, epsilon: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual ``(Re h, Im h, rho - epsilon)`` and complex gradient of ``h``
    at one point, evaluated term by term."""
    h_value = surface.defining.evaluate(z)
    h_grad = np.array([g.evaluate(z) for g in surface.defining.gradient()])
    rho = float(np.sum(np.abs(z) ** 2))
    return np.array([h_value.real, h_value.imag, rho - epsilon]), h_grad


def _real_jacobian(z: np.ndarray, h_grad: np.ndarray) -> np.ndarray:
    """The real Jacobian of ``(Re h, Im h, rho - epsilon)``.

    The unknowns are the real coordinates ``(x_0..x_n, y_0..y_n)`` with
    ``z_j = x_j + i y_j``; for holomorphic ``h`` the real partials are
    ``dh/dx_j = h_j`` and ``dh/dy_j = i h_j`` with ``h_j`` the complex
    gradient entry.
    """
    n = z.size
    jacobian = np.empty((3, 2 * n))
    jacobian[0, :n] = h_grad.real
    jacobian[0, n:] = -h_grad.imag
    jacobian[1, :n] = h_grad.imag
    jacobian[1, n:] = h_grad.real
    jacobian[2, :n] = 2.0 * z.real
    jacobian[2, n:] = 2.0 * z.imag
    return jacobian


def _closed_form(z: np.ndarray, residual: np.ndarray, h_grad: np.ndarray):
    """One draw's closed-form step in real scalar arithmetic, one operation at
    a time in ``varieties._closed_form``'s order: the parts ``-(h / |g|^2)
    conj(g)`` and ``b z_perp`` as lists of ``(re, im)``, with ``|g|^2``,
    ``|z|^2`` and ``|z_perp|^2``."""
    n = z.size
    x, y, p, q = z.real, z.imag, h_grad.real, h_grad.imag
    hr, hi, level = residual
    terms = [
        (p[j] * p[j] + q[j] * q[j], x[j] * x[j] + y[j] * y[j],
         p[j] * x[j] - q[j] * y[j], p[j] * y[j] + q[j] * x[j])
        for j in range(n)
    ]
    gg, zz, sr, si = terms[0]
    for g_sq, z_sq, s_re, s_im in terms[1:]:
        gg, zz, sr, si = gg + g_sq, zz + z_sq, sr + s_re, si + s_im
    if gg == 0:
        cr = ci = wr = wi = 0.0
    else:
        cr, ci, wr, wi = sr / gg, si / gg, -hr / gg, -hi / gg
    perp = [
        (x[j] - (cr * p[j] + ci * q[j]), y[j] - (ci * p[j] - cr * q[j]))
        for j in range(n)
    ]
    pp = perp[0][0] * perp[0][0] + perp[0][1] * perp[0][1]
    for re, im in perp[1:]:
        pp = pp + (re * re + im * im)
    b = (2.0 * (hr * cr + hi * ci) - level) / (2.0 * pp)
    along = [(wr * p[j] + wi * q[j], wi * p[j] - wr * q[j]) for j in range(n)]
    return along, [(b * re, b * im) for re, im in perp], gg, zz, pp


def gauss_newton_step(
    z: np.ndarray, residual: np.ndarray, h_grad: np.ndarray
) -> np.ndarray:
    """One draw's minimum-norm complex step ``dx + i dy``, taking the branches
    of ``varieties._gauss_newton_steps`` one scalar at a time: the closed
    form; on a draw that function solves again, the closed form with ``h``
    and ``g`` scaled by ``2^-k`` (``k`` the binary exponent of the largest
    ``|Re g_j|`` or ``|Im g_j|``), without its ``z_perp`` term where the rank
    margin fails; NaN where the step is still not finite."""
    with np.errstate(all="ignore"):
        along, across, gg, zz, pp = _closed_form(z, residual, h_grad)
        step = np.array([complex(a_re + c_re, a_im + c_im)
                         for (a_re, a_im), (c_re, c_im) in zip(along, across)])
        if (
            pp > varieties._RANK_MARGIN * zz
            and np.finfo(float).tiny <= gg < math.inf
            and np.isfinite(step).all()
        ):
            return step
        shift = -np.frexp(max(max(abs(g.real), abs(g.imag)) for g in h_grad))[1]
        scaled = np.array([complex(np.ldexp(g.real, shift), np.ldexp(g.imag, shift))
                           for g in h_grad])
        hr, hi, level = residual
        residual = np.array([np.ldexp(hr, shift), np.ldexp(hi, shift), level])
        along, across, gg, zz, pp = _closed_form(z, residual, scaled)
        if pp > varieties._RANK_MARGIN * zz:
            along = [(a_re + c_re, a_im + c_im)
                     for (a_re, a_im), (c_re, c_im) in zip(along, across)]
        step = np.array([complex(re, im) for re, im in along])
    return step if np.isfinite(step).all() else np.full(z.size, np.nan + 0j)


def _scaled_residual(residual: np.ndarray, epsilon: float, h_scale: float) -> float:
    """``varieties._scaled_residuals`` of one row: ``abs(complex)`` rounds as
    ``np.hypot`` does, where ``math.hypot`` has an algorithm of its own."""
    h_size = abs(complex(residual[0], residual[1]))
    return abs(complex(h_size / h_scale, abs(residual[2]) / epsilon))


def per_draw_hypersurface_samples(
    surface: Hypersurface, epsilon: float, count: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """``(point, tangent_basis, rho_value)`` of the hypersurface sampler run
    one draw at a time.

    Each draw is two ``standard_normal(n)`` calls, real part first, solved
    by damped Gauss–Newton on ``(Re h, Im h, rho - epsilon)`` with scalar
    polynomial evaluation and one :func:`gauss_newton_step` per iteration;
    one scaled residual decides the line search, the stop and the
    acceptance, and the budget, the tolerances and the gradient floor are
    the package's.
    """
    n = surface.ambient_dim
    h_scale = surface.defining_scale(epsilon)
    gradient_floor = 1e-8 * h_scale / math.sqrt(epsilon)

    def solve(raw: np.ndarray, norm: float):
        z = math.sqrt(epsilon) * raw / norm
        for _ in range(varieties._MAX_ITERATIONS):
            residual, h_grad = _real_system(surface, epsilon, z)
            scaled = _scaled_residual(residual, epsilon, h_scale)
            if scaled <= varieties._NEWTON_TOLERANCE:
                break
            delta = gauss_newton_step(z, residual, h_grad)
            factor = 1.0
            moved = False
            while factor > 1e-6:
                candidate = z + factor * delta
                trial, _ = _real_system(surface, epsilon, candidate)
                if _scaled_residual(trial, epsilon, h_scale) < scaled:
                    z = candidate
                    moved = True
                    break
                factor *= varieties._DAMPING
            if not moved:
                break
        residual, gradient = _real_system(surface, epsilon, z)
        if not _scaled_residual(residual, epsilon, h_scale) <= varieties._LEVEL_TOLERANCE:
            return None
        if np.linalg.norm(gradient) < gradient_floor:
            return None
        return z, householder_kernel_basis(gradient), float(np.sum(np.abs(z) ** 2))

    rng = np.random.default_rng(seed)
    accepted = []
    attempts = 0
    budget = max(_ATTEMPTS_PER_SAMPLE * count, 50)
    while len(accepted) < count and attempts < budget:
        attempts += 1
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            continue
        sample = solve(raw, norm)
        if sample is not None:
            accepted.append(sample)
    return accepted


def householder_kernel_basis(row: np.ndarray) -> np.ndarray:
    """The orthonormal kernel basis of one row ``g``, real or complex, ``(n, n
    - 1)``: columns 1.. of the Householder reflector of ``conj(g)``, with the
    operations of ``varieties._kernel_bases`` on one row, in its layout (the
    transpose of a C-contiguous array)."""
    n = len(row)
    a = row.conj()
    alpha = a[:1]
    beta = -np.copysign(reduce(np.hypot, np.abs(a)), alpha.real)
    tau = (beta - alpha) / beta
    v = a[1:] / (alpha - beta)
    scaled = -tau * v.conj()
    basis = np.empty((n - 1, n), dtype=a.dtype)
    basis[:, 0] = scaled
    basis[:, 1:] = scaled[:, None] * v[None, :]
    basis[:, 1:] += np.eye(n - 1)
    return basis.T


def svd_kernel_bases(rows: np.ndarray) -> np.ndarray:
    """The kernel bases of ``rows``, real or complex, from one stacked SVD,
    ``vh[1:].conj().T`` of each row's: the reference of the Householder
    form."""
    _, _, vh = np.linalg.svd(rows[:, None, :])
    return vh[:, 1:].conj().swapaxes(1, 2)


def per_sample_contact_record(v, point, f) -> dict:
    """The contact point record at one sample point, stage by stage, with one
    solve and product per sample and ``f`` evaluated term by term.

    The tangent basis is built here, not read from a sample record: a new
    identity for a chart, and for a hypersurface the kernel basis of the
    scalar-evaluated ``dh`` from :func:`householder_kernel_basis`, in the
    package's layout (a C-contiguous copy rounds ``df``'s products
    differently in four variables).  The singular values of ``A_T`` are 1
    on a model with ``orthonormal_frames``, else those of one SVD.

    Tangent stage: ``H = 4 A_T^H A_T``, the row ``ell`` of ``d rho`` and
    ``alpha``, its scale and the condition of ``H``; Reeb stage: ``grad rho``,
    its squared h-norm and ``R``; the level basis of ``ker d rho``; and the
    theta stage of ``theta = arg f`` (``f(p)`` must not vanish).
    """
    if isinstance(v, SmoothChart):
        basis = np.eye(v.dim, dtype=complex)
    else:
        gradient = np.array([g.evaluate(point) for g in v.defining.gradient()])
        basis = householder_kernel_basis(gradient)
    values, jacobians = v.phi_block(point[None])
    a_t = jacobians[0] @ basis
    if v.orthonormal_frames:
        largest = smallest = 1.0
    else:
        singular = np.linalg.svd(a_t, compute_uv=False)
        largest, smallest = float(singular[0]), float(singular[-1])
    hermitian = 4.0 * (a_t.conj().T @ a_t)
    ell = 2.0 * (values[0].conj() @ a_t)
    wide = a_t.shape[0] < a_t.shape[1]
    gradient = np.linalg.solve(hermitian, ell.conj())
    norm_sq = float(np.real(ell @ gradient))
    reeb = 1j * gradient / norm_sq

    value = f.evaluate(point)
    row = np.array([g.evaluate(point) for g in f.gradient()]) @ basis
    grad_theta = 1j * np.linalg.solve(hermitian, row.conj()) / np.conj(value)
    coefficient = (gradient.conj() @ hermitian @ grad_theta) / norm_sq
    projected = grad_theta - coefficient * gradient
    return {
        "hermitian": hermitian,
        "ell": ell,
        "ell_scale": 2.0 * float(np.linalg.norm(values[0])) * largest,
        "condition": math.inf if wide else (largest / smallest) ** 2,
        "gradient": gradient,
        "norm_sq": norm_sq,
        "reeb": reeb,
        "level_basis": householder_kernel_basis(np.concatenate([ell.real, -ell.imag])),
        "f_row": row,
        "grad_theta": grad_theta,
        "projected": projected,
        "dtheta_reeb": float(np.imag((row / value) @ reeb)),
        "grad_theta_sq": float(np.real(grad_theta.conj() @ hermitian @ grad_theta)),
        "transverse_sq": float(np.real(projected.conj() @ hermitian @ projected)),
    }


def per_point_rescaled_dtheta(c, dtheta_reeb, transverse_terms, sizes_sq):
    """``d theta(R_c)`` at each retained mesh point and their running
    minimum, as the adaptation search verified them one point at a time,
    with Python floats and ``math.exp``."""
    values = []
    min_rescaled = math.inf
    for base, transverse_term, size_sq in zip(
        dtheta_reeb.tolist(), transverse_terms.tolist(), sizes_sq.tolist()
    ):
        weight = c * size_sq
        # d theta of the rescaled field, with the positive factor exp(weight)
        # pulled out so an aggressive constant cannot overflow: the factor
        # never changes the sign being verified.
        if transverse_term > 0.0:
            base += weight * transverse_term
        if weight > _EXP_CAP:
            rescaled_value = math.copysign(math.inf, base) if base != 0.0 else 0.0
        else:
            rescaled_value = math.exp(weight) * base
        values.append(rescaled_value)
        min_rescaled = min(min_rescaled, rescaled_value)
    return np.array(values), min_rescaled


@dataclass(frozen=True, eq=False)
class FormsAtPoint:
    """All pointwise structures, expressed in the sample's tangent basis.

    Real objects (``alpha``, ``omega``, ``metric_g``) act on real tangent
    coordinates ``(a; b)`` for the complex tangent vector ``a + i b``;
    complex objects (``hermitian_h``, ``grad_rho``, ``reeb``) act on/live
    in complex tangent coordinates.  ``hermitian_h`` equals
    ``metric_g + i omega`` as bilinear data.
    """

    alpha: np.ndarray
    omega: np.ndarray
    metric_g: np.ndarray
    hermitian_h: np.ndarray
    grad_rho: np.ndarray
    reeb: np.ndarray
    grad_rho_norm_sq: float

    @property
    def tangent_dim(self) -> int:
        return self.hermitian_h.shape[0]


def eval_forms(v, p: Samples) -> FormsAtPoint:
    """Evaluate the contact package at the sample of a one-row record.

    Returns the contact form, two-form, metric, hermitian form, potential
    gradient, and Reeb vector, all in the sample's tangent basis, from the
    point record of ``p``.  Raises :class:`DegenerateTangent` on rank loss
    of the differential and :class:`ZeroGradient` at critical points of the
    potential.
    """
    block = _Block(v, p, None, True)
    block.check((0,), True)
    g_block, w_block = block.hermitian[0].real, block.hermitian[0].imag
    return FormsAtPoint(
        alpha=_im_covector(block.ell[0]),
        omega=_real_omega(block.hermitian[0]),
        metric_g=np.block([[g_block, -w_block], [w_block, g_block]]),
        hermitian_h=block.hermitian[0],
        grad_rho=block.gradient[0],
        reeb=block.reeb[0],
        grad_rho_norm_sq=float(block.norm_sq[0]),
    )


class OnBinding(NumericalFinding):
    """The sample lies on (or numerically on) the zero set of f."""


def gradient_identity_residuals(
    v, p: Samples, phi: Polynomial, step_scale: float = _FD_STEP
) -> tuple[float, float]:
    """Relative residuals of the two gradient identities at the one-row ``p``.

    The gradients of the real functions ``|phi|^2`` and ``arg phi`` are
    recovered from finite differences of the functions themselves through
    the defining property ``dF = Re h(grad F, .)``, then compared against
    the closed forms ``2 phi grad(phi)`` and ``i grad(phi) / conj(phi)``.
    Requires ``phi(p) != 0``; raises :class:`OnBinding` otherwise.
    """
    block = _Block(v, p, None, False)
    block.check((0,), False)
    hermitian = block.hermitian[0]
    m = hermitian.shape[0]
    _, step, shifted = _stencil(p, step_scale)
    points = np.concatenate([p.points[:1], shifted])
    # phi and grad phi at p, then at the 4m shifted points.
    phi_block = PolynomialBlock((phi, *phi.gradient())).evaluate(points)
    values = phi_block[:, 0].tolist()
    value = values[0]
    if _on_binding(phi, value, float(p.rho_values[0])):
        raise OnBinding("the function vanishes at this point")
    if block.condition[0] > _CONDITION_CEILING:
        raise SingularMetric("the hermitian form is numerically singular at this point")
    gradient = np.linalg.solve(hermitian, (phi_block[0, 1:] @ p.bases[0]).conj())
    abs_sq_row = np.empty(2 * m)
    arg_row = np.empty(2 * m)
    plus, minus = values[1 : 2 * m + 1], values[2 * m + 1 :]
    for i, (value_plus, value_minus) in enumerate(zip(plus, minus)):
        abs_sq_row[i] = (abs(value_plus) ** 2 - abs(value_minus) ** 2) / (2 * step)
        # Angles are measured relative to phi(p), avoiding the branch cut.
        turn_plus = float(np.angle(value_plus * np.conj(value)))
        turn_minus = float(np.angle(value_minus * np.conj(value)))
        arg_row[i] = (turn_plus - turn_minus) / (2 * step)

    # Invert r = [Re L, -Im L] and solve h(grad, .) = L for each covector r.
    fd_abs_sq = np.linalg.solve(hermitian, (abs_sq_row[:m] - 1j * abs_sq_row[m:]).conj())
    fd_arg = np.linalg.solve(hermitian, (arg_row[:m] - 1j * arg_row[m:]).conj())
    closed_abs_sq = 2.0 * value * gradient
    closed_arg = 1j * gradient / np.conj(value)
    residual_abs_sq = float(
        np.linalg.norm(fd_abs_sq - closed_abs_sq)
        / (1.0 + np.linalg.norm(closed_abs_sq))
    )
    residual_arg = float(
        np.linalg.norm(fd_arg - closed_arg) / (1.0 + np.linalg.norm(closed_arg))
    )
    return residual_abs_sq, residual_arg
