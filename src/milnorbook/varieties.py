"""Variety models and deterministic point sampling on squared-norm levels.

Two models of a germ are supported, each paired with the potential

    rho(p) = sum_k |phi_k(p)|^2

whose level set ``M = rho^{-1}(epsilon)`` carries the contact-geometric data
evaluated in :mod:`milnorbook.contact`:

* :class:`SmoothChart` — the germ is a polynomial immersion
  ``Phi = (phi_1, ..., phi_N)`` defined on a coordinate chart ``C^dim``;
  points live in the domain and every domain direction is tangent.
* :class:`Hypersurface` — the germ is the zero set of one polynomial ``h``
  in its ambient space; the coordinate functions are the ambient
  coordinates themselves (so ``rho`` is the squared ambient norm) and the
  tangent space at a point is the kernel of ``dh``.

The contact checks read ``Phi`` and its Jacobian only by ``phi_block``, on
blocks of points.

:func:`sample_points` runs one accept loop over blocks of random ambient
directions; the model's step takes a block, solves each draw onto the
level set or rejects it, and returns the accepted rows' arrays, which the
loop copies into arrays preallocated for the requested count and the model
turns into one :class:`Samples` record.  For charts the step builds the
radial profiles of the whole block, one stacked product per lag of the
autocorrelation, and finds their roots together (a bracket search that
doubles or halves the top from the root of each profile's lowest-order
term, then one safeguarded Newton loop from that root, or from the
bracket's midpoint where the root is outside it, that falls back to the
midpoint and stops each row once its step is below 4 ulp, as array Horner
loops); for hypersurfaces it runs a damped
Gauss–Newton iteration on ``(Re h, Im h, rho - epsilon)`` for all draws of
the block together, each draw one packed float row, with one measure of the
distance from the level set (:func:`_scaled_residuals`) for its line
search, its stop and its acceptance, one line-search factor per round, and
the minimum-norm steps of all live draws in closed form, a few array
operations per iteration; rows too close to rank deficiency take it again,
rescaled, with its ``z_perp`` term dropped where the margin still fails;
each accepted point's tangent basis is the Householder basis of the kernel
of ``dh`` (:func:`_kernel_bases`, which the contact checks also take for
their level bases).  Polynomials are evaluated on the whole block by
:class:`~milnorbook.polynomials.PolynomialBlock`.
Sampling is bitwise deterministic for a fixed seed, and independent of the
block size: every block operation is one a loop over single draws repeats
in the same order, ``|h|`` included (``np.hypot`` is libm's ``hypot``, as
Python's ``abs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InputError, SamplingFailed
from .polynomials import Polynomial, PolynomialBlock

__all__ = [
    "SmoothChart",
    "Hypersurface",
    "Samples",
    "sample_points",
]

# Maximum times the radial bracket is doubled before a direction is
# declared degenerate (the potential never reaches the target level), and
# halved before the search settles for a bracket from 0.
_MAX_DOUBLINGS = 300

# Draws solved together by one step of the accept loop, and samples the
# contact checks evaluate together.  The cap keeps memory independent of
# the requested count.
_DRAWS_PER_BLOCK = 2**12

# Attempt budget: accepting `count` samples out of at most 10 * count
# draws is exactly the 10% minimum convergence rate.
_ATTEMPTS_PER_SAMPLE = 10

# The contract the rest of the package assumes: accepted samples satisfy
# |rho - epsilon| <= _LEVEL_TOLERANCE * epsilon and, for hypersurfaces,
# |h| <= _LEVEL_TOLERANCE * scale, where scale bounds |h| on the sphere of
# radius sqrt(epsilon) (the hypersurface sampler tests both at once, on
# their hypot, _scaled_residuals).
_LEVEL_TOLERANCE = 1e-10

# Rounds of the safeguarded Newton loop per radial root.
_ROOT_ROUNDS = 80

# Scaled residual at which the Gauss–Newton iteration of a hypersurface draw
# stops.
_NEWTON_TOLERANCE = 1e-12

# Gauss–Newton iterations per hypersurface draw, and the factor each
# rejected step is shrunk by.
_MAX_ITERATIONS = 50
_DAMPING = 0.5

# A Gauss–Newton step whose rank margin ``|z_perp|^2`` is at most this share
# of ``|z|^2`` drops its ``z_perp`` term (see _gauss_newton_steps).
_RANK_MARGIN = 1e-6


def _read_only_identity(dim: int) -> np.ndarray:
    identity = np.eye(dim, dtype=complex)
    identity.flags.writeable = False
    return identity


def _require_vanishing_at_origin(poly: Polynomial, label: str) -> None:
    origin = (0,) * poly.n_vars
    for exponents, coefficient in poly.terms:
        if exponents == origin and coefficient != 0:
            raise InputError(
                f"{label} has a nonzero constant term; "
                "the germ must send the origin to the origin"
            )


class SmoothChart:
    """A polynomial immersion ``Phi: C^dim -> C^N`` on a coordinate chart.

    Points live in the domain ``C^dim``.  The potential is
    ``rho(p) = sum_k |phi_k(p)|^2`` and the tangent basis at every point is
    the identity basis of the domain.  Injectivity of ``dPhi`` is not
    assumed globally; it is rank-tested where the forms are evaluated,
    except where the components are the coordinates (see
    :attr:`orthonormal_frames`).
    """

    def __init__(self, dim: int, components: tuple[Polynomial, ...] | list[Polynomial]):
        if dim < 1:
            raise InputError("chart dimension must be at least 1")
        components = tuple(components)
        if not components:
            raise InputError("a chart needs at least one component")
        for k, poly in enumerate(components):
            if poly.n_vars != dim:
                raise InputError(
                    f"component {k} uses {poly.n_vars} variables, expected {dim}"
                )
            _require_vanishing_at_origin(poly, f"component {k}")
        self.dim = dim
        self.components = components
        self._components_block = PolynomialBlock(components)
        self._identity = _read_only_identity(dim)
        self._orthonormal_frames = components == tuple(
            Polynomial.variable(dim, i) for i in range(dim)
        )
        # Read only by phi_block, and only where the Jacobian is not the identity.
        if not self._orthonormal_frames:
            self._jacobian_block = PolynomialBlock(
                [partial for poly in components for partial in poly.gradient()]
            )

    @property
    def orthonormal_frames(self) -> bool:
        """Whether every ``A_T`` has orthonormal columns: here, whether the
        components are the coordinates, so that the Jacobian and the tangent
        basis are both the identity."""
        return self._orthonormal_frames

    @classmethod
    def identity(cls, dim: int) -> "SmoothChart":
        """The identity immersion of ``C^dim`` (so ``rho`` is the squared norm)."""
        return cls(dim, tuple(Polynomial.variable(dim, i) for i in range(dim)))

    @property
    def ambient_dim(self) -> int:
        """Dimension of the space the sampled points live in."""
        return self.dim

    @property
    def target_dim(self) -> int:
        return len(self.components)

    def phi_block(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``Phi`` and its ``N x dim`` Jacobian at each row of ``(k, dim)`` points;
        with :attr:`orthonormal_frames`, the one read-only identity, broadcast."""
        values = self._components_block.evaluate(points)
        if self._orthonormal_frames:
            return values, np.broadcast_to(self._identity, (len(points), self.dim, self.dim))
        shape = (len(points), self.target_dim, self.dim)
        return values, self._jacobian_block.evaluate(points).reshape(shape)

    def _samples(self, points, rho_values) -> Samples:
        """The record of the accepted rows; every basis is the one read-only
        identity, broadcast."""
        bases = np.broadcast_to(self._identity, (len(points), *self._identity.shape))
        return Samples(points, bases, rho_values)

    def __repr__(self) -> str:
        body = ", ".join(str(p) for p in self.components)
        return f"SmoothChart(dim={self.dim}, components=({body}))"


class Hypersurface:
    """The zero set of one polynomial ``h`` in at least two variables.

    Points live in the ambient space; the coordinate functions are the
    ambient coordinates, so ``rho(p) = |p|^2`` and the level set is the
    intersection of the hypersurface with a sphere.  The tangent space at
    a smooth point is the kernel of the differential ``dh``.
    """

    def __init__(self, defining: Polynomial):
        if defining.n_vars < 2:
            raise InputError("a hypersurface needs at least two variables")
        if defining.is_zero or defining.total_degree == 0:
            raise InputError("the defining polynomial must be nonconstant")
        _require_vanishing_at_origin(defining, "the defining polynomial")
        self.defining = defining
        self._system_block = PolynomialBlock((*defining.gradient(), defining))
        self._identity = _read_only_identity(defining.n_vars)

    @property
    def ambient_dim(self) -> int:
        return self.defining.n_vars

    @property
    def orthonormal_frames(self) -> bool:
        """True: the Jacobian is the identity and the tangent bases are
        orthonormal, so every ``A_T`` has orthonormal columns."""
        return True

    def phi_block(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points, and the one read-only identity broadcast as each Jacobian."""
        shape = (len(points), *self._identity.shape)
        return points, np.broadcast_to(self._identity, shape)

    def defining_scale(self, epsilon: float) -> float:
        """A positive bound for ``|h|`` on the sphere ``rho = epsilon``."""
        bound = self.defining.magnitude_bound(math.sqrt(epsilon))
        return max(bound, np.finfo(float).tiny)

    def _samples(self, points, rho_values, gradients) -> Samples:
        """The record of the accepted rows; the bases are :func:`_kernel_bases`
        of the gradients, in its layout: products on another layout round
        differently."""
        return Samples(points, _kernel_bases(gradients), rho_values)

    def __repr__(self) -> str:
        return f"Hypersurface({self.defining})"


@dataclass(frozen=True, eq=False)
class Samples:
    """Accepted points of ``rho = epsilon``: ``points`` ``(k, n)``, tangent
    ``bases`` ``(k, n, m)`` with columns orthonormal for the ambient hermitian
    product (for hypersurfaces annihilated by ``dh``) and ``rho_values``
    ``(k,)``.  Slices are records; a single sample is a one-row slice."""

    points: np.ndarray
    bases: np.ndarray
    rho_values: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, rows: slice) -> "Samples":
        if not isinstance(rows, slice):
            raise TypeError("a sample record takes slices, e.g. samples[i : i + 1]")
        return Samples(self.points[rows], self.bases[rows], self.rho_values[rows])


def _radial_profiles(chart: SmoothChart, directions: np.ndarray) -> np.ndarray:
    """Real coefficients of ``t -> rho(t * d)`` for each row ``d``, as rows.

    For each component ``phi_k``, grouping terms by total degree gives a
    one-variable complex polynomial ``b(t)``; then ``|b(t)|^2`` has real
    coefficients equal to the autocorrelation of the coefficient vector,
    and ``rho`` along the ray is the sum over components.

    The monomials are the components block's :meth:`~milnorbook.polynomials.
    PolynomialBlock.terms`, added into their degree slots in term order.
    Lag ``k`` of the autocorrelation is one stacked ``@`` of each row's
    overlap with its reversed conjugate: the dot product
    ``np.convolve(row, np.conj(row))`` takes for that lag, over the same
    terms in the same order, so it keeps the bits (a zero-padded product
    adds terms and lets BLAS sum in another order).
    """
    max_degree = max(poly.total_degree for poly in chart.components)
    profiles = np.zeros((len(directions), 2 * max_degree + 1))
    with np.errstate(all="ignore"):  # as Python floats, which warn of nothing
        terms = chart._components_block.terms(directions)
    for i, poly in enumerate(chart.components):
        coeffs = np.zeros((len(directions), max_degree + 1), dtype=complex)
        for t, (exponents, _) in enumerate(poly.terms):
            coeffs[:, sum(exponents)] += terms[:, i, t]
        # Lag k sums coeffs[j] * conj(coeffs[k - j]) for j ascending over
        # lo <= j < hi; reversed_conj[:, max_degree - k + j] is the conjugate.
        reversed_conj = np.conj(coeffs[:, ::-1]).copy()
        lags = np.empty_like(profiles)
        with np.errstate(all="ignore"):  # as np.convolve, which warns of nothing
            for k in range(2 * max_degree + 1):
                lo, hi = max(0, k - max_degree), min(k, max_degree) + 1
                tail = reversed_conj[:, max_degree - k + lo : max_degree - k + hi, None]
                lags[:, k] = (coeffs[:, None, lo:hi] @ tail)[:, 0, 0].real
        profiles += lags
    return profiles


def _radial_roots(profiles: np.ndarray, epsilon: float) -> np.ndarray:
    """Smallest ``t > 0`` with ``profile(t) = epsilon`` per row, NaN if none.

    Each row starts at ``t0 = (epsilon / a_m)^(1/m)``, the root of its
    lowest-order term ``a_m t^m``: near 0 the profile is ``a_m t^m (1 +
    O(t))``, so for small levels the smallest root, on the Milnor sphere,
    lies near ``t0``.  A row whose ``t0`` is not positive and finite (a
    zero, NaN or infinite profile, or a subnormal leading coefficient)
    starts at ``t = 1``.  A bracket search from the start, doubling the top
    while the profile is below the level and halving it while it is not, at
    most ``_MAX_DOUBLINGS`` times, gives each row a bracket ``[2^k t0,
    2^(k+1) t0]`` (``[0, 2^k t0]`` if the halvings run out).  Then one
    safeguarded Newton loop (``rtsafe``, Numerical Recipes 9.4) starts from
    ``t0`` where it lies in the bracket, else from its midpoint: each round
    evaluates the profile and its derivative at the live rows, narrows the
    bracket by the side of the level the value lies on (a NaN value counts
    as past it), and takes the Newton step where the slope is finite and
    non-zero and the step stays inside the bracket, else the midpoint.  A
    row stops when its step moves less than 4 ulp, when its bracket has
    stalled (its midpoint is one of its ends), or after
    ``_ROOT_ROUNDS`` rounds; on a coordinate chart, where ``t0`` is the
    root, that is two probes and one round.  Values come from ``polyval`` on
    columns of coefficients, the same Horner steps as for one profile, and
    every other operation is elementwise (``np.float_power`` is libm's
    ``pow``, as Python's ``**``), so a row's root does not depend on the
    block.
    """
    # Looked up here: NumPy imports its polynomial package on first use.
    polyval = np.polynomial.polynomial.polyval
    polyder = np.polynomial.polynomial.polyder
    coefficients = profiles.T
    low, high = np.zeros(len(profiles)), np.full(len(profiles), np.inf)
    live = np.arange(len(profiles))
    with np.errstate(all="ignore"):  # inf and NaN values fall back to the midpoint
        order = np.argmax(profiles != 0.0, axis=1)
        ratio = epsilon / profiles[live, order]
        start = np.float_power(ratio, 1.0 / order)
        leading = (order > 0) & (ratio > 0.0) & (ratio < np.inf)
        probe = np.where(leading, start, 1.0)
        for _ in range(_MAX_DOUBLINGS):
            t = probe[live]
            below = polyval(t, coefficients[:, live], tensor=False) < epsilon
            low[live] = np.where(below, t, low[live])
            high[live] = np.where(below, high[live], t)
            searching = (low[live] == 0.0) | (high[live] == np.inf)
            live = live[searching]
            if not live.size:
                break
            probe[live] = np.where(below[searching], 2.0, 0.5) * t[searching]
        roots = np.full(len(profiles), np.nan)
        rows = np.flatnonzero(high < np.inf)
        if not rows.size:
            return roots
        coefficients = coefficients[:, rows]
        derivative = polyder(coefficients)
        low, high, start = low[rows], high[rows], start[rows]
        from_start = leading[rows] & (low <= start) & (start <= high)
        t = np.where(from_start, start, 0.5 * (low + high))
        live = np.arange(rows.size)
        for _ in range(_ROOT_ROUNDS):
            x = t[live]
            value = polyval(x, coefficients[:, live], tensor=False)
            slope = polyval(x, derivative[:, live], tensor=False)
            below = value < epsilon
            lo = np.where(below, x, low[live])
            hi = np.where(below, high[live], x)
            low[live], high[live] = lo, hi
            mid = 0.5 * (lo + hi)
            newton = x - (value - epsilon) / slope
            inside = (slope != 0.0) & np.isfinite(slope) & (lo <= newton)
            inside &= newton <= hi
            step = np.where(inside, newton, mid)
            t[live] = step
            moving = ~(np.abs(step - x) < 4.0 * np.spacing(x)) & (mid != lo) & (mid != hi)
            live = live[moving]
            if not live.size:
                break
    roots[rows] = np.where(t > 0.0, t, np.nan)
    return roots


def _row_squares(rows: np.ndarray) -> np.ndarray:
    """``x . x`` of each row, as ``np.linalg.norm`` sums it, bit for bit.

    Complex rows are summed over the real and imaginary parts as strided
    views (which also gives ``np.vdot(x, x).real``).  A batched ``@`` with
    the same strides reproduces it; ``norm(axis=1)`` rounds differently.
    """
    if rows.dtype.kind == "c":
        re, im = rows.real, rows.imag
        squares = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    else:
        squares = rows[:, None, :] @ rows[:, :, None]
    return squares[:, 0, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, bit for bit."""
    return np.sqrt(_row_squares(rows))


def _closed_form(z: np.ndarray, residual: np.ndarray, gradient: np.ndarray):
    """The two parts of each row's step, ``-(h / |g|^2) conj(g)`` (which
    solves the ``h`` rows alone) and ``b z_perp``, with ``|g|^2``, ``|z|^2``
    and ``|z_perp|^2``; ``c = w = 0`` where ``g = 0`` (see
    :func:`_gauss_newton_steps`)."""
    k, n = z.shape
    x, y, p, q = z.real, z.imag, gradient.real, gradient.imag
    hr, hi, level = residual.T
    terms = np.empty((4, k, n))

    def total(columns, out):
        np.add(columns[..., 0], columns[..., 1], out=out)
        for j in range(2, n):
            out += columns[..., j]
        return out

    # Per column: |g_j|^2, |z_j|^2, Re(g_j z_j) and Im(g_j z_j), summed; -h after.
    np.add(p * p, q * q, out=terms[0])
    np.add(x * x, y * y, out=terms[1])
    np.subtract(p * x, q * y, out=terms[2])
    np.add(p * y, q * x, out=terms[3])
    sums = np.empty((6, k))
    gg, zz = total(terms, sums[:4])[:2]
    np.negative(residual[:, :2].T, out=sums[4:])
    ratios = np.divide(sums[2:], gg, out=np.zeros((4, k)), where=gg != 0.0)
    cr, ci, wr, wi = ratios[:, :, None]
    conj = gradient.conj()
    turned = conj * 1j
    perp = z - (cr * conj + ci * turned)
    pp = total(perp.real * perp.real + perp.imag * perp.imag, np.empty(k))
    b = (2.0 * (hr * ratios[0] + hi * ratios[1]) - level) / (2.0 * pp)
    return wr * conj + wi * turned, b[:, None] * perp, gg, zz, pp


def _gauss_newton_steps(
    z: np.ndarray, residual: np.ndarray, gradient: np.ndarray
) -> np.ndarray:
    """Minimum-norm complex steps ``delta = dx + i dy`` with ``J @ (dx, dy) =
    -residual``, ``J`` the real ``3 x 2n`` Jacobian of ``(Re h, Im h, rho -
    epsilon)`` at the rows ``z`` with ``dh = gradient``.

    Rows 0 and 1 of ``J`` are ``conj(g)`` and ``i conj(g)`` read as real
    vectors, orthogonal and of norm ``|g|``; row 2 is ``2 z``.  With ``c =
    sum_j g_j z_j / |g|^2`` and ``z_perp = z - c conj(g)``, orthogonal to both,
    the step in their span is ``-(h / |g|^2) conj(g) + b z_perp`` with ``b =
    (2 Re(h conj(c)) - (rho - epsilon)) / (2 |z_perp|^2)``.  The sums are
    taken in real arithmetic over the columns left to right; complex arrays
    are only added, subtracted and multiplied by a real factor or ``1j``,
    which rounds each part as the real product does.  So a loop over single
    draws in real arithmetic repeats the bits.  Rows with ``|z_perp|^2 <=
    _RANK_MARGIN |z|^2`` (``z`` nearly parallel to ``conj(g)``, which it
    never is on the link), with ``|g|^2`` outside the normal range, or whose
    step is not finite take the closed form again with ``h`` and ``g``
    scaled by ``2^-k``, ``k`` the binary exponent of the largest ``|Re g_j|``
    or ``|Im g_j|``, which leaves the step as it is.  Where ``g = 0`` it is
    ``-(rho - epsilon) z / (2 |z|^2)``, as least squares gives; where the
    margin still fails, the ``z_perp`` term is dropped; a step still not
    finite is NaN, which the line search never takes.
    """
    with np.errstate(all="ignore"):  # rows with errors are solved again or NaN
        along, across, gg, zz, pp = _closed_form(z, residual, gradient)
        delta = along + across
        normal = (gg >= np.finfo(float).tiny) & (gg < np.inf)
        solved = normal & (pp > _RANK_MARGIN * zz) & np.isfinite(delta).all(axis=1)
        rows = np.flatnonzero(~solved)
        if rows.size:
            parts, r = gradient[rows].view(float), residual[rows]
            shift = -np.frexp(np.abs(parts).max(axis=1))[1][:, None]
            r[:, :2] = np.ldexp(r[:, :2], shift)
            scaled = np.ldexp(parts, shift).view(complex)
            along, across, _, zz, pp = _closed_form(z[rows], r, scaled)
            steps = np.where((pp > _RANK_MARGIN * zz)[:, None], along + across, along)
            steps[~np.isfinite(steps).all(axis=1)] = np.nan
            delta[rows] = steps
    return delta


def _kernel_bases(rows: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the kernel of each row ``g``, real or complex:
    columns 1.. of the Householder reflector ``H`` of ``a = conj(g)``.

    ``H = I - tau v v^H`` with ``H^H a = beta e_0``, in the convention of
    LAPACK's ``dlarfg`` and ``zlarfg``, whose reflector the SVD of the one
    row takes: ``beta = -copysign(|a|, Re a_0)``, ``tau = (beta - a_0) /
    beta`` and ``v = (1, a[1:] / (a_0 - beta))``.  That is ``I - 2 w w^H /
    (w . w)`` for ``w = a + sign(Re a_0) |a| e_0`` (signed zeros included),
    scaled so that ``w_0 = 1`` and every ``|v_i|`` is at most 1.  ``|a|`` is
    ``hypot`` folded over the moduli, so only a row whose norm nears the
    float maximum overflows; a zero or infinite row gives NaN.  Basis ``i``
    is ``result[i]`` (columns), the transpose of a C-contiguous ``(k, n - 1,
    n)`` array whose row ``j - 1`` is column ``j``: products with the bases
    round as one row's do only on this layout.
    """
    k, n = rows.shape
    a = rows.conj()
    alpha = a[:, 0]
    beta = -np.copysign(reduce(np.hypot, np.abs(a).T), alpha.real)
    tau = (beta - alpha) / beta
    v = a[:, 1:] / (alpha - beta)[:, None]
    # Column j is e_j - tau conj(v_j) v, and v_0 = 1.
    scaled = -tau[:, None] * v.conj()
    bases = np.empty((k, n - 1, n), dtype=a.dtype)
    bases[:, :, 0] = scaled
    bases[:, :, 1:] = scaled[:, :, None] * v[:, None, :]
    bases[:, :, 1:] += np.eye(n - 1)
    return bases.swapaxes(1, 2)


def _chart_step(chart: SmoothChart, epsilon: float):
    """Block step for charts: the radial root along each drawn direction."""

    def step(raw: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, ...]:
        directions = raw / norms[:, None]
        roots = _radial_roots(_radial_profiles(chart, directions), epsilon)
        found = np.flatnonzero(~np.isnan(roots))
        points = roots[found, None] * directions[found]
        values = chart._components_block.evaluate(points)
        with np.errstate(over="ignore"):  # an infinite level is rejected below
            rho_values = np.sum(np.abs(values) ** 2, axis=1)
        kept = ~(np.abs(rho_values - epsilon) > _LEVEL_TOLERANCE * epsilon)
        return points[kept], rho_values[kept]

    return step


def _scaled_residuals(residual: np.ndarray, h_scale: float, epsilon: float) -> np.ndarray:
    """Each draw's distance from the level set, ``hypot(|h| / h_scale, |rho -
    epsilon| / epsilon)`` for rows ``(Re h, Im h, rho - epsilon)``: each part
    is scaled by its size on the sphere, so neither swamps the other
    whatever the degree of ``h`` and the level.  A measure that overflows is
    infinite and warns of nothing; a NaN row has a NaN measure, which passes
    no test."""
    with np.errstate(over="ignore"):
        h_part = np.hypot(residual[:, 0], residual[:, 1]) / h_scale
        return np.hypot(h_part, np.abs(residual[:, 2]) / epsilon)


def _hypersurface_step(surface: Hypersurface, epsilon: float):
    """Block step for hypersurfaces: damped Gauss–Newton on
    ``(Re h, Im h, rho - epsilon)`` from every draw of the block at once.

    A draw is one packed float row ``(z | dh | Re h, Im h, rho - epsilon)``,
    kept in place and overwritten by each trial it accepts.  One measure,
    :func:`_scaled_residuals`, drives the loop: a trial is taken when its
    measure is below the draw's, a draw stops when its measure is at most
    ``_NEWTON_TOLERANCE`` and is accepted when it is at most
    ``_LEVEL_TOLERANCE`` on a gradient above the floor.  Every step taken
    lowers the measure, so a draw's current row is its best.  A draw leaves
    the loop when it converges, when its line search rejects every factor,
    or after ``_MAX_ITERATIONS`` rounds.  Live draws are evaluated together,
    and a round's pending trials too, with one line-search factor: each has
    been halved as often.  The steps come from :func:`_gauss_newton_steps`, a
    closed form on the block (scaling the rows of ``J`` and the residual
    together leaves its minimum-norm step as it is); a draw whose step is NaN
    is never moved.
    """
    n = surface.ambient_dim
    h_scale = surface.defining_scale(epsilon)
    gradient_floor = 1e-8 * h_scale / math.sqrt(epsilon)

    def system(z: np.ndarray) -> np.ndarray:
        """The packed row of each row of ``z``."""
        rows = np.empty((len(z), 4 * n + 3))
        rows[:, : 2 * n].view(complex)[:] = z
        rows[:, 2 * n : -1].view(complex)[:] = surface._system_block.evaluate(z)
        rows[:, -1] = np.add.reduce(np.abs(z) ** 2, axis=1) - epsilon
        return rows

    def parts(rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views ``z``, ``dh`` and ``(Re h, Im h, rho - epsilon)`` of packed rows."""
        z, gradient = rows[:, : 2 * n].view(complex), rows[:, 2 * n : 4 * n].view(complex)
        return z, gradient, rows[:, 4 * n :]

    def step(raw: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, ...]:
        rows = system(math.sqrt(epsilon) * raw / norms[:, None])
        live = np.arange(len(rows))
        for _ in range(_MAX_ITERATIONS):
            scaled = _scaled_residuals(rows[live, 4 * n :], h_scale, epsilon)
            going = ~(scaled <= _NEWTON_TOLERANCE)
            live, scaled = live[going], scaled[going]
            if not live.size:
                break
            z, gradient, residual = parts(rows[live])
            delta = _gauss_newton_steps(z, residual, gradient)
            pending = np.arange(live.size)
            factor = 1.0
            while pending.size and factor > 1e-6:
                trial = system(z[pending] + factor * delta[pending])
                measure = _scaled_residuals(trial[:, 4 * n :], h_scale, epsilon)
                down = measure < scaled[pending]
                rows[live[pending[down]]] = trial[down]
                pending = pending[~down]
                factor *= _DAMPING
            moved = np.ones(live.size, dtype=bool)
            moved[pending] = False
            live = live[moved]
        z, gradient, residual = parts(rows)
        with np.errstate(over="ignore"):  # an infinite gradient norm passes
            steep = ~(_row_norms(gradient) < gradient_floor)
        kept = (_scaled_residuals(residual, h_scale, epsilon) <= _LEVEL_TOLERANCE) & steep
        points = z[kept]
        return points, np.sum(np.abs(points) ** 2, axis=1), gradient[kept]

    return step


def sample_points(v, epsilon: float, count: int, seed: int) -> Samples:
    """Draw ``count`` deterministic samples on the level set ``rho = epsilon``.

    Random ambient directions are drawn from ``seed``, in blocks of at most
    ``_DRAWS_PER_BLOCK`` and never more than the samples still wanted, so
    the draws and the accepted samples are those of a loop over single
    draws.  Each draw is solved onto the level set (a radial root-find for
    charts; damped Gauss–Newton on ``(Re h, Im h, rho - epsilon)`` for
    hypersurfaces; either for the whole block at once) and rejected if it
    does not converge to the module's tolerances.  Returns one record, filled
    in place, row ``i`` the ``i``-th accepted draw; zero draws are skipped.
    Raises :class:`SamplingFailed` when fewer than ``count`` draws are
    accepted within the attempt budget of ten draws per requested sample (a
    conversion rate below 10%), and :class:`InputError` when ``epsilon`` is
    not positive and finite or the seed is negative.
    """
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise InputError(f"level value must be positive, got {epsilon!r}")
    if count < 1:
        raise InputError("sample count must be at least 1")
    if isinstance(v, SmoothChart):
        step = _chart_step(v, epsilon)
    elif isinstance(v, Hypersurface):
        step = _hypersurface_step(v, epsilon)
    else:
        raise InputError(f"unsupported variety model: {type(v).__name__}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    n = v.ambient_dim
    rng = np.random.default_rng(seed)
    record: list[np.ndarray] = []
    accepted = 0
    attempts = 0
    budget = max(_ATTEMPTS_PER_SAMPLE * count, 50)
    while accepted < count and attempts < budget:
        # A block never holds more draws than samples still wanted, so the
        # loop stops at the same draw as a loop over single draws would.
        block = min(count - accepted, budget - attempts, _DRAWS_PER_BLOCK)
        attempts += block
        draws = rng.standard_normal((block, 2, n))
        raw = draws[:, 0] + 1j * draws[:, 1]
        norms = _row_norms(raw)
        drawn = norms != 0.0
        parts = step(raw[drawn], norms[drawn])
        # The record is filled in place: no block outlives its step.
        record = record or [np.empty((count, *p.shape[1:]), p.dtype) for p in parts]
        for column, part in zip(record, parts):
            column[accepted : accepted + len(part)] = part
        accepted += len(parts[0])
    if accepted < count:
        raise SamplingFailed(
            f"only {accepted} of {count} requested samples converged "
            f"after {attempts} draws (rate below "
            f"{1 / _ATTEMPTS_PER_SAMPLE:.0%})"
        )
    return v._samples(*record)
