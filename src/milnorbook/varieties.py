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

:func:`sample_points` runs one accept loop over random ambient directions;
the model's step solves each draw onto the level set or rejects it, by a
one-dimensional radial root-find for charts and a damped Gauss–Newton
iteration on ``(Re h, Im h, rho - epsilon)`` for hypersurfaces.  Sampling
is bitwise deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SamplingFailed
from .polynomials import Polynomial

__all__ = [
    "SamplerConfig",
    "SmoothChart",
    "Hypersurface",
    "PointSample",
    "sample_points",
]

# Maximum times the radial bracket is doubled before a direction is
# declared degenerate (the potential never reaches the target level).
_MAX_DOUBLINGS = 300

# Attempt budget: accepting `count` samples out of at most 10 * count
# draws is exactly the 10% minimum convergence rate.
_ATTEMPTS_PER_SAMPLE = 10


@dataclass(frozen=True)
class SamplerConfig:
    """Numerical knobs for :func:`sample_points`.

    The defaults are the contract the rest of the package assumes:
    accepted samples satisfy ``|rho - epsilon| <= level_tolerance * epsilon``
    and, for hypersurfaces, ``|h| <= residual_tolerance * scale`` where
    ``scale`` bounds ``|h|`` on the sphere of radius ``sqrt(epsilon)``.
    """

    newton_tolerance: float = 1e-12
    damping: float = 0.5
    max_iterations: int = 50
    level_tolerance: float = 1e-10
    residual_tolerance: float = 1e-10


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
    assumed globally; it is rank-tested where the forms are evaluated.
    """

    kind = "chart"

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
        self._jacobian_rows = tuple(poly.gradient() for poly in components)

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

    def phi_values(self, point: np.ndarray) -> np.ndarray:
        return np.array([poly.evaluate(point) for poly in self.components])

    def phi_jacobian(self, point: np.ndarray) -> np.ndarray:
        """The ``N x dim`` complex Jacobian of ``Phi`` at ``point``."""
        return np.array(
            [[g.evaluate(point) for g in row] for row in self._jacobian_rows]
        )

    def rho(self, point: np.ndarray) -> float:
        values = self.phi_values(point)
        return float(np.sum(np.abs(values) ** 2))

    def tangent_basis(self, point: np.ndarray) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

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

    kind = "hypersurface"

    def __init__(self, defining: Polynomial):
        if defining.n_vars < 2:
            raise InputError("a hypersurface needs at least two variables")
        if defining.is_zero or defining.total_degree == 0:
            raise InputError("the defining polynomial must be nonconstant")
        _require_vanishing_at_origin(defining, "the defining polynomial")
        self.defining = defining
        self._gradient = defining.gradient()

    @property
    def ambient_dim(self) -> int:
        return self.defining.n_vars

    @property
    def target_dim(self) -> int:
        return self.defining.n_vars

    def phi_values(self, point: np.ndarray) -> np.ndarray:
        return np.asarray(point, dtype=complex)

    def phi_jacobian(self, point: np.ndarray) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)

    def rho(self, point: np.ndarray) -> float:
        return float(np.sum(np.abs(np.asarray(point)) ** 2))

    def defining_value(self, point: np.ndarray) -> complex:
        return self.defining.evaluate(point)

    def defining_gradient(self, point: np.ndarray) -> np.ndarray:
        return np.array([g.evaluate(point) for g in self._gradient])

    def defining_scale(self, epsilon: float) -> float:
        """A positive bound for ``|h|`` on the sphere ``rho = epsilon``."""
        bound = self.defining.magnitude_bound(math.sqrt(epsilon))
        return max(bound, np.finfo(float).tiny)

    def tangent_basis(self, point: np.ndarray) -> np.ndarray:
        """Orthonormal basis of ``ker dh`` at ``point`` (columns)."""
        gradient = self.defining_gradient(point).reshape(1, -1)
        _, _, vh = np.linalg.svd(gradient)
        return vh[1:].conj().T

    def __repr__(self) -> str:
        return f"Hypersurface({self.defining})"


@dataclass(frozen=True, eq=False)
class PointSample:
    """One accepted point of the level set ``rho = epsilon``.

    ``tangent_basis`` has orthonormal columns with respect to the ambient
    hermitian product; for hypersurfaces the columns are annihilated by
    ``dh`` at the point.
    """

    point: np.ndarray
    tangent_basis: np.ndarray
    rho_value: float


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


def _solve_radial(profile: np.ndarray, epsilon: float, config: SamplerConfig):
    """Smallest ``t > 0`` with ``profile(t) = epsilon``, or None."""

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
        if abs(residual) <= 0.5 * config.newton_tolerance * epsilon:
            break
        slope = float(np.polynomial.polynomial.polyval(t, derivative))
        if slope == 0.0 or not math.isfinite(slope):
            break
        t -= residual / slope
    if t <= 0.0 or not math.isfinite(t):
        return None
    return t


def _chart_solver(chart: SmoothChart, epsilon: float, config: SamplerConfig):
    """Per-draw step for charts: the radial root along the drawn direction."""

    def solve(raw: np.ndarray, norm: float) -> PointSample | None:
        direction = raw / norm
        profile = _radial_profile(chart, direction)
        t = _solve_radial(profile, epsilon, config)
        if t is None:
            return None
        point = t * direction
        rho_value = chart.rho(point)
        if abs(rho_value - epsilon) > config.level_tolerance * epsilon:
            return None
        return PointSample(
            point=point,
            tangent_basis=chart.tangent_basis(point),
            rho_value=rho_value,
        )

    return solve


def _real_system(
    surface: Hypersurface, epsilon: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual and real Jacobian of ``(Re h, Im h, rho - epsilon)``.

    The unknowns are the real coordinates ``(x_0..x_n, y_0..y_n)`` with
    ``z_j = x_j + i y_j``; for holomorphic ``h`` the real partials are
    ``dh/dx_j = h_j`` and ``dh/dy_j = i h_j`` with ``h_j`` the complex
    gradient entry.
    """
    h_value = surface.defining_value(z)
    h_grad = surface.defining_gradient(z)
    rho = float(np.sum(np.abs(z) ** 2))
    residual = np.array([h_value.real, h_value.imag, rho - epsilon])
    n = z.size
    jacobian = np.empty((3, 2 * n))
    jacobian[0, :n] = h_grad.real
    jacobian[0, n:] = -h_grad.imag
    jacobian[1, :n] = h_grad.imag
    jacobian[1, n:] = h_grad.real
    jacobian[2, :n] = 2.0 * z.real
    jacobian[2, n:] = 2.0 * z.imag
    return residual, jacobian


def _scaled_residual(residual: np.ndarray, epsilon: float, h_scale: float) -> float:
    h_size = math.hypot(residual[0], residual[1])
    return max(h_size / h_scale, abs(residual[2]) / epsilon)


def _hypersurface_solver(surface: Hypersurface, epsilon: float, config: SamplerConfig):
    """Per-draw step for hypersurfaces: damped Gauss–Newton from the draw."""
    n = surface.ambient_dim
    h_scale = surface.defining_scale(epsilon)
    gradient_floor = 1e-8 * h_scale / math.sqrt(epsilon)

    def solve(raw: np.ndarray, norm: float) -> PointSample | None:
        z = math.sqrt(epsilon) * raw / norm
        best_z = None
        best_scaled = math.inf
        for _ in range(config.max_iterations):
            residual, jacobian = _real_system(surface, epsilon, z)
            scaled = _scaled_residual(residual, epsilon, h_scale)
            if scaled < best_scaled:
                best_scaled = scaled
                best_z = z
            if scaled <= config.newton_tolerance:
                break
            step, *_ = np.linalg.lstsq(jacobian, -residual, rcond=None)
            delta = step[:n] + 1j * step[n:]
            size = float(np.linalg.norm(residual))
            factor = 1.0
            moved = False
            while factor > 1e-6:
                candidate = z + factor * delta
                trial, _ = _real_system(surface, epsilon, candidate)
                if np.linalg.norm(trial) < size:
                    z = candidate
                    moved = True
                    break
                factor *= config.damping
            if not moved:
                break
        if best_z is None:
            return None
        z = best_z
        residual, _ = _real_system(surface, epsilon, z)
        h_size = math.hypot(residual[0], residual[1])
        if h_size > config.residual_tolerance * h_scale:
            return None
        if abs(residual[2]) > config.level_tolerance * epsilon:
            return None
        gradient = surface.defining_gradient(z)
        if np.linalg.norm(gradient) < gradient_floor:
            return None
        return PointSample(
            point=z,
            tangent_basis=surface.tangent_basis(z),
            rho_value=float(np.sum(np.abs(z) ** 2)),
        )

    return solve


def sample_points(
    v,
    epsilon: float,
    count: int,
    seed: int,
    config: SamplerConfig | None = None,
) -> list[PointSample]:
    """Draw ``count`` deterministic samples on the level set ``rho = epsilon``.

    Random ambient directions are drawn from ``seed``; each draw is solved
    onto the level set (a radial root-find for charts, damped Gauss–Newton
    on ``(Re h, Im h, rho - epsilon)`` for hypersurfaces) and rejected if it
    does not converge to the configured tolerances.  Raises
    :class:`SamplingFailed` when fewer than ``count`` draws are accepted
    within the attempt budget of ten draws per requested sample (a
    conversion rate below 10%), or when ``epsilon`` is not positive.
    """
    if config is None:
        config = SamplerConfig()
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise SamplingFailed(f"level value must be positive, got {epsilon!r}")
    if count < 1:
        raise InputError("sample count must be at least 1")
    if isinstance(v, SmoothChart):
        solve = _chart_solver(v, epsilon, config)
    elif isinstance(v, Hypersurface):
        solve = _hypersurface_solver(v, epsilon, config)
    else:
        raise InputError(f"unsupported variety model: {type(v).__name__}")
    n = v.ambient_dim
    rng = np.random.default_rng(seed)
    accepted: list[PointSample] = []
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
    if len(accepted) < count:
        raise SamplingFailed(
            f"only {len(accepted)} of {count} requested samples converged "
            f"after {attempts} draws (rate below "
            f"{1 / _ATTEMPTS_PER_SAMPLE:.0%})"
        )
    return accepted
