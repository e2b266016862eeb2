"""Contact-geometric data on level sets of the squared-norm potential.

Everything here is read at each :class:`~milnorbook.varieties.PointSample`
on a level set ``M = rho^{-1}(epsilon)`` of ``rho = sum_k |phi_k|^2``.  With
``T`` the sample's orthonormal tangent basis and ``A`` the Jacobian of the
component map, the composite ``A_T = A @ T`` expresses the differential in
tangent coordinates, and all structures derive from the hermitian form

    h(u, v) = u^H H v,      H = 4 A_T^H A_T,

which is conjugate-linear in its first slot and complex-linear in the
second, so that ``d(phi) = h(grad phi, .)`` is complex-linear for
holomorphic ``phi`` and ``dF = Re h(grad F, .)`` for real ``F``.  The real
metric and two-form are the real and imaginary parts, ``g = Re h`` and
``omega = Im h``; the contact form is ``alpha(w) = Im h(grad rho, w)``; the
Reeb field is ``R = i grad(rho) / |grad rho|^2``.

The checks in this module certify, on sampled points and to explicit
tolerances: strict plurisubharmonicity of ``rho``; the gradient identities
``grad |phi|^2 = 2 phi grad(phi)`` and ``grad arg(phi) = i grad(phi) /
conj(phi)``; the Reeb normalization contract; the rescaled-Reeb identity

    d theta(R_c) = e^{c|f|^2} ( d theta(R) + 2 c |f|^2 |pr_xi grad theta|^2 )

for ``R_c = e^{c|f|^2}(R + pr_xi(2 c |f|^2 grad theta))``; the existence of
an adaptation constant ``c`` making ``d theta(R_c) > 0`` on a mesh; the
near-proportionality cone condition for ``lambda`` with ``grad theta =
i lambda grad rho``; and the two open-book transversality minima for the
argument map of a holomorphic function ``f``.

Every check reads one record per point, built in stages that are each
computed once: tangent (``H``, ``d rho``, the condition of ``H`` from the
singular values of ``A_T``), Reeb (``grad rho``, ``R``) and, for ``theta =
arg f``, theta (``f(p)``, ``df``, ``grad theta``, ``pr_xi grad theta``).
Each check evaluates ``Phi``, ``dPhi``, ``f`` and ``grad f`` on blocks of
its samples, by ``phi_block`` and ``PolynomialBlock``, never point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConeViolation,
    DegenerateTangent,
    InputError,
    InvalidMesh,
    OnBinding,
    SingularMetric,
    ZeroGradient,
)
from .polynomials import Polynomial, PolynomialBlock
from .varieties import _DRAWS_PER_BLOCK, PointSample, sample_points

__all__ = [
    "FormsAtPoint",
    "eval_forms",
    "level_tangent_basis",
    "reeb_contract_deviations",
    "fd_omega_deviation",
    "check_spsh",
    "holomorphic_gradient",
    "gradient_identity_residuals",
    "reeb_field",
    "xi_projection",
    "theta_differential",
    "theta_gradient",
    "rescaled_reeb_identity",
    "AdaptationReport",
    "find_adaptation_constant",
    "LambdaConeReport",
    "lambda_cone_check",
    "OpenBookCriterionReport",
    "openbook_criterion_check",
]

# Rank-loss threshold for the tangent differential: the smallest singular
# value of A_T below this fraction of the largest means the immersion
# hypothesis failed at the point.
_RANK_TOLERANCE = 1e-10

# Condition-number ceiling beyond which the hermitian matrix is treated as
# numerically singular.
_CONDITION_CEILING = 1e12

# Relative size below which a gradient or function value counts as zero.
_ZERO_TOLERANCE = 1e-12

_FD_STEP = 1e-6

# Largest exponent safely inside double range (log of the float maximum).
_EXP_CAP = 709.0

# The documented default for the binding cutoff: eta = this fraction of
# max |f|^2 over the mesh, computed after sampling when eta is omitted.
DEFAULT_ETA_FRACTION = 1e-4


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


class _PointData(NamedTuple):
    """Tangent stage: ``H``, the d(rho) row ``ell`` and ``cond(H)``, which is the
    squared condition of ``A_T`` (infinite when ``A_T`` has fewer rows)."""

    hermitian: np.ndarray
    ell: np.ndarray
    ell_scale: float
    condition: float


class _ReebData(NamedTuple):
    """Reeb stage: ``grad rho``, its squared h-norm and ``R``."""

    tangent: _PointData
    gradient: np.ndarray
    norm_sq: float
    reeb: np.ndarray


class _ThetaData(NamedTuple):
    """Theta stage; ``norm_sq`` and ``transverse_sq`` are squared h-norms."""

    rho: _ReebData
    value: complex
    row: np.ndarray
    grad_theta: np.ndarray
    projected: np.ndarray
    dtheta_reeb: float
    norm_sq: float
    transverse_sq: float


def _f_block(f: Polynomial, points: np.ndarray) -> tuple[list[complex], np.ndarray]:
    """``f`` (as Python complexes) and ``grad f`` at each row of ``points``."""
    block = PolynomialBlock((f, *f.gradient())).evaluate(points)
    return block[:, 0].tolist(), block[:, 1:]


def _rows(v, samples: list[PointSample], f: Polynomial | None):
    """``(p, Phi(p), dPhi(p))`` per sample, then ``f(p)`` and ``grad f(p)``
    unless ``f`` is None, evaluated ``_DRAWS_PER_BLOCK`` samples at a time."""
    for start in range(0, len(samples), _DRAWS_PER_BLOCK):
        block = samples[start : start + _DRAWS_PER_BLOCK]
        points = np.array([p.point for p in block])
        columns = [block, *v.phi_block(points)]
        if f is not None:
            columns.extend(_f_block(f, points))
        yield from zip(*columns)


def _tangent_data(p: PointSample, values: np.ndarray, jacobian: np.ndarray) -> _PointData:
    """Tangent stage of the point record, from ``Phi(p)``, its Jacobian and
    one SVD of ``A_T``.  Raises :class:`DegenerateTangent` when ``A_T`` loses
    rank, i.e. the component map fails to be an immersion at the point.
    """
    a_t = jacobian @ p.tangent_basis
    singular = np.linalg.svd(a_t, compute_uv=False)
    if singular[0] == 0.0 or singular[-1] <= _RANK_TOLERANCE * singular[0]:
        raise DegenerateTangent(
            "the differential loses rank at this point "
            f"(singular values {singular[-1]:.3e} vs {singular[0]:.3e})"
        )
    hermitian = 4.0 * (a_t.conj().T @ a_t)
    # ell is the complex-linear functional with d(rho)(w) = Re(ell . w)
    # and alpha(w) = Im(ell . w); it equals h(grad rho, .).
    ell = 2.0 * (values.conj() @ a_t)
    ell_scale = 2.0 * float(np.linalg.norm(values)) * float(singular[0])
    wide = a_t.shape[0] < a_t.shape[1]
    condition = math.inf if wide else float(singular[0] / singular[-1]) ** 2
    return _PointData(hermitian, ell, ell_scale, condition)


def _re_covector(ell: np.ndarray) -> np.ndarray:
    """Real covector of ``w -> Re(ell . w)`` on coordinates ``(a; b)``."""
    return np.concatenate([ell.real, -ell.imag])


def _im_covector(ell: np.ndarray) -> np.ndarray:
    """Real covector of ``w -> Im(ell . w)`` on coordinates ``(a; b)``."""
    return np.concatenate([ell.imag, ell.real])


def _real_blocks(hermitian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real matrices of ``g = Re h`` and ``omega = Im h`` on ``(a; b)``."""
    g_block = hermitian.real
    w_block = hermitian.imag
    metric = np.block([[g_block, -w_block], [w_block, g_block]])
    omega = np.block([[w_block, g_block], [-g_block, w_block]])
    return metric, omega


def _solve_hermitian(data: _PointData, rhs: np.ndarray) -> np.ndarray:
    if data.condition > _CONDITION_CEILING:
        raise SingularMetric(
            "the hermitian form is numerically singular at this point"
        )
    return np.linalg.solve(data.hermitian, rhs)


def _reeb_data(data: _PointData) -> _ReebData:
    """Reeb stage; raises :class:`ZeroGradient` or :class:`SingularMetric`."""
    if np.linalg.norm(data.ell) <= _ZERO_TOLERANCE * max(data.ell_scale, 1e-300):
        raise ZeroGradient("the potential has vanishing gradient at this point")
    gradient = _solve_hermitian(data, data.ell.conj())
    norm_sq = float(np.real(data.ell @ gradient))
    if not (norm_sq > 0.0):
        raise ZeroGradient("the potential has vanishing gradient at this point")
    return _ReebData(data, gradient, norm_sq, 1j * gradient / norm_sq)


def _theta_data(
    data: _PointData, p: PointSample, value: complex, gradient: np.ndarray
) -> _ThetaData:
    """Reeb and theta stages where ``f(p) = value`` is not zero."""
    rho = _reeb_data(data)
    hermitian = data.hermitian
    row = gradient @ p.tangent_basis
    grad_theta = theta_gradient(hermitian, row, value)
    projected = _project_away_gradient(grad_theta, rho)
    return _ThetaData(
        rho, value, row, grad_theta, projected,
        dtheta_reeb=theta_differential(row, value, rho.reeb),
        norm_sq=_h_norm_sq(hermitian, grad_theta),
        transverse_sq=_h_norm_sq(hermitian, projected),
    )


def _on_binding(f: Polynomial, value: complex, p: PointSample) -> bool:
    """Whether ``f(p) = value`` is numerically zero on the level of ``p``."""
    scale_f = max(f.magnitude_bound(math.sqrt(p.rho_value)), 1e-300)
    return abs(value) <= _ZERO_TOLERANCE * scale_f


def _tangent_at(v, p: PointSample) -> _PointData:
    """Tangent stage at one sample, from a one-row block."""
    return _tangent_data(*next(_rows(v, [p], None)))


def _level_basis(data: _PointData) -> np.ndarray:
    """Euclidean-orthonormal real basis of ``ker d(rho)``, ``2m x (2m-1)``."""
    _, _, vh = np.linalg.svd(_re_covector(data.ell).reshape(1, -1))
    return vh[1:].T


def eval_forms(v, p: PointSample) -> FormsAtPoint:
    """Evaluate the contact package at one sample.

    Returns the contact form, two-form, metric, hermitian form, potential
    gradient, and Reeb vector, all in the sample's tangent basis.  Raises
    :class:`DegenerateTangent` on rank loss of the differential and
    :class:`ZeroGradient` at critical points of the potential.
    """
    data = _tangent_at(v, p)
    metric, omega = _real_blocks(data.hermitian)
    rho = _reeb_data(data)
    return FormsAtPoint(
        alpha=_im_covector(data.ell),
        omega=omega,
        metric_g=metric,
        hermitian_h=data.hermitian,
        grad_rho=rho.gradient,
        reeb=rho.reeb,
        grad_rho_norm_sq=rho.norm_sq,
    )


def _real_coords(w: np.ndarray) -> np.ndarray:
    return np.concatenate([w.real, w.imag])


def level_tangent_basis(v, p: PointSample) -> np.ndarray:
    """Euclidean-orthonormal real basis of ``ker d(rho)`` in tangent coords.

    Columns are real ``2m``-vectors spanning the tangent space of the level
    set inside the variety's tangent space (dimension ``2m - 1``).
    """
    data = _tangent_at(v, p)
    if np.linalg.norm(data.ell) == 0.0:
        raise ZeroGradient("the potential has vanishing gradient at this point")
    return _level_basis(data)


def reeb_contract_deviations(v, samples: list[PointSample]) -> tuple[float, float]:
    """Worst deviations from the Reeb contract over ``samples``.

    Returns ``max |alpha(R) - 1|`` and the largest ``|omega(R, w)|`` over
    the euclidean-orthonormal level-tangent basis vectors ``w``; both are
    zero for the exact Reeb field.  Raises as :func:`eval_forms` does.
    """
    max_alpha = 0.0
    max_omega = 0.0
    for p, phi, jacobian in _rows(v, samples, None):
        data = _tangent_data(p, phi, jacobian)
        _, omega = _real_blocks(data.hermitian)
        reeb_real = _real_coords(_reeb_data(data).reeb)
        max_alpha = max(max_alpha, abs(float(_im_covector(data.ell) @ reeb_real) - 1.0))
        pairings = np.abs(reeb_real @ omega @ _level_basis(data))
        max_omega = max(max_omega, float(pairings.max()))
    return max_alpha, max_omega


def _shifted_points(p: PointSample, ambient: np.ndarray, step: float) -> np.ndarray:
    """Rows ``p + step a_i``, then rows ``p - step a_i``, over columns ``a_i``."""
    shifts = [step * ambient[:, i] for i in range(ambient.shape[1])]
    return np.array([p.point + s for s in shifts] + [p.point - s for s in shifts])


def fd_omega_deviation(v, p: PointSample, step_scale: float = _FD_STEP) -> float:
    """Relative deviation between ``omega`` and a finite-difference ``d alpha``.

    The two-form is recomputed as the exterior derivative of the ambient
    one-form ``alpha`` by central differences along the real tangent basis
    directions (step ``step_scale * |point|``) and compared entrywise
    against the pointwise formula; returns
    ``max |difference| / max |omega|``.
    """
    hermitian = _tangent_at(v, p).hermitian
    _, omega = _real_blocks(hermitian)
    m = hermitian.shape[0]
    # Ambient extensions of the real basis {T_j, i T_j}.
    ambient = np.concatenate([p.tangent_basis, 1j * p.tangent_basis], axis=1)
    step = step_scale * float(np.linalg.norm(p.point))
    if step == 0.0:
        raise ZeroGradient("cannot set a finite-difference step at the origin")
    # alpha(w) = 2 Im <Phi, dPhi w> makes sense at every ambient point.
    values, jacobians = v.phi_block(_shifted_points(p, ambient, step))
    alphas = np.array([2.0 * np.imag(phi.conj() @ (jac @ ambient))
                       for phi, jac in zip(values, jacobians)])
    derivative = (alphas[: 2 * m] - alphas[2 * m :]) / (2.0 * step)
    fd_omega = derivative - derivative.T
    scale = float(np.max(np.abs(omega)))
    if scale == 0.0:
        return float(np.max(np.abs(fd_omega)))
    return float(np.max(np.abs(fd_omega - omega)) / scale)


def check_spsh(v, samples: list[PointSample], trials: int, seed: int = 0) -> float:
    """Minimum Levi quotient ``omega(w, Jw) / |w|^2`` over samples and draws.

    For each sample, ``trials`` random nonzero complex tangent vectors are
    drawn and the quotient taken with the ambient squared norm (the
    tangent basis is ambient-orthonormal, so coordinates preserve it).  A
    positive return value certifies strict plurisubharmonicity of the
    potential on the sample set; a non-positive one is a reported finding.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    minimum = math.inf
    for p, phi, jacobian in _rows(v, samples, None):
        hermitian = _tangent_data(p, phi, jacobian).hermitian
        m = hermitian.shape[0]
        for _ in range(trials):
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            norm_sq = float(np.real(np.vdot(w, w)))
            if norm_sq == 0.0:
                continue
            quotient = float(np.real(w.conj() @ hermitian @ w)) / norm_sq
            minimum = min(minimum, quotient)
    return minimum


def holomorphic_gradient(v, p: PointSample, phi: Polynomial) -> np.ndarray:
    """The tangent vector with ``h(grad phi, w) = d phi(w)`` for tangent ``w``.

    Raises :class:`SingularMetric` when the hermitian form cannot be
    inverted at the point.
    """
    _, gradients = _f_block(phi, p.point[None])
    row = gradients[0] @ p.tangent_basis
    return _solve_hermitian(_tangent_at(v, p), row.conj())


def gradient_identity_residuals(
    v, p: PointSample, phi: Polynomial, step_scale: float = _FD_STEP
) -> tuple[float, float]:
    """Relative residuals of the two gradient identities at ``p``.

    The gradients of the real functions ``|phi|^2`` and ``arg phi`` are
    recovered from finite differences of the functions themselves through
    the defining property ``dF = Re h(grad F, .)``, then compared against
    the closed forms ``2 phi grad(phi)`` and ``i grad(phi) / conj(phi)``.
    Requires ``phi(p) != 0``; raises :class:`OnBinding` otherwise.
    """
    data = _tangent_at(v, p)
    m = data.hermitian.shape[0]
    ambient = np.concatenate([p.tangent_basis, 1j * p.tangent_basis], axis=1)
    step = step_scale * float(np.linalg.norm(p.point))
    points = np.concatenate([p.point[None], _shifted_points(p, ambient, step)])
    values, gradients = _f_block(phi, points)  # p, then the 4m shifted points
    value = values[0]
    if _on_binding(phi, value, p):
        raise OnBinding("the function vanishes at this point")
    row = gradients[0] @ p.tangent_basis
    gradient = _solve_hermitian(data, row.conj())

    abs_sq_row = np.empty(2 * m)
    arg_row = np.empty(2 * m)
    plus, minus = values[1 : 2 * m + 1], values[2 * m + 1 :]
    for i, (value_plus, value_minus) in enumerate(zip(plus, minus)):
        abs_sq_row[i] = (abs(value_plus) ** 2 - abs(value_minus) ** 2) / (2 * step)
        # Angles are measured relative to phi(p), avoiding the branch cut.
        turn_plus = float(np.angle(value_plus * np.conj(value)))
        turn_minus = float(np.angle(value_minus * np.conj(value)))
        arg_row[i] = (turn_plus - turn_minus) / (2 * step)

    def gradient_from_real_covector(row: np.ndarray) -> np.ndarray:
        # Invert r = [Re L, -Im L] and solve h(grad, .) = L.
        functional = row[:m] - 1j * row[m:]
        return _solve_hermitian(data, functional.conj())

    fd_abs_sq = gradient_from_real_covector(abs_sq_row)
    fd_arg = gradient_from_real_covector(arg_row)
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


def reeb_field(v, p: PointSample) -> np.ndarray:
    """The Reeb vector ``R = i grad(rho) / |grad rho|^2`` in tangent coords.

    Satisfies ``alpha(R) = 1`` and ``omega(R, w) = 0`` for level-tangent
    ``w`` by construction; raises :class:`ZeroGradient` at critical points.
    """
    return eval_forms(v, p).reeb


def _project_away_gradient(w: np.ndarray, rho: _ReebData) -> np.ndarray:
    coefficient = (rho.gradient.conj() @ rho.tangent.hermitian @ w) / rho.norm_sq
    return w - coefficient * rho.gradient


def xi_projection(v, p: PointSample, w: np.ndarray) -> np.ndarray:
    """h-orthogonal projection of ``w`` away from the complex gradient line.

    The image lies in ``ker d(rho) ∩ ker d^c(rho)``, the maximal complex
    subspace of the level's tangent space; both the gradient and ``i``
    times it project to zero.  Raises :class:`ZeroGradient` when the
    potential gradient vanishes.
    """
    rho = _reeb_data(_tangent_at(v, p))
    return _project_away_gradient(np.asarray(w, dtype=complex), rho)


def theta_differential(f_row: np.ndarray, f_value: complex, w: np.ndarray) -> float:
    """``d theta(w) = Im(df(w) / f)`` for ``theta = arg f``."""
    return float(np.imag((f_row @ w) / f_value))


def theta_gradient(
    hermitian: np.ndarray, f_row: np.ndarray, f_value: complex
) -> np.ndarray:
    """``grad theta = i grad(f) / conj(f)``; ``H`` is taken as well conditioned."""
    grad_f = np.linalg.solve(hermitian, f_row.conj())
    return 1j * grad_f / np.conj(f_value)


def _h_norm_sq(hermitian: np.ndarray, w: np.ndarray) -> float:
    return float(np.real(w.conj() @ hermitian @ w))


def rescaled_reeb_identity(
    v, f: Polynomial, c: float, samples: list[PointSample]
) -> tuple[list[float], int]:
    """Residuals of the rescaled-Reeb identity over ``samples``.

    At each sample, builds ``R_c = e^{c|f|^2}(R + pr_xi(2 c |f|^2 grad
    theta))`` and compares ``d theta(R_c)`` against
    ``e^{c|f|^2}(d theta(R) + 2 c |f|^2 |pr_xi grad theta|^2)``.  Returns
    ``|LHS - RHS| / (1 + |LHS|)`` at every sample off the binding, in sample
    order, and the number of samples skipped because ``f(p)`` is zero there.
    """
    residuals = []
    skipped = 0
    for p, phi, jacobian, value, gradient in _rows(v, samples, f):
        data = _tangent_data(p, phi, jacobian)
        if _on_binding(f, value, p):
            skipped += 1
            continue
        theta = _theta_data(data, p, value, gradient)
        weight = float(c) * float(abs(value) ** 2)
        correction = _project_away_gradient(2.0 * weight * theta.grad_theta, theta.rho)
        rescaled = math.exp(weight) * (theta.rho.reeb + correction)
        lhs = theta_differential(theta.row, value, rescaled)
        rhs = math.exp(weight) * (theta.dtheta_reeb + 2.0 * weight * theta.transverse_sq)
        residuals.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    return residuals, skipped


@dataclass(frozen=True)
class AdaptationReport:
    """Result of the adaptation-constant search on a mesh."""

    c: float
    verified: bool
    m: float
    k: float
    epsilon: float
    eta: float
    mesh: int
    retained: int
    min_dtheta_reeb: float
    min_dtheta_rescaled: float

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "verified": self.verified,
            "m": self.m,
            "k": None if math.isinf(self.k) else self.k,
            "epsilon": self.epsilon,
            "eta": self.eta,
            "mesh": self.mesh,
            "retained": self.retained,
            "min_dtheta_reeb": self.min_dtheta_reeb,
            "min_dtheta_rescaled": self.min_dtheta_rescaled,
        }


def find_adaptation_constant(
    v,
    f: Polynomial,
    epsilon: float,
    eta: float | None,
    mesh: int,
    seed: int,
) -> AdaptationReport:
    """Search for ``c >= 0`` with ``d theta(R_c) > 0`` away from the binding.

    Over a mesh of ``mesh`` sampled points restricted to ``|f|^2 >= eta``:
    ``m = max(0, -min d theta(R))`` and ``k = min |f|^2 |pr_xi grad
    theta|^2`` over the points where ``d theta(R) <= 0`` (``k = +inf`` and
    ``c = 0`` when that set is empty); returns ``c = m / k`` together with
    ``verified``, which re-evaluates ``d theta(R_c) > 0`` directly at every
    retained point.  Raises :class:`InvalidMesh` for an empty mesh,
    :class:`InputError` when ``eta`` does not cut the sample set, and
    :class:`ConeViolation` when some retained point has ``d theta(R) <= 0``
    but no transverse component of ``grad theta`` to rescale along.
    """
    if mesh < 1:
        raise InvalidMesh(f"mesh size must be positive, got {mesh}")
    samples = sample_points(v, epsilon, mesh, seed)
    points = np.array([p.point for p in samples])
    values = PolynomialBlock((f,)).evaluate(points)[:, 0]
    sizes_sq = np.abs(values) ** 2
    max_size_sq = float(np.max(sizes_sq))
    if eta is None:
        eta = DEFAULT_ETA_FRACTION * max_size_sq
    if not (eta > 0.0):
        raise InputError(f"eta must be positive, got {eta!r}")
    if eta >= max_size_sq:
        raise InputError(
            f"eta={eta!r} is not below max |f|^2 = {max_size_sq!r} on the mesh"
        )

    # d theta(pr_xi(2 grad theta)) does not depend on c, so each retained
    # point keeps scalars only and the records are dropped as they go.
    retained = []
    rows = zip(_rows(v, samples, f), sizes_sq)
    for (p, phi, jacobian, value, gradient), size_sq in rows:
        if size_sq >= eta:
            theta = _theta_data(_tangent_data(p, phi, jacobian), p, value, gradient)
            retained.append((
                theta.dtheta_reeb, theta.transverse_sq, theta.norm_sq,
                theta_differential(theta.row, theta.value, 2.0 * theta.projected),
            ))
    dtheta_reeb, transverse_sq, theta_norms_sq, transverse_terms = np.array(retained).T
    retained_sizes_sq = sizes_sq[sizes_sq >= eta]

    min_dtheta = float(np.min(dtheta_reeb))
    m = max(0.0, -min_dtheta)
    stalled = dtheta_reeb <= 0.0
    if np.any(stalled):
        ratios = np.sqrt(
            transverse_sq[stalled] / np.maximum(theta_norms_sq[stalled], 1e-300)
        )
        if np.any(ratios <= 1e-9):
            raise ConeViolation(
                "a mesh point has d theta(R) <= 0 with no transverse "
                "component of grad theta; no rescaling can fix it at this "
                "level value"
            )
        k = float(np.min(retained_sizes_sq[stalled] * transverse_sq[stalled]))
    else:
        k = math.inf
    c = 0.0 if m == 0.0 else m / k

    min_rescaled = math.inf
    for base, transverse_term, size_sq in zip(
        dtheta_reeb.tolist(), transverse_terms.tolist(), retained_sizes_sq.tolist()
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
        min_rescaled = min(min_rescaled, rescaled_value)

    return AdaptationReport(
        c=c,
        verified=bool(min_rescaled > 0.0),
        m=m,
        k=k,
        epsilon=epsilon,
        eta=eta,
        mesh=mesh,
        retained=len(retained),
        min_dtheta_reeb=min_dtheta,
        min_dtheta_rescaled=float(min_rescaled),
    )


@dataclass(frozen=True)
class LambdaConeReport:
    """Cone statistics for ``lambda`` with ``grad theta ≈ i lambda grad rho``."""

    total: int
    qualifying: int
    skipped_on_binding: int
    proportionality_tol: float
    min_re_lambda: float | None
    max_abs_arg_lambda: float | None
    all_positive: bool | None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "qualifying": self.qualifying,
            "skipped_on_binding": self.skipped_on_binding,
            "proportionality_tol": self.proportionality_tol,
            "min_re_lambda": self.min_re_lambda,
            "max_abs_arg_lambda": self.max_abs_arg_lambda,
            "all_positive": self.all_positive,
            "note": self.note,
        }


def lambda_cone_check(
    v,
    f: Polynomial,
    samples: list[PointSample],
    proportionality_tol: float = 1e-3,
) -> LambdaConeReport:
    """Check the cone condition at samples where ``grad theta ∥ i grad rho``.

    A sample qualifies when ``|pr_xi grad theta| / |grad theta| <=
    proportionality_tol`` (h-norms); at qualifying samples ``lambda =
    h(grad theta, i grad rho) / |grad rho|^2`` is computed and the report
    carries ``min Re lambda`` and ``max |arg lambda|`` with the argument
    branch in ``(-pi, pi]``.  An empty qualifying set is a valid outcome,
    reported as such.
    """
    qualifying = 0
    skipped = 0
    min_re: float | None = None
    max_arg: float | None = None
    for p, phi, jacobian, value, gradient in _rows(v, samples, f):
        if _on_binding(f, value, p):
            skipped += 1
            continue
        theta = _theta_data(_tangent_data(p, phi, jacobian), p, value, gradient)
        theta_norm = math.sqrt(max(theta.norm_sq, 0.0))
        if theta_norm == 0.0:
            skipped += 1
            continue
        transverse = math.sqrt(max(theta.transverse_sq, 0.0))
        if transverse / theta_norm > proportionality_tol:
            continue
        qualifying += 1
        rho = theta.rho
        lam = complex(
            theta.grad_theta.conj() @ rho.tangent.hermitian @ (1j * rho.gradient)
        ) / rho.norm_sq
        re_lambda = lam.real
        arg_lambda = abs(float(np.angle(lam)))
        min_re = re_lambda if min_re is None else min(min_re, re_lambda)
        max_arg = arg_lambda if max_arg is None else max(max_arg, arg_lambda)
    note = "" if qualifying else "no near-proportional samples"
    return LambdaConeReport(
        total=len(samples),
        qualifying=qualifying,
        skipped_on_binding=skipped,
        proportionality_tol=proportionality_tol,
        min_re_lambda=min_re,
        max_abs_arg_lambda=max_arg,
        all_positive=None if min_re is None else bool(min_re > 0.0),
        note=note,
    )


@dataclass(frozen=True)
class OpenBookCriterionReport:
    """Transversality minima certifying the argument map is an open book."""

    epsilon: float
    eta: float
    mesh: int
    outside_count: int
    inside_count: int
    min_dtheta_norm: float | None
    min_df_norm: float | None
    first_vacuous: bool
    second_vacuous: bool

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "eta": self.eta,
            "mesh": self.mesh,
            "outside_count": self.outside_count,
            "inside_count": self.inside_count,
            "min_dtheta_norm": self.min_dtheta_norm,
            "min_df_norm": self.min_df_norm,
            "first_vacuous": self.first_vacuous,
            "second_vacuous": self.second_vacuous,
        }


def openbook_criterion_check(
    v,
    f: Polynomial,
    epsilon: float,
    eta: float | None,
    mesh: int,
    seed: int = 0,
) -> OpenBookCriterionReport:
    """Mesh minima of the two transversality norms behind the open book.

    Over ``mesh`` sampled level points: the euclidean dual norm of
    ``d theta`` restricted to the level tangent space is minimized over
    ``{|f|^2 >= eta}``, and the operator norm of ``df`` restricted to the
    level tangent space over ``{|f|^2 <= eta}``.  Both minima positive
    certifies the argument map is a fibration away from the binding and
    the binding locus is cut out transversally, on the sample set.  A
    region the mesh never touches makes that check vacuous, which the
    report states explicitly.
    """
    if mesh < 1:
        raise InvalidMesh(f"mesh size must be positive, got {mesh}")
    samples = sample_points(v, epsilon, mesh, seed)
    points = np.array([p.point for p in samples])
    values = PolynomialBlock((f,)).evaluate(points)[:, 0].tolist()
    sizes = [abs(value) ** 2 for value in values]
    if eta is None:
        eta = DEFAULT_ETA_FRACTION * max(sizes)
    if not (eta > 0.0):
        raise InputError(f"eta must be positive, got {eta!r}")
    min_dtheta: float | None = None
    min_df: float | None = None
    outside = 0
    inside = 0
    rows = zip(_rows(v, samples, f), sizes)
    for (p, phi, jacobian, value, gradient), size in rows:
        level_basis = _level_basis(_tangent_data(p, phi, jacobian))
        row_f = gradient @ p.tangent_basis
        if size >= eta:
            outside += 1
            if _on_binding(f, value, p):
                min_dtheta = 0.0
            else:
                theta_row = _im_covector(row_f / value)
                norm = float(np.linalg.norm(theta_row @ level_basis))
                min_dtheta = norm if min_dtheta is None else min(min_dtheta, norm)
        if size <= eta:
            inside += 1
            restricted = np.vstack(
                [
                    _re_covector(row_f) @ level_basis,
                    _im_covector(row_f) @ level_basis,
                ]
            )
            norm = float(np.linalg.norm(restricted, ord=2))
            min_df = norm if min_df is None else min(min_df, norm)
    return OpenBookCriterionReport(
        epsilon=epsilon,
        eta=eta,
        mesh=mesh,
        outside_count=outside,
        inside_count=inside,
        min_dtheta_norm=min_dtheta,
        min_df_norm=min_df,
        first_vacuous=outside == 0,
        second_vacuous=inside == 0,
    )
