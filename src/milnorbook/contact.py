"""Contact-geometric data on level sets of the squared-norm potential.

Everything here is read at the rows of a :class:`~milnorbook.varieties.Samples`
record on a level set ``M = rho^{-1}(epsilon)`` of ``rho = sum_k |phi_k|^2``;
with ``T`` a sample's orthonormal tangent basis and ``A`` the Jacobian of the
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
tolerances: strict plurisubharmonicity of ``rho``; the Reeb normalization
contract; the rescaled-Reeb identity

    d theta(R_c) = e^{c|f|^2} ( d theta(R) + 2 c |f|^2 |pr_xi grad theta|^2 )

for ``R_c = e^{c|f|^2}(R + pr_xi(2 c |f|^2 grad theta))``; the existence of
an adaptation constant ``c`` making ``d theta(R_c) > 0`` on a mesh; the
near-proportionality cone condition for ``lambda`` with ``grad theta =
i lambda grad rho``; and the two open-book transversality minima for the
argument map of a holomorphic function ``f``.

Every check reads one point record per ``_DRAWS_PER_BLOCK`` rows of the
samples, in stages of arrays over the rows: tangent (``H``, ``d rho``, the
condition of ``H`` from the singular values of ``A_T``), Reeb (``grad rho``,
``R``) and, for ``theta = arg f``, theta (``f(p)``, ``df``, ``grad theta``,
``pr_xi grad theta``), from ``phi_block``, ``PolynomialBlock``, stacked
solves and batched products, never per sample.  The singular values of
``A_T`` come from one stacked SVD, except on a model whose
``orthonormal_frames`` holds, where they are all 1; the level bases are
Householder reflectors and the criterion's operator norms a closed form on
2 x 2 Gram matrices.  The reports meet the README's tolerance contract, not
the bits of a scalar loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConeViolation,
    DegenerateTangent,
    InputError,
    InvalidMesh,
    SingularMetric,
    ZeroGradient,
)
from .polynomials import Polynomial, PolynomialBlock
from .varieties import (
    _DRAWS_PER_BLOCK,
    Samples,
    _kernel_bases,
    _row_norms,
    _row_squares,
    sample_points,
)

__all__ = [
    "reeb_contract_deviations",
    "fd_omega_deviation",
    "check_spsh",
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


class _Theta(NamedTuple):
    """Theta stage on some rows of a block; ``grad_theta_sq`` and
    ``transverse_sq`` are squared h-norms."""

    value: np.ndarray
    row: np.ndarray
    grad_theta: np.ndarray
    projected: np.ndarray
    dtheta_reeb: np.ndarray
    grad_theta_sq: np.ndarray
    transverse_sq: np.ndarray


class _Block:
    """The point record of a slice of the sample record, row for row; each
    stacked step rounds as the same step on one sample does.

    Tangent stage: ``hermitian`` (``H``); ``ell`` with ``d rho(w) = Re(ell .
    w)`` and ``alpha(w) = Im(ell . w)``; ``condition``, the squared condition
    of ``A_T`` (infinite when ``A_T`` is wide).  Where the model's
    ``orthonormal_frames`` holds, ``A_T`` has orthonormal columns, its
    singular values are taken as 1 and no row fails the rank test.  Reeb
    stage, with ``reeb``: ``gradient`` (``grad rho``), its squared h-norm
    ``norm_sq`` and ``reeb``.
    With ``f``: ``values`` and ``f_rows`` (``df`` in tangent coordinates).  A
    failed row keeps its error in ``failures``, raised by :meth:`check`.
    """

    def __init__(self, v, samples: Samples, f: Polynomial | None, reeb: bool):
        self.samples = samples
        points, bases = samples.points, samples.bases
        values, jacobians = v.phi_block(points)
        if v.orthonormal_frames:
            # A_T is the basis, in a product's C layout (the products below need it).
            a_t = np.ascontiguousarray(bases)
            largest = smallest = np.ones(len(samples))
        else:
            a_t = jacobians @ bases
            singular = np.linalg.svd(a_t, compute_uv=False)
            largest, smallest = singular[:, 0], singular[:, -1]
        degenerate = (largest == 0.0) | (smallest <= _RANK_TOLERANCE * largest)
        self.failures: dict[int, Exception] = {
            row: DegenerateTangent(
                "the differential loses rank at this point "
                f"(singular values {smallest[row]:.3e} vs {largest[row]:.3e})"
            )
            for row in np.flatnonzero(degenerate).tolist()
        }
        live = ~degenerate
        self.hermitian = 4.0 * (a_t.conj().swapaxes(1, 2) @ a_t)
        self.ell = 2.0 * (values.conj()[:, None, :] @ a_t)[:, 0]
        self.ell_scale = 2.0 * _row_norms(values) * largest
        self.condition = np.full(len(samples), math.inf)
        if a_t.shape[1] >= a_t.shape[2]:
            # float_power is libm's pow, as Python's float **; the ratios
            # stay below 1e10, so it cannot overflow.
            self.condition[live] = np.float_power(largest[live] / smallest[live], 2)
        if reeb:
            self._reeb_stage(live)
        if f is not None:
            f_block = PolynomialBlock((f, *f.gradient())).evaluate(points)
            self.values = f_block[:, 0]
            self.f_rows = (f_block[:, None, 1:] @ bases)[:, 0]

    def _reeb_stage(self, live: np.ndarray) -> None:
        """``grad rho``, its squared h-norm and ``R`` on the ``live`` rows."""
        scale = np.maximum(self.ell_scale, 1e-300)
        flat = live & (_row_norms(self.ell) <= _ZERO_TOLERANCE * scale)
        singular = live & ~flat & (self.condition > _CONDITION_CEILING)
        solved = np.flatnonzero(live & ~flat & ~singular)
        ell = self.ell[solved]
        gradient = np.linalg.solve(self.hermitian[solved], ell.conj()[..., None])[..., 0]
        norm_sq = (ell[:, None, :] @ gradient[:, :, None])[:, 0, 0].real
        positive = norm_sq > 0.0
        vanishing = "the potential has vanishing gradient at this point"
        for row in np.flatnonzero(flat).tolist() + solved[~positive].tolist():
            self.failures[row] = ZeroGradient(vanishing)
        singularity = "the hermitian form is numerically singular at this point"
        for row in np.flatnonzero(singular).tolist():
            self.failures[row] = SingularMetric(singularity)
        kept = solved[positive]
        self.gradient = np.zeros_like(self.ell)
        self.norm_sq = np.zeros(len(self.ell))
        self.reeb = np.zeros_like(self.ell)
        self.gradient[kept] = gradient[positive]
        self.norm_sq[kept] = norm_sq[positive]
        self.reeb[kept] = 1j * gradient[positive] / norm_sq[positive, None]

    def check(self, rows, reeb) -> None:
        """Raise the error of the first of ``rows`` whose tangent stage failed
        or, where ``reeb`` holds (one flag, or a mask over the block's rows),
        whose Reeb stage failed."""
        reeb = np.broadcast_to(reeb, len(self.samples))
        for row in rows if self.failures else ():
            error = self.failures.get(row)
            if error is not None and (reeb[row] or isinstance(error, DegenerateTangent)):
                raise error

    def on_binding(self, f: Polynomial, rows, tangent_first: bool) -> np.ndarray:
        """Whether ``f`` is numerically zero at each of ``rows``, an integer
        array (False at the other rows), as :func:`_on_binding` decides it.

        The test runs once on the block, with :func:`_magnitude_bounds` and
        ``np.hypot``, which round as the scalar rule does.  At the first row
        where the scalar rule overflows, :func:`_on_binding` raises its
        error, after the failures met before it in sample order, each row's
        tangent stage first if ``tangent_first``, else a row on the binding
        is not checked."""
        binding = np.zeros(len(self.samples), dtype=bool)
        values, levels = self.values[rows], self.samples.rho_values[rows]
        with np.errstate(all="ignore"):  # the scalar rule warns of nothing
            size = np.hypot(values.real, values.imag)
            bound, overflow = _magnitude_bounds(f, np.sqrt(levels))
        binding[rows] = size <= _ZERO_TOLERANCE * np.maximum(bound, 1e-300)
        overflow |= np.isinf(size) & np.isfinite(values)  # both parts finite
        if overflow.any():
            row = rows[np.argmax(overflow)]
            if tangent_first:
                binding[row] = True  # its Reeb stage comes after
                self.check(range(row + 1), ~binding)
            else:
                self.check(np.flatnonzero(~binding[:row]), True)
            _on_binding(f, self.values[row].item(), self.samples.rho_values[row].item())
        return binding

    def project(self, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """h-orthogonal projection of each ``w[i]`` away from the complex line
        of ``grad rho`` at row ``rows[i]``."""
        gradient = self.gradient[rows]
        pairing = gradient.conj()[:, None, :] @ self.hermitian[rows] @ w[:, :, None]
        coefficient = pairing[:, 0, 0] / self.norm_sq[rows]
        return w - coefficient[:, None] * gradient

    def theta(self, rows: np.ndarray) -> _Theta:
        """Theta stage on ``rows``, which passed the Reeb stage and where
        ``f`` does not vanish: ``grad theta = i grad(f) / conj(f)``."""
        hermitian = self.hermitian[rows]
        value, row = self.values[rows], self.f_rows[rows]
        grad_f = np.linalg.solve(hermitian, row.conj()[:, :, None])[:, :, 0]
        grad_theta = 1j * grad_f / np.conj(value)[:, None]
        projected = self.project(rows, grad_theta)
        return _Theta(
            value, row, grad_theta, projected,
            dtheta_reeb=_dtheta(row, value, self.reeb[rows]),
            grad_theta_sq=_h_norm_sq(hermitian, grad_theta),
            transverse_sq=_h_norm_sq(hermitian, projected),
        )


def _dtheta(f_rows: np.ndarray, values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``d theta(w) = Im((df / f) w)``, row by row; ``df / f`` first keeps it finite."""
    return ((f_rows / values[:, None])[:, None, :] @ w[:, :, None])[:, 0, 0].imag


def _abs_sq(value: complex) -> float:
    """``|f|^2`` at one value of ``f``, raising OverflowError where
    ``np.float_power(np.hypot(re, im), 2)``, its bits on a block, is inf
    with finite parts."""
    return abs(value) ** 2


def _h_norm_sq(hermitian: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (w.conj()[:, None, :] @ hermitian @ w[:, :, None])[:, 0, 0].real


def _fold(extremum, current, values: np.ndarray):
    """Python's running ``extremum`` (``min`` or ``max``) over ``values``
    from ``current``, or None with nothing to fold.  Unlike ``np.min`` and
    ``np.max``, it skips a NaN value unless the NaN comes first."""
    folded = values.tolist() if current is None else [current, *values.tolist()]
    return extremum(folded) if folded else None


def _re_covector(ell: np.ndarray) -> np.ndarray:
    """Real covector of ``w -> Re(ell . w)`` on coordinates ``(a; b)``."""
    return np.concatenate([ell.real, -ell.imag], axis=-1)


def _im_covector(ell: np.ndarray) -> np.ndarray:
    """Real covector of ``w -> Im(ell . w)`` on coordinates ``(a; b)``."""
    return np.concatenate([ell.imag, ell.real], axis=-1)


def _real_omega(hermitian: np.ndarray) -> np.ndarray:
    """Real matrix of ``omega = Im h`` on ``(a; b)``."""
    g_block = hermitian.real
    w_block = hermitian.imag
    return np.block([[w_block, g_block], [-g_block, w_block]])


def _level_basis(ell: np.ndarray) -> np.ndarray:
    """Euclidean-orthonormal real bases of ``ker d(rho)``, ``(k, 2m, 2m-1)``:
    the Householder bases of the kernel of its real covector
    (:func:`~milnorbook.varieties._kernel_bases`)."""
    return _kernel_bases(_re_covector(ell))


def _operator_norms(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The operator norm of each ``2 x n`` matrix with rows ``first[i]`` and
    ``second[i]``: the square root of the largest eigenvalue ``(a + c)/2 +
    hypot((a - c)/2, b)`` of its Gram matrix ``[[a, b], [b, c]]``, in which
    no term cancels."""
    a, c = _row_squares(first), _row_squares(second)
    b = (first[:, None, :] @ second[:, :, None])[:, 0, 0]
    return np.sqrt((a + c) / 2.0 + np.hypot((a - c) / 2.0, b))


def _magnitude_bounds(f: Polynomial, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``f.magnitude_bound`` at each of ``radii``, bit for bit: powers from
    ``np.float_power`` (libm's pow, as Python's float ``**``) summed in term
    order; and where Python raises OverflowError instead: a power infinite
    at a finite radius, ``abs`` of a coefficient infinite (at every radius),
    or a bound not finite at a finite radius."""
    bounds = np.zeros(len(radii))
    overflow = np.zeros(len(radii), dtype=bool)
    finite = np.isfinite(radii)
    for exponents, coefficient in f.terms:
        size = np.hypot(coefficient.real, coefficient.imag)
        power = np.float_power(radii, sum(exponents))
        overflow |= np.isinf(power) & finite
        overflow |= np.isinf(size) & cmath.isfinite(coefficient)
        bounds += size * power
    overflow |= ~np.isfinite(bounds) & finite
    return bounds, overflow


def _on_binding(f: Polynomial, value: complex, rho_value: float) -> bool:
    """Whether ``f(p) = value`` is numerically zero on the level of ``p``."""
    scale_f = max(f.magnitude_bound(math.sqrt(rho_value)), 1e-300)
    return abs(value) <= _ZERO_TOLERANCE * scale_f


def reeb_contract_deviations(v, samples: Samples) -> tuple[float, float]:
    """Worst deviations from the Reeb contract over ``samples``.

    Returns ``max |alpha(R) - 1|`` and the largest ``|omega(R, w)|`` over
    the euclidean-orthonormal level-tangent basis vectors ``w``; both are
    zero for the exact Reeb field.  Raises :class:`DegenerateTangent` on
    rank loss of the differential, :class:`ZeroGradient` at critical points of
    the potential and :class:`SingularMetric` where ``H`` is numerically
    singular.
    """
    max_alpha = 0.0
    max_omega = 0.0
    for start in range(0, len(samples), _DRAWS_PER_BLOCK):
        block = _Block(v, samples[start : start + _DRAWS_PER_BLOCK], None, True)
        block.check(range(len(block.samples)), True)
        omega = _real_omega(block.hermitian)
        reeb_real = np.concatenate([block.reeb.real, block.reeb.imag], axis=1)
        alpha = _im_covector(block.ell)[:, None, :] @ reeb_real[:, :, None]
        max_alpha = _fold(max, max_alpha, np.abs(alpha[:, 0, 0] - 1.0))
        pairings = np.abs(reeb_real[:, None, :] @ omega @ _level_basis(block.ell))
        max_omega = _fold(max, max_omega, pairings.max(axis=(1, 2)))
    return max_alpha, max_omega


def _stencil(p: Samples, step_scale: float) -> tuple[np.ndarray, float, np.ndarray]:
    """At the one-row ``p``: the ambient columns ``a_i`` of the real tangent
    basis ``{T_j, i T_j}``, the step ``step_scale * |p|``, and the rows ``p +
    step a_i``, then the rows ``p - step a_i``."""
    point, basis = p.points[0], p.bases[0]
    ambient = np.concatenate([basis, 1j * basis], axis=1)
    step = step_scale * float(np.linalg.norm(point))
    shifts = [step * ambient[:, i] for i in range(ambient.shape[1])]
    return ambient, step, np.array([point + s for s in shifts] + [point - s for s in shifts])


def fd_omega_deviation(v, p: Samples, step_scale: float = _FD_STEP) -> float:
    """Relative deviation between ``omega`` and a finite-difference ``d alpha``.

    The two-form is recomputed as the exterior derivative of the ambient
    one-form ``alpha`` by central differences along the real tangent basis
    directions (step ``step_scale * |point|``) and compared entrywise
    against the pointwise formula, at the one-row ``p``; returns
    ``max |difference| / max |omega|``.
    """
    block = _Block(v, p, None, False)
    block.check((0,), False)
    hermitian = block.hermitian[0]
    omega = _real_omega(hermitian)
    m = hermitian.shape[0]
    ambient, step, shifted = _stencil(p, step_scale)
    if step == 0.0:
        raise ZeroGradient("cannot set a finite-difference step at the origin")
    # alpha(w) = 2 Im <Phi, dPhi w> makes sense at every ambient point.
    values, jacobians = v.phi_block(shifted)
    alphas = np.array([2.0 * np.imag(phi.conj() @ (jac @ ambient))
                       for phi, jac in zip(values, jacobians)])
    derivative = (alphas[: 2 * m] - alphas[2 * m :]) / (2.0 * step)
    fd_omega = derivative - derivative.T
    scale = float(np.max(np.abs(omega)))
    if scale == 0.0:
        return float(np.max(np.abs(fd_omega)))
    return float(np.max(np.abs(fd_omega - omega)) / scale)


def check_spsh(v, samples: Samples, trials: int, seed: int = 0) -> float:
    """Minimum Levi quotient ``omega(w, Jw) / |w|^2`` over samples and draws.

    For each sample, ``trials`` random nonzero complex tangent vectors are
    drawn and the quotient taken with the ambient squared norm (the
    tangent basis is ambient-orthonormal, so coordinates preserve it).  A
    positive return value certifies strict plurisubharmonicity of the
    potential on the sample set; a non-positive one is a reported finding.
    Raises :class:`InputError` for ``trials < 1`` or a negative seed.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    minimum = math.inf
    # A block draws trials * 2m normals per sample, so blocks shrink as trials grow.
    size = max(1, _DRAWS_PER_BLOCK // trials)
    for start in range(0, len(samples), size):
        block = _Block(v, samples[start : start + size], None, False)
        block.check(range(len(block.samples)), False)
        k, m = block.ell.shape
        draws = rng.standard_normal((k, trials, 2, m))
        w = draws[:, :, 0] + 1j * draws[:, :, 1]
        levi = w.conj()[:, :, None, :] @ block.hermitian[:, None] @ w[:, :, :, None]
        norm_sq = _row_squares(w.reshape(k * trials, m))
        drawn = norm_sq != 0.0
        minimum = _fold(min, minimum, levi.real.reshape(-1)[drawn] / norm_sq[drawn])
    return minimum


def rescaled_reeb_identity(
    v, f: Polynomial, c: float, samples: Samples
) -> tuple[list[float], int]:
    """Residuals of the rescaled-Reeb identity over ``samples``.

    At each sample, builds ``R_c = e^{c|f|^2}(R + pr_xi(2 c |f|^2 grad
    theta))`` and compares ``d theta(R_c)`` against
    ``e^{c|f|^2}(d theta(R) + 2 c |f|^2 |pr_xi grad theta|^2)``.  Returns
    ``|LHS - RHS| / (1 + |LHS|)`` at every sample off the binding, in sample
    order, and the number of samples skipped because ``f(p)`` is zero there.
    Raises :class:`InputError` for a constant ``c`` that is not finite.
    """
    if not math.isfinite(c):
        raise InputError(f"c must be finite, got {c!r}")
    residuals = []
    skipped = 0
    for start in range(0, len(samples), _DRAWS_PER_BLOCK):
        block = _Block(v, samples[start : start + _DRAWS_PER_BLOCK], f, True)
        off = ~block.on_binding(f, np.arange(len(block.samples)), True)
        rows = np.flatnonzero(off)
        skipped += len(off) - len(rows)
        values = block.values[rows]
        with np.errstate(over="ignore", invalid="ignore"):  # Python raises instead
            sizes_sq = np.float_power(np.hypot(values.real, values.imag), 2)
            weights = float(c) * sizes_sq
            factors = np.exp(weights)
        overflow = np.isinf(sizes_sq) & np.isfinite(values)
        overflow |= np.isinf(factors) & np.isfinite(weights)
        if overflow.any():  # the first such row raises, after the failures before it
            row = np.argmax(overflow)
            block.check(range(rows[row] + 1), off)
            math.exp(float(c) * _abs_sq(values[row].item()))
        block.check(range(len(off)), off)
        theta = block.theta(rows)
        correction = block.project(rows, (2.0 * weights)[:, None] * theta.grad_theta)
        rescaled = factors[:, None] * (block.reeb[rows] + correction)
        lhs = _dtheta(theta.row, theta.value, rescaled)
        rhs = factors * (theta.dtheta_reeb + 2.0 * weights * theta.transverse_sq)
        residuals.extend((np.abs(lhs - rhs) / (1.0 + np.abs(lhs))).tolist())
    return residuals, skipped


def _mesh(v, f: Polynomial, epsilon: float, eta: float | None, mesh: int, seed: int):
    """The mesh checks' prologue: ``mesh`` samples, ``|f|^2`` at each (block by
    block) and ``eta``, by default ``DEFAULT_ETA_FRACTION`` of the largest."""
    if mesh < 1:
        raise InvalidMesh(f"mesh size must be positive, got {mesh}")
    samples = sample_points(v, epsilon, mesh, seed)
    f_block = PolynomialBlock((f,))
    sizes_sq = np.empty(len(samples))
    for start in range(0, len(samples), _DRAWS_PER_BLOCK):
        rows = slice(start, start + _DRAWS_PER_BLOCK)
        values = f_block.evaluate(samples.points[rows])[:, 0]
        with np.errstate(over="ignore"):  # Python's abs and ** raise instead
            sizes_sq[rows] = np.float_power(np.hypot(values.real, values.imag), 2)
        overflow = np.isinf(sizes_sq[rows]) & np.isfinite(values)
        if overflow.any():
            _abs_sq(values[np.argmax(overflow)].item())
    if eta is None:
        eta = DEFAULT_ETA_FRACTION * float(np.max(sizes_sq))
    if not (eta > 0.0):
        raise InputError(f"eta must be positive, got {eta!r}")
    return samples, sizes_sq, eta


def _rescaled_dtheta(c, sizes_sq, dtheta_reeb, terms) -> np.ndarray:
    """``d theta(R_c)`` at retained mesh points from the columns ``|f|^2``, ``d
    theta(R)`` and ``d theta(pr_xi(2 grad theta))``; above ``_EXP_CAP`` the
    positive factor ``exp(c |f|^2)`` is inf, which keeps the verified sign."""
    weights = c * sizes_sq
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.where(terms > 0.0, dtheta_reeb + weights * terms, dtheta_reeb)
        capped = np.where(base != 0.0, np.copysign(math.inf, base), 0.0)
        return np.where(weights > _EXP_CAP, capped, np.exp(weights) * base)


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
        return {**asdict(self), "k": None if math.isinf(self.k) else self.k}


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
    samples, sizes_sq, eta = _mesh(v, f, epsilon, eta, mesh, seed)
    max_size_sq = float(np.max(sizes_sq))
    if eta >= max_size_sq:
        raise InputError(
            f"eta={eta!r} is not below max |f|^2 = {max_size_sq!r} on the mesh"
        )

    # d theta(pr_xi(2 grad theta)) does not depend on c: each retained point
    # keeps |f|^2, d theta(R), that term, |pr_xi grad theta|^2, |grad theta|^2.
    retained = sizes_sq >= eta
    columns = np.empty((5, np.count_nonzero(retained)))
    columns[0] = sizes_sq[retained]
    filled = 0
    for start in range(0, len(samples), _DRAWS_PER_BLOCK):
        block = _Block(v, samples[start : start + _DRAWS_PER_BLOCK], f, True)
        rows = np.flatnonzero(retained[start : start + _DRAWS_PER_BLOCK])
        block.check(rows, True)
        theta = block.theta(rows)
        columns[1:, filled : filled + len(rows)] = (
            theta.dtheta_reeb, _dtheta(theta.row, theta.value, 2.0 * theta.projected),
            theta.transverse_sq, theta.grad_theta_sq,
        )
        filled += len(rows)
    retained_sizes_sq, dtheta_reeb, _, transverse_sq, theta_norms_sq = columns

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
    for start in range(0, filled, _DRAWS_PER_BLOCK):
        rescaled = _rescaled_dtheta(c, *columns[:3, start : start + _DRAWS_PER_BLOCK])
        min_rescaled = _fold(min, min_rescaled, rescaled)

    return AdaptationReport(
        c=c,
        verified=bool(min_rescaled > 0.0),
        m=m,
        k=k,
        epsilon=epsilon,
        eta=eta,
        mesh=mesh,
        retained=len(dtheta_reeb),
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
        return asdict(self)


def lambda_cone_check(
    v,
    f: Polynomial,
    samples: Samples,
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
    for start in range(0, len(samples), _DRAWS_PER_BLOCK):
        block = _Block(v, samples[start : start + _DRAWS_PER_BLOCK], f, True)
        # A sample on the binding is skipped whatever fails there.
        rows = np.flatnonzero(~block.on_binding(f, np.arange(len(block.samples)), False))
        skipped += len(block.samples) - len(rows)
        block.check(rows, True)
        theta = block.theta(rows)
        theta_norm = np.sqrt(np.maximum(theta.grad_theta_sq, 0.0))
        near = theta_norm != 0.0
        skipped += len(near) - int(np.count_nonzero(near))
        transverse = np.sqrt(np.maximum(theta.transverse_sq[near], 0.0))
        near[near] = ~(transverse / theta_norm[near] > proportionality_tol)
        rows = rows[near]
        qualifying += len(rows)
        gradient = 1j * block.gradient[rows]
        pairings = theta.grad_theta[near].conj()[:, None, :] @ block.hermitian[rows]
        lam = (pairings @ gradient[:, :, None])[:, 0, 0] / block.norm_sq[rows]
        min_re = _fold(min, min_re, lam.real)
        max_arg = _fold(max, max_arg, np.abs(np.angle(lam)))
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
        return asdict(self)


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
    samples, sizes_sq, eta = _mesh(v, f, epsilon, eta, mesh, seed)
    min_dtheta: float | None = None
    min_df: float | None = None
    outside, inside = int(np.sum(sizes_sq >= eta)), int(np.sum(sizes_sq <= eta))
    for start in range(0, len(samples), _DRAWS_PER_BLOCK):
        block = _Block(v, samples[start : start + _DRAWS_PER_BLOCK], f, False)
        outer = sizes_sq[start : start + _DRAWS_PER_BLOCK] >= eta
        inner = sizes_sq[start : start + _DRAWS_PER_BLOCK] <= eta
        binding = block.on_binding(f, np.flatnonzero(outer), True)
        block.check(range(len(block.samples)), False)
        level_basis = _level_basis(block.ell)
        transverse = outer & ~binding
        dtheta = _im_covector(block.f_rows[transverse] / block.values[transverse, None])
        norms = _row_norms((dtheta[:, None, :] @ level_basis[transverse])[:, 0])
        if binding.any():  # a sample on the binding sets the minimum to 0
            min_dtheta = 0.0
            after = np.arange(len(binding)) > np.flatnonzero(binding)[-1]
            norms = norms[after[transverse]]
        min_dtheta = _fold(min, min_dtheta, norms)

        row_f, basis = block.f_rows[inner][:, None, :], level_basis[inner]
        norms = _operator_norms(
            (_re_covector(row_f) @ basis)[:, 0], (_im_covector(row_f) @ basis)[:, 0]
        )
        min_df = _fold(min, min_df, norms)
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
