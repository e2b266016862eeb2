"""Pointwise contact structures: frozen hand checks, identities, findings."""

import math
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

import milnorbook.contact as contact
import milnorbook.varieties as varieties
from milnorbook import (
    Hypersurface,
    Polynomial,
    Samples,
    SmoothChart,
    check_spsh,
    fd_omega_deviation,
    find_adaptation_constant,
    lambda_cone_check,
    openbook_criterion_check,
    parse_map,
    parse_polynomial,
    reeb_contract_deviations,
    rescaled_reeb_identity,
    sample_points,
)
from milnorbook import cli
from milnorbook.contact import DEFAULT_ETA_FRACTION
from oracles import (
    OnBinding,
    eval_forms,
    gradient_identity_residuals,
    per_point_rescaled_dtheta,
    per_sample_contact_record,
    svd_kernel_bases,
)
from test_contract import BOUNDS
from milnorbook.errors import (
    ConeViolation,
    DegenerateTangent,
    InputError,
    InvalidMesh,
    SingularMetric,
    ZeroGradient,
)

LINE = SmoothChart.identity(1)
PLANE = SmoothChart.identity(2)
BRIESKORN = Hypersurface(parse_polynomial("z0^2 + z1^3 + z2^5", 3))


def samples_at(points, rho=None):
    """A record of chart samples at ``points``, with identity bases and, unless
    given, their squared norms as level values."""
    points = np.asarray(points, dtype=complex)
    k, n = points.shape
    bases = np.broadcast_to(np.eye(n, dtype=complex), (k, n, n))
    rho_values = np.sum(np.abs(points) ** 2, axis=1) if rho is None else np.full(k, rho)
    return Samples(points, bases, rho_values)


def sample_at(point, rho=None):
    """The one-row record of a chart sample at ``point``."""
    return samples_at([point], rho)


def rows(samples):
    """The one-row records of ``samples``, in order."""
    return [samples[i : i + 1] for i in range(len(samples))]


FIRST = np.array([0])


def record(v, p, f=None):
    """The point record of the one-row record ``p``, Reeb stage included."""
    return contact._Block(v, p, f, True)


def level_tangent_basis(v, p):
    """Euclidean-orthonormal real basis of ``ker d(rho)`` at ``p``."""
    return contact._level_basis(record(v, p).ell)[0]


def holomorphic_gradient(v, p, phi):
    """The tangent vector with ``h(grad phi, w) = d phi(w)``."""
    data = record(v, p, phi)
    return np.linalg.solve(data.hermitian[0], data.f_rows[0].conj())


def theta_stage(v, p, f):
    """The theta stage of ``theta = arg f`` at ``p``."""
    return record(v, p, f).theta(FIRST)


def xi_projection(v, p, w):
    """h-orthogonal projection of ``w`` away from the gradient line at ``p``."""
    return record(v, p).project(FIRST, np.asarray(w, dtype=complex)[None])[0]


class TestHandChecks:
    """All values verified by hand on the unit circle in one variable."""

    def test_forms_on_the_line_at_one(self):
        forms = eval_forms(LINE, sample_at([1.0]))
        assert np.allclose(forms.alpha, [0.0, 2.0])  # alpha = 2 dy
        assert np.allclose(forms.omega, [[0.0, 4.0], [-4.0, 0.0]])
        assert np.allclose(forms.metric_g, 4.0 * np.eye(2))
        assert np.allclose(forms.hermitian_h, [[4.0]])
        assert np.allclose(forms.grad_rho, [0.5])
        assert np.allclose(forms.reeb, [0.5j])  # half speed around the circle
        assert forms.grad_rho_norm_sq == pytest.approx(1.0)
        assert forms.tangent_dim == 1

    def test_reeb_pairs_to_one_exactly(self):
        p = sample_at([0.6 + 0.8j])
        forms = eval_forms(LINE, p)
        reeb_real = np.concatenate([forms.reeb.real, forms.reeb.imag])
        assert float(forms.alpha @ reeb_real) == pytest.approx(1.0, abs=1e-15)

    def test_level_basis_is_annihilated_by_omega_against_reeb(self):
        p = sample_at([1.0])
        forms = eval_forms(LINE, p)
        basis = level_tangent_basis(LINE, p)
        assert basis.shape == (2, 1)
        reeb_real = np.concatenate([forms.reeb.real, forms.reeb.imag])
        assert abs(float((reeb_real @ forms.omega @ basis)[0])) < 1e-15

    def test_levi_quotient_is_four_on_the_plane(self):
        samples = sample_points(PLANE, 0.01, 50, seed=0)
        assert check_spsh(PLANE, samples, trials=20, seed=0) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_reeb_contract_deviations_vanish(self):
        max_alpha, max_omega = reeb_contract_deviations(LINE, sample_at([1.0]))
        assert max_alpha < 1e-15
        assert max_omega < 1e-15

    def test_rotation_speed_of_coordinate_argument(self):
        # theta = arg(z0) rotates at 1/(2 rho) along the Reeb flow.
        f = parse_polynomial("z0", 2)
        p = sample_at([0.1, 0.0])
        speed = float(theta_stage(PLANE, p, f).dtheta_reeb[0])
        assert speed == pytest.approx(50.0, rel=1e-12)


class TestStructuralIdentities:
    def test_hermitian_solves_define_the_gradient(self):
        rng = np.random.default_rng(2)
        phi = parse_polynomial("z0^2 z1 + z1^2", 2)
        for p in rows(sample_points(PLANE, 0.01, 10, seed=4)):
            data = record(PLANE, p, phi)
            grad = holomorphic_gradient(PLANE, p, phi)
            row = data.f_rows[0]
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pairing = complex(grad.conj() @ data.hermitian[0] @ w)
            assert pairing == pytest.approx(complex(row @ w), rel=1e-10)

    def test_theta_gradient_matches_holomorphic_gradient(self):
        f = parse_polynomial("z0^2 + z1^3", 2)
        for p in rows(sample_points(PLANE, 0.01, 10, seed=5)):
            value = f.evaluate(p.points[0])
            via_theta = theta_stage(PLANE, p, f).grad_theta[0]
            via_grad = 1j * holomorphic_gradient(PLANE, p, f) / np.conj(value)
            assert np.allclose(via_theta, via_grad, rtol=1e-12)

    def test_theta_differential_is_real_part_pairing(self):
        rng = np.random.default_rng(3)
        f = parse_polynomial("z0 z1", 2)
        for p in rows(sample_points(PLANE, 0.01, 10, seed=6)):
            data = record(PLANE, p, f)
            grad_theta = data.theta(FIRST).grad_theta[0]
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            direct = float(contact._dtheta(data.f_rows, data.values, w[None])[0])
            via_metric = float(np.real(grad_theta.conj() @ data.hermitian[0] @ w))
            assert direct == pytest.approx(via_metric, rel=1e-10, abs=1e-12)

    def test_xi_projection_contracts(self):
        rng = np.random.default_rng(4)
        for p in rows(sample_points(PLANE, 0.01, 10, seed=7)):
            forms = eval_forms(PLANE, p)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            projected = xi_projection(PLANE, p, w)
            real = np.concatenate([projected.real, projected.imag])
            # lands in ker(d rho) and ker(alpha) simultaneously
            assert abs(float(forms.alpha @ real)) < 1e-12
            data = record(PLANE, p)
            assert abs(complex(forms.grad_rho.conj() @ data.hermitian[0] @ projected)) < 1e-12
            # idempotent, kills the gradient line
            again = xi_projection(PLANE, p, projected)
            assert np.allclose(again, projected, atol=1e-12)
            assert np.allclose(
                xi_projection(PLANE, p, forms.grad_rho), 0.0, atol=1e-12
            )
            assert np.allclose(
                xi_projection(PLANE, p, forms.reeb), 0.0, atol=1e-12
            )

    def test_gradient_identities_against_finite_differences(self):
        # A coordinate function, generically nonvanishing on the hypersurface.
        phi = parse_polynomial("z0", 3)
        for p in rows(sample_points(BRIESKORN, 0.01, 10, seed=8)):
            abs_sq_res, arg_res = gradient_identity_residuals(BRIESKORN, p, phi)
            assert abs_sq_res < 1e-8
            assert arg_res < 1e-8

    def test_finite_difference_two_form_agreement(self):
        for p in rows(sample_points(PLANE, 0.01, 5, seed=9)):
            assert fd_omega_deviation(PLANE, p) < 1e-8
        for p in rows(sample_points(BRIESKORN, 0.01, 5, seed=10)):
            assert fd_omega_deviation(BRIESKORN, p) < 1e-8

    def test_rescaled_identity_exact_at_zero(self):
        f = parse_polynomial("z0 z1", 2)
        samples = sample_points(PLANE, 0.01, 20, seed=11)
        residuals, skipped = rescaled_reeb_identity(PLANE, f, 0.0, samples)
        assert (len(residuals), skipped) == (20, 0)
        for residual in residuals:
            assert residual == 0.0

    @pytest.mark.parametrize("c", [1.0, 10.0])
    def test_rescaled_identity_to_rounding(self, c):
        f = parse_polynomial("z0^2 + z1^3", 2)
        samples = sample_points(PLANE, 0.01, 20, seed=12)
        residuals, skipped = rescaled_reeb_identity(PLANE, f, c, samples)
        assert (len(residuals), skipped) == (20, 0)
        for residual in residuals:
            assert residual < 1e-12

    @pytest.mark.parametrize("variety", [PLANE, BRIESKORN], ids=["chart", "hypersurface"])
    def test_empty_sample_lists(self, variety):
        """Every record check answers on an empty record, as it did point by
        point."""
        f = parse_polynomial("z0", variety.ambient_dim)
        empty = sample_points(variety, 0.01, 1, seed=0)[:0]
        assert check_spsh(variety, empty, trials=5) == float("inf")
        assert reeb_contract_deviations(variety, empty) == (0.0, 0.0)
        report = lambda_cone_check(variety, f, empty)
        assert (report.total, report.qualifying, report.skipped_on_binding) == (0, 0, 0)
        assert rescaled_reeb_identity(variety, f, 1.0, empty) == ([], 0)


class TestBlockSizes:
    """The checks evaluate their samples block by block; no answer may
    depend on the block size."""

    @pytest.mark.parametrize("block", [7, 1])
    @pytest.mark.parametrize("variety", [PLANE, BRIESKORN], ids=["chart", "hypersurface"])
    def test_answers_do_not_depend_on_the_block_size(self, variety, block):
        f = parse_polynomial("z0 + z1^2", variety.ambient_dim)
        samples = sample_points(variety, 0.01, 30, seed=13)

        def answers():
            return (
                check_spsh(variety, samples, trials=3),
                reeb_contract_deviations(variety, samples),
                rescaled_reeb_identity(variety, f, 1.0, samples),
                lambda_cone_check(variety, f, samples).to_dict(),
                find_adaptation_constant(variety, f, 0.01, None, 30, seed=13).to_dict(),
                openbook_criterion_check(variety, f, 0.01, None, 30, seed=13).to_dict(),
            )

        expected = answers()
        with patch.object(contact, "_DRAWS_PER_BLOCK", block):
            assert repr(answers()) == repr(expected)

    @pytest.mark.parametrize("variety", [PLANE, BRIESKORN], ids=["chart", "hypersurface"])
    def test_spsh_draws_with_more_trials_than_the_block_holds(self, variety):
        # 20 trials at a block of 7 draws for one sample at a time.
        samples = sample_points(variety, 0.01, 30, seed=14)
        expected = check_spsh(variety, samples, trials=20, seed=5)
        with patch.object(contact, "_DRAWS_PER_BLOCK", 7):
            assert repr(check_spsh(variety, samples, trials=20, seed=5)) == repr(expected)


class TestErrorOrder:
    """Each check raises the error of the first sample that fails, at the
    stage where a loop over the samples would have met it."""

    # d(z0^2 - z0) vanishes at 0.5 (rank loss) and z0^2 - z0 at 1.0 (so
    # does d rho there).
    CRITICAL = SmoothChart(1, (parse_polynomial("z0^2 - z0", 1),))

    def samples(self, *points):
        return samples_at([[z] for z in points])

    def test_reeb_stage_failure_before_a_later_rank_loss(self):
        samples = self.samples(0.3, 1.0, 0.5)
        f = parse_polynomial("z0 + 2", 1)
        with pytest.raises(ZeroGradient):
            reeb_contract_deviations(self.CRITICAL, samples)
        with pytest.raises(ZeroGradient):
            rescaled_reeb_identity(self.CRITICAL, f, 1.0, samples)
        with pytest.raises(ZeroGradient):
            lambda_cone_check(self.CRITICAL, f, samples)
        # The Levi quotient needs the tangent stage only.
        with pytest.raises(DegenerateTangent):
            check_spsh(self.CRITICAL, samples, trials=3)

    def test_binding_is_tested_after_the_tangent_stage_except_in_cone(self):
        samples = self.samples(0.3, 0.5)
        f = parse_polynomial("z0 - 0.5", 1)
        with pytest.raises(DegenerateTangent):
            rescaled_reeb_identity(self.CRITICAL, f, 1.0, samples)
        report = lambda_cone_check(self.CRITICAL, f, samples)
        assert (report.total, report.skipped_on_binding) == (2, 1)

    def test_identity_skips_a_reeb_stage_failure_on_the_binding(self):
        # f vanishes at 1.0, where d rho does; the rank loss at 0.5 is next.
        samples = self.samples(1.0, 0.5)
        with pytest.raises(DegenerateTangent):
            rescaled_reeb_identity(self.CRITICAL, parse_polynomial("z0 - 1", 1), 1.0, samples)
        with pytest.raises(ZeroGradient):
            rescaled_reeb_identity(self.CRITICAL, parse_polynomial("z0 + 2", 1), 1.0, samples)

    def test_cone_skips_a_binding_sample_whatever_fails_there(self):
        # (z0 - 1)(z0 - 0.5) vanishes at both failing samples.
        f = parse_polynomial("z0^2 - 1.5 z0 + 0.5", 1)
        report = lambda_cone_check(self.CRITICAL, f, self.samples(1.0, 0.5, 0.3))
        assert (report.total, report.skipped_on_binding) == (3, 2)
        with pytest.raises(ZeroGradient):  # the first failure off the binding
            lambda_cone_check(self.CRITICAL, parse_polynomial("z0 - 0.5", 1),
                              self.samples(0.5, 1.0, 0.3))

    @pytest.mark.parametrize("eta", [0.01, 1.0])
    def test_criterion_raises_the_first_tangent_failure_on_either_side_of_eta(self, eta):
        # |f|^2 = 0.25 at the rank loss; the Reeb stage failure at 1.0 is
        # not the criterion's to raise.
        samples = self.samples(0.3, 1.0, 0.5)
        f = parse_polynomial("z0", 1)
        with patch.object(contact, "sample_points", lambda *args: samples):
            with pytest.raises(DegenerateTangent):
                openbook_criterion_check(self.CRITICAL, f, 0.01, eta, 3, seed=0)

    def test_overflow_is_met_in_sample_order(self):
        f = parse_polynomial("z0 + 2", 1)
        with pytest.raises(OverflowError):
            rescaled_reeb_identity(self.CRITICAL, f, 1e12, self.samples(0.3, 1.0))
        with pytest.raises(ZeroGradient):
            rescaled_reeb_identity(self.CRITICAL, f, 1e12, self.samples(1.0, 0.3))

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_a_square_overflow_is_met_in_sample_order(self, c):
        # |f|^2 = (2.3e160)^2 at 0.3; Python's square raises, NumPy's is inf.
        f = parse_polynomial("1e160 z0 + 2e160", 1)
        with pytest.raises(OverflowError):
            rescaled_reeb_identity(self.CRITICAL, f, c, self.samples(0.3, 1.0))
        with pytest.raises(ZeroGradient):
            rescaled_reeb_identity(self.CRITICAL, f, c, self.samples(1.0, 0.3))

    def test_a_binding_overflow_is_met_in_sample_order(self):
        # |f| = hypot(1.7e308, 7e307) overflows at 0.7 + 0.7i, after the rank
        # loss at 0.5 in identity and cone alike.
        f = parse_polynomial("1e308 z0 + 1e308", 1)
        for check in (
            lambda samples: rescaled_reeb_identity(self.CRITICAL, f, 0.0, samples),
            lambda samples: lambda_cone_check(self.CRITICAL, f, samples),
        ):
            with pytest.raises(DegenerateTangent):
                check(self.samples(0.5, 0.7 + 0.7j))
            with pytest.raises(OverflowError):
                check(self.samples(0.7 + 0.7j, 0.5))

    def test_a_coefficient_overflow_is_met_in_sample_order(self):
        # |c| = hypot(1.5e308, 1.5e308) overflows in the bound of every
        # sample; identity checks the rank loss at 0.5 first.
        f = parse_polynomial("(1.5e308+1.5e308i)*z0 + 1", 1)
        with pytest.raises(DegenerateTangent):
            rescaled_reeb_identity(self.CRITICAL, f, 0.0, self.samples(0.5, 0.3))
        with pytest.raises(OverflowError, match="absolute value too large"):
            rescaled_reeb_identity(self.CRITICAL, f, 0.0, self.samples(0.3, 0.5))

    def test_singular_rows_leave_the_stacked_solve(self):
        # H is exactly singular at every sample of a wide chart.
        wide = SmoothChart(2, (Polynomial.variable(2, 0),))
        samples = samples_at([[0.1, 0.0], [0.0, 0.1], [0.2, 0.1]])
        f = parse_polynomial("z0 + 1", 2)
        with pytest.raises(ZeroGradient):  # z0 = 0 at the second sample
            reeb_contract_deviations(wide, samples[1:])
        for check in (
            lambda: reeb_contract_deviations(wide, samples),
            lambda: rescaled_reeb_identity(wide, f, 1.0, samples),
            lambda: lambda_cone_check(wide, f, samples),
        ):
            with pytest.raises(SingularMetric):
                check()
        assert check_spsh(wide, samples, trials=3) > 0.0


class TestBlockRecord:
    """The block record reproduces, bit for bit, the record built one sample
    at a time from its point alone, with one SVD, solve and product per
    sample."""

    @pytest.mark.parametrize(
        "variety, f",
        [
            (SmoothChart(2, parse_map("z0,z1,z0^2 + z1^3", 2)), "z0^2 + z1^3"),
            (Hypersurface(parse_polynomial("z0^2 + z1^3 + z1*z2^3", 3)), "z2 + z0*z1"),
            # Four variables: the tangent bases' memory layout changes the bits.
            (
                Hypersurface(parse_polynomial("z0^2 + z1^2 + z2^2 + z3^3", 4)),
                "z3*z0 + z1^2 + 2*z2",
            ),
        ],
        ids=["chart", "e7", "four-variables"],
    )
    def test_block_record_matches_the_per_sample_record(self, variety, f):
        f = parse_polynomial(f, variety.ambient_dim)
        samples = sample_points(variety, 0.01, 200, seed=21)
        block = contact._Block(variety, samples, f, True)
        theta = block.theta(np.arange(len(samples)))
        level_basis = contact._level_basis(block.ell)
        for i, point in enumerate(samples.points):
            got = {
                "hermitian": block.hermitian[i],
                "ell": block.ell[i],
                "ell_scale": block.ell_scale[i],
                "condition": block.condition[i],
                "gradient": block.gradient[i],
                "norm_sq": block.norm_sq[i],
                "reeb": block.reeb[i],
                "level_basis": level_basis[i],
                "f_row": block.f_rows[i],
                "grad_theta": theta.grad_theta[i],
                "projected": theta.projected[i],
                "dtheta_reeb": theta.dtheta_reeb[i],
                "grad_theta_sq": theta.grad_theta_sq[i],
                "transverse_sq": theta.transverse_sq[i],
            }
            expected = per_sample_contact_record(variety, point, f)
            for name, value in expected.items():
                value, other = np.asarray(value), np.asarray(got[name])
                assert (other.shape, other.tobytes()) == (value.shape, value.tobytes()), name


def basis_rows() -> dict[str, np.ndarray]:
    """Complex rows ``g`` (gradients, or ``ell`` for the level bases) of 2 to
    5 entries: random rows at magnitudes from 1e-300 to 1e300, rows whose
    entries spread over 1e-150 to 1e150, real rows, rows whose leading
    entry is a signed zero, and rows with one nonzero entry at each place."""
    rng = np.random.default_rng(25)
    corpus = {}
    for n in (2, 3, 4, 5):
        g = rng.standard_normal((2000, n)) + 1j * rng.standard_normal((2000, n))
        corpus[f"random-{n}"] = g * 10.0 ** rng.uniform(-300.0, 300.0, (2000, 1))
        corpus[f"spread-{n}"] = g * 10.0 ** rng.uniform(-150.0, 150.0, (2000, n))
        corpus[f"real-{n}"] = rng.standard_normal((200, n)) + 0j
        signed = g[:4].copy()
        signed[:, 0] = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        corpus[f"signed-zero-{n}"] = signed
        single = np.zeros((n, n), dtype=complex)
        single[np.arange(n), np.arange(n)] = 3.0 - 4.0j
        corpus[f"one-entry-{n}"] = single
    return corpus


BASIS_ROWS = basis_rows()


class TestHouseholderBases:
    """The tangent bases of the hypersurface sampler and the level bases of
    the contact checks are Householder reflectors, not SVDs.  Against the
    SVD bases they replace (``tests/oracles.py``), entry by entry: at most
    1.3e-15 apart on this corpus, pinned at 2e-15.  No entry overflows."""

    BOUND = 2e-15

    @staticmethod
    def bases(form, rows):
        with np.errstate(all="raise", under="ignore"):
            return form(rows)

    @staticmethod
    def assert_orthonormal_kernel(bases, covectors):
        """Orthonormal columns that ``covectors`` annihilate, relative to
        each covector's largest entry (both at most 9.1e-16 off here)."""
        gram = bases.conj().swapaxes(1, 2) @ bases
        assert np.abs(gram - np.eye(bases.shape[2])).max() <= 2e-15
        scale = np.abs(covectors).max(axis=1)[:, None]
        products = (covectors[:, None, :] / scale[:, :, None] @ bases)[:, 0]
        assert np.abs(products).max() <= 2e-15

    @pytest.mark.parametrize("name", BASIS_ROWS)
    def test_kernel_bases_are_the_svd_bases(self, name):
        g = BASIS_ROWS[name]
        bases = self.bases(varieties._kernel_bases, g)
        assert bases.shape == (len(g), g.shape[1], g.shape[1] - 1)
        assert bases.swapaxes(1, 2).flags.c_contiguous
        assert np.abs(bases - svd_kernel_bases(g)).max() <= self.BOUND
        self.assert_orthonormal_kernel(bases, g)

    @pytest.mark.parametrize("name", BASIS_ROWS)
    def test_level_bases_are_the_svd_bases(self, name):
        ell = BASIS_ROWS[name]
        bases = self.bases(contact._level_basis, ell)
        assert bases.shape == (len(ell), 2 * ell.shape[1], 2 * ell.shape[1] - 1)
        covectors = contact._re_covector(ell)
        assert np.abs(bases - svd_kernel_bases(covectors)).max() <= self.BOUND
        self.assert_orthonormal_kernel(bases, covectors)

    def test_a_gradient_entry_whose_square_overflows(self):
        """``|dh|^2`` overflows on ``1e200 z1``; the row norm folded by
        ``hypot`` does not, so the bases and the Reeb check stay finite."""
        surface = Hypersurface(parse_polynomial("z0^2 + 1e200 z1 + z2^2", 3))
        samples = sample_points(surface, 0.01, 20, seed=0)
        assert np.isfinite(samples.bases).all()
        assert max(reeb_contract_deviations(surface, samples)) < 1e-12

    @pytest.mark.parametrize("place", range(3))
    @pytest.mark.parametrize("entry", [math.inf, complex(0.0, -math.inf)])
    def test_an_infinite_entry_gives_nan(self, place, entry):
        """As the SVD's bases do, except the real level basis's SVD for an
        infinite leading entry, which returns the coordinate vectors."""
        g = np.array([[1.0 + 1.0j, 2.0, 3.0j]])
        g[0, place] = entry
        with np.errstate(all="ignore"):
            assert np.isnan(varieties._kernel_bases(g)).all()
            assert np.isnan(svd_kernel_bases(g)).any()
            assert np.isnan(contact._level_basis(g)).any()


# Each subcheck's arguments, with f, at sizes that take one block.
SUBCHECKS = {
    "spsh": ["--samples", "20"],
    "reeb": ["--samples", "20"],
    "identity": ["--samples", "20"],
    "cone": ["--samples", "20"],
    "adapt": ["--mesh", "200"],
    "criterion": ["--mesh", "200"],
}


def run_subcheck(subcheck, variety_argv, f) -> int:
    argv = ["contact", subcheck, *variety_argv, *SUBCHECKS[subcheck], "--format", "structured"]
    if subcheck not in ("spsh", "reeb"):
        argv += ["--f", f]
    return cli.main(argv)


class TestNoSVDOnOrthonormalFrames:
    """A hypersurface and a chart whose components are the coordinates have
    tangent frames that are orthonormal by construction: no subcheck takes
    an SVD on them.  Any other chart keeps the SVD of ``A_T`` and its rank
    test."""

    def test_the_models_say_which_frames_are_orthonormal(self):
        assert BRIESKORN.orthonormal_frames and PLANE.orthonormal_frames
        assert SmoothChart(2, parse_map("z0, z1", 2)).orthonormal_frames
        assert not SmoothChart(2, parse_map("z1, z0", 2)).orthonormal_frames
        assert not SmoothChart(2, parse_map("z0,z1,z0*z1", 2)).orthonormal_frames
        with pytest.raises(AttributeError):
            PLANE.orthonormal_frames = False

    @pytest.mark.parametrize("subcheck", SUBCHECKS)
    @pytest.mark.parametrize(
        "variety_argv, f",
        [(["--hypersurface", "z0^2 + z1^3 + z2^5"], "z1"), (["--ambient", "2"], "z0^2 + z1^3")],
        ids=["hypersurface", "identity-chart"],
    )
    def test_no_svd_runs(self, subcheck, variety_argv, f):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")

        with patch.object(np.linalg, "svd", refuse):
            assert run_subcheck(subcheck, variety_argv, f) == 0

    @pytest.mark.parametrize("subcheck", SUBCHECKS)
    def test_other_charts_keep_the_svd_of_a_t(self, subcheck):
        shapes = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            shapes.append(a.shape[1:])
            return svd(a, *args, **kwargs)

        with patch.object(np.linalg, "svd", counting):
            code = run_subcheck(subcheck, ["--ambient", "2", "--map", "z0,z1,z0*z1"], "z0")
        assert code == 0
        # The SVD of A_T (three components by two coordinates) and no other.
        assert shapes and set(shapes) == {(3, 2)}


class TestOperatorNorms:
    """The criterion's norm of ``df`` on the level tangent space is the
    closed form from the 2 x 2 Gram matrix.  ``np.linalg.norm(ord=2)`` meets
    it within relative 9.9e-16 on this corpus, pinned at 2e-15."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(5)
        pairs = []
        for n in (1, 3, 5):  # --ambient 1, 2 and 3
            first = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-8, 8, (500, 1))
            second = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-8, 8, (500, 1))
            pairs.append((first, second))
            pairs.append((first, -2.5 * first))  # parallel rows
            pairs.append((first, np.zeros_like(first)))  # a zero row
            pairs.append((np.zeros_like(first), first))
        # Orthogonal rows of equal norm.
        pairs.append((np.array([[3.0, 4.0, 0.0], [1.0, 0.0, 0.0]]),
                      np.array([[-4.0, 3.0, 0.0], [0.0, 1.0, 0.0]])))
        return pairs

    def test_closed_form_is_the_spectral_norm(self):
        for first, second in self.pairs():
            norms = contact._operator_norms(first, second)
            expected = np.linalg.norm(np.stack((first, second), axis=1), ord=2, axis=(1, 2))
            np.testing.assert_allclose(norms, expected, rtol=2e-15, atol=0.0)

    def test_orthogonal_rows_of_equal_norm(self):
        first = np.array([[3.0, 4.0, 0.0]])
        second = np.array([[-4.0, 3.0, 0.0]])
        assert contact._operator_norms(first, second).tolist() == [5.0]

    def test_criterion_on_the_line(self):
        """``--ambient 1``: the restriction of ``df`` is 2 x 1."""
        f = parse_polynomial("z0 + 0.3*z0^2", 1)
        report = openbook_criterion_check(LINE, f, 0.01, 0.5, 50, seed=0)
        assert report.inside_count == 50 and report.min_df_norm > 0.0


class TestFindings:
    def test_degenerate_tangent_reported(self):
        cusp = SmoothChart(1, (parse_polynomial("z0^2", 1),))
        with pytest.raises(DegenerateTangent):
            eval_forms(cusp, sample_at([0.0], rho=0.0))

    def test_zero_gradient_reported(self):
        chart = SmoothChart(1, (parse_polynomial("z0^2 - z0", 1),))
        with pytest.raises(ZeroGradient):
            eval_forms(chart, sample_at([1.0]))

    @pytest.mark.parametrize(
        "ratio, singular", [(3e-7, True), (3e-6, False)], ids=["3e-7", "3e-6"]
    )
    def test_singular_metric_reported(self, ratio, singular):
        # cond(H) is the squared singular-value ratio of A_T: about 1.1e13
        # and 1.1e11 here, on either side of the 1e12 ceiling.
        squashed = SmoothChart(
            2,
            (
                Polynomial.variable(2, 0),
                Polynomial.from_terms(2, {(0, 1): ratio}),
            ),
        )
        p = sample_at([0.1, 0.1])
        if singular:
            with pytest.raises(SingularMetric):
                eval_forms(squashed, p)
            # The Levi quotient never solves with H, so it still answers.
            assert check_spsh(squashed, p, trials=5) > 0.0
        else:
            eval_forms(squashed, p)

    def test_singular_metric_on_a_wide_chart(self):
        # One component on C^2: A_T is 1 x 2 and H has rank one, although
        # A_T's only singular value passes the rank test.
        wide = SmoothChart(2, (Polynomial.variable(2, 0),))
        with pytest.raises(SingularMetric):
            eval_forms(wide, sample_at([0.1, 0.0]))

    def test_on_binding_reported(self):
        f = parse_polynomial("z0", 2)
        p = sample_at([0.0, 0.1])
        # The list form skips and counts the point instead of raising.
        assert rescaled_reeb_identity(PLANE, f, 1.0, p) == ([], 1)
        with pytest.raises(OnBinding):
            gradient_identity_residuals(PLANE, p, f)


class TestAdaptation:
    def test_already_adapted_function(self):
        f = parse_polynomial("z0", 1)
        report = find_adaptation_constant(LINE, f, 0.01, None, 500, seed=0)
        assert report.c == 0.0
        assert report.verified
        assert report.m == 0.0 and report.k == float("inf")
        assert report.min_dtheta_reeb == pytest.approx(50.0, rel=1e-9)
        assert report.retained == 500
        assert report.to_dict()["k"] is None

    def test_eta_default_is_fraction_of_peak(self):
        f = parse_polynomial("z0", 1)
        report = find_adaptation_constant(LINE, f, 0.01, None, 200, seed=0)
        assert report.eta == pytest.approx(DEFAULT_ETA_FRACTION * 0.01, rel=1e-6)

    def test_weighted_homogeneous_needs_no_rescaling(self):
        f = parse_polynomial("z0^2 + z1^3", 2)
        report = find_adaptation_constant(PLANE, f, 0.01, None, 600, seed=0)
        assert report.min_dtheta_reeb > 0.0
        assert report.c == 0.0
        assert report.verified

    def test_rescaling_fixes_a_stalled_function(self):
        f = parse_polynomial("z0 + z1 - 9 z0^2", 2)
        report = find_adaptation_constant(PLANE, f, 0.01, None, 600, seed=0)
        assert report.min_dtheta_reeb < 0.0  # genuinely needs rescaling
        assert report.c > 0.0
        assert report.verified
        assert report.min_dtheta_rescaled > 0.0

    def test_huge_constant_does_not_overflow(self):
        # A near-vanishing stalled point forces an enormous constant; the
        # report must still come back finite-flagged and verified.
        f = parse_polynomial("z0 - 9 z0^2 + 0.1 z1", 2)
        report = find_adaptation_constant(PLANE, f, 0.01, None, 600, seed=0)
        assert report.c > 0.0
        assert report.verified
        assert report.min_dtheta_rescaled > 0.0

    def test_mesh_validation(self):
        f = parse_polynomial("z0", 1)
        with pytest.raises(InvalidMesh):
            find_adaptation_constant(LINE, f, 0.01, None, 0, seed=0)

    def test_eta_above_peak_rejected(self):
        f = parse_polynomial("z0", 1)
        with pytest.raises(InputError, match="eta"):
            find_adaptation_constant(LINE, f, 0.01, 1.0, 100, seed=0)

    def test_cone_violation_reported(self):
        # On the line every tangent vector is parallel to the gradient, so
        # a function whose argument ever rotates backwards cannot be fixed.
        f = parse_polynomial("z0 - 0.2", 1)
        with pytest.raises(ConeViolation):
            find_adaptation_constant(LINE, f, 0.01, None, 200, seed=0)


class TestRescaledVerification:
    """The block verification of the adaptation search against the loop over
    the points: the same sign at every point, and values and minimum within
    the contract's bound on ``min_dtheta_rescaled``."""

    RTOL = BOUNDS["min_dtheta_rescaled"][1]

    @staticmethod
    def columns(seed):
        rng = np.random.default_rng(seed)
        dtheta_reeb = 100.0 * rng.standard_normal(5000)
        transverse_terms = rng.standard_normal(5000)
        sizes_sq = 10.0 ** rng.uniform(-9.0, -1.0, 5000)
        # base == 0, signed zeros and NaN in each column.
        dtheta_reeb[:40] = [0.0, -0.0] * 20
        transverse_terms[:40:4] = 0.0
        for column in (dtheta_reeb, transverse_terms, sizes_sq):
            column[rng.choice(5000, 25, replace=False)] = math.nan
        return dtheta_reeb, transverse_terms, sizes_sq

    # |f|^2 <= 0.1, so weight = c |f|^2 passes _EXP_CAP only from c = 7090 on.
    @pytest.mark.parametrize("c", [0.0, 1.0, 1e3, 3e5, 1e12, math.inf])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_block_verification_meets_the_loop(self, c, seed):
        dtheta_reeb, transverse_terms, sizes_sq = self.columns(seed)
        got = contact._rescaled_dtheta(c, sizes_sq, dtheta_reeb, transverse_terms)
        expected, minimum = per_point_rescaled_dtheta(
            c, dtheta_reeb, transverse_terms, sizes_sq
        )
        assert (c * sizes_sq > contact._EXP_CAP).any() == (c > 1e5)
        np.testing.assert_array_equal(np.sign(got), np.sign(expected))
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        np.testing.assert_allclose(got, expected, rtol=self.RTOL, atol=0.0, equal_nan=True)
        folded = contact._fold(min, math.inf, got)
        assert math.isclose(folded, minimum, rel_tol=self.RTOL) or folded == minimum


class TestLambdaCone:
    def test_fully_proportional_on_the_line(self):
        f = parse_polynomial("z0", 1)
        samples = sample_points(LINE, 0.01, 50, seed=0)
        report = lambda_cone_check(LINE, f, samples)
        assert report.qualifying == 50
        assert report.skipped_on_binding == 0
        assert report.min_re_lambda == pytest.approx(50.0, rel=1e-9)
        assert report.max_abs_arg_lambda < 1e-12
        assert report.all_positive is True
        assert report.note == ""

    def test_empty_qualifying_set_is_reported_not_failed(self):
        f = parse_polynomial("z0", 2)
        samples = sample_points(PLANE, 0.01, 50, seed=1)
        report = lambda_cone_check(PLANE, f, samples, proportionality_tol=1e-12)
        assert report.qualifying == 0
        assert report.min_re_lambda is None
        assert report.all_positive is None
        assert report.note == "no near-proportional samples"
        assert report.to_dict()["min_re_lambda"] is None


class TestOpenBookCriterion:
    def test_coordinate_function_is_transverse(self):
        f = parse_polynomial("z0", 2)
        report = openbook_criterion_check(PLANE, f, 0.01, 0.0025, 300, seed=0)
        assert not report.first_vacuous and not report.second_vacuous
        assert report.outside_count + report.inside_count >= 300
        assert report.min_dtheta_norm > 0.0
        assert report.min_df_norm > 0.0

    @pytest.mark.parametrize("eta", [0.0025, None])
    def test_cutoff_is_on_the_squared_modulus(self, eta):
        """eta cuts |f|^2, as its default (a fraction of max |f|^2) does."""
        f = parse_polynomial("z0", 2)
        report = openbook_criterion_check(PLANE, f, 0.01, eta, 300, seed=0)
        sizes = [
            abs(f.evaluate(point)) ** 2
            for point in sample_points(PLANE, 0.01, 300, 0).points
        ]
        assert report.outside_count == sum(s >= report.eta for s in sizes)
        assert report.inside_count == sum(s <= report.eta for s in sizes)

    def test_constant_function_fails_transversality(self):
        f = Polynomial.constant(2, 1.0)
        report = openbook_criterion_check(PLANE, f, 0.01, 0.5, 100, seed=0)
        assert report.min_dtheta_norm == 0.0
        assert report.second_vacuous  # nothing lies under the cutoff

    def test_tiny_cutoff_makes_binding_check_vacuous(self):
        f = parse_polynomial("z0", 2)
        report = openbook_criterion_check(PLANE, f, 0.01, 1e-12, 100, seed=0)
        assert report.second_vacuous
        assert report.min_df_norm is None

    def test_one_cutoff_for_adapt_and_criterion(self):
        f = parse_polynomial("z0^2 + z1^3", 2)
        retained = find_adaptation_constant(PLANE, f, 0.01, 1e-5, 400, seed=3).retained
        report = openbook_criterion_check(PLANE, f, 0.01, 1e-5, 400, seed=3)
        assert 0 < retained == report.outside_count < 400

    def test_mesh_memory_is_one_record_and_one_cutoff_array(self):
        """At mesh 10^5 the check peaks at 9.3 MB under tracemalloc: the 4.0
        MB record, 0.8 MB of |f|^2 and block temporaries.  Lists of f and
        |f|^2 over the mesh, and a record held twice, peaked at 21.6 MB."""
        f = parse_polynomial("z0^2 + z1^3", 2)
        openbook_criterion_check(PLANE, f, 0.01, None, 10, seed=0)  # first-call imports
        tracemalloc.start()
        try:
            report = openbook_criterion_check(PLANE, f, 0.01, None, 100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.mesh == 100_000
        assert peak < 15_000_000

    def test_adapt_mesh_memory_is_the_record_and_the_retained_columns(self):
        """At mesh 10^5 the search peaks at 13.9 MB under tracemalloc: the
        record, the cutoff array and block temporaries, as in the criterion,
        and five retained columns of 0.8 MB each.  Columns joined by
        np.concatenate and verified from lists peaked at 25.6 MB."""
        f = parse_polynomial("z0^2 + z1^3", 2)
        find_adaptation_constant(PLANE, f, 0.01, None, 10, seed=0)  # first-call imports
        tracemalloc.start()
        try:
            report = find_adaptation_constant(PLANE, f, 0.01, None, 100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verified and report.retained > 99_000
        assert peak < 15_000_000

    def test_mesh_validation(self):
        f = parse_polynomial("z0", 2)
        with pytest.raises(InvalidMesh):
            openbook_criterion_check(PLANE, f, 0.01, None, 0, seed=0)
        with pytest.raises(InputError):
            openbook_criterion_check(PLANE, Polynomial.constant(2, 0.0), 0.01, None, 10, seed=0)


# The polynomials the binding band is measured on: the benchmark's f, a
# Brieskorn germ, and two with complex coefficients and exponents up to 13.
BINDING_POLYNOMIALS = {
    text: parse_polynomial(text, n)
    for text, n in (
        ("z0^2 + z1^3", 2),
        ("z0^2 + z1^3 + z2^5", 3),
        ("z0 + z0^13 + (0.5-2i)*z0*z1", 2),
        ("z0^3 + 2.5*z1^7 - (1+1i)*z0^5*z1^4 + z1^13", 2),
    )
}
BINDING_LEVELS = (1e-6, 0.01, 1.0, 30.0)


def binding_block(values, levels) -> contact._Block:
    """A block holding only what ``on_binding`` reads: the values of ``f``
    and the sample levels."""
    block = contact._Block.__new__(contact._Block)
    k = len(levels)
    block.samples = Samples(np.zeros((k, 1), complex), np.ones((k, 1, 1), complex), levels)
    block.values = np.asarray(values, dtype=complex)
    block.failures = {}
    return block


def python_results(scalar, *args):
    """``scalar`` at each row of ``args`` as Python computes it, 0.0 where
    it raises OverflowError, and the mask of the rows where it raises."""
    results, raised = [], []
    for row in zip(*(arg.tolist() for arg in args)):
        try:
            results.append(scalar(*row))
            raised.append(False)
        except OverflowError:
            results.append(0.0)
            raised.append(True)
    return np.array(results), np.array(raised)


class TestBlockRoundsAsPython:
    """The block binding decision and ``|f|^2`` rest on two facts of the
    installed NumPy: ``np.float_power`` and ``np.hypot`` call libm's
    ``pow`` and ``hypot``, as Python's float ``**`` and ``abs(complex)`` do.
    A NumPy that moves either onto its own SIMD loops fails here."""

    @staticmethod
    def magnitudes():
        rng = np.random.default_rng(0)
        spread = 10.0 ** rng.uniform(-320.0, 308.0, 20_000) * rng.uniform(1.0, 1.75, 20_000)
        near_max = sys.float_info.max * rng.uniform(0.3, 1.0, 2_000)
        special = [0.0, -0.0, math.inf, math.nan, 5e-324, sys.float_info.max, 1.0]
        return np.concatenate([special, spread, near_max])

    @pytest.mark.parametrize("d", [*range(14), 40])
    def test_float_power_is_python_power(self, d):
        x = self.magnitudes()
        with np.errstate(all="ignore"):
            powers = np.float_power(x, d)
        expected, raised = python_results(lambda r: r ** d, x)
        np.testing.assert_array_equal(np.isinf(powers) & np.isfinite(x), raised)
        assert powers[~raised].tobytes() == expected[~raised].tobytes()
        assert d < 2 or raised.any()

    def test_hypot_is_python_abs(self):
        x = self.magnitudes()
        rng = np.random.default_rng(1)
        re, im = rng.choice(x, 60_000), rng.choice(x, 60_000)
        re *= rng.choice([1.0, -1.0], 60_000)
        with np.errstate(all="ignore"):
            sizes = np.hypot(re, im)
        expected, raised = python_results(lambda a, b: abs(complex(a, b)), re, im)
        np.testing.assert_array_equal(np.isinf(sizes) & np.isfinite(re) & np.isfinite(im), raised)
        assert sizes[~raised].tobytes() == expected[~raised].tobytes()
        assert raised.any()


class TestBindingBand:
    """``_Block.on_binding`` decides once on the block; its decisions are
    those of ``_on_binding`` row by row, also a few ulps from the
    threshold."""

    @staticmethod
    def assert_decisions_match(f, values, levels):
        decided = binding_block(values, levels).on_binding(f, np.arange(len(levels)), True)
        expected = [
            contact._on_binding(f, value, level)
            for value, level in zip(values.tolist(), levels.tolist())
        ]
        assert decided.tolist() == expected
        assert 0 < sum(expected) < len(expected)

    @staticmethod
    def thresholds(f, levels):
        return np.array([
            contact._ZERO_TOLERANCE * max(f.magnitude_bound(math.sqrt(level)), 1e-300)
            for level in levels.tolist()
        ])

    # A coefficient of 1e305 puts the bounds within two decades of the
    # float maximum at the larger levels.
    @pytest.mark.parametrize(
        "text", [*BINDING_POLYNOMIALS, "1e305*z0^2 + z1"], ids=lambda text: text
    )
    def test_values_ulps_from_the_threshold(self, text):
        f = BINDING_POLYNOMIALS.get(text) or parse_polynomial(text, 2)
        rng = np.random.default_rng(0)
        levels = np.concatenate([level * rng.uniform(0.5, 2.0, 50) for level in BINDING_LEVELS])
        steps = 1.0 + np.arange(-4, 5) * 2.0**-52
        sizes = np.outer(self.thresholds(f, levels), steps).ravel()
        phases = np.resize(np.array([1.0, -1.0, 1j, -1j]), sizes.size)
        self.assert_decisions_match(f, sizes * phases, np.repeat(levels, len(steps)))

    @pytest.mark.parametrize("text", BINDING_POLYNOMIALS)
    def test_random_levels(self, text):
        f = BINDING_POLYNOMIALS[text]
        rng = np.random.default_rng(1)
        levels = 10.0 ** rng.uniform(-7.0, 2.0, 4000)
        sizes = self.thresholds(f, levels) * 10.0 ** rng.uniform(-1.0, 1.0, 4000)
        sizes[::7] = self.thresholds(f, levels[::7])
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4000))
        self.assert_decisions_match(f, sizes * phases, levels)

    def test_block_bounds_are_the_scalar_bounds(self):
        rng = np.random.default_rng(2)
        for f in BINDING_POLYNOMIALS.values():
            for level in BINDING_LEVELS:
                radii = math.sqrt(level) * (1.0 + 1e-3 * rng.standard_normal(5000))
                bounds, overflow = contact._magnitude_bounds(f, radii)
                scalar = np.array([f.magnitude_bound(r) for r in radii.tolist()])
                assert bounds.tobytes() == scalar.tobytes()
                assert not overflow.any()

    def test_an_infinite_bound_is_an_overflow(self):
        """Finite products whose sum is infinite: the block rule flags the
        radii where the scalar bound raises, and agrees elsewhere."""
        f = parse_polynomial("1e308 z0^2 + 1e308 z1", 2)
        radii = np.array([0.25, 0.5, 1.0, 1.2, 2.0])
        with np.errstate(all="ignore"):  # as the block rule calls it
            bounds, overflow = contact._magnitude_bounds(f, radii)
        assert overflow.tolist() == [False, False, True, True, True]
        for radius, bound in zip(radii[:2].tolist(), bounds[:2].tolist()):
            assert bound == f.magnitude_bound(radius)
        for radius in radii[2:].tolist():
            with pytest.raises(OverflowError):
                f.magnitude_bound(radius)

    def test_mesh_criterion_calls_no_scalar_rule(self):
        calls = []
        scalar = contact._on_binding

        def counting(*args):
            calls.append(args)
            return scalar(*args)

        f = parse_polynomial("z0^2 + z1^3", 2)
        with patch.object(contact, "_on_binding", counting):
            report = openbook_criterion_check(PLANE, f, 0.01, None, 10_000, seed=0)
        assert report.outside_count > 9_000
        assert calls == []
