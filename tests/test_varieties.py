"""Level-set sampling on charts and hypersurfaces."""

import tracemalloc
from fractions import Fraction
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest

import milnorbook.varieties as varieties
from milnorbook import (
    Hypersurface,
    Polynomial,
    SmoothChart,
    parse_polynomial,
    sample_points,
)
from milnorbook.errors import InputError, SamplingFailed
from milnorbook.polynomials import parse_map
from oracles import (
    _radial_profile,
    _real_jacobian,
    _solve_radial,
    bisect_radial,
    gauss_newton_step,
    per_draw_chart_samples,
    per_draw_hypersurface_samples,
)

polyval = np.polynomial.polynomial.polyval

BRIESKORN = Hypersurface(parse_polynomial("z0^2 + z1^3 + z2^5", 3))

# Identity charts of C^1..C^3, the two maps of the benchmark's chart jobs,
# and a map of degree 5 with complex coefficients.
REFERENCE_CHARTS = {f"C{dim}": SmoothChart.identity(dim) for dim in (1, 2, 3)}
REFERENCE_CHARTS.update(
    (text, SmoothChart(2, parse_map(text, 2)))
    for text in (
        "z0,z1,z0*z1",
        "z0,z1,z0^2 + z1^3",
        "z0 + (0.3+1.7i)*z0^2*z1^2, z1 - (2.5-0.5i)*z1^4 + z0^3",
        "z0 + z0^13, z1 + (0.5-2i)*z0*z1",
    )
)

# Brieskorn, E7, the germ in four variables, the node, and a germ with
# complex coefficients.
REFERENCE_HYPERSURFACES = {
    text: Hypersurface(parse_polynomial(text, n))
    for text, n in (
        ("z0^2 + z1^3 + z2^5", 3),
        ("z0^2 + z1^3 + z1*z2^3", 3),
        ("z0^2 + z1^2 + z2^2 + z3^3", 4),
        ("z0 z1", 2),
        ("(0.5+1.5i)*z0^2 + z1^3 - (2-1i)*z0*z2^4 + (0+1i)*z2^3", 3),
    )
}


def rho(v, point) -> float:
    """``sum |phi_k|^2`` at ``point``, from the model's one-row block."""
    values, _ = v.phi_block(np.asarray(point)[None])
    return float(np.sum(np.abs(values[0]) ** 2))


def defining_row(surface, point) -> np.ndarray:
    """``h`` and its gradient at ``point``, from the model's one-row block
    (which holds the gradient first)."""
    values = surface._system_block.evaluate(np.asarray(point)[None])[0]
    return np.roll(values, 1)


@lru_cache(maxsize=None)
def _hypersurface_reference(text: str, epsilon: float, seed: int):
    surface = REFERENCE_HYPERSURFACES[text]
    return per_draw_hypersurface_samples(surface, epsilon, 40, seed)


class TestModels:
    def test_identity_chart(self):
        chart = SmoothChart.identity(2)
        assert chart.ambient_dim == 2 and chart.target_dim == 2
        point = np.array([1 + 1j, 2.0])
        values, jacobians = chart.phi_block(point[None])
        assert np.allclose(values[0], point)
        assert np.allclose(jacobians[0], np.eye(2))
        assert rho(chart, point) == pytest.approx(6.0)

    def test_chart_block_shapes(self):
        chart = SmoothChart(2, parse_map("z0,z1,z0^2 + z1^3", 2))
        points = np.array([[1.0, 2.0], [0.5j, -1.0]])
        values, jacobians = chart.phi_block(points)
        assert values.shape == (2, 3) and jacobians.shape == (2, 3, 2)
        assert np.allclose(values[1], [0.5j, -1.0, -0.25 - 1.0])
        assert np.allclose(jacobians[0], [[1, 0], [0, 1], [2.0, 12.0]])
        values, jacobians = chart.phi_block(np.empty((0, 2), dtype=complex))
        assert values.shape == (0, 3) and jacobians.shape == (0, 3, 2)

    def test_chart_dimension_checks(self):
        with pytest.raises(InputError):
            SmoothChart(0, ())
        with pytest.raises(InputError):
            SmoothChart(1, ())
        with pytest.raises(InputError, match="variables"):
            SmoothChart(1, (parse_polynomial("z0 + z1", 2),))

    def test_chart_must_send_origin_to_origin(self):
        with pytest.raises(InputError, match="origin"):
            SmoothChart(1, (parse_polynomial("z0 + 1", 1),))

    def test_hypersurface_validation(self):
        with pytest.raises(InputError, match="two variables"):
            Hypersurface(parse_polynomial("z0^2", 1))
        with pytest.raises(InputError, match="nonconstant"):
            Hypersurface(parse_polynomial("0", 2))
        with pytest.raises(InputError, match="origin"):
            Hypersurface(parse_polynomial("z0 z1 + 1", 2))

    def test_hypersurface_geometry(self):
        point = np.array([1.0, 2.0, 0.5 + 0j])
        row = defining_row(BRIESKORN, point)
        assert row[0] == pytest.approx(1 + 8 + 0.5**5)
        assert np.allclose(row[1:], [2.0, 12.0, 5 * 0.5**4])
        assert BRIESKORN.defining_scale(0.01) > 0

    def test_hypersurface_tangent_basis_spans_kernel(self):
        point = np.array([0.3 + 0.1j, -0.2, 0.5j])
        gradient = defining_row(BRIESKORN, point)[1:]
        basis = varieties._kernel_bases(gradient[None])[0]
        assert basis.shape == (3, 2)
        assert np.max(np.abs(gradient @ basis)) < 1e-14
        assert np.allclose(basis.conj().T @ basis, np.eye(2))

    def test_reprs_are_readable(self):
        assert "z0^2" in repr(BRIESKORN)
        assert "SmoothChart" in repr(SmoothChart.identity(1))


class TestIdentityBases:
    """Identity bases are built once per model, shared and read-only."""

    def test_chart_tangent_basis_is_shared(self):
        chart = SmoothChart.identity(2)
        bases = sample_points(chart, 0.01, 5000, seed=0).bases
        # One identity per chart, broadcast over the samples: no copies.
        assert bases.shape == (5000, 2, 2) and bases.strides[0] == 0
        assert np.shares_memory(bases, chart._identity)
        assert np.array_equal(bases[0], np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            bases[0, 0, 0] = 2.0

    def test_coordinate_charts_build_no_jacobian_block(self):
        # phi_block broadcasts the identity there and never reads one.
        assert not hasattr(SmoothChart.identity(3), "_jacobian_block")
        assert hasattr(REFERENCE_CHARTS["z0,z1,z0*z1"], "_jacobian_block")

    def test_hypersurface_jacobian_is_shared(self):
        samples = sample_points(BRIESKORN, 0.01, 2, seed=0)
        points, jacobians = BRIESKORN.phi_block(samples.points)
        assert np.array_equal(points, samples.points)
        # One identity per hypersurface, broadcast over the block: no copies.
        assert jacobians.strides[0] == 0
        assert np.shares_memory(jacobians, BRIESKORN.phi_block(samples.points[:1])[1])
        jacobian = jacobians[0]
        assert np.array_equal(jacobian, np.eye(3))
        with pytest.raises(ValueError, match="read-only"):
            jacobian[0, 0] = 2.0


class TestRecord:
    """Samples are one record of stacked arrays, sliced into records."""

    def test_record_holds_no_per_sample_objects(self):
        """20,000 plane samples are 0.8 MB of arrays (points and level
        values; the bases are one broadcast identity).  One object per
        sample held about 5.4 MB."""
        chart = SmoothChart.identity(2)
        sample_points(chart, 0.01, 10, seed=0)  # first-call imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples = sample_points(chart, 0.01, 20000, seed=0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(samples) == 20000
        assert held < 2_000_000

    def test_record_is_filled_in_place(self):
        """Sampling 10^5 plane points peaks at 5.8 MB under tracemalloc, near
        the 4.0 MB record.  Keeping every block for one concatenation at the
        end held the record twice and peaked at 8.1 MB."""
        chart = SmoothChart.identity(2)
        sample_points(chart, 0.01, 10, seed=0)  # first-call imports
        tracemalloc.start()
        try:
            samples = sample_points(chart, 0.01, 100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == 100_000
        assert peak < 7_000_000

    def test_slices_are_records(self):
        samples = sample_points(BRIESKORN, 0.01, 10, seed=0)
        row = samples[3:4]
        assert isinstance(row, varieties.Samples) and len(row) == 1
        assert row.points.shape == (1, 3) and row.bases.shape == (1, 3, 2)
        assert row.rho_values.tobytes() == samples.rho_values[3:4].tobytes()
        with pytest.raises(TypeError, match="slices"):
            samples[3]


class TestChartSampling:
    def test_points_land_on_the_level(self):
        chart = SmoothChart.identity(2)
        epsilon = 0.01
        samples = sample_points(chart, epsilon, 200, seed=0)
        assert len(samples) == 200
        assert samples.bases.shape == (200, 2, 2)
        for point, rho_value in zip(samples.points, samples.rho_values):
            assert abs(rho(chart, point) - epsilon) <= 1e-10 * epsilon
            assert rho_value == pytest.approx(epsilon, rel=1e-9)

    def test_nonlinear_chart_levels(self):
        chart = SmoothChart(1, (parse_polynomial("z0^2 + z0", 1),))
        epsilon = 0.25
        for point in sample_points(chart, epsilon, 50, seed=1).points:
            assert abs(rho(chart, point) - epsilon) <= 1e-10 * epsilon

    def test_deterministic_for_fixed_seed(self):
        chart = SmoothChart.identity(3)
        a = sample_points(chart, 0.01, 25, seed=7)
        b = sample_points(chart, 0.01, 25, seed=7)
        assert np.array_equal(a.points, b.points)
        c = sample_points(chart, 0.01, 25, seed=8)
        assert not np.array_equal(a.points[0], c.points[0])

    @pytest.mark.parametrize(
        "chart", [REFERENCE_CHARTS["C2"], REFERENCE_CHARTS["z0,z1,z0^2 + z1^3"]],
        ids=["plane", "benchmark-map"],
    )
    @pytest.mark.parametrize("epsilon", [1e-60, 1e-100])
    def test_small_levels_are_bracketed_from_above(self, chart, epsilon):
        # The root sqrt(epsilon) lies below 2^-80, which 80 bisections from
        # [0, 1] cannot resolve; halving the top brackets it.
        samples = sample_points(chart, epsilon, 40, seed=2)
        assert len(samples) == 40
        for point, rho_value in zip(samples.points, samples.rho_values):
            assert abs(rho(chart, point) - epsilon) <= 1e-10 * epsilon
            assert abs(rho_value - epsilon) <= 1e-10 * epsilon


def late_samples(chart, points, epsilon) -> int:
    """Samples ``t d`` whose ray meets the level before them: ``rho`` on a
    grid of 1000 points of ``(0, 0.999 t]`` along ``d`` is not all below
    ``epsilon``."""
    grid = np.linspace(0.0, 0.999, 1001)[1:]
    rays = (grid[None, :, None] * points[:, None, :]).reshape(-1, chart.dim)
    rho_values = np.sum(np.abs(chart.phi_block(rays)[0]) ** 2, axis=1)
    return int(np.sum(~(rho_values.reshape(len(points), -1) < epsilon).all(axis=1)))


class TestFirstCrossing:
    """On a profile that is not monotone the sampler returns the smallest
    crossing of the level, on the Milnor sphere, not a far crossing near
    ``|z| = 1``, which a bracket search from ``t = 1`` finds on these
    charts."""

    @pytest.mark.parametrize("text", ["z0 - z0^2", "z0 - z0^3", "z0^2 - z0^3"])
    def test_samples_are_the_first_crossing_on_their_ray(self, text):
        chart = SmoothChart(1, (parse_polynomial(text, 1),))
        samples = sample_points(chart, 0.01, 200, seed=0)
        assert late_samples(chart, samples.points, 0.01) == 0

    def test_samples_stay_near_the_milnor_sphere(self):
        # The smallest root reaches 0.1127, where t (1 - t) = 0.1 at Re u = 1.
        chart = SmoothChart(1, (parse_polynomial("z0 - z0^2", 1),))
        samples = sample_points(chart, 0.01, 200, seed=0)
        assert np.abs(samples.points).max() <= 0.1128


class TestBlockSolve:
    """The chart sampler solves blocks of draws at once; it must return
    exactly the bits of the per-draw scalar solve in ``tests/oracles.py``."""

    @pytest.mark.parametrize(
        "block", [varieties._DRAWS_PER_BLOCK, 7, 1], ids=["default", "7", "1"]
    )
    @pytest.mark.parametrize("epsilon", [1e-6, 0.01, 1.0])
    def test_samples_match_per_draw_reference(self, block, epsilon):
        for seed, chart in enumerate(REFERENCE_CHARTS.values()):
            reference = per_draw_chart_samples(chart, epsilon, 60, seed)
            with patch.object(varieties, "_DRAWS_PER_BLOCK", block):
                samples = sample_points(chart, epsilon, 60, seed)
            assert len(samples) == len(reference)
            points, rho_values = zip(*reference)
            assert samples.points.tobytes() == np.array(points).tobytes()
            assert samples.rho_values.tobytes() == np.array(rho_values).tobytes()

    @pytest.mark.parametrize("name", REFERENCE_CHARTS)
    def test_profiles_match_per_draw_reference(self, name):
        """Bit for bit, so a profile built from complex array products or
        ``array ** k`` (both round differently from the scalar products)
        fails here even where the root-find happens to absorb the drift."""
        chart = REFERENCE_CHARTS[name]
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((200, chart.dim)) + 1j * rng.standard_normal(
            (200, chart.dim)
        )
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        profiles = varieties._radial_profiles(chart, directions)
        for profile, direction in zip(profiles, directions):
            assert profile.tobytes() == _radial_profile(chart, direction).tobytes()


# A component of degree 40 and one of degree 23: 81 lags, long overlaps.
HIGH_DEGREE_CHART = SmoothChart(2, parse_map(
    "z0 + (1.5-0.25i)*z0^20*z1^20 + z1^7*z0^3, z1 + 3*z0^20 - (0.1+2i)*z1^23, z0*z1",
    2,
))


def unit_directions(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def signed_zero_directions(count: int, seed: int) -> np.ndarray:
    """Directions in ``C^2`` where four rows in five have a ``0.0`` or
    ``-0.0`` coordinate, real part or imaginary part."""
    directions = unit_directions(count, seed)
    directions[0::5, 0] = 0.0
    directions[1::5, 1] = -0.0
    directions.real[2::5, 0] = -0.0
    directions.imag[3::5, 1] = -0.0
    directions[3::10, 0] = complex(-0.0, -0.0)
    return directions


class TestRadialSolve:
    """The chart sampler's two block steps, against the per-draw oracles:
    the autocorrelation profile and the radial root-find."""

    @pytest.mark.parametrize(
        "chart",
        [
            HIGH_DEGREE_CHART,
            REFERENCE_CHARTS["z0,z1,z0^2 + z1^3"],
            SmoothChart(2, parse_map("z0 + z0^100, z1", 2)),
        ],
        ids=["degree-40", "benchmark-map", "exponent-100"],
    )
    def test_profiles_match_with_signed_zeros(self, chart):
        directions = signed_zero_directions(400, 3)
        profiles = varieties._radial_profiles(chart, directions)
        for profile, direction in zip(profiles, directions):
            assert profile.tobytes() == _radial_profile(chart, direction).tobytes()

    def test_profiles_do_not_call_convolve(self):
        def refuse(*args, **kwargs):
            raise AssertionError("np.convolve called")

        directions = signed_zero_directions(50, 4)
        with patch.object(np, "convolve", refuse):
            profiles = varieties._radial_profiles(HIGH_DEGREE_CHART, directions)
        assert profiles.shape == (50, 81)

    @staticmethod
    def profiles() -> np.ndarray:
        """Chart profiles, and rows that need the bracket doubled, have none,
        or overflow to inf (a NaN value counts as past the level)."""
        chart = REFERENCE_CHARTS["z0 + z0^13, z1 + (0.5-2i)*z0*z1"]
        charted = varieties._radial_profiles(chart, signed_zero_directions(200, 5))
        special = np.zeros((6, charted.shape[1]))
        special[0, 2] = 1e-8  # the bracket is doubled 4 to 16 times
        special[1, 4] = 1e-30
        special[2, 26] = 1e-300
        special[4, 1:4] = 1e308  # 1e308 (t + t^2 + t^3) overflows at t = 1
        special[5, 3] = np.inf  # inf at every t > 0, NaN-free
        return np.concatenate([charted, special])

    @staticmethod
    def per_draw_roots(find, profiles, epsilon) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            roots = [find(profile, epsilon) for profile in profiles]
        return np.array([np.nan if t is None else t for t in roots])

    @pytest.mark.parametrize("epsilon", [1e-6, 0.01, 30.0])
    def test_roots_match_the_per_draw_root_find(self, epsilon):
        profiles = self.profiles()
        roots = varieties._radial_roots(profiles, epsilon)
        assert np.isnan(roots[-3])  # the all-zero profile has no bracket
        expected = self.per_draw_roots(_solve_radial, profiles, epsilon)
        assert roots.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("epsilon", [1e-6, 0.01, 30.0])
    def test_roots_agree_with_the_fixed_step_bisection(self, epsilon):
        """The safeguarded Newton loop accepts the rows the former
        bisection accepted, at roots within 4 ulp of its roots, and no other
        row but ``1e308 (t + t^2 + t^3)``: it overflows at ``t = 1``, where
        the bisection starts, so only the start at its leading term's root
        ``epsilon / 1e308`` solves it."""
        profiles = self.profiles()
        roots = varieties._radial_roots(profiles, epsilon)
        bisected = self.per_draw_roots(bisect_radial, profiles, epsilon)

        def accepted(ts):
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.array([polyval(t, p) for t, p in zip(ts, profiles)])
            return np.abs(values - epsilon) <= varieties._LEVEL_TOLERANCE * epsilon

        rows, solved = accepted(roots), accepted(bisected)
        assert solved.sum() > 200
        overflowing = len(profiles) - 2
        assert not solved[overflowing]
        # At 1e-6 its root, 1e-314, is subnormal: too coarse for the level test.
        assert rows[overflowing] == (epsilon > 1e-6)
        rows[overflowing] = False
        assert np.array_equal(rows, solved)
        assert np.all(np.abs(roots - bisected)[rows] <= 4 * np.spacing(bisected[rows]))

    @staticmethod
    def count_block_evaluations(profiles, epsilon) -> tuple[np.ndarray, int]:
        calls = []

        def counting_polyval(*args, **kwargs):
            calls.append(None)
            return polyval(*args, **kwargs)

        with patch.object(np.polynomial.polynomial, "polyval", counting_polyval):
            roots = varieties._radial_roots(profiles, epsilon)
        return roots, len(calls)

    def test_root_find_makes_at_most_10_block_evaluations(self):
        # Each profile starts at the root of its lowest-order term t^2; the
        # bracket search takes two or three probes, and every round of the
        # Newton loop evaluates the profile and its derivative.
        profiles = varieties._radial_profiles(
            REFERENCE_CHARTS["z0,z1,z0^2 + z1^3"], unit_directions(300, 6)
        )
        roots, calls = self.count_block_evaluations(profiles, 0.01)
        assert calls <= 10
        assert roots.tolist() == [_solve_radial(profile, 0.01) for profile in profiles]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("epsilon", [1e-6, 0.01, 1.0])
    def test_identity_charts_take_4_block_evaluations(self, dim, epsilon):
        # The profile |d|^2 t^2 has the root of its leading term as its root:
        # two probes bracket it, and one Newton round stops there.
        rng = np.random.default_rng(dim)
        raw = rng.standard_normal((300, dim)) + 1j * rng.standard_normal((300, dim))
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        profiles = varieties._radial_profiles(SmoothChart.identity(dim), directions)
        roots, calls = self.count_block_evaluations(profiles, epsilon)
        assert calls == 4
        assert roots.tolist() == [_solve_radial(profile, epsilon) for profile in profiles]


class TestHypersurfaceBlockSolve:
    """The hypersurface sampler runs Gauss–Newton on blocks of draws; it
    must return exactly the bits of the per-draw solve in
    ``tests/oracles.py``: point, tangent basis and level value."""

    @pytest.mark.parametrize(
        "block", [varieties._DRAWS_PER_BLOCK, 7, 1], ids=["default", "7", "1"]
    )
    @pytest.mark.parametrize("epsilon", [1e-6, 0.01, 1.0])
    def test_samples_match_per_draw_reference(self, block, epsilon):
        for seed, text in enumerate(REFERENCE_HYPERSURFACES):
            reference = _hypersurface_reference(text, epsilon, seed)
            surface = REFERENCE_HYPERSURFACES[text]
            with patch.object(varieties, "_DRAWS_PER_BLOCK", block):
                samples = sample_points(surface, epsilon, 40, seed)
            assert len(samples) == len(reference)
            points, bases, rho_values = zip(*reference)
            assert samples.points.tobytes() == np.array(points).tobytes()
            assert samples.bases.tobytes() == np.array(bases).tobytes()
            # tobytes ignores the layout; the products on the bases do not.
            assert samples.bases.swapaxes(1, 2).flags.c_contiguous
            assert samples.rho_values.tobytes() == np.array(rho_values).tobytes()


class TestLineSearchStop:
    """A draw whose line search rejects every factor from 1 down to 2^-19
    leaves the Gauss–Newton loop there, in the block as in the per-draw
    oracle (``while factor > 1e-6``).  On ``z0 z1`` at seed 3 one such draw
    occurs at every level tried."""

    @staticmethod
    def exhausted_draws(surface, epsilon, seed):
        """Samples of the block sampler, and how many of its draws rejected
        every factor of a line search.  The line search is replayed from the
        measures the step takes: each round's measure of the live draws,
        whose draws above ``_NEWTON_TOLERANCE`` take a step, then one
        measure per batch of pending trials, until no draw is pending or 20
        factors are spent; the call after that is the next round's measure,
        or the acceptance test."""
        measures, rounds = [], []
        steps, measure = varieties._gauss_newton_steps, varieties._scaled_residuals

        def mark_round(z, *args):
            # The round's measure is the last call; its trials come next.
            rounds.append((len(measures), len(z)))
            return steps(z, *args)

        def record(*args):
            measures.append(measure(*args))
            return measures[-1]

        with patch.object(varieties, "_gauss_newton_steps", mark_round), \
                patch.object(varieties, "_scaled_residuals", record):
            samples = sample_points(surface, epsilon, 40, seed)
        exhausted = 0
        for start, live in rounds:
            size = measures[start - 1]
            size = size[~(size <= varieties._NEWTON_TOLERANCE)]
            assert len(size) == live
            pending = np.arange(live)
            trials = measures[start : start + 20]
            for spent, trial in enumerate(trials, 1):
                assert len(trial) == pending.size
                pending = pending[~(trial < size[pending])]
                if not pending.size:
                    break
            if pending.size:
                # Every factor from 1 down to 2^-19 was tried and rejected.
                assert spent == 20
                exhausted += pending.size
        return samples, exhausted

    @pytest.mark.parametrize(
        "block", [varieties._DRAWS_PER_BLOCK, 7], ids=["default", "7"]
    )
    @pytest.mark.parametrize("epsilon", [1e-6, 0.01, 1.0])
    def test_exhausted_draws_match_per_draw_reference(self, block, epsilon):
        surface = REFERENCE_HYPERSURFACES["z0 z1"]
        with patch.object(varieties, "_DRAWS_PER_BLOCK", block):
            samples, exhausted = self.exhausted_draws(surface, epsilon, seed=3)
        assert exhausted >= 1
        reference = _hypersurface_reference("z0 z1", epsilon, 3)
        points, bases, rho_values = zip(*reference)
        assert samples.points.tobytes() == np.array(points).tobytes()
        assert samples.bases.tobytes() == np.array(bases).tobytes()
        assert samples.rho_values.tobytes() == np.array(rho_values).tobytes()


def sampler_systems(n: int, count: int, seed: int, epsilon: float = 0.01):
    """Rows ``(z, residual, gradient)`` shaped like the sampler's: ``z`` on
    the sphere ``|z|^2 = epsilon``, gradients over six decades, residuals
    from 1e-12 to 1e-2, and a rank margin ``|z_perp|^2 / |z|^2`` spread
    log-uniformly from 1 down to 1.26e-6, just above ``_RANK_MARGIN``."""
    rng = np.random.default_rng(seed)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    gradient = complex_normal(count, n) * 10.0 ** rng.uniform(-3, 3, (count, 1))
    along = gradient.conj() / np.linalg.norm(gradient, axis=1)[:, None]
    across = complex_normal(count, n)
    across -= np.sum(along.conj() * across, axis=1)[:, None] * along
    across /= np.linalg.norm(across, axis=1)[:, None]
    margin = 10.0 ** rng.uniform(-5.9, 0, (count, 1))
    phase = np.exp(2j * np.pi * rng.uniform(size=(count, 1)))
    z = np.sqrt(epsilon) * (
        np.sqrt(1 - margin) * phase * along + np.sqrt(margin) * across
    )
    residual = rng.standard_normal((count, 3))
    residual *= 10.0 ** rng.uniform(-12, -2, (count, 3))
    return z, residual, gradient


def real_jacobians(z, gradient) -> np.ndarray:
    return np.array([_real_jacobian(row, g) for row, g in zip(z, gradient)])


def per_system_lstsq(z, residual, gradient) -> np.ndarray:
    jacobians = real_jacobians(z, gradient)
    return np.array(
        [np.linalg.lstsq(a, -b, rcond=None)[0] for a, b in zip(jacobians, residual)]
    )


def real_parts(steps) -> np.ndarray:
    """Complex steps as the real solutions ``(dx, dy)``, bit for bit."""
    return np.concatenate((steps.real, steps.imag), axis=1)


def exact_minimum_norm_step(jacobian, residual) -> np.ndarray:
    """``J^T (J J^T)^{-1} (-r)`` in rational arithmetic, rounded once."""
    rows = [[Fraction(float(x)) for x in row] for row in jacobian]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    system = [gram[i] + [-Fraction(float(residual[i]))] for i in range(3)]
    for c in range(3):
        pivot = next(i for i in range(c, 3) if system[i][c] != 0)
        system[c], system[pivot] = system[pivot], system[c]
        for i in range(3):
            if i != c:
                ratio = system[i][c] / system[c][c]
                system[i] = [a - ratio * b for a, b in zip(system[i], system[c])]
    y = [system[i][3] / system[i][i] for i in range(3)]
    return np.array([float(sum(y[i] * rows[i][k] for i in range(3)))
                     for k in range(len(rows[0]))])


class TestClosedFormSteps:
    """The Gauss–Newton steps are a closed form on the block; the rows too
    close to rank deficiency, with ``|g|^2`` outside the normal range or with
    a step that is not finite take it again, rescaled, and those alone."""

    # Both routes are measured within 5e-13 of the exact step on these
    # systems (margins down to 1.26e-6 cost about three digits).
    BOUND = 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_form_meets_per_system_lstsq(self, n):
        z, residual, gradient = sampler_systems(n, 3000, seed=n)
        steps = real_parts(varieties._gauss_newton_steps(z, residual, gradient))
        expected = per_system_lstsq(z, residual, gradient)
        error = np.linalg.norm(steps - expected, axis=1)
        assert np.all(error <= self.BOUND * np.linalg.norm(expected, axis=1))

    def test_closed_form_meets_the_exact_step(self):
        for n in (2, 3, 4):
            z, residual, gradient = sampler_systems(n, 40, seed=10 + n)
            steps = real_parts(varieties._gauss_newton_steps(z, residual, gradient))
            jacobians = real_jacobians(z, gradient)
            for step, jacobian, r in zip(steps, jacobians, residual):
                exact = exact_minimum_norm_step(jacobian, r)
                assert np.linalg.norm(step - exact) <= 1e-12 * np.linalg.norm(exact)

    def solve_with_special_rows(self, z, residual, gradient, special):
        """Steps of ordinary sampler rows with the given rows put at
        ``special``: the ordinary rows keep the bits they have alone, and
        every row has the values of the per-draw oracle, which takes the
        same branches (its real products may give a zero the other sign)."""
        steps = varieties._gauss_newton_steps(z, residual, gradient)
        ordinary = np.setdiff1d(np.arange(len(z)), special)
        alone = varieties._gauss_newton_steps(
            z[ordinary], residual[ordinary], gradient[ordinary]
        )
        assert steps[ordinary].tobytes() == alone.tobytes()
        per_draw = [gauss_newton_step(*row) for row in zip(z, residual, gradient)]
        assert np.array_equal(steps, per_draw, equal_nan=True)
        return steps

    @pytest.mark.parametrize("epsilon", [1e-6, 0.01, 1.0])
    def test_rows_along_the_conjugate_gradient_take_the_gufunc(self, epsilon):
        """``h = z0^2 + z1^2`` at ``z = (e^{i t} sqrt(epsilon), 0)``: ``g = 2 z``
        and ``z = e^{2 i t} conj(g) / 2``, so ``J`` has rank two and the step
        is exactly ``-(h / |g|^2) conj(g)``, which solves the ``h`` rows."""
        surface = Hypersurface(parse_polynomial("z0^2 + z1^2", 2))
        z, residual, gradient = sampler_systems(2, 30, seed=7, epsilon=epsilon)
        special = np.array([0, 4, 11, 29])
        angles = np.array([0.0, 0.5, 2.0, np.pi])
        z[special] = np.stack(
            [np.sqrt(epsilon) * np.exp(1j * angles), np.zeros(4)], axis=1
        )
        values = surface._system_block.evaluate(z[special])
        residual[special] = np.stack(
            [values[:, -1].real, values[:, -1].imag,
             np.sum(np.abs(z[special]) ** 2, axis=1) - epsilon], axis=1
        )
        gradient[special] = values[:, :-1]
        steps = self.solve_with_special_rows(z, residual, gradient, special)
        g = gradient[special]
        size = np.sum(g.real * g.real + g.imag * g.imag, axis=1)
        wr, wi = (-residual[special, :2] / size[:, None]).T[:, :, None]
        expected = (wr * g.real + wi * g.imag) + 1j * (wi * g.real - wr * g.imag)
        assert np.array_equal(steps[special], expected)

    def test_rows_with_a_vanishing_gradient_take_the_gufunc(self):
        """``g = 0``: the step ``-(rho - epsilon) z / (2 |z|^2)`` is least
        squares' step.  A gradient whose ``|g|^2`` underflows is not zero:
        rescaled, its step is the exact one, where least squares truncates
        it as zero."""
        z, residual, gradient = sampler_systems(3, 30, seed=8)
        special = np.array([2, 3, 17])
        gradient[special] = 0.0
        gradient[17, 1] = 1e-170  # |g|^2 underflows to zero
        residual[special, :2] = 0.0
        steps = real_parts(self.solve_with_special_rows(z, residual, gradient, special))
        expected = per_system_lstsq(z, residual, gradient)
        for row in (2, 3):
            error = np.linalg.norm(steps[row] - expected[row])
            assert error <= 1e-14 * np.linalg.norm(expected[row])
        exact = exact_minimum_norm_step(_real_jacobian(z[17], gradient[17]), residual[17])
        assert np.linalg.norm(steps[17] - exact) <= 1e-14 * np.linalg.norm(exact)

    def test_rows_whose_gradient_norm_is_not_normal_take_the_gufunc(self):
        """``|g|^2`` subnormal (digits lost) or overflowing (``c`` and
        ``h / |g|^2`` flush to zero), where ``np.linalg.lstsq`` loses digits
        too: the rescaled closed form meets the exact step."""
        z, residual, gradient = sampler_systems(3, 30, seed=9)
        special = np.array([5, 21])
        gradient[5] = 1e-160 * np.array([1.0, 1j, 0.5 - 0.5j])
        gradient[21] = 1e160 * np.array([1.0, 1j, 0.5 - 0.5j])
        residual[5, :2] = 0.0
        steps = real_parts(self.solve_with_special_rows(z, residual, gradient, special))
        for row, jacobian in zip(special, real_jacobians(z[special], gradient[special])):
            exact = exact_minimum_norm_step(jacobian, residual[row])
            assert np.linalg.norm(steps[row] - exact) <= 1e-14 * np.linalg.norm(exact)

    def test_rows_that_stay_infinite_are_nan(self):
        """An infinite gradient entry: no scaling makes the step finite, so it
        is NaN, which the line search never takes."""
        z, residual, gradient = sampler_systems(3, 30, seed=10)
        special = np.array([1, 6])
        gradient[1, 0] = np.inf
        gradient[6, 2] = complex(0.0, -np.inf)
        steps = self.solve_with_special_rows(z, residual, gradient, special)
        assert np.all(np.isnan(steps[special]))


class TestDrawNorms:
    @pytest.mark.parametrize("n", [3, 4])
    def test_norms_are_the_per_row_norms(self, n):
        """``np.linalg.norm(raw, axis=1)`` rounds differently from the norm
        of each row in 15-18 % of draws; the sampler must hand its steps
        the per-row norms, bit for bit."""
        seen = []

        def recording_step(variety, epsilon):
            def step(raw, norms):
                seen.append((raw.copy(), norms.copy()))
                return raw[:0], norms[:0]

            return step

        with patch.object(varieties, "_chart_step", recording_step), \
                pytest.raises(SamplingFailed):
            sample_points(SmoothChart.identity(n), 0.01, 200, seed=n)
        assert sum(len(raw) for raw, _ in seen) == 2000
        for raw, norms in seen:
            expected = np.array([np.linalg.norm(row) for row in raw])
            assert norms.tobytes() == expected.tobytes()


class TestHypersurfaceSampling:
    def test_points_satisfy_both_equations(self):
        epsilon = 0.01
        scale = BRIESKORN.defining_scale(epsilon)
        samples = sample_points(BRIESKORN, epsilon, 200, seed=0)
        assert len(samples) == 200
        for point in samples.points:
            assert abs(defining_row(BRIESKORN, point)[0]) <= 1e-10 * scale
            assert abs(rho(BRIESKORN, point) - epsilon) <= 1e-10 * epsilon

    def test_tangent_basis_annihilated_by_differential(self):
        samples = sample_points(BRIESKORN, 0.01, 50, seed=3)
        assert samples.bases.shape == (50, 3, 2)
        for point, basis in zip(samples.points, samples.bases):
            gradient = defining_row(BRIESKORN, point)[1:]
            assert np.max(np.abs(gradient @ basis)) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        a = sample_points(BRIESKORN, 0.01, 25, seed=11)
        b = sample_points(BRIESKORN, 0.01, 25, seed=11)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-6])
    @pytest.mark.parametrize("text", ["z0^3 + z1^5 + z2^5", "z0^5 + z1^5 + z2^5"])
    def test_brieskorn_pham_germs_below_the_milnor_radius(self, text, epsilon):
        """At these levels ``|h| ~ epsilon^(d/2)`` is far below ``rho -
        epsilon ~ epsilon``, so a line search on the plain residual norm
        sees only the level; on the scaled measure every case gets its 200
        samples within the draw budget."""
        surface = Hypersurface(parse_polynomial(text, 3))
        scale = surface.defining_scale(epsilon)
        samples = sample_points(surface, epsilon, 200, seed=0)
        assert len(samples) == 200
        for point in samples.points:
            assert abs(defining_row(surface, point)[0]) <= 1e-10 * scale
            assert abs(rho(surface, point) - epsilon) <= 1e-10 * epsilon

    def test_nodal_curve_samples(self):
        surface = Hypersurface(parse_polynomial("z0 z1", 2))
        for point in sample_points(surface, 0.04, 50, seed=5).points:
            assert abs(defining_row(surface, point)[0]) <= 1e-10

    @pytest.mark.parametrize(
        "variety, count, max_iterations, newton_tolerance, draws",
        [
            (BRIESKORN, 20, 1, 1e-30, 200),
            # The zero map never reaches the level, so no draw converges.
            (
                SmoothChart(1, (Polynomial.constant(1, 0.0),)),
                3,
                varieties._MAX_ITERATIONS,
                varieties._NEWTON_TOLERANCE,
                50,
            ),
        ],
        ids=["hypersurface", "chart"],
    )
    def test_unreachable_tolerance_fails_loudly(
        self, variety, count, max_iterations, newton_tolerance, draws
    ):
        with patch.object(varieties, "_MAX_ITERATIONS", max_iterations), \
                patch.object(varieties, "_NEWTON_TOLERANCE", newton_tolerance), \
                pytest.raises(SamplingFailed) as info:
            sample_points(variety, 0.01, count, seed=0)
        assert str(info.value) == (
            f"only 0 of {count} requested samples converged after {draws} "
            "draws (rate below 10%)"
        )


class TestInputValidation:
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_level_value(self, epsilon):
        with pytest.raises(InputError, match="level value must be positive"):
            sample_points(SmoothChart.identity(1), epsilon, 5, seed=0)

    def test_bad_count(self):
        with pytest.raises(InputError):
            sample_points(SmoothChart.identity(1), 0.01, 0, seed=0)

    def test_unknown_model(self):
        with pytest.raises(InputError):
            sample_points(object(), 0.01, 5, seed=0)
