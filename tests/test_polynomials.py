"""Polynomial grammar, calculus, and canonical printing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from milnorbook import Polynomial, parse_map, parse_polynomial
from milnorbook.errors import PolynomialSyntaxError, UnknownVariable
from milnorbook.polynomials import PolynomialBlock
from milnorbook.varieties import _DRAWS_PER_BLOCK


class TestGrammar:
    @pytest.mark.parametrize(
        "text, n, point, value",
        [
            ("z0^2 + z1^3", 2, (2, 1), 5),
            ("z0 z1", 2, (2, 3), 6),
            ("z0*z1", 2, (2, 3), 6),
            ("3 z0^2", 1, (2,), 12),
            ("3*z0^2", 1, (2,), 12),
            ("(1+2i) z0", 1, (1,), 1 + 2j),
            ("(1-0.5i)", 1, (7,), 1 - 0.5j),
            ("-z0 + 2", 1, (3,), -1),
            ("z0 - z0", 1, (5,), 0),
            ("2.5e-1 z0", 1, (2,), 0.5),
            (".5", 1, (0,), 0.5),
            ("z0^0", 1, (9,), 1),
            ("z0 z0", 1, (3,), 9),  # exponents accumulate
        ],
    )
    def test_parse_and_evaluate(self, text, n, point, value):
        poly = parse_polynomial(text, n)
        assert poly.evaluate(point) == pytest.approx(value)

    @pytest.mark.parametrize(
        "text, n, position",
        [
            ("", 1, 0),
            ("   ", 1, 3),
            ("z0^2 +", 1, 6),
            ("z0 & z1", 2, 3),
            ("z", 1, 1),
            ("z0^", 1, 3),
            ("(1+2) z0", 1, 4),
            ("(1+2i z0", 1, 6),
            ("3*", 1, 1),  # position rewinds to the checkpoint before '*'
            ("+ + z0", 1, 2),
            # Literals beyond the float range are refused, not read as inf.
            ("1e400 z0 + z1", 2, 0),
            ("z0 - 2e308", 1, 5),
            ("(1+1e999i) z0", 1, 3),
        ],
    )
    def test_syntax_error_positions(self, text, n, position):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_polynomial(text, n)
        assert info.value.position == position

    def test_unknown_variable_position(self):
        with pytest.raises(UnknownVariable) as info:
            parse_polynomial("z0 + z5", 2)
        assert info.value.index == 5
        assert info.value.n_vars == 2
        assert info.value.position == 5

    def test_unknown_variable_position_skips_whitespace(self):
        with pytest.raises(UnknownVariable) as info:
            parse_polynomial("  z9", 1)
        assert info.value.position == 2

    def test_zero_variables_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("1", 0)

    def test_parse_map_comma_string(self):
        components = parse_map("z0, z1^2", 2)
        assert len(components) == 2
        assert components[1].evaluate((0, 3)) == 9

    def test_parse_map_unknown_variable_position_counts_from_the_start(self):
        with pytest.raises(UnknownVariable) as info:
            parse_map("z0, z1 + z2", 2)
        assert (info.value.index, info.value.position) == (2, 9)

    def test_parse_map_syntax_error_position_counts_from_the_start(self):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_map("z0,z1 +", 2)
        assert info.value.position == 7
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_map("z0,,z1", 2)
        assert str(info.value) == "empty expression (position 3)"


class TestCalculus:
    def test_derivative(self):
        poly = parse_polynomial("z0^2 z1 + 3 z1", 2)
        assert poly.derivative(0) == parse_polynomial("2 z0 z1", 2)
        assert poly.derivative(1) == parse_polynomial("z0^2 + 3", 2)

    def test_derivative_bad_index(self):
        with pytest.raises(ValueError):
            parse_polynomial("z0", 1).derivative(1)

    def test_gradient(self):
        poly = parse_polynomial("z0^2 + z1^3 + z2^5", 3)
        grad = poly.gradient()
        assert grad[0] == parse_polynomial("2 z0", 3)
        assert grad[1] == parse_polynomial("3 z1^2", 3)
        assert grad[2] == parse_polynomial("5 z2^4", 3)

    def test_magnitude_bound_is_a_bound(self):
        poly = parse_polynomial("z0^2 - 2 z0 + (0+3i)", 1)
        radius = 1.5
        bound = poly.magnitude_bound(radius)
        for angle in np.linspace(0, 2 * np.pi, 17):
            z = radius * np.exp(1j * angle)
            assert abs(poly.evaluate((z,))) <= bound + 1e-12

    def test_an_infinite_magnitude_bound_raises(self):
        # Every product is finite; their sum is not.
        poly = parse_polynomial("1e308 z0^2 + 1e308 z1", 2)
        assert poly.magnitude_bound(0.5) == 0.75e308
        with pytest.raises(OverflowError):
            poly.magnitude_bound(1.0)

    def test_constructors_and_properties(self):
        assert Polynomial.constant(2, 0).is_zero
        assert Polynomial.constant(2, 5).total_degree == 0
        assert Polynomial.variable(3, 1).total_degree == 1
        assert str(Polynomial.variable(3, 1)) == "z1"


coefficients = st.one_of(
    st.integers(-9, 9).map(complex),
    st.complex_numbers(
        allow_nan=False, allow_infinity=False, max_magnitude=1e6
    ),
)


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=5))
    return Polynomial.from_terms(n, terms)


class TestCanonicalForm:
    @given(polynomials())
    def test_print_parse_round_trip(self, poly):
        assert parse_polynomial(str(poly), poly.n_vars) == poly

    @given(polynomials())
    def test_from_terms_is_canonical(self, poly):
        rebuilt = Polynomial.from_terms(poly.n_vars, dict(poly.terms))
        assert rebuilt == poly
        assert str(rebuilt) == str(poly)

    def test_zero_prints_and_parses(self):
        zero = Polynomial.from_terms(2, {})
        assert str(zero) == "0"
        assert parse_polynomial("0", 2) == zero

    def test_leading_negative_round_trips(self):
        poly = parse_polynomial("-2 z0 + 1", 1)
        assert str(poly) == "-2*z0 + 1"
        assert parse_polynomial(str(poly), 1) == poly

    def test_terms_sorted_by_degree(self):
        poly = parse_polynomial("1 + z0^3 + z0", 1)
        degrees = [sum(e) for e, _ in poly.terms]
        assert degrees == sorted(degrees, reverse=True)


# Complex coefficients, degree >= 5, exponents up to 100, a constant term,
# and the germs the samplers run on.
BLOCK_POLYNOMIALS = [
    ("z0^2 + z1^3 + z2^5", 3),
    ("z0^2 + z1^3 + z1*z2^3", 3),
    ("z0^2 + z1^2 + z2^2 + z3^3", 4),
    ("z0 z1", 2),
    ("(0.3+1.7i)*z0^2*z1^2 + z1 - (2.5-0.5i)*z1^4*z2 + z0^3*z2^2 + (0-7i)", 3),
    ("z0^100 + (1-1i)*z1^99*z2 + z2^64 + (0.5+0.5i)*z0^37*z1^5", 3),
]


def _block_points(count: int, n: int, seed: int) -> np.ndarray:
    """Points of several radii, a third of them carrying signed zeros."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    points *= rng.choice([1e-3, 0.1, 0.7, 1.0, 1.005], size=(count, 1))
    for part in (points.real, points.imag):
        zeroed = rng.random((count, n)) < 0.3
        signed = np.where(rng.random((count, n)) < 0.5, -0.0, 0.0)
        part[zeroed] = signed[zeroed]
    return points


class TestPolynomialBlock:
    """The block evaluator replays the scalar loop's float operations, so
    it must return :meth:`Polynomial.evaluate`'s bytes, not nearby values."""

    @pytest.mark.parametrize("text, n", BLOCK_POLYNOMIALS)
    @pytest.mark.parametrize(
        "block", [_DRAWS_PER_BLOCK, 7, 1], ids=["default", "7", "1"]
    )
    def test_values_and_gradients_match_scalar_bytes(self, text, n, block):
        poly = parse_polynomial(text, n)
        polys = (poly, *poly.gradient())
        evaluator = PolynomialBlock(polys)
        points = _block_points(block, n, seed=block)
        values = evaluator.evaluate(points)
        assert values.shape == (block, len(polys))
        expected = np.array([[p.evaluate(row) for p in polys] for row in points])
        assert values.tobytes() == expected.tobytes()

    def test_exponents_above_100_take_the_scalar_loop(self):
        """CPython takes ``z ** 101`` by its general power, which the
        replay differs from in nearly every case: such a set is evaluated by
        the scalar loop, and matches it."""
        poly = parse_polynomial("z0^101 + (2-1i)*z0^3*z1", 2)
        polys = (poly, *poly.gradient())
        points = _block_points(500, 2, seed=3)
        values = PolynomialBlock(polys).evaluate(points)
        expected = np.array([[p.evaluate(row) for p in polys] for row in points])
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, z0",
        [
            ("z0^100 + z1", 1e4),
            ("z0^101 + z1", 1e4),
            # Below 100 the block takes the power itself: only the real
            # part, or only the imaginary part, is infinite.
            ("z0^3 + z1", 1e103),
            ("z0^3 + z1", 1e103j),
        ],
        ids=["z0^100 + z1", "z0^101 + z1", "z0^3 + z1-real", "z0^3 + z1-imaginary"],
    )
    def test_infinite_power_raises_like_the_scalar_loop(self, text, z0):
        poly = parse_polynomial(text, 2)
        point = np.array([[z0, 1.0]], dtype=complex)
        with pytest.raises(OverflowError):
            poly.evaluate(point[0])
        with pytest.raises(OverflowError):
            PolynomialBlock((poly,)).evaluate(point)

    @pytest.mark.parametrize("text", ["z0^2 + z1", "(1+1i)*z0^2 + z1", "z1 - z0^2*z1"])
    def test_overflowed_squares_are_nan_like_the_scalar_loop(self, text):
        """CPython multiplies ``z * z`` by ``1+0j``, which turns a square
        with two overflowed parts into NaN, so no OverflowError is raised;
        ``np.power`` alone would leave an infinite part."""
        poly = parse_polynomial(text, 2)
        points = np.array([[1e200 + 1e200j, 1.0], [1e200 + 1e150j, 1.0]])
        values = PolynomialBlock((poly,)).evaluate(points)
        expected = np.array([[poly.evaluate(row)] for row in points])
        assert np.isnan(expected[0, 0])
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("constants", [(0, 2 - 3j), (0,)])
    def test_zero_and_constant_polynomials(self, constants):
        polys = tuple(Polynomial.constant(2, c) for c in constants)
        values = PolynomialBlock(polys).evaluate(np.ones((3, 2), dtype=complex))
        expected = np.array([[complex(c) for c in constants]] * 3)
        assert values.tobytes() == expected.tobytes()

    def test_needs_common_variables(self):
        with pytest.raises(ValueError):
            PolynomialBlock(())
        with pytest.raises(ValueError):
            PolynomialBlock((Polynomial.variable(1, 0), Polynomial.variable(2, 0)))
