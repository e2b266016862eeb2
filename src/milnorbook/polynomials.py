"""Complex polynomials in variables z0..z{n-1}: parsing, printing, calculus,
and evaluation on blocks of points (:class:`PolynomialBlock`, the one place
complex powers are formed: its terms serve both the values of ``Phi``, ``f``
and their partials and the radial profiles of a chart).

Grammar
    expression  ::= term (('+'|'-') term)*
    term        ::= coefficient ('*'? monomial)* | monomial
    monomial    ::= 'z' index ('^' exponent)?
    coefficient ::= decimal | '(' decimal ('+'|'-') decimal 'i' ')'
with whitespace ignored and 0-based indices.  Two tolerant extensions, both
strict supersets of the grammar: an optional leading sign on the first term
(needed so printing a leading negative coefficient round-trips), and '*'
joints between monomials of a coefficient-less term (so "z0*z1" means what
it obviously means).  Error positions are 0-based character offsets.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import PolynomialSyntaxError, UnknownVariable

__all__ = ["Polynomial", "PolynomialBlock", "parse_polynomial"]

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_INTEGER = re.compile(r"\d+")

# NumPy raises a complex number to an integer power below this one by
# binary exponentiation (``npy_cpow``), as CPython does up to and including
# it (``c_powu`` in Objects/complexobject.c); each takes other powers by
# another algorithm, so PolynomialBlock.evaluate hands a set holding one to
# the scalar loop.
_SCALAR_EXPONENT = 100


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _format_coefficient(c: complex) -> str:
    if c.imag == 0.0:
        return _format_real(c.real)
    sign = "-" if c.imag < 0 else "+"
    return f"({_format_real(c.real)}{sign}{_format_real(abs(c.imag))}i)"


@dataclass(frozen=True)
class Polynomial:
    """Finitely many terms, exponent vector -> complex coefficient.

    Terms are stored sorted by descending total degree then ascending
    exponents, with exact-zero coefficients dropped, so equal polynomials
    compare equal and printing is canonical.
    """

    n_vars: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        for exponents, _ in self.terms:
            if len(exponents) != self.n_vars:
                raise ValueError("exponent vector length mismatch")
            if any(e < 0 for e in exponents):
                raise ValueError("exponents must be non-negative")

    @classmethod
    def from_terms(cls, n_vars: int, terms: Mapping[tuple[int, ...], complex]) -> "Polynomial":
        kept = {
            tuple(int(e) for e in exps): complex(c)
            for exps, c in terms.items()
            if complex(c) != 0
        }
        ordered = tuple(
            sorted(kept.items(), key=lambda item: (-sum(item[0]), item[0]))
        )
        return cls(n_vars, ordered)

    @classmethod
    def constant(cls, n_vars: int, value: complex) -> "Polynomial":
        return cls.from_terms(n_vars, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "Polynomial":
        exps = tuple(1 if j == index else 0 for j in range(n_vars))
        return cls.from_terms(n_vars, {exps: 1.0})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def evaluate(self, point: Sequence[complex]) -> complex:
        value = 0j
        for exponents, coeff in self.terms:
            term = coeff
            for z, e in zip(point, exponents):
                if e:
                    term *= complex(z) ** e
            value += term
        return value

    def derivative(self, var: int) -> "Polynomial":
        if not 0 <= var < self.n_vars:
            raise ValueError(f"no variable z{var}")
        out: dict[tuple[int, ...], complex] = {}
        for exponents, coeff in self.terms:
            e = exponents[var]
            if e == 0:
                continue
            lowered = tuple(
                x - 1 if j == var else x for j, x in enumerate(exponents)
            )
            out[lowered] = out.get(lowered, 0j) + e * coeff
        return Polynomial.from_terms(self.n_vars, out)

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.derivative(j) for j in range(self.n_vars))

    def magnitude_bound(self, radius: float) -> float:
        """Upper bound for |value| on the closed ball of the given radius.

        Raises OverflowError where the bound is not finite: an infinite bound
        would make every tolerance scaled by it vacuous.
        """
        bound = sum(abs(c) * radius ** sum(e) for e, c in self.terms)
        if not math.isfinite(bound):
            raise OverflowError("the magnitude bound is not finite")
        return bound

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for position, (exponents, coeff) in enumerate(self.terms):
            negative = coeff.real < 0 or (coeff.real == 0 and coeff.imag < 0)
            magnitude = -coeff if negative else coeff
            monomials = [
                f"z{j}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exponents)
                if e > 0
            ]
            if not monomials:
                body = _format_coefficient(magnitude)
            elif magnitude == 1:
                body = "*".join(monomials)
            else:
                body = "*".join([_format_coefficient(magnitude)] + monomials)
            if position == 0:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)


class PolynomialBlock:
    """Polynomials in the same variables, evaluated together on blocks of
    points with the bits of :meth:`Polynomial.evaluate`.

    The scalar loop runs CPython complex arithmetic: ``z ** e``, then
    ``term *= z ** e`` variable by variable and ``value += term`` term by
    term.  Here every distinct power comes from one call of NumPy's ``power``.
    Below 100, NumPy's ``npy_cpow`` takes it one element at a time by the
    binary exponentiation of CPython's ``c_powu``, except that its
    shortcuts for the exponents 1, 2 and 3 skip CPython's first product by
    ``1+0j``.  At a finite point that product changes only the sign of a
    zero, which the sums absorb since they start at +0.0, or turns a square
    whose two parts overflowed into NaN; :meth:`terms` takes it on squares.
    The term products then run on float64 arrays of real and imaginary
    parts, in the scalar loop's order, for all points at once (complex
    NumPy products of two general factors and ``einsum`` may round
    differently), and terms with the same number of factors are multiplied
    together.  A value is its first term plus +0.0 (the scalar loop's ``0j
    + term``), then the others in term order, under one ``errstate``.
    CPython takes ``z ** 100`` by ``c_powu`` and NumPy does not, so
    :meth:`evaluate` takes a set holding an exponent of 100 or more by the
    scalar loop, row by row.
    """

    def __init__(self, polys: Sequence[Polynomial]):
        self.polys = tuple(polys)
        if not self.polys or len({p.n_vars for p in self.polys}) != 1:
            raise ValueError("need polynomials in one common set of variables")
        powers = sorted(
            {
                (j, e)
                for poly in self.polys
                for exponents, _ in poly.terms
                for j, e in enumerate(exponents)
                if e
            }
        )
        self._scalar = any(e >= _SCALAR_EXPONENT for _, e in powers)
        column = {power: c for c, power in enumerate(powers)}
        self._bases = np.array([j for j, _ in powers], dtype=np.intp)
        self._exponents = np.array([e for _, e in powers], dtype=np.int64)
        self._squares = np.flatnonzero(self._exponents == 2)
        # A term's value goes to slot (polynomial, position) of a zero-padded
        # table, at least one wide; a padding +0.0 leaves a sum as it is.
        self._width = max(1, *(len(poly.terms) for poly in self.polys))
        by_factors: dict[int, list] = {}
        for p, poly in enumerate(self.polys):
            for t, (term_exponents, coeff) in enumerate(poly.terms):
                factors = [column[j, e] for j, e in enumerate(term_exponents) if e]
                by_factors.setdefault(len(factors), []).append(
                    (p * self._width + t, factors, coeff)
                )
        self._groups = [
            (
                np.array([slot for slot, _, _ in group], dtype=np.intp),
                np.array([f for _, f, _ in group], dtype=np.intp).reshape(
                    len(group), count
                ),
                np.array([c.real for _, _, c in group]),
                np.array([c.imag for _, _, c in group]),
            )
            for count, group in sorted(by_factors.items())
        ]

    def terms(self, points: np.ndarray) -> np.ndarray:
        """Every term at each row of ``(k, n_vars)`` points, as a ``(k,
        len(polys), width)`` table: slot ``(i, t)`` holds term ``t`` of
        polynomial ``i``, and zero past its last term.  NumPy takes every
        power, whatever its exponent.  Python floats overflow and turn NaN
        without a warning: call it under ``np.errstate(all="ignore")``.

        Raises OverflowError where a power has an infinite part.
        """
        points = np.asarray(points, dtype=complex)
        k = len(points)
        powers = np.power(points[:, self._bases], self._exponents)
        # CPython takes z ** 2 as (1+0j) * (z * z), NumPy as z * z.
        powers[:, self._squares] *= 1
        if np.isinf(powers).any():
            raise OverflowError("complex exponentiation")
        re, im = powers.real, powers.imag
        table = np.zeros((k, len(self.polys) * self._width), dtype=complex)
        for slots, factors, t_re, t_im in self._groups:
            for column in factors.T:
                p_re, p_im = re[:, column], im[:, column]
                t_re, t_im = t_re * p_re - t_im * p_im, t_re * p_im + t_im * p_re
            table.real[:, slots] = t_re
            table.imag[:, slots] = t_im
        return table.reshape(k, len(self.polys), self._width)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of ``(k, n_vars)`` points, as ``(k, len(polys))``:
        the sums of :meth:`terms` in term order, from +0.0.

        Raises OverflowError where :meth:`Polynomial.evaluate` would: when
        a power is infinite.
        """
        points = np.asarray(points, dtype=complex)
        if self._scalar:
            return np.array(
                [[poly.evaluate(row) for poly in self.polys] for row in points],
                dtype=complex,
            ).reshape(len(points), len(self.polys))
        with np.errstate(all="ignore"):
            table = self.terms(points)
            values = table[:, :, 0] + 0.0
            for t in range(1, self._width):
                values += table[:, :, t]
        return values


class _Parser:
    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        self.pos = 0

    def error(self, message: str):
        raise PolynomialSyntaxError(message, self.pos)

    def skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def read_number(self) -> float:
        self.skip_space()
        match = _NUMBER.match(self.text, self.pos)
        if not match:
            self.error("expected a number")
        value = float(match.group())
        if not math.isfinite(value):
            self.error("number out of the floating-point range")
        self.pos = match.end()
        return value

    def read_index(self) -> int:
        self.skip_space()
        match = _INTEGER.match(self.text, self.pos)
        if not match:
            self.error("expected a variable index after 'z'")
        self.pos = match.end()
        return int(match.group())

    def read_monomial(self) -> tuple[int, int]:
        self.skip_space()
        start = self.pos
        if not self.take("z"):
            self.error("expected a monomial")
        index = self.read_index()
        if index >= self.n_vars:
            raise UnknownVariable(index, self.n_vars, start)
        exponent = 1
        if self.take("^"):
            self.skip_space()
            match = _INTEGER.match(self.text, self.pos)
            if not match:
                self.error("expected a non-negative integer exponent")
            self.pos = match.end()
            exponent = int(match.group())
        return index, exponent

    def read_coefficient(self) -> complex:
        if self.take("("):
            real = self.read_number()
            self.skip_space()
            if self.peek() == "+":
                self.pos += 1
                sign = 1.0
            elif self.peek() == "-":
                self.pos += 1
                sign = -1.0
            else:
                self.error("expected '+' or '-' inside a complex coefficient")
            imag = sign * self.read_number()
            if not self.take("i"):
                self.error("expected 'i' in a complex coefficient")
            if not self.take(")"):
                self.error("expected ')' closing a complex coefficient")
            return complex(real, imag)
        return complex(self.read_number())

    def read_term(self) -> tuple[tuple[int, ...], complex]:
        head = self.peek()
        if head == "(" or head.isdigit() or head == ".":
            coeff = self.read_coefficient()
            saw_parts = True
        elif head == "z":
            coeff = 1.0 + 0j
            saw_parts = False
        else:
            self.error("expected a coefficient or a monomial")
        exponents = [0] * self.n_vars
        while True:
            checkpoint = self.pos
            starred = self.take("*")
            if self.peek() != "z":
                if starred:
                    self.pos = checkpoint
                    self.error("expected a monomial after '*'")
                break
            index, exponent = self.read_monomial()
            exponents[index] += exponent
            saw_parts = True
        if not saw_parts:
            self.error("empty term")
        return tuple(exponents), coeff

    def parse(self) -> Polynomial:
        terms: dict[tuple[int, ...], complex] = {}
        sign = -1.0 if self.take("-") else 1.0
        if sign > 0:
            self.take("+")
        while True:
            exponents, coeff = self.read_term()
            terms[exponents] = terms.get(exponents, 0j) + sign * coeff
            self.skip_space()
            if self.pos >= len(self.text):
                break
            if self.take("+"):
                sign = 1.0
            elif self.take("-"):
                sign = -1.0
            else:
                self.error("expected '+' or '-' between terms")
        return Polynomial.from_terms(self.n_vars, terms)


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse an expression into canonical term form; round-trips through
    printing.  Raises PolynomialSyntaxError or UnknownVariable with 0-based
    character positions."""
    if n_vars < 1:
        raise PolynomialSyntaxError("need at least one variable", 0)
    parser = _Parser(text, n_vars)
    parser.skip_space()
    if parser.pos >= len(text):
        parser.error("empty expression")
    return parser.parse()


def parse_map(text: str, n_vars: int) -> tuple[Polynomial, ...]:
    """Parse comma-separated polynomial expressions.  Error positions count
    from the start of ``text``: each component is parsed behind as many
    blanks as characters precede it, which the parser skips."""
    pieces = text.split(",")
    starts = accumulate((len(piece) + 1 for piece in pieces), initial=0)
    return tuple(
        parse_polynomial(" " * start + piece, n_vars)
        for start, piece in zip(starts, pieces)
    )
