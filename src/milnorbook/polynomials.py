"""Complex polynomials in variables z0..z{n-1}: parsing, printing, calculus.

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

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import PolynomialSyntaxError, UnknownVariable

__all__ = ["Polynomial", "parse_polynomial"]

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_INTEGER = re.compile(r"\d+")


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
        """Upper bound for |value| on the closed ball of the given radius."""
        return sum(abs(c) * radius ** sum(e) for e, c in self.terms)

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
        self.pos = match.end()
        return float(match.group())

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


def parse_map(texts: Sequence[str] | str, n_vars: int) -> tuple[Polynomial, ...]:
    """Parse a comma-separated list (or sequence) of polynomial expressions."""
    if isinstance(texts, str):
        texts = [piece for piece in texts.split(",")]
    return tuple(parse_polynomial(piece, n_vars) for piece in texts)
