"""Exception taxonomy shared across the package.

Four families, matching how the CLI maps failures to exit codes:
input errors (exit 1), negative mathematical verdicts (exit 2),
internal invariant violations (exit 3), numerical findings (exit 4).
"""

from __future__ import annotations


class MilnorBookError(Exception):
    """Base class for every error raised by this package."""


class InputError(MilnorBookError, ValueError):
    """Malformed or inadmissible input data."""


class NegativeVerdict(MilnorBookError):
    """A well-posed question answered in the negative."""


class InternalInvariantError(MilnorBookError):
    """A certified internal property failed; indicates a bug."""


class NumericalFinding(MilnorBookError):
    """A numerical check could not be completed or certified."""


# graph validation ---------------------------------------------------------

class LoopEdge(InputError):
    """An edge joins a vertex to itself."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"edge [{vertex}, {vertex}] is a loop; components are smooth")


class Disconnected(InputError):
    """The graph is not connected."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is not reachable from vertex 0")


class NegativeGenus(InputError):
    """A vertex carries a negative genus weight."""

    def __init__(self, vertex: int, genus: int):
        self.vertex = vertex
        self.genus = genus
        super().__init__(f"vertex {vertex} has genus {genus} < 0")


class NonContiguousIds(InputError):
    """Vertex ids do not form the range 0..r-1."""

    def __init__(self, detail: str):
        super().__init__(f"vertex ids must be 0..r-1: {detail}")


# divisor solver -----------------------------------------------------------

class NotNegativeDefinite(NegativeVerdict):
    """The intersection form fails negative definiteness."""


class NotMilnorFillable(NegativeVerdict):
    """The plumbed 3-manifold bounds no isolated surface singularity."""


class IterationCapExceeded(InternalInvariantError):
    """The divisor descent's repair phase hit its safety cap."""


class BoundTooSmall(InputError):
    """Exhaustive divisor search found no feasible point within the box."""


class DimensionMismatch(InputError):
    """A vector's length disagrees with the graph's vertex count."""


class NonIntegralSolution(InputError):
    """The exact rational solve produced a non-integer multiplicity."""

    def __init__(self, vertex: int, value):
        self.vertex = vertex
        self.value = value
        super().__init__(f"m_{vertex} = {value} is not an integer")


class NonEffectiveSolution(InputError):
    """The exact solve produced a negative multiplicity."""

    def __init__(self, vertex: int, value):
        self.vertex = vertex
        self.value = value
        super().__init__(f"m_{vertex} = {value} is negative")


# open book builder --------------------------------------------------------

class AllZero(InputError):
    """Every arrowhead count is zero; an open book needs a binding."""


# polynomials --------------------------------------------------------------

class PolynomialSyntaxError(InputError):
    """The expression violates the polynomial grammar."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")


class UnknownVariable(InputError):
    """A variable index is out of range for the declared count."""

    def __init__(self, index: int, n_vars: int, position: int):
        self.index = index
        self.n_vars = n_vars
        self.position = position
        super().__init__(
            f"z{index} undefined with {n_vars} variables (position {position})"
        )


# contact numerics ---------------------------------------------------------

class SamplingFailed(NumericalFinding):
    """Too few Newton draws converged onto the level set."""


class DegenerateTangent(NumericalFinding):
    """Rank loss: the map is not an immersion at the sample point."""


class SingularMetric(NumericalFinding):
    """The hermitian form is numerically singular at the sample point."""


class ZeroGradient(NumericalFinding):
    """The level-function gradient vanishes; no Reeb direction exists."""


class ConeViolation(NumericalFinding):
    """A mesh point has non-positive rotation speed and no usable
    correction term; no adaptation constant can be certified here."""


class InvalidMesh(InputError):
    """The requested mesh is empty or otherwise unusable."""
