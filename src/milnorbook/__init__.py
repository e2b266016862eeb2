"""Plumbing-graph fillability, canonical open book data, and
contact-boundary numerics for isolated surface singularities.

The package has three layers:

* exact integer/rational computations on plumbing graphs — definiteness
  of the intersection form, the least effective divisor with
  non-positive products, binding multiplicities, and decorated open-book
  graphs (:mod:`.graphs`, :mod:`.divisors`, :mod:`.openbooks`,
  :mod:`.suites`);
* floating-point verification of contact-geometric identities on level
  sets of the squared-norm potential of a polynomial germ
  (:mod:`.polynomials`, :mod:`.varieties`, :mod:`.contact`);
* a command-line front end with stable exit codes (:mod:`.cli`).

The exact modules load with the package; :mod:`.polynomials`,
:mod:`.varieties`, :mod:`.contact` and :mod:`.suites` load on first use,
through the package attributes or an explicit import.
"""

from .errors import (
    AllZero,
    BoundTooSmall,
    ConeViolation,
    DegenerateTangent,
    DimensionMismatch,
    Disconnected,
    InputError,
    InternalInvariantError,
    InvalidMesh,
    IterationCapExceeded,
    LoopEdge,
    MilnorBookError,
    NegativeGenus,
    NegativeVerdict,
    NonContiguousIds,
    NonEffectiveSolution,
    NonIntegralSolution,
    NotMilnorFillable,
    NotNegativeDefinite,
    NumericalFinding,
    PolynomialSyntaxError,
    SamplingFailed,
    SingularMetric,
    UnknownVariable,
    ZeroGradient,
)
from .graphs import (
    Divisor,
    PlumbingGraph,
    VertexPermutation,
    chain_graph,
    e8_graph,
    find_isomorphism,
    graph_from_dict,
    graph_to_dict,
    intersection_matrix,
    is_milnor_fillable,
    is_negative_definite,
    load_graph,
    save_graph,
    solve_exact,
    star_graph,
    valency,
    validate_graph,
    vertex_orbits,
)
from .divisors import (
    DivisorReport,
    binding_multiplicities,
    check_theorem_conditions,
    constraint_vector,
    divisor_from_multiplicities,
    minimal_divisor,
    oracle_minimal_divisor,
)
from .openbooks import (
    DecoratedLinkGraph,
    OpenBookReport,
    decorated_isomorphic,
    ubiquitous_open_book,
)
from . import _lazy

# The numerical layer and the suites run on first use, so the exact commands
# never execute them (nor NumPy, which they import).  They are registered in
# ``sys.modules`` now all the same, where tools such as tracers look for them.
polynomials = _lazy.lazy_import(__name__ + ".polynomials")
suites = _lazy.lazy_import(__name__ + ".suites")
varieties = _lazy.lazy_import(__name__ + ".varieties")
contact = _lazy.lazy_import(__name__ + ".contact")

# Public name -> the lazy module that defines it, read by ``__getattr__``.
_LAZY = {
    "Polynomial": polynomials,
    "parse_map": polynomials,
    "parse_polynomial": polynomials,
    "SuiteSpec": suites,
    "iter_suite": suites,
    "labeled_connected_count": suites,
    "Hypersurface": varieties,
    "Samples": varieties,
    "SmoothChart": varieties,
    "sample_points": varieties,
    "AdaptationReport": contact,
    "LambdaConeReport": contact,
    "OpenBookCriterionReport": contact,
    "check_spsh": contact,
    "fd_omega_deviation": contact,
    "find_adaptation_constant": contact,
    "lambda_cone_check": contact,
    "openbook_criterion_check": contact,
    "reeb_contract_deviations": contact,
    "rescaled_reeb_identity": contact,
}

__all__ = [
    # submodules
    "errors", "graphs", "divisors", "openbooks",
    "polynomials", "suites", "varieties", "contact",
    # errors
    "AllZero", "BoundTooSmall", "ConeViolation", "DegenerateTangent",
    "DimensionMismatch", "Disconnected", "InputError", "InternalInvariantError",
    "InvalidMesh", "IterationCapExceeded", "LoopEdge", "MilnorBookError",
    "NegativeGenus", "NegativeVerdict", "NonContiguousIds",
    "NonEffectiveSolution", "NonIntegralSolution", "NotMilnorFillable",
    "NotNegativeDefinite", "NumericalFinding", "PolynomialSyntaxError",
    "SamplingFailed", "SingularMetric", "UnknownVariable", "ZeroGradient",
    # graphs
    "Divisor", "PlumbingGraph", "VertexPermutation", "chain_graph", "e8_graph",
    "find_isomorphism", "graph_from_dict", "graph_to_dict",
    "intersection_matrix", "is_milnor_fillable", "is_negative_definite",
    "load_graph", "save_graph", "solve_exact", "star_graph", "valency",
    "validate_graph", "vertex_orbits",
    # divisors
    "DivisorReport", "binding_multiplicities", "check_theorem_conditions",
    "constraint_vector", "divisor_from_multiplicities", "minimal_divisor",
    "oracle_minimal_divisor",
    # openbooks
    "DecoratedLinkGraph", "OpenBookReport", "decorated_isomorphic",
    "ubiquitous_open_book",
    *_LAZY,
]


def __getattr__(name):
    if name in _LAZY:
        return getattr(_LAZY[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
