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
from .polynomials import Polynomial, parse_map, parse_polynomial
from .suites import SuiteSpec, iter_suite, labeled_connected_count
from .varieties import (
    Hypersurface,
    Samples,
    SmoothChart,
    sample_points,
)
from .contact import (
    AdaptationReport,
    LambdaConeReport,
    OpenBookCriterionReport,
    check_spsh,
    fd_omega_deviation,
    find_adaptation_constant,
    lambda_cone_check,
    openbook_criterion_check,
    reeb_contract_deviations,
    rescaled_reeb_identity,
)

__version__ = "0.1.0"
