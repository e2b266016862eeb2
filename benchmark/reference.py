"""Reference answers and output checks, independent of milnorbook.

Nothing here imports the package under test.  Definiteness and the least
divisor come from a sparse symmetric elimination over ``Fraction`` in
minimum-degree order (trees eliminate leaf by leaf with no fill); the
package decides definiteness by Bareiss elimination in label order and
finds the divisor by descent from the all-ones vector.  Contact reports
are checked against closed forms (Levi quotient 4 on round levels, the
Hopf rotation speed ``d / (2 epsilon)`` of a degree-``d`` homogeneous
``f``) and against the tolerances the test suite pins.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Exit codes of the command-line contract.
EXIT_OK, EXIT_INPUT, EXIT_VERDICT, EXIT_INTERNAL = 0, 1, 2, 3

# Tolerances pinned by the test suite (acceptance criteria 6 and 7).
ALPHA_TOL = {"chart": 1e-9, "hypersurface": 1e-6}
OMEGA_TOL = 1e-8
IDENTITY_TOL = 1e-6
IDENTITY_TOL_UNSCALED = 1e-12
LEVI_ABS_TOL = 1e-12
DTHETA_REL_TOL = 1e-9

# Forced increments allowed after the warm start; the repair needs a few
# dozen at most on the small-graph family, so this only stops a bug.
REPAIR_CAP = 10**6


class Graph:
    """Plain plumbing graph: per-vertex genus and Euler weight, edge list."""

    def __init__(self, genus, euler, edges):
        self.genus = list(genus)
        self.euler = list(euler)
        self.edges = sorted((min(a, b), max(a, b)) for a, b in edges)

    @property
    def r(self) -> int:
        return len(self.euler)

    def to_doc(self) -> dict:
        return {
            "vertices": [
                {"id": i, "genus": self.genus[i], "euler": self.euler[i]}
                for i in range(self.r)
            ],
            "edges": [list(e) for e in self.edges],
        }

    def valency(self) -> list[int]:
        v = [0] * self.r
        for a, b in self.edges:
            v[a] += 1
            v[b] += 1
        return v

    def constraints(self) -> list[int]:
        """c_i = -(v_i + 2 g_i)."""
        return [-(v + 2 * g) for v, g in zip(self.valency(), self.genus)]

    def rows(self) -> list[dict[int, int]]:
        """Sparse intersection form: row i maps column -> entry."""
        rows = [{i: self.euler[i]} for i in range(self.r)]
        for a, b in self.edges:
            rows[a][b] = rows[a].get(b, 0) + 1
            rows[b][a] = rows[b].get(a, 0) + 1
        return rows

    def apply(self, m) -> list[int]:
        return [sum(e * m[j] for j, e in row.items()) for row in self.rows()]


def _eliminate(graph: Graph, rhs=None):
    """Symmetric elimination in minimum-degree order.

    Returns ``(pivots, solution)``; ``pivots`` stops at the first pivot that
    is not negative, and ``solution`` solves ``I x = rhs`` when every pivot
    is negative and ``rhs`` is given.  For a negative definite matrix every
    principal submatrix is negative definite, so any order yields negative
    pivots; a non-negative pivot in some order refutes definiteness.
    """
    a = [{j: Fraction(e) for j, e in row.items()} for row in graph.rows()]
    b = None if rhs is None else [Fraction(x) for x in rhs]
    alive = set(range(graph.r))
    eliminated = []  # (vertex, pivot, row over later vertices, rhs value)
    pivots = []
    while alive:
        v = min(alive, key=lambda i: (len(a[i]), i))
        pivot = a[v][v]
        pivots.append(pivot)
        if pivot >= 0:
            return pivots, None
        alive.discard(v)
        row = {j: x for j, x in a[v].items() if j != v}
        for i, aiv in row.items():
            del a[i][v]
            factor = aiv / pivot
            for j, avj in row.items():
                a[i][j] = a[i].get(j, 0) - factor * avj
            if b is not None:
                b[i] -= factor * b[v]
        eliminated.append((v, pivot, row, None if b is None else b[v]))
    if b is None:
        return pivots, None
    x = [Fraction(0)] * graph.r
    for v, pivot, row, value in reversed(eliminated):
        x[v] = (value - sum(e * x[j] for j, e in row.items())) / pivot
    return pivots, x


def is_negative_definite(graph: Graph) -> bool:
    pivots, _ = _eliminate(graph)
    return len(pivots) == graph.r and pivots[-1] < 0


def least_divisor(graph: Graph, x=None) -> list[int]:
    """Componentwise-least effective D != 0 with D . E_i <= c_i.

    Every feasible divisor dominates ``x* = I^{-1} c`` because ``-I`` is an
    M-matrix (its inverse is entrywise non-negative), and every feasible
    multiplicity is at least 1.  Starting from ``max(1, ceil(x*))`` and
    raising a violated vertex by one keeps the iterate below every
    feasible divisor, so the first feasible iterate is the least one.
    """
    c = graph.constraints()
    if x is None:
        _, x = _eliminate(graph, c)
    if x is None:
        raise ValueError("least divisor needs a negative definite graph")
    m = [max(1, math.ceil(v)) for v in x]
    rows = graph.rows()
    products = graph.apply(m)
    for _ in range(REPAIR_CAP):
        violated = next((i for i in range(graph.r) if products[i] > c[i]), None)
        if violated is None:
            return m
        m[violated] += 1
        for j, e in rows[violated].items():
            products[j] += e
    raise RuntimeError("warm-started repair did not terminate")


def is_feasible(graph: Graph, m) -> bool:
    c = graph.constraints()
    return any(m) and all(x >= 0 for x in m) and all(
        p <= ci for p, ci in zip(graph.apply(m), c)
    )


# expectations ---------------------------------------------------------------


def expect_graph_job(command: str, graph: Graph, bound=None) -> dict:
    """Expected outcome of ``check`` / ``divisor`` / ``openbook`` on a graph."""
    c = graph.constraints()
    _, x = _eliminate(graph, c)
    definite = x is not None
    if command == "check":
        return {"exit": EXIT_OK if definite else EXIT_VERDICT,
                "fillable": definite}
    if not definite:
        return {"exit": EXIT_VERDICT}
    m = least_divisor(graph, x)
    if bound is not None and max(m) > bound:
        return {"exit": EXIT_INPUT}
    return {"exit": EXIT_OK, "divisor": m}


def _error_only(outcome, prefix):
    if outcome["stdout"]:
        return "a failing run printed a report"
    if not outcome["stderr"].startswith(prefix):
        return f"stderr does not start with {prefix!r}"
    return None


def check_graph_job(job: dict, outcome: dict) -> str | None:
    """None when the outcome matches the expectation, else a reason."""
    expect, graph = job["expect"], job["graph"]
    if outcome["error"] is not None:
        return f"raised {outcome['error']}"
    if outcome["exit"] != expect["exit"]:
        return f"exit {outcome['exit']}, expected {expect['exit']}"
    if expect["exit"] == EXIT_INPUT:
        return _error_only(outcome, "input error:")
    command = job["argv"][0]
    if expect["exit"] == EXIT_VERDICT and command != "check":
        return _error_only(outcome, "negative verdict:")
    doc = json.loads(outcome["stdout"])
    result = doc["result"]
    if doc["command"] != command or doc["config"]["file"] != job["argv"][1]:
        return "report names another command or file"
    if command == "check":
        if result != {"fillable": expect["fillable"], "vertices": graph.r,
                      "edges": len(graph.edges)}:
            return f"check result {result}"
        return None
    m = expect["divisor"]
    if not is_feasible(graph, m):
        return "reference divisor is infeasible"
    products = graph.apply(m)
    arrows = [-p for p in products]
    slack = [c - p for c, p in zip(graph.constraints(), products)]
    if result["divisor"] != m:
        return f"divisor {result['divisor']}, expected {m}"
    if result["aut_invariant"] is not True:
        return "least divisor reported as not automorphism invariant"
    if command == "divisor":
        wanted = {"multiplicities": arrows, "slack": slack,
                  "zero_divisor": False, "multiplicities_positive": True,
                  "satisfies_inequality": True}
        if "--oracle" in job["argv"]:
            wanted["oracle"] = {"bound": job["bound"], "agrees": True}
    else:
        valency = graph.valency()
        wanted = {
            "fillable": True,
            "arrowheads": arrows,
            "binding_components": sum(arrows),
            "per_vertex": [
                {"valency": valency[i], "genus": graph.genus[i],
                 "euler": graph.euler[i], "multiplicity": m[i],
                 "arrowheads": arrows[i], "slack": slack[i]}
                for i in range(graph.r)
            ],
            "decorated_graph": {
                "vertices": [
                    {"id": i, "genus": graph.genus[i], "euler": graph.euler[i],
                     "arrowheads": arrows[i]}
                    for i in range(graph.r)
                ],
                "edges": [list(e) for e in graph.edges],
            },
        }
    for key, value in wanted.items():
        if result.get(key) != value:
            return f"{key} differs from the reference"
    return None


def check_malformed_job(job: dict, outcome: dict) -> str | None:
    """Malformed documents must exit 1 with an input error, no traceback."""
    if outcome["error"] is not None:
        return f"raised {outcome['error']}"
    if outcome["exit"] != EXIT_INPUT:
        return f"exit {outcome['exit']}, expected {EXIT_INPUT}"
    return _error_only(outcome, "input error:")


def check_known_failure(job: dict, outcome: dict) -> str | None:
    """None when a known-defect job failed exactly as recorded in its
    ``known_defect["seen"]``, else how the outcome differs.

    ``seen`` holds one of: ``raises`` (an exception of that type escaped
    ``main``); ``exit`` with ``stderr`` (that code and an error line with
    that prefix, no report); ``exit`` with ``job`` (that code and exactly
    the report the reference gives for ``job``, the graph the package
    reads the malformed document as).
    """
    seen = job["known_defect"]["seen"]
    if "raises" in seen:
        if outcome["error"] is None or not outcome["error"].startswith(seen["raises"] + ":"):
            return f"did not raise {seen['raises']}"
        return None
    if outcome["error"] is not None:
        return f"raised {outcome['error']}"
    if outcome["exit"] != seen["exit"]:
        return f"exit {outcome['exit']}, recorded {seen['exit']}"
    if "stderr" in seen:
        return _error_only(outcome, seen["stderr"])
    return check_graph_job(seen["job"], outcome)


def check_contact_job(job: dict, outcome: dict) -> str | None:
    if outcome["error"] is not None:
        return f"raised {outcome['error']}"
    if outcome["exit"] != EXIT_OK:
        return f"exit {outcome['exit']}: {outcome['stderr'].strip()[:200]}"
    doc = json.loads(outcome["stdout"])
    spec, config, result = job["contact"], doc["config"], doc["result"]
    for key in ("subcheck", "samples", "mesh", "seed", "epsilon", "c", "f"):
        if config[key] != spec[key]:
            return f"config {key} = {config[key]!r}, expected {spec[key]!r}"
    if result.get("pass") is not True:
        return "report does not pass"
    sub = spec["subcheck"]
    samples, mesh = spec["samples"], spec["mesh"]
    if sub == "spsh":
        if result["samples"] != samples:
            return "wrong sample count"
        minimum = result["min_levi_quotient"]
        # H = 4 A_T^H A_T: exactly 4 I on round levels, and at least 4 I
        # when the chart map contains the identity as its first components.
        if spec["round"] and abs(minimum - 4.0) > LEVI_ABS_TOL:
            return f"Levi quotient {minimum!r} is not 4"
        if minimum < 4.0 - LEVI_ABS_TOL:
            return f"Levi quotient {minimum!r} is below 4"
    elif sub == "reeb":
        if result["samples"] != samples:
            return "wrong sample count"
        if result["max_alpha_deviation"] > ALPHA_TOL[spec["kind"]]:
            return "alpha(R) deviates from 1"
        if result["max_omega_pairing"] > OMEGA_TOL:
            return "omega(R, .) does not vanish on the level"
    elif sub == "identity":
        if result["evaluated"] + result["skipped_on_binding"] != samples:
            return "identity sample accounting is off"
        tol = IDENTITY_TOL_UNSCALED if spec["c"] == 0.0 else IDENTITY_TOL
        if not result["evaluated"] or result["max_residual"] > tol:
            return f"identity residual {result['max_residual']!r}"
    elif sub == "cone":
        if result["total"] != samples or result["qualifying"] > samples:
            return "cone sample accounting is off"
        if result["all_positive"] is False:
            return "lambda leaves the right half plane"
    elif sub == "adapt":
        if result["mesh"] != mesh or not 0 < result["retained"] <= mesh:
            return "adapt mesh accounting is off"
        if not (result["verified"] and result["min_dtheta_rescaled"] > 0.0):
            return "adaptation not verified"
        if result["c"] < 0.0 or (result["m"] == 0.0) != (result["c"] == 0.0):
            return "adaptation constant inconsistent with m"
        degree = spec.get("homogeneous_degree")
        if degree is not None:
            # Reeb flow on a round level is z -> exp(i t / (2 eps)) z, which
            # turns arg f at speed d / (2 eps) for homogeneous f of degree d.
            speed = degree / (2.0 * spec["epsilon"])
            if abs(result["min_dtheta_reeb"] - speed) > DTHETA_REL_TOL * speed:
                return f"d theta(R) = {result['min_dtheta_reeb']!r}, expected {speed!r}"
            if result["c"] != 0.0:
                return "homogeneous f needs no rescaling"
    elif sub == "criterion":
        if result["mesh"] != mesh:
            return "criterion mesh accounting is off"
        if result["outside_count"] + result["inside_count"] < mesh:
            return "criterion misses mesh points"
        for key, vacuous in (("min_dtheta_norm", "first_vacuous"),
                             ("min_df_norm", "second_vacuous")):
            if not result[vacuous] and not result[key] > 0.0:
                return f"{key} is not positive"
    return None
