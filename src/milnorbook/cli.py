"""Command-line front end with stable exit codes and deterministic reports.

Subcommands::

    milnorbook check     GRAPH.json            fillability verdict
    milnorbook divisor   GRAPH.json            least-divisor certificate
    milnorbook openbook  GRAPH.json            full open-book report
    milnorbook contact   SUBCHECK [flags]      numerical verification

Exit codes: 0 success, 1 input error, 2 mathematical negative verdict,
3 internal invariant failure, 4 numerical finding.  Every report embeds
the package version and the full effective configuration; identical
invocations with identical seeds produce byte-identical output (reports
carry no timestamps).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

# The numerical modules are held as module objects and read at call time:
# binding their names here would load them, and NumPy, for every command.
from . import __version__, contact, polynomials, varieties
from .divisors import check_theorem_conditions, minimal_divisor, oracle_minimal_divisor
from .errors import (
    InputError,
    InternalInvariantError,
    NegativeVerdict,
    NumericalFinding,
)
from .graphs import graph_to_dict, is_milnor_fillable, load_graph
from .openbooks import ubiquitous_open_book

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2
EXIT_INTERNAL = 3
EXIT_FINDING = 4

# Fixed number of random tangent directions per sample in `contact spsh`.
SPSH_TRIALS = 20

# Near-proportionality cutoff for `contact cone`.
CONE_PROPORTIONALITY_TOL = 1e-3

# Tolerances for the `contact reeb` contract.
ALPHA_TOL_CHART = 1e-9
ALPHA_TOL_HYPERSURFACE = 1e-6
OMEGA_TOL = 1e-8

# Tolerances for the `contact identity` residuals.
IDENTITY_TOL = 1e-6
IDENTITY_TOL_UNSCALED = 1e-12  # the c = 0 case is exact cancellation


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="milnorbook",
        description=(
            "Plumbing-graph fillability, canonical open book data, and "
            "contact-boundary numerics."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report format: human-readable text or JSON (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_check = sub.add_parser(
        "check", parents=[common], help="decide Milnor fillability of a graph"
    )
    p_check.add_argument("file", help="plumbing graph JSON file")

    p_div = sub.add_parser(
        "divisor", parents=[common], help="compute the least divisor certificate"
    )
    p_div.add_argument("file", help="plumbing graph JSON file")
    p_div.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the exhaustive search oracle",
    )
    p_div.add_argument(
        "--bound", type=int, default=40, help="oracle search box bound (default 40)"
    )

    p_ob = sub.add_parser(
        "openbook", parents=[common], help="build the canonical open book data"
    )
    p_ob.add_argument("file", help="plumbing graph JSON file")
    p_ob.add_argument(
        "--emit",
        choices=("text", "graph"),
        default="text",
        help="also emit the decorated graph as JSON with --emit graph",
    )

    p_c = sub.add_parser(
        "contact",
        parents=[common],
        help="numerical contact-boundary checks",
        epilog=(
            "reeb bounds |omega(R, v)| by an absolute 1e-8, while its rounding "
            "grows about like epsilon^(-1/2): on the plane and on the chart "
            "'z0,z1,z0^2 + z1^3' (200 samples, seed 0) it passes from "
            "--epsilon 1e-14 up and fails on rounding alone from 5e-15 down."
        ),
    )
    p_c.add_argument(
        "subcheck",
        choices=tuple(_CONTACT_SUBCHECKS),
        help="which verification to run",
    )
    p_c.add_argument(
        "--hypersurface",
        metavar="EXPR",
        help="defining polynomial of a hypersurface germ (variables inferred)",
    )
    p_c.add_argument(
        "--ambient",
        type=int,
        metavar="N",
        help="chart dimension for a smooth-chart germ (default 2)",
    )
    p_c.add_argument(
        "--map",
        metavar="EXPRS",
        help="comma-separated chart components (default: identity map)",
    )
    p_c.add_argument("--f", metavar="EXPR", help="fibration function for theta checks")
    p_c.add_argument("--epsilon", type=float, default=0.01, help="level value")
    p_c.add_argument(
        "--eta",
        type=float,
        default=None,
        help="binding cutoff (default 1e-4 * max |f|^2 on the mesh)",
    )
    p_c.add_argument("--c", type=float, default=1.0, help="rescaling constant")
    p_c.add_argument("--samples", type=int, default=200, help="sample count")
    p_c.add_argument("--mesh", type=int, default=10000, help="mesh size")
    p_c.add_argument("--seed", type=int, default=0, help="random seed")
    return parser


def _infer_n_vars(text: str) -> int:
    indices = [int(m) for m in re.findall(r"z(\d+)", text)]
    if not indices:
        raise InputError(f"no variables found in {text!r}")
    return max(indices) + 1


def _build_variety(args):
    """Variety model plus the number of coordinates its points carry."""
    if args.hypersurface is not None and (
        args.map is not None or args.ambient is not None
    ):
        raise InputError("choose either --hypersurface or --ambient/--map, not both")
    if args.hypersurface is not None:
        n = _infer_n_vars(args.hypersurface)
        defining = polynomials.parse_polynomial(args.hypersurface, n)
        return varieties.Hypersurface(defining), n
    dim = args.ambient if args.ambient is not None else 2
    if args.map is not None:
        return varieties.SmoothChart(dim, polynomials.parse_map(args.map, dim)), dim
    return varieties.SmoothChart.identity(dim), dim


def _cmd_check(args):
    graph = load_graph(args.file)
    fillable = is_milnor_fillable(graph)
    result = {
        "fillable": fillable,
        "vertices": graph.vertex_count,
        "edges": len(graph.edges),
    }
    verdict = (
        "Milnor fillable (intersection form negative definite)"
        if fillable
        else "not Milnor fillable (intersection form not negative definite)"
    )
    code = EXIT_OK if fillable else EXIT_VERDICT
    return {"file": args.file}, result, lambda: [f"verdict: {verdict}"], code


def _cmd_divisor(args):
    graph = load_graph(args.file)
    divisor = minimal_divisor(graph)
    report = check_theorem_conditions(graph, divisor)
    result = report.to_dict()
    if args.oracle:
        oracle = oracle_minimal_divisor(graph, args.bound)
        if oracle != divisor:
            raise InternalInvariantError(
                f"descent found {list(divisor.multiplicities)} but the "
                f"bound-{args.bound} search found {list(oracle.multiplicities)}"
            )
        result["oracle"] = {"bound": args.bound, "agrees": True}

    def lines():
        text = [
            f"divisor: {list(divisor.multiplicities)}",
            f"multiplicities: {list(report.multiplicities)}",
            f"slack: {list(report.inequality_slack)}",
            f"automorphism invariant: {report.aut_invariant}",
        ]
        if args.oracle:
            text.append(f"oracle (bound {args.bound}): agrees")
        return text

    config = {"file": args.file, "oracle": args.oracle, "bound": args.bound}
    return config, result, lines, EXIT_OK


def _cmd_openbook(args):
    graph = load_graph(args.file)
    report = ubiquitous_open_book(graph)
    result = report.to_dict()
    if args.emit == "graph":
        decorated = graph_to_dict(report.graph.base)
        for vertex, n in zip(decorated["vertices"], report.graph.arrowheads):
            vertex["arrowheads"] = n
        result["decorated_graph"] = decorated

    def lines():
        text = [
            f"binding components: {report.binding_components}",
            f"divisor: {list(report.divisor.multiplicities)}",
            f"arrowheads: {list(report.graph.arrowheads)}",
            f"automorphism invariant: {report.aut_invariant}",
            f"commentary: {report.commentary}",
            "decorated graph:",
        ]
        text.extend("  " + line for line in report.graph.to_text().splitlines())
        if args.emit == "graph":
            text.append("decorated graph JSON:")
            text.append(json.dumps(decorated, sort_keys=True))
        return text

    config = {"file": args.file, "emit": args.emit}
    return config, result, lines, EXIT_OK


def _contact_spsh(args, variety, f):
    samples = varieties.sample_points(variety, args.epsilon, args.samples, args.seed)
    minimum = contact.check_spsh(variety, samples, trials=SPSH_TRIALS, seed=args.seed)
    passed = minimum > 0.0
    result = {
        "min_levi_quotient": minimum,
        "samples": len(samples),
        "trials": SPSH_TRIALS,
        "pass": passed,
    }
    return result, lambda: [
        f"min Levi quotient over {len(samples)} samples x {SPSH_TRIALS} "
        f"directions: {minimum!r}",
        f"strictly plurisubharmonic on the sample set: {passed}",
    ]


def _contact_reeb(args, variety, f):
    samples = varieties.sample_points(variety, args.epsilon, args.samples, args.seed)
    alpha_tol = (
        ALPHA_TOL_HYPERSURFACE
        if isinstance(variety, varieties.Hypersurface)
        else ALPHA_TOL_CHART
    )
    max_alpha, max_omega = contact.reeb_contract_deviations(variety, samples)
    passed = max_alpha <= alpha_tol and max_omega <= OMEGA_TOL
    result = {
        "max_alpha_deviation": max_alpha,
        "alpha_tolerance": alpha_tol,
        "max_omega_pairing": max_omega,
        "omega_tolerance": OMEGA_TOL,
        "samples": len(samples),
        "pass": passed,
    }
    return result, lambda: [
        f"max |alpha(R) - 1| over {len(samples)} samples: {max_alpha!r} "
        f"(tolerance {alpha_tol!r})",
        f"max |omega(R, v)| over level-tangent directions: {max_omega!r} "
        f"(tolerance {OMEGA_TOL!r})",
        f"Reeb contract satisfied: {passed}",
    ]


def _contact_identity(args, variety, f):
    samples = varieties.sample_points(variety, args.epsilon, args.samples, args.seed)
    residuals, skipped = contact.rescaled_reeb_identity(variety, f, args.c, samples)
    if not residuals:
        raise NumericalFinding("every sample landed on the binding")
    tolerance = IDENTITY_TOL_UNSCALED if args.c == 0.0 else IDENTITY_TOL
    worst = max(residuals)
    passed = worst <= tolerance
    result = {
        "max_residual": worst,
        "tolerance": tolerance,
        "evaluated": len(residuals),
        "skipped_on_binding": skipped,
        "pass": passed,
    }
    return result, lambda: [
        f"max rescaled-Reeb identity residual over {len(residuals)} "
        f"samples (c={args.c!r}): {worst!r} (tolerance {tolerance!r})",
        f"identity satisfied: {passed}",
    ]


def _contact_adapt(args, variety, f):
    report = contact.find_adaptation_constant(
        variety, f, args.epsilon, args.eta, args.mesh, args.seed
    )
    result = report.to_dict()
    result["pass"] = report.verified
    return result, lambda: [
        f"adaptation constant c = {report.c!r} (m = {report.m!r}, "
        f"k = {report.k!r})",
        f"retained {report.retained} of {report.mesh} mesh points "
        f"(eta = {report.eta!r})",
        f"min d theta(R) = {report.min_dtheta_reeb!r}",
        f"min d theta(R_c) = {report.min_dtheta_rescaled!r}",
        f"verified d theta(R_c) > 0 everywhere: {report.verified}",
    ]


def _contact_cone(args, variety, f):
    samples = varieties.sample_points(variety, args.epsilon, args.samples, args.seed)
    report = contact.lambda_cone_check(
        variety, f, samples, proportionality_tol=CONE_PROPORTIONALITY_TOL
    )
    result = report.to_dict()
    result["pass"] = report.all_positive is not False
    return result, lambda: [
        f"qualifying samples: {report.qualifying} of {report.total} "
        f"(proportionality tolerance {report.proportionality_tol!r}, "
        f"{report.skipped_on_binding} skipped on the binding)",
    ] + ([
        f"min Re lambda = {report.min_re_lambda!r}",
        f"max |arg lambda| = {report.max_abs_arg_lambda!r}",
        f"all qualifying lambda in the right half plane: {report.all_positive}",
    ] if report.qualifying else [report.note])


def _vacuous_or(vacuous: bool, value) -> str:
    return "vacuous (no mesh points)" if vacuous else repr(value)


def _contact_criterion(args, variety, f):
    report = contact.openbook_criterion_check(
        variety, f, args.epsilon, args.eta, args.mesh, args.seed
    )
    failed = (
        not report.first_vacuous
        and (report.min_dtheta_norm is None or report.min_dtheta_norm <= 0.0)
    ) or (
        not report.second_vacuous
        and (report.min_df_norm is None or report.min_df_norm <= 0.0)
    )
    result = report.to_dict()
    result["pass"] = not failed
    return result, lambda: [
        f"mesh {report.mesh} at epsilon {report.epsilon!r}, eta {report.eta!r}",
        "min ||d theta|level|| on {|f|^2 >= eta}: "
        + _vacuous_or(report.first_vacuous, report.min_dtheta_norm)
        + f" ({report.outside_count} points)",
        "min ||d f|level|| on {|f|^2 <= eta}: "
        + _vacuous_or(report.second_vacuous, report.min_df_norm)
        + f" ({report.inside_count} points)",
        f"open-book transversality certified on the mesh: {not failed}",
    ]


# Subcheck -> (handler, whether it needs --f).  A handler returns its result,
# whose "pass" flag sets the exit code, and its text lines as a thunk.
_CONTACT_SUBCHECKS = {
    "spsh": (_contact_spsh, False),
    "reeb": (_contact_reeb, False),
    "identity": (_contact_identity, True),
    "adapt": (_contact_adapt, True),
    "cone": (_contact_cone, True),
    "criterion": (_contact_criterion, True),
}


def _cmd_contact(args):
    for flag, value in (("--c", args.c), ("--eta", args.eta)):
        if value is not None and not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value!r}")
    variety, n_vars = _build_variety(args)
    config = {
        "subcheck": args.subcheck,
        "variety": repr(variety),
        "coordinates": n_vars,
        "f": args.f,
        "epsilon": args.epsilon,
        "eta": args.eta,
        "c": args.c,
        "samples": args.samples,
        "mesh": args.mesh,
        "seed": args.seed,
    }
    handler, needs_f = _CONTACT_SUBCHECKS[args.subcheck]
    f = None
    if needs_f:  # read before the handler samples
        if args.f is None:
            raise InputError(f"contact {args.subcheck} requires --f")
        f = polynomials.parse_polynomial(args.f, n_vars)
        if f.is_zero:
            raise InputError("--f must not be the zero polynomial")
    result, lines = handler(args, variety, f)
    return config, result, lines, EXIT_OK if result["pass"] else EXIT_FINDING


_HANDLERS = {
    "check": _cmd_check,
    "divisor": _cmd_divisor,
    "openbook": _cmd_openbook,
    "contact": _cmd_contact,
}


# Exact-type leaves as json writes them; float's nan and inf become json's names.
_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    float: lambda x: _FLOAT_NAMES.get(text := float.__repr__(x), text),
}


def _structured(value, newline: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` with each line break
    written as ``newline``, byte for byte.

    With ``indent`` set, json runs its generator-based Python encoder; here a
    non-empty exact ``dict`` with ``str`` keys, ``list`` or ``tuple`` is one
    join of its items, and exact leaves come from ``_LEAVES``.  Anything else
    (empty containers, other keys, subclasses, NumPy scalars) is left to
    json, re-indented: an encoded string holds no raw newline.  A key that
    is not a string fails to sort or to encode with a ``TypeError``, and so
    does anything json cannot write; json then writes the whole dict, or
    raises its own ``TypeError``.
    """
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if kind is dict and value:
        try:
            items = [
                f"{_encode_str(key)}: {_structured(value[key], inner)}"
                for key in sorted(value)
            ]
        except TypeError:
            return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if (kind is list or kind is tuple) and value:
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = [_structured(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)


def _emit(command, config, result, lines, fmt, stream):
    """Write the report; only the text format calls ``lines`` to build its lines."""
    if fmt == "structured":
        document = {
            "version": __version__,
            "command": command,
            "config": config,
            "result": result,
        }
        stream.write(_structured(document, "\n") + "\n")
    else:
        header = f"milnorbook {__version__} {command}"
        rendered_config = " ".join(
            f"{key}={config[key]!r}" for key in sorted(config)
        )
        stream.write(header + "\n")
        stream.write(f"config: {rendered_config}\n")
        for line in lines():
            stream.write(line + "\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config, result, lines, code = _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NegativeVerdict as exc:
        print(f"negative verdict: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NumericalFinding as exc:
        print(f"numerical finding: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except OverflowError as exc:
        print(f"numerical finding: floating-point overflow: {exc}", file=sys.stderr)
        return EXIT_FINDING
    config["format"] = args.format
    _emit(args.command, config, result, lines, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
