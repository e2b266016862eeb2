"""The tolerance contract of the contact reports.

Identical invocations print byte-identical reports on one host.  Across
commits, a report's exit code and every field that is not a float (pass
flags, counts, ``k is None``) stay equal, and every float stays within the
bound :data:`BOUNDS` gives its field; the README holds the same table.  The
reports are those of the fifteen ``contact`` invocations the CI
determinism step runs, the README's two examples among them, compared with
``contract_reports.json``, which holds the reports of commit 2e6de2a and was
written from a checkout of it by

    parent=$(mktemp -d)
    git archive 2e6de2a | tar -x -C "$parent"
    PYTHONPATH="$parent/src" python tests/test_contract.py > tests/contract_reports.json
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from milnorbook import cli

FIXTURE = Path(__file__).with_name("contract_reports.json")
README = Path(__file__).parents[1] / "README.md"

# Field -> ("relative" or "absolute", bound).  The absolute bounds are for the
# rounding-level maxima, whose relative change is meaningless near zero.
BOUNDS = {
    "max_residual": ("absolute", 1e-13),
    "max_alpha_deviation": ("absolute", 1e-13),
    "max_omega_pairing": ("absolute", 1e-13),
    **{
        field: ("relative", 1e-12)
        for field in (
            "min_levi_quotient", "alpha_tolerance", "omega_tolerance", "tolerance",
            "c", "m", "k", "epsilon", "eta", "min_dtheta_reeb", "min_dtheta_rescaled",
            "proportionality_tol", "min_re_lambda", "max_abs_arg_lambda",
            "min_dtheta_norm", "min_df_norm",
        )
    },
}

# The CI determinism step's names and arguments.
INVOCATIONS = {
    "spsh": ["spsh", "--hypersurface", "z0^2 + z1^3 + z2^5", "--samples", "500"],
    "adapt": ["adapt", "--ambient", "2", "--f", "z0^2 + z1^3", "--mesh", "10000"],
    "criterion": ["criterion", "--hypersurface", "z0^2 + z1^2 + z2^2 + z3^3",
                  "--f", "z0", "--mesh", "2000"],
    "identity": ["identity", "--hypersurface", "z0^2 + z1^3 + z1*z2^3", "--f", "z1",
                 "--c", "10"],
    "chart-identity": ["identity", "--ambient", "2", "--map", "z0,z1,z0^2 + z1^3",
                       "--f", "z0^2 + z1^3", "--c", "10"],
    "chart-cone": ["cone", "--ambient", "2", "--map", "z0,z1,z0^2 + z1^3", "--f", "z0"],
    "chart-reeb": ["reeb", "--ambient", "2", "--map", "z0,z1,z0^2 + z1^3"],
    "reeb": ["reeb", "--hypersurface", "z0^2 + z1^3 + z2^5"],
    "chart-spsh": ["spsh", "--ambient", "2", "--map", "z0,z1,z0^2 + z1^3"],
    "cone": ["cone", "--hypersurface", "z0^2 + z1^3 + z2^5", "--f", "z1"],
    "hypersurface-adapt": ["adapt", "--hypersurface", "z0^2 + z1^3 + z2^5", "--f", "z1",
                           "--mesh", "500"],
    "chart-criterion": ["criterion", "--ambient", "2", "--map", "z0,z1,z0^2 + z1^3",
                        "--f", "z0^2 + z1^3"],
    "criterion-mesh": ["criterion", "--ambient", "2", "--f", "z0^2 + z1^3",
                       "--mesh", "100000"],
    "criterion-eta": ["criterion", "--hypersurface", "z0^2 + z1^3 + z2^5", "--f", "z1",
                      "--mesh", "2000", "--eta", "1e-3"],
    "line-cone": ["cone", "--ambient", "1", "--f", "z0 + 0.3*z0^2"],
}


def report(argv):
    """Exit code and structured ``result`` of ``milnorbook contact *argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["contact", *argv, "--format", "structured"])
    return {"argv": argv, "exit": code, "result": json.loads(out.getvalue())["result"]}


def within(field, got, expected) -> bool:
    kind, bound = BOUNDS[field]
    if kind == "absolute":
        return abs(got - expected) <= bound
    return got == expected or math.isclose(got, expected, rel_tol=bound, abs_tol=0.0)


def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_the_fixture_holds_every_invocation():
    assert {name: entry["argv"] for name, entry in fixture().items()} == INVOCATIONS


@pytest.mark.parametrize("name", INVOCATIONS)
def test_report_meets_the_contract(name):
    expected = fixture()[name]
    got = report(INVOCATIONS[name])
    assert got["exit"] == expected["exit"]
    assert sorted(got["result"]) == sorted(expected["result"])
    for field, value in expected["result"].items():
        other = got["result"][field]
        assert type(other) is type(value), field
        if isinstance(value, float):
            assert within(field, other, value), (field, other, value)
        else:
            assert other == value, field


def test_every_float_has_a_bound():
    for entry in fixture().values():
        for field, value in entry["result"].items():
            assert not isinstance(value, float) or field in BOUNDS, field


def test_the_readme_states_the_same_bounds():
    rows = re.findall(r"^\| `(\w+)` \| (relative|absolute) ([0-9e.-]+) \|$",
                      README.read_text(), flags=re.MULTILINE)
    assert {field: (kind, float(bound)) for field, kind, bound in rows} == BOUNDS


if __name__ == "__main__":
    reports = {name: report(argv) for name, argv in INVOCATIONS.items()}
    json.dump(reports, sys.stdout, indent=1)
    sys.stdout.write("\n")
