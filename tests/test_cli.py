"""Command-line behavior: exit codes, report shape, determinism."""

import contextlib
import enum
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from milnorbook import cli
from milnorbook.errors import InternalInvariantError
from milnorbook.graphs import (
    PlumbingGraph,
    chain_graph,
    graph_from_dict,
    load_graph,
    save_graph,
)
from milnorbook.polynomials import Polynomial


@pytest.fixture
def a3_file(tmp_path):
    path = tmp_path / "a3.json"
    save_graph(chain_graph([-2, -2, -2]), path)
    return str(path)


@pytest.fixture
def flat_file(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(
        json.dumps({"vertices": [{"id": 0, "genus": 0, "euler": 0}], "edges": []})
    )
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_fillable_graph_exits_zero(self, capsys, a3_file):
        code, out, err = run(capsys, "check", a3_file)
        assert code == 0
        assert "verdict: Milnor fillable" in out
        assert err == ""

    def test_negative_verdict_exits_two_with_report(self, capsys, flat_file):
        code, out, _ = run(capsys, "check", flat_file)
        assert code == 2
        assert "not Milnor fillable" in out

    def test_openbook_negative_verdict_exits_two(self, capsys, flat_file):
        code, out, err = run(capsys, "openbook", flat_file)
        assert code == 2
        assert out == ""
        assert err.startswith("negative verdict:")

    def test_unreadable_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 1
        assert err.startswith("input error:")

    def test_usage_error_exits_one_via_systemexit(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["no-such-command"])
        assert info.value.code == 1

    def test_parser_is_built_once(self, capsys, a3_file, monkeypatch):
        build_parser = cli.build_parser
        built = []

        def counting_build_parser():
            built.append(True)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            assert run(capsys, "check", a3_file)[0] == 0
            assert run(capsys, "check", a3_file)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_internal_invariant_exits_three(self, capsys, a3_file, monkeypatch):
        def explode(args):
            raise InternalInvariantError("forced for the test")

        monkeypatch.setitem(cli._HANDLERS, "check", explode)
        code, _, err = run(capsys, "check", a3_file)
        assert code == 3
        assert err.startswith("internal invariant failure:")

    def test_numerical_finding_exits_four(self, capsys):
        code, _, err = run(
            capsys,
            "contact", "adapt", "--ambient", "1", "--f", "z0 - 0.2",
            "--mesh", "200",
        )
        assert code == 4
        assert err.startswith("numerical finding:")

    @pytest.mark.parametrize(
        "args",
        [
            # |h| bound on the sphere: radius 1e100 to the fifth power.
            ["spsh", "--hypersurface", "z0^2+z1^3+z2^5", "--epsilon", "1e200",
             "--samples", "5"],
            # An infinite power inside the polynomial evaluation.
            ["adapt", "--ambient", "2", "--f", "z0^200", "--epsilon", "1e10",
             "--mesh", "20"],
            # exp(c |f|^2) in the rescaled Reeb field.
            ["identity", "--ambient", "2", "--f", "z0^2+z1^3", "--c", "1e12",
             "--samples", "5"],
            # |f|^2 squared as Python squares, in the mesh and the weights.
            ["criterion", "--ambient", "2", "--f", "1e160 z0"],
            ["identity", "--ambient", "2", "--f", "1e160 z0", "--c", "1"],
            # Finite terms whose sum, the |h| or |f| bound, is infinite: an
            # infinite bound would pass every residual test or put every
            # sample on the binding.
            ["spsh", "--hypersurface", "1e300 z0^2 + z1^2 + z2^2", "--epsilon", "1e9"],
            ["cone", "--ambient", "2", "--f", "1e300 z0 + z1", "--epsilon", "1e18",
             "--samples", "20"],
        ],
        ids=["magnitude_bound", "evaluate", "exp", "square-mesh", "square-weight",
             "bound-sum-h", "bound-sum-f"],
    )
    def test_overflow_is_a_numerical_finding(self, capsys, args):
        code, out, err = run(capsys, "contact", *args)
        assert code == 4
        assert out == ""
        assert err.startswith("numerical finding: floating-point overflow")
        if args[0] == "criterion":  # the mesh cutoff raises as Python's square
            assert err == (
                "numerical finding: floating-point overflow: "
                "(34, 'Numerical result out of range')\n"
            )

    def test_an_infinite_chart_level_warns_of_nothing(self):
        # The level |1e200 z0|^2 + |z1|^2 overflows and the sampler rejects
        # it; the hypersurface sampler's gradient norms overflow on
        # 1e308 z0^2 + z1^3.  The only line on stderr is the finding.
        # Warnings are not captured by capsys, so the CLI runs in a child
        # process.
        def spsh(argv):
            return subprocess.run(
                [sys.executable, "-m", "milnorbook.cli", "contact", "spsh", *argv],
                capture_output=True, text=True, timeout=120,
            )

        invocations = [
            (["--ambient", "2", "--map", "1e200 z0, z1"], 200),
            (["--hypersurface", "1e308 z0^2 + z1^3", "--samples", "5"], 5),
        ]
        for argv, count in invocations:
            result = spsh(argv)
            assert (result.returncode, result.stdout) == (4, ""), argv
            assert result.stderr == (
                f"numerical finding: only 0 of {count} requested samples converged "
                f"after {10 * count} draws (rate below 10%)\n"
            ), argv
        # |h| reaches 1e200 on the unit sphere, and the residual measure,
        # scaled by that bound, stays finite: the draws converge, and no
        # warning escapes on the way.
        result = spsh(["--hypersurface", "1e200 z0^2 + z1^2 + z2^2", "--epsilon", "1"])
        assert (result.returncode, result.stderr) == (0, "")
        assert "min Levi quotient over 200 samples x 20 directions: 4.0\n" in result.stdout

    def test_an_infinite_gradient_reaches_no_lapack_call(self):
        # |dh| overflows on the sphere: the Gauss–Newton steps are NaN and the
        # draws are rejected, where a least-squares call once printed
        # LAPACK's DLASCL complaint and never returned.
        argv = ["contact", "spsh", "--hypersurface", "1e308 z0^2 + z1^3",
                "--samples", "5"]
        result = subprocess.run(
            [sys.executable, "-m", "milnorbook.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 4
        assert "DLASCL" not in result.stdout + result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["spsh", "--hypersurface", "1e400 z0^2 + z1^2 + z2^2"],
            ["cone", "--ambient", "2", "--f", "1e400 z0 + z1"],
        ],
        ids=["hypersurface", "f"],
    )
    def test_a_literal_beyond_the_float_range_exits_one(self, capsys, args):
        code, out, err = run(capsys, "contact", *args)
        assert (code, out) == (1, "")
        assert err == (
            "input error: number out of the floating-point range (position 0)\n"
        )

    def test_an_enormous_f_turns_no_product_infinite(self):
        # |f| near 1e306: d theta divides df by f before pairing it, so no
        # product overflows and nothing but the report is printed.
        argv = ["contact", "cone", "--ambient", "2", "--f", "1e308 z0 + 1e308 z1"]
        result = subprocess.run(
            [sys.executable, "-m", "milnorbook.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert "no near-proportional samples" in result.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ["spsh", "--samples", "5"],
            ["adapt", "--f", "z0^2 + z1^3", "--mesh", "20"],
            ["criterion", "--f", "z0^2 + z1^3", "--mesh", "20"],
        ],
        ids=lambda args: args[0],
    )
    def test_negative_seed_exits_one(self, capsys, args):
        code, out, err = run(capsys, "contact", *args, "--ambient", "2", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    @pytest.mark.parametrize("epsilon", ["-0.01", "0", "nan", "inf"])
    def test_bad_level_value_exits_one(self, capsys, epsilon):
        code, out, err = run(
            capsys, "contact", "spsh", "--samples", "5", f"--epsilon={epsilon}",
        )
        assert (code, out) == (1, "")
        assert err.startswith("input error: level value must be positive")

    @pytest.mark.parametrize(
        "variety", [[], ["--map", "z0,z1,z0^2 + z1^3"]], ids=["plane", "map"]
    )
    def test_a_tiny_chart_level_is_sampled(self, capsys, variety):
        # The radial root 1e-30 lies below 2^-80, past the reach of a
        # bisection from [0, 1].
        code, out, err = run(
            capsys, "contact", "spsh", "--ambient", "2", *variety,
            "--epsilon", "1e-60", "--format", "structured",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["pass"] is True

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_non_finite_rescaling_constant_exits_one(self, capsys, c):
        code, out, err = run(
            capsys, "contact", "identity", "--f", "z0", "--samples", "5", f"--c={c}",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("flag", ["--c", "--eta"])
    @pytest.mark.parametrize("subcheck", sorted(cli._CONTACT_SUBCHECKS))
    def test_non_finite_c_or_eta_exits_one_for_every_subcheck(
        self, capsys, subcheck, flag, value
    ):
        """argparse's float reads 1e400 as inf: neither may reach a report,
        whose JSON would hold NaN or Infinity."""
        code, out, err = run(
            capsys, "contact", subcheck, "--f", "z0", "--samples", "5",
            "--mesh", "50", f"{flag}={value}", "--format", "structured",
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"input error: {flag} must be finite")

    def test_failed_check_exits_four_with_report(self, capsys):
        code, out, _ = run(
            capsys,
            "contact", "criterion", "--ambient", "1", "--f", "1",
            "--eta", "0.5", "--mesh", "50",
        )
        assert code == 4
        assert "open-book transversality certified on the mesh: False" in out

    @pytest.mark.parametrize("subcheck", ["identity", "adapt", "cone", "criterion"])
    def test_zero_f_exits_one(self, capsys, subcheck):
        code, out, err = run(
            capsys, "contact", subcheck, "--ambient", "2", "--f", "0",
            "--samples", "20", "--mesh", "20",
        )
        assert (code, out) == (1, "")
        assert err == "input error: --f must not be the zero polynomial\n"

    def test_contact_requires_f(self, capsys):
        code, _, err = run(capsys, "contact", "identity")
        assert code == 1
        assert "requires --f" in err

    def test_conflicting_variety_options_exit_one(self, capsys):
        code, _, err = run(
            capsys,
            "contact", "spsh", "--hypersurface", "z0^2 + z1^2", "--ambient", "3",
        )
        assert code == 1
        assert "not both" in err

    def test_adapt_eta_validation(self, capsys):
        code, _, err = run(
            capsys,
            "contact", "adapt", "--ambient", "1", "--f", "z0",
            "--eta", "1.0", "--mesh", "100",
        )
        assert code == 1
        assert "eta" in err


    @pytest.mark.parametrize(
        "vertices",
        [
            [{"id": 0, "genus": 0, "euler": -1.7}],
            [[0, 0]],
            "abc",
            5,
        ],
    )
    def test_malformed_graph_exits_one(self, capsys, tmp_path, vertices):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": []}))
        code, out, err = run(capsys, "divisor", str(path), "--oracle")
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    def test_oracle_box_too_large_exits_one(self, capsys, tmp_path):
        """E7 at the default bound would stream blocks of 41^5 rows."""
        e7 = PlumbingGraph(
            (0,) * 7, (-2,) * 7, tuple((i, i + 1) for i in range(5)) + ((2, 6),)
        )
        path = tmp_path / "e7.json"
        save_graph(e7, path)
        code, out, err = run(capsys, "divisor", str(path), "--oracle")
        assert code == 1
        assert out == ""
        assert err.startswith("input error: box [0, 40]^7 is too large")

    @pytest.mark.parametrize(
        "weights, bound, divisor",
        [
            ([-2], "100000000000000000000", [1]),
            ([-(10**19), -2], None, [1, 1]),
            ([-4 * 10**18, -2, -2], None, [1, 3, 2]),
        ],
        ids=["bound-1e20", "euler-1e19", "euler-4e18"],
    )
    def test_oracle_values_beyond_int64_exit_one(
        self, capsys, tmp_path, weights, bound, divisor
    ):
        """The oracle is integer arithmetic: a box whose values no 64-bit
        integer holds is an input error, not a numerical finding, while the
        descent answers the same graph exactly."""
        path = tmp_path / "heavy.json"
        save_graph(chain_graph(weights), path)
        argv = ["divisor", str(path), "--format", "structured"]
        code, out, err = run(
            capsys, *argv, "--oracle", *(["--bound", bound] if bound else [])
        )
        assert code == 1
        assert out == ""
        box = f"box [0, {bound or 40}]^{len(weights)} holds values up to "
        assert err.startswith("input error: " + box)
        assert err.rstrip().endswith("beyond the 64-bit integers of the scan")
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == ""
        assert json.loads(out)["result"]["divisor"] == divisor


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-4, 3)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=10,
)
VERTEX = (
    JSON
    | st.lists(st.integers(-4, 3) | SCALARS, max_size=4)
    | st.fixed_dictionaries(
        {key: st.integers(-4, 3) | SCALARS for key in ("id", "genus", "euler")}
    )
)
EDGE = JSON | st.lists(st.integers(0, 4) | SCALARS, min_size=2, max_size=2)


@st.composite
def near_graphs(draw):
    """A valid small tree document, with at most one value replaced."""
    r = draw(st.integers(1, 4))
    vertices = [
        [i, draw(st.integers(0, 2)), draw(st.integers(-4, 1))] for i in range(r)
    ]
    edges = [[draw(st.integers(0, i - 1)), i] for i in range(1, r)]
    if draw(st.booleans()):
        rows = vertices + edges
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(SCALARS)
    return {"vertices": vertices, "edges": edges}


DOCUMENTS = (
    JSON
    | st.fixed_dictionaries(
        {
            "vertices": JSON | st.lists(VERTEX, max_size=5),
            "edges": JSON | st.lists(EDGE, max_size=6),
        }
    )
    | near_graphs()
)


@given(st.sampled_from(["check", "divisor"]), DOCUMENTS)
@settings(max_examples=200)
def test_any_json_document_maps_to_an_exit_code(command, document):
    """Whatever JSON a graph file holds, main returns a code in 0..4 and no
    exception escapes it."""
    handle, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(document, stream)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, path])
    finally:
        os.unlink(path)
    assert code in range(5)
    if code == 1:
        assert err.getvalue().startswith("input error:")


class TestReports:
    def test_text_header_and_config_line(self, capsys, a3_file):
        code, out, _ = run(capsys, "check", a3_file)
        lines = out.splitlines()
        assert lines[0] == f"milnorbook {cli.__version__} check"
        assert lines[1].startswith("config: ")
        assert "format='text'" in lines[1]

    def test_structured_document_shape(self, capsys, a3_file):
        code, out, _ = run(capsys, "check", "--format", "structured", a3_file)
        assert code == 0
        document = json.loads(out)
        assert set(document) == {"version", "command", "config", "result"}
        assert document["command"] == "check"
        assert document["result"]["fillable"] is True
        assert document["result"]["vertices"] == 3

    def test_format_flag_accepted_after_subcommand(self, capsys, a3_file):
        code, out, _ = run(capsys, "check", a3_file, "--format", "structured")
        assert code == 0
        assert json.loads(out)["result"]["fillable"] is True

    def test_divisor_oracle_agreement(self, capsys, a3_file):
        code, out, _ = run(
            capsys, "divisor", a3_file, "--oracle", "--format", "structured"
        )
        assert code == 0
        document = json.loads(out)
        assert document["result"]["divisor"] == [2, 3, 2]
        assert document["result"]["oracle"] == {"bound": 40, "agrees": True}

    def test_openbook_emit_graph_round_trips(self, capsys, a3_file):
        code, out, _ = run(
            capsys, "openbook", a3_file, "--emit", "graph", "--format", "structured"
        )
        assert code == 0
        decorated = json.loads(out)["result"]["decorated_graph"]
        assert graph_from_dict(decorated) == load_graph(a3_file)
        assert [v["arrowheads"] for v in decorated["vertices"]] == [1, 2, 1]

    def test_openbook_emit_graph_text_line_is_pinned(self, capsys, tmp_path):
        """A double edge is listed twice, and the keys are sorted."""
        path = tmp_path / "double.json"
        save_graph(PlumbingGraph((0, 1, 0), (-3, -3, -2), ((0, 1), (0, 1), (1, 2))), path)
        code, out, _ = run(capsys, "openbook", str(path), "--emit", "graph")
        assert code == 0
        lines = out.splitlines()
        assert lines[-2] == "decorated graph JSON:"
        assert lines[-1] == (
            '{"edges": [[0, 1], [0, 1], [1, 2]], "vertices": ['
            '{"arrowheads": 4, "euler": -3, "genus": 0, "id": 0}, '
            '{"arrowheads": 5, "euler": -3, "genus": 1, "id": 1}, '
            '{"arrowheads": 1, "euler": -2, "genus": 0, "id": 2}]}'
        )

    def test_identity_unscaled_is_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "contact", "identity", "--ambient", "2", "--f", "z0 z1",
            "--c", "0", "--samples", "50", "--format", "structured",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["max_residual"] == 0.0
        assert result["tolerance"] == 1e-12

    def test_hypersurface_reeb_contract(self, capsys):
        code, out, _ = run(
            capsys,
            "contact", "reeb", "--hypersurface", "z0^2 + z1^3 + z2^5",
            "--samples", "20", "--format", "structured",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["pass"] is True
        assert result["max_alpha_deviation"] <= 1e-6

    def test_cone_report_on_the_line(self, capsys):
        code, out, _ = run(
            capsys,
            "contact", "cone", "--ambient", "1", "--f", "z0",
            "--samples", "30", "--format", "structured",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["qualifying"] == 30
        assert result["all_positive"] is True


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


_LEAF_VALUES = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t\u2028", "é ✓ 😀", ""]),
    st.integers(),
    st.integers(2**63, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 1e16, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from(list(_Level)),
)
_DOCUMENTS = st.recursive(
    _LEAF_VALUES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4).map(OrderedDict),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=30,
)


class TestStructuredWriter:
    """``cli._structured`` writes what ``json.dumps(..., sort_keys=True,
    indent=2)`` writes, byte for byte, and fails where json fails."""

    @given(_DOCUMENTS)
    @settings(max_examples=300)
    def test_bytes_match_json(self, document):
        assert cli._structured(document, "\n") == json.dumps(
            document, sort_keys=True, indent=2
        )

    @pytest.mark.parametrize(
        "document",
        [Fraction(1, 2), {"a": {1, 2}}, [{"a": [Fraction(1, 3)]}], {"a": 1, 2: 3}],
        ids=["fraction", "set", "nested-fraction", "mixed-keys"],
    )
    def test_unwritable_values_raise_the_type_error_of_json(self, document):
        with pytest.raises(TypeError) as expected:
            json.dumps(document, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as found:
            cli._structured(document, "\n")
        assert str(found.value) == str(expected.value)


SUBCHECK_ARGS = {
    "spsh": ["--samples", "20"],
    "reeb": ["--samples", "20"],
    "identity": ["--c", "10", "--samples", "20"],
    "adapt": ["--mesh", "60"],
    "cone": ["--samples", "20"],
    "criterion": ["--mesh", "60"],
}


@pytest.mark.parametrize(
    "variety",
    [
        ["--ambient", "2", "--map", "z0,z1,z0^2 + z1^3", "--f", "z0^2 + z1^3"],
        ["--hypersurface", "z0^2 + z1^3 + z1*z2^3", "--f", "z1"],
    ],
    ids=["chart", "hypersurface"],
)
@pytest.mark.parametrize("subcheck", SUBCHECK_ARGS)
def test_block_evaluator_is_the_only_evaluation_path(
    capsys, monkeypatch, variety, subcheck
):
    """With scalar ``Polynomial.evaluate`` disabled, every subcheck prints
    exactly what it prints with it: the checks evaluate on blocks only."""
    argv = ["contact", subcheck, *variety, *SUBCHECK_ARGS[subcheck], "--seed", "2"]
    expected = run(capsys, *argv)

    def scalar_evaluate(self, point):
        raise AssertionError("scalar Polynomial.evaluate called")

    monkeypatch.setattr(Polynomial, "evaluate", scalar_evaluate)
    assert run(capsys, *argv) == expected


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["spsh", "--ambient", "2", "--samples", "50"],
            ["reeb", "--hypersurface", "z0^2 + z1^3 + z2^5", "--samples", "50"],
            ["identity", "--ambient", "2", "--f", "z0^2 + z1^3", "--c", "10",
             "--samples", "50"],
            # d theta(R) < 0 at some points, so c > 0 and the search runs.
            ["adapt", "--ambient", "2", "--f", "z0 + 1000*z1^3", "--mesh", "200"],
            ["cone", "--ambient", "1", "--f", "z0", "--samples", "100"],
            ["criterion", "--ambient", "2", "--f", "z0^2 + z1^3", "--mesh", "200"],
        ],
        ids=lambda args: args[0],
    )
    def test_structured_reports_are_byte_identical(self, capsys, args):
        argv = ["contact", *args, "--seed", "3", "--format", "structured"]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_seed_changes_samples_not_shape(self, capsys):
        # A minimum over the samples, not a quantity that is constant on the
        # link (the Levi quotient is 4 at every point of a hypersurface, so
        # two seeds could tell it apart only in the last bits): seeds 0 and
        # 1 give 10.216 and 10.128.
        base = ["contact", "criterion", "--hypersurface", "z0^2 + z1^2 + z2^2 + z3^3",
                "--f", "z0", "--mesh", "200", "--format", "structured"]
        _, out_a, _ = run(capsys, *base, "--seed", "0")
        _, out_b, _ = run(capsys, *base, "--seed", "1")
        result_a, result_b = json.loads(out_a)["result"], json.loads(out_b)["result"]
        low, high = sorted((result_a["min_dtheta_norm"], result_b["min_dtheta_norm"]))
        assert high - low > 1e-3 * high
        assert set(result_a) == set(result_b)
