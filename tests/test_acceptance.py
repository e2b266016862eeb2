"""Acceptance battery: eleven binding checks at their stated tolerances.

Each test is one criterion and prints a single summary line (visible with
``-s``; ``-v`` shows the checklist).  Shared corpora and sample sets are
cached at module level so the timed criteria stay within their budgets
while later criteria can reuse the same points.
"""

import json
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from milnorbook import (
    Divisor,
    Hypersurface,
    SmoothChart,
    binding_multiplicities,
    check_spsh,
    divisor_from_multiplicities,
    e8_graph,
    fd_omega_deviation,
    find_adaptation_constant,
    intersection_matrix,
    is_negative_definite,
    minimal_divisor,
    oracle_minimal_divisor,
    parse_polynomial,
    reeb_contract_deviations,
    rescaled_reeb_identity,
    sample_points,
    star_graph,
    ubiquitous_open_book,
)
from milnorbook.contact import openbook_criterion_check  # noqa: F401 (CLI parity)
from milnorbook.errors import BoundTooSmall
from milnorbook.graphs import save_graph, valency

from oracles import (
    automorphism_group,
    nd_suite,
    principal_minor_signs_definite,
    random_weighted_graph,
    suite_matrices,
)

PLANE = SmoothChart.identity(2)
BRIESKORN = Hypersurface(parse_polynomial("z0^2 + z1^3 + z2^5", 3))

SUITE_SIZE = 13833          # negative definite classes, r <= 4
STRAGGLERS = 1765           # classes whose least divisor leaves the box [0,40]^r
MATRIX_CLASSES = 8078       # distinct intersection matrices of the family


@lru_cache(maxsize=1)
def suite_divisors():
    return tuple((g, minimal_divisor(g)) for g in nd_suite())


@lru_cache(maxsize=1)
def reeb_sample_sets():
    """The two 500-point sample sets shared by criteria 6, 8 and 10."""
    return (
        sample_points(PLANE, 0.01, 500, seed=0),
        sample_points(BRIESKORN, 0.01, 500, seed=0),
    )


def test_criterion_01_divisor_solver_matches_oracle():
    """Descent equals the bound-40 box search on every suite graph.

    Whenever the box is too small the oracle reports so, and the feasible
    region's closure under componentwise minima forces that to happen
    exactly when the descent answer itself leaves the box; both directions
    are asserted, so agreement is checked on all 13833 classes.
    """
    start = time.perf_counter()
    beyond_box = 0
    for g in nd_suite():
        d = minimal_divisor(g)
        try:
            assert oracle_minimal_divisor(g, 40) == d
            assert max(d.multiplicities) <= 40
        except BoundTooSmall:
            beyond_box += 1
            assert max(d.multiplicities) > 40
    elapsed = time.perf_counter() - start
    assert len(nd_suite()) == SUITE_SIZE
    assert beyond_box == STRAGGLERS
    assert elapsed < 60.0
    print(
        f"criterion 01 PASS: descent == bound-40 oracle on {SUITE_SIZE} "
        f"classes ({STRAGGLERS} provably beyond the box), {elapsed:.1f}s"
    )


def test_criterion_02_binding_inequality():
    failures = 0
    checked = 0
    for g, d in suite_divisors():
        counts = binding_multiplicities(g, d)
        for i, n in enumerate(counts):
            checked += 1
            lower = valency(g, i) + 2 * g.genus[i]
            if n < lower or n < 1:
                failures += 1
            if g.vertex_count >= 2 and lower < 1:
                failures += 1
    assert failures == 0
    print(
        f"criterion 02 PASS: n_i >= valency + 2 genus and n_i >= 1 at all "
        f"{checked} vertices, zero failures"
    )


def test_criterion_03_round_trip():
    for g, d in suite_divisors():
        assert divisor_from_multiplicities(g, binding_multiplicities(g, d)) == d
    rng = np.random.default_rng(3)
    produced = 0
    while produced < 1000:
        g = random_weighted_graph(rng)
        if not is_negative_definite(intersection_matrix(g)):
            continue
        m = tuple(int(x) for x in rng.integers(0, 10, g.vertex_count))
        if not any(m):
            continue
        produced += 1
        d = Divisor(m)
        assert divisor_from_multiplicities(g, binding_multiplicities(g, d)) == d
    print(
        f"criterion 03 PASS: exact round trip on {len(suite_divisors())} "
        f"suite divisors plus 1000 random effective divisors"
    )


def test_criterion_04_automorphism_invariance():
    for g, d in suite_divisors():
        m = d.multiplicities
        for sigma in automorphism_group(g):
            assert all(m[sigma(i)] == m[i] for i in range(g.vertex_count))
    d4 = star_graph(-2, [-2, -2, -2])
    assert minimal_divisor(d4).multiplicities == (9, 5, 5, 5)
    assert len(automorphism_group(d4)) == 6
    print(
        "criterion 04 PASS: every automorphism fixes the least divisor on "
        "the suite; the three-legged star gives (9, 5, 5, 5) with 6 symmetries"
    )


def test_criterion_05_definiteness_oracle_agreement():
    disagreements = 0
    for rows in suite_matrices():
        if is_negative_definite(rows) != principal_minor_signs_definite(rows):
            disagreements += 1
    rng = np.random.default_rng(0)
    for _ in range(1000):
        g = random_weighted_graph(rng)
        rows = intersection_matrix(g)
        if is_negative_definite(rows) != principal_minor_signs_definite(rows):
            disagreements += 1
    assert len(suite_matrices()) == MATRIX_CLASSES
    assert disagreements == 0
    print(
        f"criterion 05 PASS: leading-minor test agrees with the all-minors "
        f"oracle on {MATRIX_CLASSES} suite matrices + 1000 random graphs"
    )


def test_criterion_06_reeb_normalization():
    start = time.perf_counter()
    chart_samples, hyp_samples = reeb_sample_sets()
    worst = {"chart": 0.0, "hypersurface": 0.0, "omega": 0.0}
    for label, v, samples in (
        ("chart", PLANE, chart_samples),
        ("hypersurface", BRIESKORN, hyp_samples),
    ):
        worst[label], max_omega = reeb_contract_deviations(v, samples)
        worst["omega"] = max(worst["omega"], max_omega)
    elapsed = time.perf_counter() - start
    assert worst["chart"] <= 1e-9
    assert worst["hypersurface"] <= 1e-6
    assert worst["omega"] <= 1e-8
    assert elapsed < 10.0
    print(
        f"criterion 06 PASS: |alpha(R)-1| <= {worst['chart']:.1e} (chart) / "
        f"{worst['hypersurface']:.1e} (hypersurface), |omega(R,v)| <= "
        f"{worst['omega']:.1e}, {elapsed:.1f}s for 2x500 samples"
    )


def test_criterion_07_rescaled_identity():
    worst = {0.0: 0.0, 1.0: 0.0, 10.0: 0.0}
    for text in ("z0 z1", "z0^2 + z1^3"):
        f = parse_polynomial(text, 2)
        samples = sample_points(PLANE, 0.01, 100, seed=0)
        for c in (0.0, 1.0, 10.0):
            residuals, skipped = rescaled_reeb_identity(PLANE, f, c, samples)
            assert skipped == 0
            worst[c] = max(worst[c], *residuals)
    assert worst[0.0] <= 1e-12
    assert worst[1.0] <= 1e-6
    assert worst[10.0] <= 1e-6
    print(
        f"criterion 07 PASS: rescaled-Reeb identity residuals "
        f"{worst[0.0]:.1e} (c=0) / {worst[1.0]:.1e} (c=1) / "
        f"{worst[10.0]:.1e} (c=10) over 2 functions x 100 samples"
    )


def test_criterion_08_finite_difference_agreement():
    chart_samples, hyp_samples = reeb_sample_sets()
    worst = 0.0
    for v, samples in ((PLANE, chart_samples), (BRIESKORN, hyp_samples)):
        for i in range(len(samples)):
            worst = max(worst, fd_omega_deviation(v, samples[i : i + 1]))
    assert worst <= 1e-5
    print(
        f"criterion 08 PASS: finite-difference two-form deviation <= "
        f"{worst:.1e} at every criterion-6 sample"
    )


def test_criterion_09_adaptation_constant():
    flat = find_adaptation_constant(
        PLANE, parse_polynomial("z0", 2), 0.01, None, 10_000, seed=0
    )
    assert flat.c == 0.0
    assert flat.verified
    curved = find_adaptation_constant(
        PLANE, parse_polynomial("z0^2 + z1^3", 2), 0.01, None, 10_000, seed=0
    )
    assert curved.verified
    print(
        f"criterion 09 PASS: z0 adapts with c=0; z0^2+z1^3 verified at its "
        f"computed c={curved.c:.5g} on a 10^4-point mesh"
    )


def test_criterion_10_spsh_and_e8_pipeline():
    _, hyp_samples = reeb_sample_sets()
    minimum = check_spsh(BRIESKORN, hyp_samples, trials=20, seed=0)
    assert minimum > 0.0
    report = ubiquitous_open_book(e8_graph())
    multiplicities = [row[4] for row in report.per_vertex]
    assert all(n >= 1 for n in multiplicities)
    print(
        f"criterion 10 PASS: Levi minimum {minimum:.3f} > 0 over 500 "
        f"Brieskorn samples; its resolution graph's open book has binding "
        f"multiplicities {multiplicities}"
    )


def test_criterion_11_cli_determinism(tmp_path):
    graph_file = tmp_path / "e8.json"
    save_graph(e8_graph(), graph_file)
    invocations = [
        ["check", str(graph_file), "--format", "structured"],
        ["openbook", str(graph_file), "--emit", "graph", "--format", "structured"],
        [
            "contact", "spsh", "--hypersurface", "z0^2 + z1^3 + z2^5",
            "--samples", "100", "--seed", "5", "--format", "structured",
        ],
    ]
    for argv in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "milnorbook.cli", *argv],
                capture_output=True,
                timeout=120,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        json.loads(runs[0].stdout)  # structured output parses
    print(
        f"criterion 11 PASS: {len(invocations)} CLI commands byte-identical "
        f"across repeated seeded runs"
    )
