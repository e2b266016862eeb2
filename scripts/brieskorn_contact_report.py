#!/usr/bin/env python3
"""Numerical portrait of the (2,3,5) Brieskorn boundary and its open book.

Walks the full verification chain on the hypersurface z0^2 + z1^3 + z2^5:
point sampling quality, Reeb normalization, strict plurisubharmonicity,
the rescaled-Reeb identity on the ambient chart, an adaptation-constant
search, and the resolution-graph open book whose binding multiplicities
the numerics shadow.

Typical run:

    python3 scripts/brieskorn_contact_report.py --samples 500 --mesh 2000
"""

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from milnorbook import (
    Hypersurface,
    SmoothChart,
    check_spsh,
    e8_graph,
    fd_omega_deviation,
    find_adaptation_constant,
    parse_polynomial,
    reeb_contract_deviations,
    rescaled_reeb_identity,
    sample_points,
    ubiquitous_open_book,
)
from milnorbook.polynomials import PolynomialBlock

DEFINING = "z0^2 + z1^3 + z2^5"


@dataclass(frozen=True)
class ReportConfig:
    epsilon: float
    samples: int
    mesh: int
    seed: int


def parse_args(argv=None) -> ReportConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epsilon", type=float, default=0.01,
                        help="level value of |z|^2 (default 0.01)")
    parser.add_argument("--samples", type=int, default=500,
                        help="points on the link (default 500)")
    parser.add_argument("--mesh", type=int, default=2000,
                        help="mesh size for the adaptation search (default 2000)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    args = parser.parse_args(argv)
    return ReportConfig(args.epsilon, args.samples, args.mesh, args.seed)


def main(argv=None) -> int:
    config = parse_args(argv)
    surface = Hypersurface(parse_polynomial(DEFINING, 3))
    plane = SmoothChart.identity(2)

    print(f"hypersurface: {DEFINING} at epsilon={config.epsilon!r}, "
          f"seed={config.seed}")

    start = time.perf_counter()
    samples = sample_points(surface, config.epsilon, config.samples, config.seed)
    took = time.perf_counter() - start
    levels = np.abs(samples.rho_values - config.epsilon)
    h_values = PolynomialBlock((surface.defining,)).evaluate(samples.points)[:, 0]
    residuals = [abs(value) for value in h_values.tolist()]
    print(f"sampled {len(samples)} points in {took:.2f}s: "
          f"max |rho - epsilon| = {max(levels):.2e}, "
          f"max |h| = {max(residuals):.2e}")

    worst_alpha, worst_omega = reeb_contract_deviations(surface, samples)
    worst_fd = max(
        fd_omega_deviation(surface, samples[i : i + 1]) for i in range(len(samples))
    )
    print(f"Reeb normalization: max |alpha(R) - 1| = {worst_alpha:.2e}, "
          f"max |omega(R, v)| = {worst_omega:.2e}")
    print(f"finite-difference two-form deviation: max {worst_fd:.2e}")

    minimum = check_spsh(surface, samples, trials=20, seed=config.seed)
    print(f"Levi quotient minimum over {len(samples)} samples x 20 directions: "
          f"{minimum:.6f} ({'strictly plurisubharmonic' if minimum > 0 else 'FAILED'})")

    chart_samples = sample_points(plane, config.epsilon, 100, config.seed)
    for text, c in (("z0 z1", 1.0), ("z0^2 + z1^3", 10.0)):
        f = parse_polynomial(text, 2)
        worst = max(rescaled_reeb_identity(plane, f, c, chart_samples)[0])
        print(f"rescaled-Reeb identity for f = {text}, c = {c}: "
              f"max residual {worst:.2e}")

    for text in ("z0", "z0^2 + z1^3"):
        f = parse_polynomial(text, 2)
        report = find_adaptation_constant(
            plane, f, config.epsilon, None, config.mesh, config.seed
        )
        print(f"adaptation of f = {text}: c = {report.c:.6g}, "
              f"verified = {report.verified}, "
              f"min d theta(R) = {report.min_dtheta_reeb:.4g}")

    book = ubiquitous_open_book(e8_graph())
    counts = [row[4] for row in book.per_vertex]
    print(f"resolution-graph open book (E8 plumbing): binding multiplicities "
          f"{counts}, components = {book.binding_components}")
    ok = minimum > 0 and all(n >= 1 for n in counts)
    print(f"verdict: {'all checks positive' if ok else 'SOME CHECK FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
