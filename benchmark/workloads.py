"""Seeded job lists for the four workloads.

A workload is one *pass*: a fixed schedule of ``milnorbook`` command lines
whose shape (command, graph family and size, mesh or sample count) does not
depend on the seed.  The seed picks the details that should not move the
cost much: weights, genus, block order of mixed chains, germs, ``f``,
sampler seeds, and the job order of the suite and contact workloads.  That keeps one pass about equally expensive for every seed,
so runs with different seeds can be compared.

Each job is a dict with ``argv`` (what the program sees), ``expect`` or
``contact`` (what the checker compares against, from :mod:`reference`)
and, for inputs the package is known to mishandle, ``known_defect``: why
the input is kept and ``seen``, the failure the package showed on it when
this benchmark was written (see :func:`reference.check_known_failure`).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

from reference import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    Graph,
    expect_graph_job,
    is_negative_definite,
    least_divisor,
)

WORKLOADS = ("plumbing-large", "plumbing-suite", "contact-chart", "contact-hypersurface")

DEFAULT_BOUND = 40  # the CLI's default oracle box bound


# graph families --------------------------------------------------------------


def chain(eulers, genus=None) -> Graph:
    genus = genus or [0] * len(eulers)
    return Graph(genus, eulers, [(i, i + 1) for i in range(len(eulers) - 1)])


def star(center: int, legs, center_genus: int = 0) -> Graph:
    """Vertex 0 plus one path per leg; leg vertices numbered outward."""
    euler, genus, edges = [center], [center_genus], []
    for leg in legs:
        previous = 0
        for weight in leg:
            euler.append(weight)
            genus.append(0)
            edges.append((previous, len(euler) - 1))
            previous = len(euler) - 1
    return Graph(genus, euler, edges)


def cycle(eulers) -> Graph:
    r = len(eulers)
    return Graph([0] * r, eulers, [(i, (i + 1) % r) for i in range(r)])


def mixed_chain(rng: random.Random, n: int) -> Graph:
    """-2 runs of fixed lengths separated by -3, in seeded order.

    A fixed multiset of run lengths keeps the descent mass, which sets the
    cost, close to the same for every seed.
    """
    runs = [1, 2, 2, 3, 3, 4, 5, 6] * (n // 30 + 1)
    rng.shuffle(runs)
    eulers = []
    for length in runs:
        eulers += [-2] * length + [-3]
    return chain(eulers[:n])


def random_tree(rng: random.Random, r: int, eulers, genera=(0, 1)) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, r)]
    return Graph([rng.choice(genera) for _ in range(r)],
                 [rng.choice(eulers) for _ in range(r)], edges)


def definite_tree(rng, r, eulers) -> Graph:
    while True:
        g = random_tree(rng, r, eulers)
        if is_negative_definite(g):
            return g


# the small-graph family of the verification suite: r <= 4, Euler weights
# -4..-1, genus 0/1, edge multiplicity <= 2, connected, negative definite.
SUITE_EULERS = (-4, -3, -2, -1)
SUITE_PER_SIZE = {1: 2, 2: 6, 3: 44, 4: 748}  # about the family's shares


def _connected(r, edges) -> bool:
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == r


def _canonical(g: Graph):
    """Isomorphism-class key: lexicographically least relabeling."""
    best = None
    for perm in itertools.permutations(range(g.r)):
        weights = [None] * g.r
        for i in range(g.r):
            weights[perm[i]] = (g.genus[i], g.euler[i])
        edges = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in g.edges)
        key = (tuple(weights), tuple(edges))
        best = key if best is None or key < best else best
    return best


def suite_sample(rng: random.Random, r: int, count: int, seen: set) -> list[Graph]:
    pairs = list(itertools.combinations(range(r), 2))
    out = []
    while len(out) < count:
        mult = [rng.randrange(3) for _ in pairs]
        edges = [p for p, k in zip(pairs, mult) for _ in range(k)]
        if not _connected(r, edges):
            continue
        g = Graph([rng.randrange(2) for _ in range(r)],
                  [rng.choice(SUITE_EULERS) for _ in range(r)], edges)
        if not is_negative_definite(g):
            continue
        key = _canonical(g)
        if key in seen:
            continue
        seen.add(key)
        out.append(g)
    return out


# job construction ------------------------------------------------------------


class JobWriter:
    """Writes input files under ``workdir`` and collects the jobs."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list[dict] = []

    def _path(self, doc) -> str:
        path = os.path.join(self.workdir, f"g{len(self.jobs)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def graph(self, command: str, g: Graph, *, oracle_bound=None,
              explicit_bound=False, known_defect=None):
        argv = [command, self._path(g.to_doc())]
        if command == "openbook":
            argv += ["--emit", "graph"]
        if oracle_bound is not None:
            argv.append("--oracle")
            if explicit_bound:
                argv += ["--bound", str(oracle_bound)]
        job = {"argv": argv + ["--format", "structured"], "graph": g,
               "bound": oracle_bound,
               "expect": expect_graph_job(command, g, oracle_bound)}
        if known_defect:
            job["known_defect"] = known_defect
        self.jobs.append(job)

    def malformed(self, doc: dict, known_defect: dict):
        argv = ["divisor", self._path(doc), "--oracle", "--format", "structured"]
        seen = known_defect["seen"]
        if "reads_as" in seen:  # the report of the graph the package reads
            g = seen.pop("reads_as")
            seen["job"] = {"argv": argv, "graph": g, "bound": DEFAULT_BOUND,
                           "expect": expect_graph_job("divisor", g, DEFAULT_BOUND)}
        self.jobs.append({"argv": argv, "malformed": True,
                          "expect": {"exit": EXIT_INPUT},
                          "known_defect": known_defect})

    def contact(self, spec: dict, variety_argv: list[str]):
        argv = ["contact", spec["subcheck"], *variety_argv,
                "--epsilon", repr(spec["epsilon"]), "--c", repr(spec["c"]),
                "--samples", str(spec["samples"]), "--mesh", str(spec["mesh"]),
                "--seed", str(spec["seed"]), "--format", "structured"]
        if spec["f"] is not None:
            argv += ["--f", spec["f"]]
        self.jobs.append({"argv": argv, "contact": spec,
                          "expect": {"exit": EXIT_OK}})


def _plumbing_large(rng: random.Random, w: JobWriter):
    # Commands are fixed by position, not drawn, so the jobs near p50 and
    # p90 and the largest allocations are the same for every seed.
    alternate = itertools.cycle(("divisor", "openbook"))
    # Descent: A_n ladder; divisor and openbook cost the same descent.
    for n in (10, 20, 30, 40, 50, 80):
        w.graph("check", chain([-2] * n))
        w.graph(next(alternate), chain([-2] * n))
    # Bareiss definiteness: check alone on long chains.  With the chains
    # below and A_50, the 175-180 ones make a run of equally slow jobs
    # around the 11th slowest, which is p90.
    for n in (175, 180, 200):
        w.graph("check", chain([-2] * n))
    # Descent plus definiteness: mixed {-2, -3} chains.
    for n in (100, 150):
        g = mixed_chain(rng, n)
        w.graph("check", g)
        w.graph(next(alternate), g)
    # Automorphisms: stars with k equal legs enumerate k! permutations.
    for k in (4, 5, 6, 7, 8):
        for length in (1, 2):
            leg = [rng.choice((-2, -3))] + [-2] * (length - 1)
            g = star(-k - rng.randrange(2), [leg] * k, rng.randrange(2))
            if k <= 6:
                commands = ["check", "divisor", "openbook"]
            elif k == 7:
                commands = [next(alternate)]
            else:  # the 8-leg open book; 8 legs of length 2 take seconds
                commands = ["openbook"] if length == 1 else ["check"]
            for command in commands:
                w.graph(command, g)
    # Non-definite inputs: exit 2.  The chains fail only at their last pivot.
    for n in (175, 200):
        w.graph("check", chain([-2] * (n - 1) + [0]))
    w.graph("divisor", chain([-2] * 174 + [0]))
    indefinite = [
        (star(-2, [[-2]] * 4), ("check", "divisor")),  # affine D4, semidefinite
        (cycle([-2] * rng.randrange(5, 30)), ("check", "openbook")),  # affine A_n
        (chain([-2] * rng.randrange(2, 20) + [-1, -1]), ("divisor", "openbook")),
        (star(-1, [[-2]] * 4), ("check", "divisor")),
        (Graph([rng.randrange(3)], [rng.randrange(0, 3)], []), ("check", "openbook")),
    ]
    for g, commands in indefinite:
        for command in commands:
            w.graph(command, g)
    # Single vertices, m = ceil(2g / |e|), and random definite trees.
    for command in ("check", "divisor", "openbook") * 3:
        w.graph(command, Graph([rng.randrange(51)], [-rng.randrange(1, 5)], []))
    for index, command in enumerate(("check", "divisor", "openbook") * 7):
        w.graph(command, definite_tree(rng, 5 + index % 7, (-2, -3, -4, -5)))
    # Desk-scale classics with seeded genus.
    classics = [
        Graph([0] * 8, [-2] * 8, [(i, i + 1) for i in range(6)] + [(4, 7)]),  # E8
        Graph([0] * 7, [-2] * 7, [(i, i + 1) for i in range(5)] + [(2, 6)]),  # E7
        Graph([0] * 6, [-2] * 6, [(i, i + 1) for i in range(4)] + [(2, 5)]),  # E6
        star(-2, [[-2], [-2], [-2] * rng.randrange(1, 9)]),  # D_n
        chain([-2] * rng.randrange(2, 9)),
    ]
    for g in classics:
        g.genus = [rng.randrange(2) if rng.random() < 0.3 else 0 for _ in g.genus]
        for command in ("check", "divisor", "openbook"):
            w.graph(command, g)
    # Known defect: descent from the all-ones vector needs 2 * 10^6 - 1
    # increments and stops at its 10^6 cap (exit 3); the answer is m = 2 * 10^6.
    huge = Graph([10**6], [-1], [])
    w.graph("check", huge)
    w.graph("divisor", huge, known_defect={
        "why": "genus-10^6 vertex hits the descent cap",
        "seen": {"exit": EXIT_INTERNAL, "stderr": "internal invariant failure:"}})
    # A fixed stride order spreads the cheap jobs over the pass; back to
    # back they would share one spell of host speed, and so would p50.  The
    # order does not depend on the seed, so neither does peak RSS.
    stride = 37
    while math.gcd(stride, len(w.jobs)) != 1:
        stride += 1
    w.jobs[:] = [w.jobs[i * stride % len(w.jobs)] for i in range(len(w.jobs))]


def _plumbing_suite(rng: random.Random, w: JobWriter):
    seen: set = set()
    small = []
    for r, count in SUITE_PER_SIZE.items():
        small += suite_sample(rng, r, count, seen)
    # 2% malformed documents, both known defects.  "-1.7" is read as -1 by
    # int(): on a graph whose -1 vertex already reads -1 the coerced graph
    # is the original, which exits 0.  A 2-element vertex list fails to
    # unpack and the ValueError escapes main.
    half = 8
    docs = []
    while len(docs) < half:
        g = suite_sample(rng, 4, 1, seen)[0]
        if -1 in g.euler and max(least_divisor(g)) <= DEFAULT_BOUND:
            doc = g.to_doc()
            doc["vertices"][g.euler.index(-1)]["euler"] = -1.7
            docs.append((doc, {"why": "non-integer Euler weight is coerced by int()",
                               "seen": {"exit": EXIT_OK, "reads_as": g}}))
    for g in suite_sample(rng, 4, half, seen):
        doc = g.to_doc()
        doc["vertices"] = [[v["id"], v["genus"]] for v in doc["vertices"]]
        docs.append((doc, {"why": "2-element vertex list raises ValueError out of main",
                           "seen": {"raises": "ValueError"}}))
    order = [("small", g) for g in small] + [("malformed", d) for d in docs]
    rng.shuffle(order)
    for kind, item in order:
        if kind == "small":
            w.graph("divisor", item, oracle_bound=DEFAULT_BOUND)
        else:
            w.malformed(*item)
    # The streamed block path, last and in a fixed order so the oracle's
    # caches hold the same arrays when the largest box runs.
    for r, bound in ((5, 20), (5, 30), (5, 40), (6, 20), (6, 30)):
        g = definite_tree(rng, r, (-2, -3))
        w.graph("divisor", g, oracle_bound=bound, explicit_bound=True)


def _monomial(exponents) -> str:
    return "*".join(f"z{i}^{e}" for i, e in enumerate(exponents) if e)


def _homogeneous(rng, n: int, degree: int) -> str:
    """Pure powers plus one mixed term: homogeneous, isolated singularity."""
    coefficients = [rng.choice(("1", "1.5", "2", "0.5")) for _ in range(n)]
    terms = [f"{c}*z{i}^{degree}" for i, c in enumerate(coefficients)]
    mixed = [0] * n
    mixed[0], mixed[1] = degree - 1, 1
    terms.append(f"{rng.choice(('0.25', '0.5'))}*{_monomial(mixed)}")
    return " + ".join(terms)


def _brieskorn(rng, n: int) -> str:
    return " + ".join(f"z{i}^{rng.randrange(2, 8)}" for i in range(n))


CHART_MAPS = ("z0,z1,z0*z1", "z0,z1,z0^2 + z1^3")


def _chart(rng, w: JobWriter, subcheck: str, size: int, ambient: int,
           chart_map=None, f=None):
    """One chart job.  Identity charts get closed-form checks.  Unless
    given, ``f`` is homogeneous for ``adapt`` and Brieskorn-Pham for
    ``criterion``, of seeded degree."""
    variety = ["--ambient", str(ambient)]
    if chart_map:
        variety += ["--map", chart_map]
    spec = {"subcheck": subcheck, "kind": "chart", "round": chart_map is None,
            "epsilon": 0.01, "c": 1.0, "seed": rng.randrange(10**6),
            "samples": 200, "mesh": 10000, "f": f}
    if subcheck == "adapt":
        spec["mesh"] = size
        if f is None:
            degree = rng.randrange(2, 8)
            spec["f"] = _homogeneous(rng, ambient, degree)
            if chart_map is None:
                spec["homogeneous_degree"] = degree
    elif subcheck == "criterion":
        spec["mesh"] = size
        spec["f"] = f or _brieskorn(rng, ambient)
    else:
        spec["samples"] = size
    w.contact(spec, variety)


def _contact_chart(rng: random.Random, w: JobWriter):
    # The mesh-10^4 tail is the README's adapt example and half the pass.
    # The twelve mesh-500 jobs hold ranks 3-14 from the top, so p90 (the
    # 11th slowest of 100) falls inside one homogeneous group.
    schedule = ([("adapt", 10000, 2, None, "z0^2 + z1^3"),
                 ("criterion", 2000, 2, None, _homogeneous(rng, 2, 5))]
                + [("adapt", 500, 2), ("criterion", 500, 2)] * 6)
    charts = [(2, None), (3, None)] + [(2, m) for m in CHART_MAPS]
    for index in range(86):
        ambient, chart_map = charts[index % len(charts)]
        schedule.append((("reeb", "spsh")[index % 2], 30, ambient, chart_map))
    rng.shuffle(schedule)
    for entry in schedule:
        _chart(rng, w, *entry)


HYPERSURFACES_3 = (
    "z0^2 + z1^2 + z2^2",  # A1
    "z0^2 + z1^2 + z2^4",  # A3
    "z0^2 + z1^2 + z2^6",  # A5
    "z0^2 + z1^2*z2 + z2^3",  # D4
    "z0^2 + z1^2*z2 + z2^5",  # D6
    "z0^2 + z1^3 + z2^4",  # E6
    "z0^2 + z1^3 + z1*z2^3",  # E7
    "z0^2 + z1^3 + z2^5",  # E8
    "z0^3 + z1^3 + z2^3",
    "z0^2 + z1^3 + z2^7",
)
HYPERSURFACE_4 = "z0^2 + z1^2 + z2^2 + z3^3"


def _contact_hypersurface(rng: random.Random, w: JobWriter):
    schedule = ([(s, 80) for s in ("spsh", "reeb", "identity", "cone")] * 24
                + [("reeb", 100), ("spsh", 500), ("criterion", 500), ("adapt", 500)])
    # Every tenth job, at fixed places, samples the germ in four variables.
    four = set(range(0, len(schedule), 10))
    rng.shuffle(schedule)
    for index, (subcheck, size) in enumerate(schedule):
        germ = HYPERSURFACE_4 if index in four else rng.choice(HYPERSURFACES_3)
        n = 4 if index in four else 3
        spec = {"subcheck": subcheck, "kind": "hypersurface", "round": True,
                "epsilon": 0.01, "c": 1.0, "seed": rng.randrange(10**6),
                "samples": 200, "mesh": 10000, "f": None}
        if subcheck in ("adapt", "criterion"):
            spec["mesh"] = size
        else:
            spec["samples"] = size
        if subcheck != "spsh" and subcheck != "reeb":
            spec["f"] = f"z{rng.randrange(n)}"
        if subcheck == "identity":
            spec["c"] = rng.choice((0.0, 1.0, 10.0))
        w.contact(spec, ["--hypersurface", germ])


PASS_MAKERS = {
    "plumbing-large": _plumbing_large,
    "plumbing-suite": _plumbing_suite,
    "contact-chart": _contact_chart,
    "contact-hypersurface": _contact_hypersurface,
}


def make_jobs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of one pass under ``workdir`` and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    writer = JobWriter(workdir)
    PASS_MAKERS[workload](rng, writer)
    jobs = writer.jobs
    for index, job in enumerate(jobs):
        job["id"] = index
    return jobs
