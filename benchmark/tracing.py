"""Spans around the public functions of each milnorbook module.

:func:`install` replaces every public function of the traced modules, under
every name any ``milnorbook`` module binds it to, with a wrapper that
records a span ``(name, start, end, parent, job)`` in memory.  Calls too
frequent for a span each (``Polynomial.evaluate`` and the ``numpy.linalg``
decompositions, counted at the public attribute) are aggregated as a call
count and summed time.  Self time is a span's duration minus its child
spans; leaf time is not subtracted, so it stays inside the caller's self
time and the layer self times partition the traced job time.

The package source is not modified; :meth:`Tracer.uninstall` restores
every patched attribute.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "graphs", "divisors", "openbooks", "suites",
          "polynomials", "varieties", "contact")
LINALG = ("svd", "cond", "solve", "lstsq")


# Counts read off a span's arguments or result: name -> (metric, count).
# The oracle's box is counted from its arguments because a box that holds
# no feasible point is scanned in full and then raises.
COUNTERS = {
    "divisors.minimal_divisor": (
        "divisors.least_divisor_mass",
        lambda args, kwargs, result: None if result is None
        else sum(result.multiplicities) - len(result.multiplicities)),
    "graphs.automorphism_group": (
        "graphs.aut_order_sum",
        lambda args, kwargs, result: None if result is None else len(result)),
    "divisors.oracle_minimal_divisor": (
        "divisors.oracle_box_rows",
        lambda args, kwargs, result: (
            (args[1] if len(args) > 1 else kwargs["bound"]) + 1
        ) ** (args[0].vertex_count - 1)),
    "varieties.sample_points": (
        "varieties.points_accepted",
        lambda args, kwargs, result: None if result is None else len(result)),
}
# Items drawn from a generator span: name -> metric.
ITEM_COUNTERS = {"suites.iter_suite": "suites.classes"}


class Tracer:
    def __init__(self):
        self.job = None
        self._patches = []
        self.leaves = {}  # name -> [calls, seconds], held by the leaf wrappers
        self.reset()

    def reset(self):
        """Start a new recording, read back with :meth:`snapshot`."""
        self.spans = []
        self.counts = Counter()
        self._stack = []
        for stat in self.leaves.values():
            stat[:] = [0, 0.0]

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "leaves": {name: tuple(stat) for name, stat in self.leaves.items()}}

    # wrappers ---------------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.job)

    def span(self, name, fn):
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)

        def wrapper(*args, **kwargs):
            index, parent = self._open(name)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, parent, name, start)
                if counter is not None:
                    value = counter[1](args, kwargs, result)
                    if value is not None:
                        self.counts[counter[0]] += value

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_span(self, name, fn):
        """One span per item drawn, so consumer time is not counted."""
        tracer = self
        metric = ITEM_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index, parent = tracer._open(name)
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index, parent, name, start)
                if metric is not None:
                    tracer.counts[metric] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn):
        stat = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += time.perf_counter() - start

        wrapper.__wrapped__ = fn
        return wrapper

    # installation -----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "milnorbook" or n.startswith("milnorbook.")]
        for layer in LAYERS:
            module = sys.modules[f"milnorbook.{layer}"]
            public = [
                (name, fn) for name, fn in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            ]
            for name, fn in public:
                wrapper = self.span(f"{layer}.{name}", fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        polynomial = sys.modules["milnorbook.polynomials"].Polynomial
        self._patch(polynomial, "evaluate",
                    self.leaf("polynomials.evaluate", polynomial.evaluate))
        for name in LINALG:
            self._patch(numpy.linalg, name,
                        self.leaf(f"numpy.linalg.{name}", getattr(numpy.linalg, name)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def summarize(snapshot: dict, scale: dict) -> dict:
    """Per-name self time, inclusive time and call count of one recording.

    Span times are multiplied by ``scale[job]``, the host-speed factor
    measured around the job; leaf totals, which are not kept per job, by
    the mean factor.
    """
    spans = snapshot["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, total_s, calls = defaultdict(float), defaultdict(float), Counter()
    for index, (name, start, end, parent, job) in enumerate(spans):
        self_s[name] += (end - start - child[index]) * scale[job]
        total_s[name] += (end - start) * scale[job]
        calls[name] += 1
    mean_scale = sum(scale.values()) / len(scale)
    for name, (count, seconds) in snapshot["leaves"].items():
        calls[name] += count
        total_s[name] += seconds * mean_scale
    return {"self_s": self_s, "total_s": total_s, "calls": calls,
            "counts": Counter(snapshot["counts"])}
