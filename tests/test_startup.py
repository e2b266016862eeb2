"""What the package and each command load: the exact side starts without
NumPy and without the numerical layer, which load on first use."""

import json
import subprocess
import sys

import pytest

import milnorbook
from milnorbook.contact import check_spsh
from milnorbook.graphs import chain_graph, e8_graph, save_graph
from milnorbook.polynomials import Polynomial
from milnorbook.suites import iter_suite
from milnorbook.varieties import sample_points

LAZY = ("polynomials", "varieties", "contact", "suites")

# Runs the CLI in a fresh interpreter and prints, as JSON, which numpy
# submodules and which lazy milnorbook modules have been loaded.
PROBE = """
import contextlib, io, json, sys, types
argv = json.loads(sys.argv[1])
from milnorbook import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv) if argv else 0
lazy = {layer: sys.modules.get("milnorbook." + layer) for layer in %r}
print(json.dumps({
    "code": code,
    "numpy": sorted(name for name in sys.modules if name.startswith("numpy.")),
    "registered": sorted(layer for layer, module in lazy.items()
                         if module is not None),
    "executed": sorted(layer for layer, module in lazy.items()
                       if type(module) is types.ModuleType),
}))
""" % (LAZY,)


def probe(*argv):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    base = tmp_path_factory.mktemp("graphs")
    save_graph(e8_graph(), base / "e8.json")
    save_graph(chain_graph([-2, -2, -2]), base / "a3.json")
    return str(base / "e8.json"), str(base / "a3.json")


def test_importing_the_cli_registers_the_lazy_modules_without_running_them():
    # benchmark/tracing.py indexes sys.modules["milnorbook.<layer>"].
    loaded = probe()
    assert loaded["registered"] == sorted(LAZY)
    assert loaded["executed"] == []
    assert loaded["numpy"] == []


@pytest.mark.parametrize(
    "argv",
    [["check"], ["divisor"], ["openbook", "--emit", "graph"]],
    ids=lambda argv: argv[0],
)
def test_exact_commands_load_neither_numpy_nor_the_numerical_layer(graphs, argv):
    loaded = probe(argv[0], graphs[0], *argv[1:])
    assert loaded["code"] == 0
    assert loaded["numpy"] == []
    assert loaded["executed"] == []


def test_the_box_oracle_loads_numpy_and_nothing_else(graphs):
    loaded = probe("divisor", "--oracle", graphs[1])
    assert loaded["code"] == 0
    assert loaded["numpy"]
    assert loaded["executed"] == []


def test_a_contact_check_loads_the_numerical_layer():
    loaded = probe("contact", "spsh", "--samples", "5")
    assert loaded["code"] == 0
    assert loaded["numpy"]
    assert loaded["executed"] == ["contact", "polynomials", "varieties"]


def test_a_missing_numpy_still_fails_at_import():
    # A path finder that cannot see numpy: find_spec("numpy") returns None.
    script = """
import importlib.machinery, sys
assert "numpy" not in sys.modules

class HideNumpy(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            return None
        return super().find_spec(name, path, target)

sys.meta_path = [HideNumpy if finder is importlib.machinery.PathFinder
                 else finder for finder in sys.meta_path]
try:
    import milnorbook
except ModuleNotFoundError as exc:
    print(exc.name, "numpy" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (0, "numpy False\n"), result.stderr


def test_threads_that_meet_at_first_use_all_see_the_loaded_module():
    # More threads than cores read one lazy module at once, with a short
    # switch interval; none may see the module half run.
    script = """
import sys, threading
import milnorbook
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
errors = []

def use():
    barrier.wait()
    try:
        milnorbook.contact.check_spsh
    except AttributeError as exc:
        errors.append(exc)

threads = [threading.Thread(target=use) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(errors, any(thread.is_alive() for thread in threads))
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stdout) == (0, "[] False\n"), result.stderr


def test_star_import_binds_the_lazy_names():
    namespace = {}
    exec("from milnorbook import *", namespace)
    assert namespace["sample_points"] is sample_points
    assert namespace["Polynomial"] is Polynomial
    assert namespace["check_spsh"] is check_spsh
    assert namespace["iter_suite"] is iter_suite
    assert set(milnorbook.__all__) <= set(namespace)


def test_every_exported_name_resolves_and_is_listed_by_dir():
    assert len(set(milnorbook.__all__)) == len(milnorbook.__all__)
    assert set(milnorbook.__all__) <= set(dir(milnorbook))
    for name in milnorbook.__all__:
        value = getattr(milnorbook, name)
        assert getattr(value, "__module__", value.__name__).startswith("milnorbook.")
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        milnorbook.nonexistent
