"""Modules registered in ``sys.modules`` now and executed on first use."""

import importlib.util
import sys
import threading
import types


class _LazyModule(types.ModuleType):
    """A module whose code runs at the first access to one of its attributes.

    This is ``importlib.util.LazyLoader``'s recipe with the lock that later
    Pythons added to it: a thread that reads the module while another runs
    its code waits until the code has run.  The unlocked recipe of Python
    3.11 hands that thread the module half run, which raises
    ``AttributeError``.
    """

    def __getattribute__(self, attr):
        spec = object.__getattribute__(self, "__spec__")
        state = spec.loader_state
        with state["lock"]:
            # The thread running the code reads the module as it goes.
            if type(self) is _LazyModule and not state["running"]:
                state["running"] = True
                try:
                    spec.loader.exec_module(self)
                finally:
                    state["running"] = False
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


def lazy_import(name: str):
    """Module ``name``: the loaded one if imported already, otherwise one
    registered in ``sys.modules`` whose code runs at its first attribute
    access.

    A module that cannot be found raises ``ModuleNotFoundError`` here, as
    ``import name`` would, rather than at first use.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader_state = {"lock": threading.RLock(), "running": False}
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[name] = module
    return module
