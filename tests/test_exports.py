"""Every public name a module exports exists."""

import importlib
import pkgutil

import prkflow


def test_all_names_resolve():
    for info in pkgutil.iter_modules(prkflow.__path__):
        name = f"prkflow.{info.name}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"
        exec(f"from {name} import *", {})
