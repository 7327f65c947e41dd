"""The package's public namespace."""

import importlib
import inspect
import pkgutil

import tanglekit


def test_every_public_name_is_exported():
    public = {
        name for name, value in vars(tanglekit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= set(tanglekit.__all__)
    assert all(hasattr(tanglekit, name) for name in tanglekit.__all__)


def test_every_module_all_entry_resolves():
    modules = [
        importlib.import_module(f"tanglekit.{info.name}")
        for info in pkgutil.iter_modules(tanglekit.__path__)
    ]
    assert modules
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}"
