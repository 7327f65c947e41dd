"""The package's public namespace."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import tanglekit
from tanglekit import diagrams, engine, tangles, tl


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


def test_every_name_resolves_to_the_object_in_its_home():
    # the package, tl and tangles answer for names defined elsewhere: each
    # is the object of the module that defines it
    for name in tanglekit.__all__:
        home = tanglekit._HOMES.get(name)
        if home is not None:
            module = importlib.import_module(f"tanglekit.{home}")
            assert getattr(tanglekit, name) is getattr(module, name), name
            assert name in vars(module), name
    for module, home, lazy in ((tl, engine, tl._ENGINE_NAMES),
                               (tangles, diagrams, tangles._DIAGRAM_NAMES)):
        assert set(home.__all__) <= lazy
        for name in lazy:
            assert name not in vars(module) and name in vars(home), name
            assert getattr(module, name) is getattr(home, name), name
        assert lazy | set(vars(module)) >= set(module.__all__)
        assert set(dir(module)) >= lazy | set(module.__all__)
    for name in ("engine", "diagrams", "tl", "cli"):
        assert getattr(tanglekit, name) is importlib.import_module(f"tanglekit.{name}")


def test_unknown_and_dunder_names_raise_and_load_nothing():
    # in a fresh interpreter: a name outside the tables, a dunder (the
    # import system asks a module for __path__, also while importing
    # one that imports it) or a private name of the engine raises
    # AttributeError at once; dir() loads nothing either
    probe = ("import sys, tanglekit, tanglekit.tl, tanglekit.tangles\n"
             "for module in (tanglekit, tanglekit.tl, tanglekit.tangles):\n"
             "    for name in ('no_such_name', '__path__', '__wrapped__', '__test__', '_bni'):\n"
             "        if module is tanglekit and name == '__path__':\n"
             "            continue\n"
             "        try:\n"
             "            getattr(module, name)\n"
             "        except AttributeError:\n"
             "            pass\n"
             "        else:\n"
             "            print('answered', module.__name__, name)\n"
             "    dir(module)\n"
             "print(sorted(m for m in sys.modules if m.startswith('tanglekit')))\n")
    src = os.path.dirname(os.path.dirname(tanglekit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout == str(["tanglekit", *(f"tanglekit.{m}" for m in (
        "rationals", "ring", "tangles", "tl"))]) + "\n"
