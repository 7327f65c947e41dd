"""The package's public namespace."""

import inspect

import tanglekit


def test_every_public_name_is_exported():
    public = {
        name for name, value in vars(tanglekit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= set(tanglekit.__all__)
    assert all(hasattr(tanglekit, name) for name in tanglekit.__all__)
