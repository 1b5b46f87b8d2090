"""The package's `__all__`, read from its bindings: every export resolves,
and none is a submodule or a private name."""

import types

import incalc as ic


def test_every_export_resolves():
    missing = [name for name in ic.__all__ if not hasattr(ic, name)]
    assert missing == []


def test_exports_are_exactly_the_public_non_module_names():
    bound = {
        name
        for name, value in vars(ic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ic.__all__) == sorted(bound)
    assert len(ic.__all__) == len(set(ic.__all__))
