"""Fixtures that reach a pathpol function wherever the package binds it.

``from .tensor import apply_slot`` copies a binding into the importing
module, so a patch of the defining module alone would miss those callers.
"""

import sys

import pytest


def _bindings(value):
    """Every (module, name) of a pathpol module that is bound to ``value``."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pathpol"]
    return [(m, attr) for m in modules for attr, v in vars(m).items() if v is value]


@pytest.fixture
def patch_everywhere(monkeypatch):
    """``patch(original, replacement)`` swaps a pathpol function in every
    pathpol namespace that binds it, its own module included."""

    def patch(original, replacement):
        bound = _bindings(original)
        assert (sys.modules[original.__module__], original.__name__) in bound
        for module, attr in bound:
            monkeypatch.setattr(module, attr, replacement)

    return patch


@pytest.fixture
def count_calls(patch_everywhere):
    """``count(original)`` wraps a pathpol function everywhere it is bound
    and returns the list its calls' arguments are appended to."""

    def count(original):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(original, counting)
        return calls

    return count
