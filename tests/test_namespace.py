"""Every public name has one home: the module whose ``__all__`` lists it defines it."""

import importlib

import pytest

import fabersplines

MODULES = ["piecewise", "wavelets", "dualcoeffs", "basis", "sampling", "wavetransform", "norms", "families", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_what_the_module_defines(name):
    module = importlib.import_module(f"fabersplines.{name}")
    foreign = [
        attr for attr in module.__all__
        if callable(getattr(module, attr)) and getattr(module, attr).__module__ != module.__name__
    ]
    assert foreign == []


@pytest.mark.parametrize("name", ["Rational", "QuadratureResolutionError"])
def test_removed_names_are_gone(name):
    assert not hasattr(fabersplines, name)
