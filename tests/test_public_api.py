"""Every name a module lists in ``__all__`` exists there, and the package
re-exports it as the same object.  ``oracles`` is exempt: its slow
references are reached through the module, as ``pvsmooth.oracles``."""

import importlib
import pkgutil

import pytest

import pvsmooth

EXEMPT = {"oracles"}
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pvsmooth.__path__)
    if info.name not in EXEMPT
    and hasattr(importlib.import_module("pvsmooth." + info.name), "__all__")
)


def test_the_api_modules_are_found():
    assert {"core", "penalty", "problems", "projections", "prox", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_every_public_name(name):
    module = importlib.import_module("pvsmooth." + name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    not_exported = [attr for attr in module.__all__
                    if attr not in pvsmooth.__all__
                    or getattr(pvsmooth, attr) is not getattr(module, attr)]
    assert not not_exported, not_exported
