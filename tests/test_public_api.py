"""Every name a module lists in ``__all__`` exists there, and the package
re-exports it as the same object.  ``oracles`` is exempt: its slow
references are reached through the module, as ``pvsmooth.oracles``.  Every
public name is used by the package or the benchmark, or has a listed reason
to stay public."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


# Public names that no module of the package and no benchmark reaches, each
# with the reason it stays public.  Any other name the program never uses is
# API that only tests reach, and is deleted rather than listed here.
_TEST_FACING = {
    "CallableProx": "test fake: a ProxFunction built from two callables",
    "ZeroSmooth": "test fake: h = 0, for a problem that is g alone",
    "moreau_envelope": "reference: the envelope by one prox, that steps are checked against",
    "moreau_gradient": "reference: the envelope's gradient by one prox",
    "envelope_by_weights": "reference: the sup-quadratic envelope over simplex weights",
    "pvs_step": "the single step of the run loop, documented in the README",
    "epoch_iteration_budget": "the paper's worst-case iteration count for the epsilon stop",
}
_ROOT = Path(__file__).resolve().parents[1]


def _used_names(path):
    """Every Name and Attribute in ``path``, except the uses of a top-level
    class or function inside its own definition."""
    used = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                used.add(name)
    return used


def test_every_public_name_is_used_by_the_program_or_listed():
    paths = (sorted(Path(pvsmooth.__file__).parent.glob("*.py"))
             + sorted((_ROOT / "benchmarks").glob("*.py")))
    assert len(paths) > 10
    used = set().union(*map(_used_names, paths))
    public = {name for name in pvsmooth.__all__
              if not inspect.ismodule(getattr(pvsmooth, name))}
    unused = public - used
    assert not sorted(unused - set(_TEST_FACING)), "public names only tests reach"
    assert not sorted(set(_TEST_FACING) - unused), "stale _TEST_FACING rows"
