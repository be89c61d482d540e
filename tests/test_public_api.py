"""Every name a module lists in ``__all__`` exists there, and the package
re-exports it as the same object.  ``oracles`` is exempt: its slow
references are reached through the module, as ``pvsmooth.oracles``.  Every
public name, every public method of a public class and every defaulted
parameter of a public callable is used by the package or the benchmark, or
has a listed reason to stay public."""

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


# Public surface that no module of the package and no benchmark reaches,
# each with the reason it stays public: names, methods written
# ``Class.method`` and defaulted parameters written ``callable(param)``.
# Any other piece the program never uses is API that only tests reach, and
# is deleted rather than listed here.
_TEST_FACING = {
    "CallableProx": "test fake: a ProxFunction built from two callables",
    "ZeroSmooth": "test fake: h = 0, for a problem that is g alone",
    "moreau_envelope": "reference: the envelope by one prox, that steps are checked against",
    "moreau_gradient": "reference: the envelope's gradient by one prox",
    "envelope_by_weights": "reference: the sup-quadratic envelope over simplex weights",
    "pvs_step": "the single step of the run loop, documented in the README",
    "epoch_iteration_budget": "the paper's worst-case iteration count for the epsilon stop",
    "CallableProx(rho)": "test fake: the weak-convexity modulus of a made-up g",
    "CallableProx(lipschitz)": "test fake: the Lipschitz constant of a made-up g",
    "LassoInstance(inner_matrix)": ("the one builder input that makes A a MatrixMap: "
                                    "the paper's g(A x) with A != I"),
    "dykstra_project(tol)": "reference behind verify's Dykstra cross-check, safety code",
    "dykstra_project(max_iter)": "reference behind verify's Dykstra cross-check, safety code",
}
_ROOT = Path(__file__).resolve().parents[1]
_PROGRAM = (sorted(Path(pvsmooth.__file__).parent.glob("*.py"))
            + sorted((_ROOT / "benchmarks").glob("*.py")))


def _rows(kind):
    """The _TEST_FACING rows of one kind: "name", "method" or "parameter"."""
    return {key for key in _TEST_FACING
            if kind == ("method" if "." in key else "parameter" if "(" in key else "name")}


def _used_names(path, attributes_only=False):
    """Every Attribute in ``path``, and every Name unless ``attributes_only``,
    except the uses of a class, function or method name inside its own
    definition."""
    used = set()

    def visit(node, own):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            own = own | {node.name}
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) and not attributes_only
                else None)
        if name is not None and name not in own:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text(), str(path)), frozenset())
    return used


def _passed_parameters(path):
    """{callee name: [(positional count, keyword names)]} for every call in
    ``path`` of a Name or an attribute.  Only what a call writes out counts:
    the positionals before any ``*args`` and the named keywords, so a
    parameter that only ``*args`` or ``**kwargs`` could carry is not passed."""
    calls = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            count = next((i for i, arg in enumerate(node.args)
                          if isinstance(arg, ast.Starred)), len(node.args))
            calls.setdefault(callee, []).append(
                (count, {kw.arg for kw in node.keywords if kw.arg is not None}))
    return calls


def _public_objects():
    return {name: getattr(pvsmooth, name) for name in pvsmooth.__all__
            if not inspect.ismodule(getattr(pvsmooth, name))}


def test_every_public_name_is_used_by_the_program_or_listed():
    assert len(_PROGRAM) > 10
    used = set().union(*map(_used_names, _PROGRAM))
    unused = set(_public_objects()) - used
    assert not sorted(unused - _rows("name")), "public names only tests reach"
    assert not sorted(_rows("name") - unused), "stale _TEST_FACING rows"


def test_every_public_method_is_used_by_the_program_or_listed():
    # the methods, properties, static and class methods a public class
    # defines itself, reached as an attribute (a bare name is a variable);
    # an inherited one is checked on the class defining it
    used = set().union(*(_used_names(path, attributes_only=True) for path in _PROGRAM))
    methods = {"%s.%s" % (name, attr)
               for name, obj in _public_objects().items() if inspect.isclass(obj)
               for attr, member in vars(obj).items()
               if not attr.startswith("_") and (
                   inspect.isfunction(member)
                   or isinstance(member, (property, staticmethod, classmethod)))}
    assert len(methods) > 40
    unused = {key for key in methods if key.split(".")[1] not in used}
    assert not sorted(unused - _rows("method")), "public methods only tests reach"
    assert not sorted(_rows("method") - unused), "stale _TEST_FACING rows"


def test_every_defaulted_parameter_is_passed_by_the_program_or_listed():
    calls = {}
    for path in _PROGRAM:
        for callee, sites in _passed_parameters(path).items():
            calls.setdefault(callee, []).extend(sites)
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    defaulted, unpassed = set(), set()
    for name, obj in _public_objects().items():
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        try:
            signature = inspect.signature(obj)
        except ValueError:  # an error class with Exception's built-in signature
            continue
        for index, param in enumerate(signature.parameters.values()):
            if param.default is param.empty:
                continue
            key = "%s(%s)" % (name, param.name)
            defaulted.add(key)
            if not any(param.name in keywords or (param.kind in positional and index < count)
                       for count, keywords in calls.get(name, ())):
                unpassed.add(key)
    assert len(defaulted) == 21  # a change that adds or drops an option updates this
    assert not sorted(unpassed - _rows("parameter")), "defaulted parameters only tests pass"
    assert not sorted(_rows("parameter") - unpassed), "stale _TEST_FACING rows"
