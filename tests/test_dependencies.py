"""The runtime depends on numpy only: every module of the package imports
nothing but the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import pvsmooth

ALLOWED = {"numpy", "pvsmooth"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(Path(pvsmooth.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    bad = [
        "%s:%d imports %s" % (path.name, lineno, root)
        for path in modules
        for lineno, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in ALLOWED and root not in sys.stdlib_module_names
    ]
    assert not bad, bad
