"""Import boundaries: production code never needs the check harness.

The oracles live in :mod:`repro.check.oracles`, off the production call
path, and the core layers compute only over ``ColumnarDocument`` (an
object tree is frozen at their entry by ``as_columnar``).  These tests
read each module's top-level imports from source, so they hold whatever
a module's dependencies happen to import.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "repro")


def _module_name(path):
    relative = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    if relative[-1] == "__init__":
        relative.pop()
    return ".".join(relative)


def _modules():
    """``{module name: source path}`` for every module under ``src/repro``."""
    found = {}
    for directory, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                found[_module_name(path)] = path
    return found


def _top_level_imports(path):
    """Absolute names a module imports at module level (not in functions)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _imports_package(names, package):
    return any(name == package or name.startswith(package + ".") for name in names)


MODULES = _modules()


def test_only_the_harness_imports_check_at_module_level():
    offenders = sorted(
        name
        for name, path in MODULES.items()
        if not _imports_package({name}, "repro.check")
        and _imports_package(_top_level_imports(path), "repro.check")
    )
    assert offenders == []


NAMED = (
    "repro.core.reference",
    "repro.query.evaluator",
    "repro.xmltree.stats",
    "repro.core.explain",
    "repro.update.ops",
    "repro.update.maintainer",
)
CORE = sorted(
    set(NAMED)
    | {name for name in MODULES if _imports_package({name}, "repro.core.estimation")}
)


def test_core_modules_exist():
    """A renamed module must not let the boundary pass vacuously."""
    assert set(NAMED) <= set(MODULES)
    assert "repro.core.estimation.engine" in CORE


@pytest.mark.parametrize("name", CORE)
def test_core_does_not_import_the_object_tree(name):
    assert not _imports_package(_top_level_imports(MODULES[name]), "repro.xmltree.tree")


@pytest.mark.parametrize("module", ["repro", "repro.__main__"])
def test_import_leaves_check_unloaded(module):
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print('repro.check' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
