"""The lazy export tables of the package ``__init__``s.

Each package names what it exports and which module defines each name
(:mod:`repro._lazy`); a name's module loads on first access.  These
tests pin that every table entry resolves to its defining module's
object, that ``dir()`` and ``AttributeError`` behave as for an eager
package, and that submodule attribute access still works.
"""

import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PACKAGES = [
    "repro",
    "repro.collection",
    "repro.core",
    "repro.core.estimation",
    "repro.datasets",
    "repro.query",
    "repro.serve",
    "repro.update",
    "repro.values",
    "repro.values.kernels",
    "repro.workload",
    "repro.xmltree",
]


def _run(code):
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    table = package._exported
    assert table, f"{name} exports nothing"
    for export, module in table.items():
        defined = getattr(importlib.import_module(module), export)
        assert getattr(package, export) is defined, f"{name}.{export}"


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    listed = dir(package)
    assert [export for export in package.__all__ if export not in listed] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute"):
        package.no_such_export
    assert not hasattr(package, "__no_such_dunder__")


def test_all_names_resolve_in_a_fresh_interpreter():
    """``from pkg import *`` in a process that has loaded nothing yet."""
    code = "".join(f"from {name} import *\n" for name in PACKAGES)
    assert _run(code + "print('ok')") == "ok"


def test_subpackage_attributes_resolve_from_the_top():
    out = _run(
        "import repro\n"
        "from repro.core.builder import build_xcluster\n"
        "print(repro.core.build_xcluster is build_xcluster,"
        " repro.core.estimation.engine.__name__,"
        " repro.__version__)"
    )
    assert out == "True repro.core.estimation.engine 1.0.0"


def test_export_outranks_a_same_named_submodule():
    """``repro.core.explain`` is both a submodule and an exported function;
    importing the submodule first must not shadow the function."""
    out = _run(
        "import types\n"
        "import repro.core.explain\n"
        "from repro.core import explain\n"
        "import repro.core\n"
        "print(isinstance(explain, types.FunctionType),"
        " repro.core.explain is explain)"
    )
    assert out == "True True"
