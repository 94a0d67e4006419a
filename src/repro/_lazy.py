"""Lazy package exports (PEP 562).

A package ``__init__`` names what it exports and which module defines
each name; the defining module is imported on the name's first access,
so a process compiles only the modules its command touches::

    __getattr__, __dir__, __all__ = exports(__name__, {
        "repro.core.builder": ("BuildConfig", "build_xcluster"),
        "repro.core.snapshot": ("load_snapshot", "save_snapshot"),
    })

A resolved name is cached in the package's namespace, so later reads
skip ``__getattr__``.  Any other attribute is tried as a submodule
(``import repro; repro.core.build_xcluster`` keeps working), and an
unknown name raises ``AttributeError`` naming the package.
"""

import importlib
import sys
from types import ModuleType
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


class _Package(ModuleType):
    """A package whose exported names outrank same-named submodules.

    Importing a submodule binds it on its package; when the submodule
    shares its name with an export (``repro.core.explain`` defines the
    function ``explain``), that binding would shadow the export.
    """

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and name in self.__dict__["_exported"]:
            return
        super().__setattr__(name, value)


def exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each defining module to the names it exports.
    """
    where: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = sys.modules[package]
    namespace._exported = where
    namespace.__class__ = _Package

    def __getattr__(name: str):
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            setattr(namespace, name, value)
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(namespace)) | set(where))

    return __getattr__, __dir__, list(where)
