"""Package façades that import a name's submodule on its first use.

A package ``__init__`` that re-exports its submodules' names eagerly
loads every one of them whenever any module of the package is
imported, so ``import repro.engine.campaign`` used to load the whole
analyzer.  A façade built by :func:`exports` resolves each name through
a PEP 562 module ``__getattr__`` instead: ``from repro.dataflow import
SummaryAnalyzer`` imports ``repro.dataflow.analyzer`` at that point and
caches the name in the package, so later lookups are plain attribute
reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` of the façade of *package*, whose
    *table* maps each submodule (relative name) to the names it gives."""
    home = {name: sub for sub, names in table.items() for name in names}

    def resolve(name: str) -> object:
        sub = home.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return sorted(home), resolve
