"""Every name that the package or one of its modules lists in ``__all__``
resolves.

A name left in ``__all__`` after its definition has gone breaks ``from
nlhet.<module> import *`` and anything that looks the exports up by name
(``bench/spans.py`` wraps every function in ``diagnostics.__all__``).
"""

import importlib
import pkgutil

import pytest

import nlhet

MODULES = ["nlhet"] + sorted(f"nlhet.{m.name}"
                             for m in pkgutil.iter_modules(nlhet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it does not define"
