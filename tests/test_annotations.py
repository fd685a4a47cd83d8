"""Every annotation in the package resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming something the module never imports (or no longer defines) only fails
when a caller asks for the hints.  ``typing.get_type_hints`` asks.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import nlhet

MODULES = sorted(f"nlhet.{m.name}" for m in pkgutil.iter_modules(nlhet.__path__))


def _annotated(module):
    """Functions and classes defined in ``module``, and the methods of those
    classes (properties through their getter)."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(name)
    for obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except Exception as e:  # noqa: BLE001 - report which object broke
            pytest.fail(f"{name}.{obj.__qualname__}: {type(e).__name__}: {e}")
