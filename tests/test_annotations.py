"""Every annotation in the package names something its module can see, so
``typing.get_type_hints`` resolves it. A name used only in an annotation is
easy to leave unimported: under ``from __future__ import annotations``
nothing else evaluates it."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import retold

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(retold.__path__, "retold."))


def _functions(module):
    """Each function and method defined in ``module``; an ``lru_cache``
    function is unwrapped through ``__wrapped__``."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)  # a staticmethod or classmethod
                if inspect.isfunction(attr):
                    yield attr
        elif callable(obj):
            yield getattr(obj, "__wrapped__", obj)


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    for fn in _functions(importlib.import_module(name)):
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            pytest.fail(f"{name}.{fn.__qualname__}: {exc}")

