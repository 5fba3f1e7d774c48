"""Every name a module lists in `__all__` exists, so a star import or a
reader of `__all__` never meets a name the module has dropped."""

import importlib
import pkgutil

import pytest

import corrtrans

MODULES = [importlib.import_module(f"corrtrans.{info.name}")
           for info in pkgutil.iter_modules(corrtrans.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
