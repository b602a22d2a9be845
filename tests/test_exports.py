"""Export lists: a name deleted from a module but still listed in its
`__all__`, or a listed name the package does not republish, fails here and
not in a user's `import *`."""
import importlib
import pkgutil

import pytest

import cliquegrowth

MODULES = [importlib.import_module(f"cliquegrowth.{m.name}")
           for m in pkgutil.iter_modules(cliquegrowth.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_exist(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_are_listed():
    listed = [(m, n) for m in MODULES for n in getattr(m, "__all__", ())]
    assert listed
    assert [f"{m.__name__}.{n}" for m, n in listed
            if getattr(cliquegrowth, n, None) is not getattr(m, n)] == []
