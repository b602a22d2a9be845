"""Export lists: a name deleted from a module but still listed in its
`__all__`, or still imported by the package, fails here and not in a
user's `import *`."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cliquegrowth

MODULES = [importlib.import_module(f"cliquegrowth.{m.name}")
           for m in pkgutil.iter_modules(cliquegrowth.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_exist(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_are_listed():
    tree = ast.parse(Path(cliquegrowth.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        listed = importlib.import_module(f"cliquegrowth.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in listed] == [], node.module
