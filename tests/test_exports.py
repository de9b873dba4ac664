"""Every name that a module of the package exports in ``__all__`` resolves,
so a name removed from a module cannot stay advertised, and every name a
module imports is used, so a deletion leaves no import behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hifde

MODULES = sorted(m.name for m in pkgutil.iter_modules(hifde.__path__))


def test_modules_found():
    assert {"dense", "driver", "factor_ops", "partition", "sparse"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"hifde.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"hifde.{name}.__all__ names {missing}, which it does not define"


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # what pyflakes reports as F401, with the standard library alone: each
    # name a module (not the package's __init__, which imports to export)
    # imports is used in it, exported in __all__, or on an import line
    # marked "# noqa: F401"
    mod = importlib.import_module(f"hifde.{name}")
    source = Path(mod.__file__).read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(mod, "__all__", ()))
    unused = [alias.asname or alias.name.split(".")[0]
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              and "# noqa: F401" not in lines[node.lineno - 1]
              for alias in node.names]
    unused = [n for n in unused if n not in used]
    assert not unused, f"hifde.{name} imports {unused} and does not use them"
