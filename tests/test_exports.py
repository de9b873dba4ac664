"""Every name that a module of the package exports in ``__all__`` resolves,
so a name removed from a module cannot stay advertised."""

import importlib
import pkgutil

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
