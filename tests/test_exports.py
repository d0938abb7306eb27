import importlib
import pkgutil

import pytest

import wittenlab

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(wittenlab.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"wittenlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"wittenlab.{name}.__all__ lists undefined {missing}"
