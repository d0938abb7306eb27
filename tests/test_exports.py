import importlib
import pkgutil
from pathlib import Path

import numpy as np
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


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # the benchmark wraps library names by attribute; a name it traces that
    # the library no longer defines makes install_layers raise here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    from wittenlab import zdist

    svd, pair = np.linalg.svd, zdist.pair_outer_first
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        assert zdist.pair_outer_first is not pair
    finally:
        tracer.uninstall()
    assert np.linalg.svd is svd
    assert zdist.pair_outer_first is pair
