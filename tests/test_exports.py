import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch, exact2_small):
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
        # both order names bind one function, wrapped twice: a call through
        # either name is one span
        tracer.enabled = True
        zdist.pair_inner_first(exact2_small, 10.0, zdist.GaussianTestFunction(1.0))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert [s[tracing.NAME] for s in tracer.spans].count("zdist.pair") == 1
    assert np.linalg.svd is svd
    assert zdist.pair_outer_first is pair
    assert zdist.pair_inner_first is zdist.pair_outer_first


_IMPORT_LEDGER = """
import sys
start = set(sys.modules)
import wittenlab, wittenlab.cli
added = {name.partition(".")[0] for name in set(sys.modules) - start}
print(" ".join(sorted(added - set(sys.stdlib_module_names) - {"wittenlab"})))
"""


def test_import_loads_no_third_party_module_but_numpy():
    # the cold start is numpy alone; modules the interpreter loads at start-up
    # (site hooks) are not counted
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_LEDGER],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy"]
