"""Deterministic cost ledger: counts of the factorizations that a run
performs, pinned by equality in ``cost_ledger.json`` so that a saving shows
as well as a regression.  A change that moves a count edits the ledger in
the same diff.

Each ``np.linalg`` call is recorded as ``"<name> <shape of its first
argument>"``.  ``phi_psi_matrix`` takes no N x N SVD, only thin ones of
N x (block) matrices; the four index/degree cases of one ``model check``
share one fine-grid and one coarse-grid solve, each two ``eigh`` blocks of
its sine-mode Rayleigh-Ritz and one residual norm; a zeta invariant takes
one full SVD, and a pairing one per frequency node (65) after the
Gauss-Kronrod rule is built.  Caches start empty, so the counts do not
depend on what other tests computed before.
"""

import collections
import copy
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from wittenlab import circle, model, zdist

LEDGER = json.loads((Path(__file__).parent / "cost_ledger.json").read_text())


def _key(name, args):
    return f"{name} {'x'.join(map(str, np.shape(args[0])))}"


def _linalg_functions():
    return [(name, f) for name, f in vars(np.linalg).items()
            if callable(f) and not inspect.isclass(f) and not name.startswith("_")]


def _counting(calls, name, func):
    def wrapper(*args, **kwargs):
        calls[_key(name, args)] += 1
        return func(*args, **kwargs)
    return wrapper


def _uncached(system):
    fresh = copy.copy(system)
    fresh._spectra = {}
    return fresh


def _phi_psi_tight2(systems):
    circle.phi_psi_matrix(systems["tight2"], complex(16.0, 0.0))


def _model_check_four_cases(_):
    model._fd_base_spectrum.cache_clear()
    for index in (0, 1):
        for degree in (0, 1):
            model.numeric_model_check(model.MorseModelSpec(1, index), 4.0, degree)


def _zeta_invariant_tight2(systems):
    circle.zeta_invariant(_uncached(systems["tight2"]), complex(10.0, 0.0))


def _pair_exact2_small(systems):
    zdist._kronrod.cache_clear()  # the first pairing also builds its rule
    zdist.pair_outer_first(_uncached(systems["exact2_small"]), 10.0,
                           zdist.GaussianTestFunction(1.0))


CASES = {
    "phi_psi_matrix tight2 mu=16": _phi_psi_tight2,
    "model check mu=4": _model_check_four_cases,
    "zeta_invariant tight2 mu=10": _zeta_invariant_tight2,
    "pair_outer_first exact2_small mu=10 sigma=1": _pair_exact2_small,
}


def test_ledger_names_every_case():
    assert set(LEDGER) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cost_ledger(case, tight2, exact2_small, monkeypatch):
    calls = collections.Counter()
    for name, func in _linalg_functions():
        monkeypatch.setattr(np.linalg, name, _counting(calls, name, func))
    CASES[case]({"tight2": tight2, "exact2_small": exact2_small})
    assert dict(calls) == LEDGER[case]
