"""The benchmark's output oracles, run on one small seeded input per job kind.

For every workload, the first job of each kind in cycle 1 of seed 1 goes
through ``run_job`` and ``check_job`` from ``bench/workloads.py``.  A library
change that breaks an identity those oracles check (pairing targets, Betti
numbers, antisymmetry, certificates) then fails in this suite and not first
in a benchmark run.  The ``delta`` job, one whole delta_limit_report of
about 4 s, is left to the benchmark.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SKIPPED_KINDS = {"delta"}


@pytest.mark.parametrize(
    "workload", ["circle_sweep", "pairing", "graded_dense", "graphs"]
)
def test_first_job_of_each_kind_passes_its_oracle(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    seen = set(SKIPPED_KINDS)
    for _, kind, params in workloads.make_cycle(workload, 1, 1):
        if kind in seen:
            continue
        seen.add(kind)
        workloads.check_job(kind, params, workloads.run_job(kind, params))
    assert seen - SKIPPED_KINDS, f"{workload} ran no job"
