"""Self-tests of the benchmark: span arithmetic, the tail percentile and the
seeded input generators.  Run from the repository root with

    python3 -m pytest bench/tests
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, meta=None, error=None):
    return [name, start, end, parent, "0.0", meta, error]


def test_self_time_of_nested_spans():
    spans = [
        span("outer", 0.0, 10.0),
        span("child", 1.0, 3.0, 0),
        span("grandchild", 1.5, 2.5, 1),
        span("child", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 4.0])
    # self times of a tree add up to the root's duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 2.0, 5.0, 0),
        span("b", 4.0, 6.0, 0),  # overlaps a: union [2, 6]
        span("c", 8.0, 12.0, 0),  # ends after the parent: clipped to [8, 10]
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_layer_metrics_ratios_and_innermost_errors():
    spans = [
        span("zdist.pair", 0.0, 10.0, meta={"N": 128}),
        span("circle.zeta_invariant", 0.0, 4.0, 0),
        span("circle.zeta_data", 0.0, 4.0, 1),
        span("circle.spectrum", 0.0, 3.0, 2, meta={"N": 128}),
        span("linalg.svd", 0.0, 3.0, 3, meta={"m": 128, "n": 128, "flops": 10.0, "bytes": 4.0}),
        span("circle.zeta_invariant", 5.0, 6.0, 0),
        span("circle.zeta_data", 5.0, 6.0, 5),  # cache hit: no spectrum child
        span("spectral.eigendecompose", 11.0, 12.0, error="NumericalError",
             meta={"degrees": [4]}),
        span("linalg.eigh", 11.0, 11.5, 7, error="LinAlgError",
             meta={"n": 4, "flops": 1.0, "bytes": 1.0}),
        span("circle.zeta_invariant", 13.0, 14.0, error="StateError"),
        span("circle.zeta_data", 13.0, 13.5, 9, error="StateError"),
    ]
    m, by_class = tracing.layer_metrics(spans)
    # one hit among three calls (a miss, a hit and a call that raised)
    assert m["circle.zeta_data.hit_ratio"] == pytest.approx(1.0 / 3.0)
    assert m["zdist.nodes_per_pair"] == 2 and m["zdist.svd_per_pair"] == 1
    assert m["linalg.svd.flops"] == 10.0 and m["linalg.bytes"] == 5.0
    assert m["zdist.pair.self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    # an exception is counted once, where its class first appears
    assert m["spectral.errors"] == 1 and m["circle.errors"] == 1
    assert by_class == {"spectral": {"NumericalError": 1}, "circle": {"StateError": 1}}


def test_tracer_wraps_records_and_restores():
    import types

    mod = types.ModuleType("wittenlab_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def broken():
        raise KeyError("x")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    tracer = tracing.Tracer()
    tracer.install_function(mod, "inner", "t.inner")
    tracer.install_function(mod, "outer", "t.outer")
    tracer.install_function(mod, "broken", "t.broken")
    assert mod.outer(1) == 4 and tracer.spans == []  # disabled: no spans
    tracer.enabled, tracer.job = True, "1.0"
    assert mod.outer(1) == 4
    with pytest.raises(KeyError):
        mod.broken()
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["t.outer", "t.inner", "t.broken"]
    assert tracer.spans[1][tracing.PARENT] == 0
    assert tracer.spans[2][tracing.ERROR] == "KeyError"
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer


def test_computed_kernel_counts():
    a = np.zeros((6, 4), dtype=complex)
    full = tracing.svd_counts((a,), {})
    values = tracing.svd_counts((a,), {"compute_uv": False})
    # complex arithmetic counts four real operations
    assert full["flops"] == 4 * (4 * 36 * 4 + 8 * 6 * 16 + 9 * 64)
    assert values["flops"] == pytest.approx(4 * (4 * 6 * 16 - 4 * 64 / 3))
    assert tracing.eigh_counts((np.zeros((5, 5)),), {})["flops"] == 9 * 125


def test_tail_level_keeps_ten_samples_beyond():
    times = list(range(1, 41))  # 40 samples, equal weights
    level = run.tail_level(len(times))
    assert level == pytest.approx(0.75)
    value = run.weighted_quantile(times, [1.0] * 40, level)
    assert value == 30 and sum(1 for t in times if t > value) == 10
    with pytest.raises(ValueError):
        run.tail_level(10)


def _records(templates, ok=True):
    return [{"template": t, "seconds": 0.0, "ok": ok} for t in templates]


def test_job_mix_is_not_tilted_by_a_cut_cycle():
    # template 0 costs 1 s, template 1 costs 3 s; the run stopped after
    # the first job of a third cycle
    records = _records([0, 1, 0, 1, 0] * 3)
    times = [1.0, 3.0, 1.0, 3.0, 1.0] * 3
    e2e = run.end_to_end(records, times, 2)
    assert e2e["jobs_per_s"] == pytest.approx(2 / 4.0)
    # equal template weights: the lower median of {1, 3}
    assert e2e["job_p50_s"] == 1.0
    assert e2e["tail_pct"] == pytest.approx(100.0 * 5 / 15)


def test_calibration_uses_neighbours_and_a_job_length_window():
    nominal = run.REF_NOMINAL_S
    refs = [(0.0, 0.016), (1.0, 0.008), (1.5, 0.012), (2.0, 0.004), (9.0, 0.010)]
    records = [
        {"start": 0.01, "seconds": 0.5},  # short: the samples at 0 and 1
        {"start": 2.01, "seconds": 3.0},  # long: every sample from -0.99 to 8.01
    ]
    got = run.calibrated_seconds(records, refs)
    assert got[0] == pytest.approx(0.5 * nominal / 0.012)
    # samples at 0, 1, 1.5, 2 lie within one job length of the start; the
    # first sample after the end (9.0) is always included
    assert got[1] == pytest.approx(3.0 * nominal / 0.010)


def _comparable(obj):
    """Inputs as nested tuples, so equality is exact and ordered."""
    if isinstance(obj, dict):
        return tuple((k, _comparable(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_comparable(v) for v in obj)
    return obj


def _sizes(cycle):
    out = []
    for _, kind, params in cycle:
        sizes = workloads.input_sizes(kind, params)
        sizes.pop("edges", None)  # edge counts are drawn, vertex counts fixed
        out.append((kind, _comparable(sizes)))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    for index in (0, 1, 2):
        a = workloads.make_cycle(workload, 7, index)
        b = workloads.make_cycle(workload, 7, index)
        c = workloads.make_cycle(workload, 8, index)
        assert _comparable(a) == _comparable(b)
        assert _sizes(a) == _sizes(c)
        for (_, _, pa), (_, _, pc) in zip(a, c):
            assert _comparable(pa) != _comparable(pc)
    # later cycles draw fresh geometry
    assert _comparable(workloads.make_cycle(workload, 7, 1)) != _comparable(
        workloads.make_cycle(workload, 7, 2)
    )
