"""wittenlab benchmark: seeded closed-loop workloads with output oracles.

Usage, from the root of a checkout (the library is imported from ``src``):

    python3 bench/run.py --workload circle_sweep --seed 1 --seconds 20 --trace 0

Workloads: circle_sweep, pairing, graded_dense, graphs (see workloads.py).
One client in one process runs the workload's fixed job cycle back to back
(a closed loop, no concurrency); each job builds its own systems from the
generated inputs and is checked by an oracle outside the timed section.

``--trace 0`` measures for ``--seconds`` (at least one whole cycle and more
than ten jobs) with no tracing and prints the end-to-end metrics:

    setup_s      median of three cold set-ups (this process and two child
                 processes): import of wittenlab, input generation and one
                 warm-up job, which fills process-wide lazy state
    jobs_per_s   verified jobs per second for the workload's job mix
    job_p50_s    median job wall time
    job_tail_s   highest percentile of job time with >= 10 samples above it
    peak_rss_mb  peak resident memory of this process

Job times are calibrated: a fixed 8 ms kernel (an SVD and a dictionary
loop) is timed before every job, and each job's wall time is scaled by the
kernel's nominal time over its mean measured time around that job.  The shared
2-core host this was tuned on changes speed by 20-50 % within seconds, for
BLAS and Python alike, which uncalibrated figures cannot separate from a
change of the code.  Raw wall figures are printed alongside.

failed_ratio (failed / attempted jobs) is printed too; it is 0 when the code
is right, so it is carried by the ``attempted``/``failed`` fields of the
result line instead of a metric.

``--trace 1`` runs a fixed amount of work (the first cycle) untraced, traced
and untraced again, prints the per-layer metrics, the reference cross-check and
``trace.overhead_ratio``, and exits with status 3 if a layer that the
workload exists to exercise recorded no calls.  Count metrics repeat exactly
for a given seed.

BLAS runs on one thread (set in this process's environment before numpy is
imported).  Every run writes its provenance, per-job records and, when
traced, all spans to ``.bench_out/`` in the checkout.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
#: Scale of calibrated job times: the typical time of the calibration
#: kernel (reference_seconds) on the 2-core x86-64 machine this benchmark
#: was tuned on, where it reads 6-10 ms as the host load changes.
REF_NOMINAL_S = 0.008
EXIT_MISSING_LAYER = 3

#: Layers each workload exists to exercise; a traced run in which one of
#: them records no call fails loudly.
MAIN_LAYERS = {
    "circle_sweep": ("circle.build", "circle.spectrum", "circle.zeta_invariant",
                     "circle.phi_psi_matrix", "model.cutoff_normalization",
                     "model.numeric_model_check", "model.model_spectrum"),
    "pairing": ("circle.spectrum", "circle.zeta_data", "circle.zeta_invariant",
                "extrapolate.richardson_sqrt", "zdist.pair", "linalg.svd"),
    "graded_dense": ("circle.torus_zeta_exact", "spectral.heat_supertrace", "spectral.complex",
                     "spectral.assemble_laplacians", "spectral.eigendecompose",
                     "spectral.zeta_via_spectrum", "linalg.eigh", "linalg.norm2",
                     "morse.build_differential"),
    "graphs": ("morse.build_differential", "morse.hodge_ranks_numeric", "morse.analyze_ranks",
               "morse.small_spectrum_window", "morse.projection_law_check", "morse.graph_io",
               "weight_prescription.prescribe", "weight_prescription.verify_prescription",
               "weight_prescription.potential_consistency", "linalg.norm2"),
}


def _load_library():
    if not os.path.isfile(os.path.join(ROOT, "src", "wittenlab", "__init__.py")):
        sys.exit(f"error: no wittenlab sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import wittenlab

    if not os.path.abspath(wittenlab.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"error: wittenlab imported from {wittenlab.__file__}, not this checkout")


def _set_up(workload, seed):
    """Import, generate the first cycle's inputs and run the warm-up job
    with its check; returns the seconds since this script started."""
    _load_library()
    import workloads

    workloads.make_cycle(workload, seed, 1)
    _, kind, params = workloads.make_cycle(workload, seed, 0)[workloads.WARMUP[workload]]
    try:
        workloads.check_job(kind, params, workloads.run_job(kind, params))
    except Exception as exc:  # the timed jobs count failures; set-up goes on
        print(f"warning: warm-up job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return time.perf_counter() - _T0


def _child_setup(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Provenance


def _openblas_runtime():
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_thr = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_cfg and get_thr:
                    get_cfg.restype = ctypes.c_char_p
                    get_thr.restype = ctypes.c_int
                    return get_cfg().decode(), int(get_thr())
    return None, None


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, cycle):
    import numpy as np
    import scipy
    import workloads

    blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime_cfg, threads = _openblas_runtime()
    return {
        "workload": workload,
        "seed": seed,
        "loop": "closed, 1 client, 1 process",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_cfg.get('name')} {blas_cfg.get('version')}",
        "blas_runtime": runtime_cfg,
        "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "sizes": workloads.SIZES[workload],
        "cycle": [{"kind": kind, **workloads.input_sizes(kind, params)}
                  for _, kind, params in cycle],
        "git_commit": _git_commit() or "unavailable (not a git checkout)",
    }


# --------------------------------------------------------------------------
# Measurement


def reference_seconds():
    """Wall time of a fixed calibration kernel: one SVD of a seeded complex
    128 x 128 matrix and a fixed dictionary loop, about 8 ms together."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    t = time.perf_counter()
    np.linalg.svd(a)
    d = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0) + i
    return time.perf_counter() - t


def _run_cycle(workloads, cycle, cycle_index, records, refs, tracer=None, stop=None):
    """Run the jobs of one cycle, each preceded by a calibration sample
    appended to ``refs``; return False if ``stop()`` ended the cycle early
    (checked between jobs)."""
    for template, kind, params in cycle:
        if stop is not None and stop():
            return False
        refs.append((time.perf_counter(), reference_seconds()))
        if tracer is not None:
            tracer.job = f"{cycle_index}.{template}"
            tracer.enabled = True
        t = time.perf_counter()
        try:
            out = workloads.run_job(kind, params)
            error = None
        except Exception as exc:  # a failing job is counted, the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                workloads.check_job(kind, params, out)
            except Exception as exc:
                error = f"oracle {type(exc).__name__}: {exc}"
        records.append({"cycle": cycle_index, "template": template, "kind": kind,
                        "start": t, "seconds": elapsed, "ok": error is None, "error": error})
    return True


def weighted_quantile(values, weights, q):
    """Smallest value at which the cumulative weight reaches ``q`` of the
    total (the plain order statistic when all weights are equal)."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= q * total * (1.0 - 1e-12):
            return value
    return pairs[-1][0]


def tail_level(n, beyond=TAIL_BEYOND):
    """Highest quantile level with at least ``beyond`` of n samples above
    it; needs more than ``beyond`` samples."""
    if n <= beyond:
        raise ValueError(f"{n} samples, need more than {beyond}")
    return (n - beyond) / n


def calibrated_seconds(records, refs):
    """Each job's wall time scaled to the reference machine speed.

    ``refs`` holds (time, seconds) samples of the calibration kernel, one
    before every job and one at the end.  A job's time is multiplied by
    REF_NOMINAL_S over the mean kernel time of the samples within one job
    length before its start and after its end (at least the two adjacent
    ones): the host this was tuned on switches speed by tens of percent
    every few seconds, for BLAS and Python alike, so a long job is judged
    by the average speed around it and a short one by its neighbours.  The
    library code never touches the kernel.
    """
    at = [t for t, _ in refs]
    out = []
    for r in records:
        start, end = r["start"], r["start"] + r["seconds"]
        lo = min(bisect.bisect_left(at, start - r["seconds"]), bisect.bisect_right(at, start) - 1)
        hi = max(bisect.bisect_right(at, end + r["seconds"]), bisect.bisect_left(at, end) + 1)
        window = [v for _, v in refs[max(lo, 0):hi]]
        out.append(r["seconds"] * REF_NOMINAL_S / statistics.fmean(window))
    return out


def end_to_end(records, times, templates):
    """jobs_per_s, p50 and tail of the workload's job mix.

    Every template weighs the same however many samples it has, so a cycle
    that the deadline cut short does not tilt the mix: jobs_per_s is the
    number of jobs in a cycle over the sum of the templates' median times,
    and the percentiles are of the sample distribution weighted by one over
    each template's sample count.
    """
    by_template, counts = {}, {}
    for r, t in zip(records, times):
        by_template.setdefault(r["template"], []).append(t)
    counts = {t: len(v) for t, v in by_template.items()}
    weights = [1.0 / counts[r["template"]] for r in records]
    cycle_time = sum(statistics.median(by_template[t]) for t in range(templates))
    ok_share = sum(1 for r in records if r["ok"]) / len(records)
    level = tail_level(len(records))
    return {
        "jobs_per_s": ok_share * templates / cycle_time,
        "job_p50_s": weighted_quantile(times, weights, 0.5),
        "job_tail_s": weighted_quantile(times, weights, level),
        "tail_pct": 100.0 * level,
    }


def _write(name, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(payload, fh, default=str)


def measure(workload, seed, seconds):
    setup_self = _set_up(workload, seed)
    import workloads

    setups = [setup_self] + [_child_setup(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    templates = len(workloads.WORKLOADS[workload])
    records = []
    start = time.perf_counter()
    deadline = start + seconds

    def stop():
        # past the deadline, and enough samples for job_tail_s
        return time.perf_counter() >= deadline and len(records) > TAIL_BEYOND

    refs = []
    index = 1
    # the first cycle always runs whole, so every template has a sample
    while _run_cycle(workloads, workloads.make_cycle(workload, seed, index), index, records,
                     refs, stop=stop if index > 1 else None) and not stop():
        index += 1
    refs.append((time.perf_counter(), reference_seconds()))
    wall = time.perf_counter() - start
    raw = end_to_end(records, [r["seconds"] for r in records], templates)
    e2e = end_to_end(records, calibrated_seconds(records, refs), templates)
    failed = sum(1 for r in records if not r["ok"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    prov = provenance(workload, seed, workloads.make_cycle(workload, seed, 1))
    prov["calibration_kernel_median_s"] = statistics.median(v for _, v in refs)

    n = len(records)
    print(f"# {workload} seed={seed}: {n} jobs in {wall:.1f} s, {index} cycle(s) started "
          f"(closed loop, 1 client); job times calibrated to a {REF_NOMINAL_S * 1e3:g} ms "
          f"reference kernel, raw wall figures in brackets")
    print("# provenance " + json.dumps(prov))
    print(f"setup_s      {statistics.median(setups):.4f} s   "
          f"(median of {len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in setups)})")
    print(f"jobs_per_s   {e2e['jobs_per_s']:.4f} 1/s   [{raw['jobs_per_s']:.4f}]")
    print(f"job_p50_s    {e2e['job_p50_s']:.4f} s   [{raw['job_p50_s']:.4f}]")
    print(f"job_tail_s   {e2e['job_tail_s']:.4f} s   [{raw['job_tail_s']:.4f}]   "
          f"(p{e2e['tail_pct']:.1f} of {n} jobs, {TAIL_BEYOND} beyond it)")
    print(f"failed_ratio {failed / n:.4f} ratio ({failed}/{n})")
    print(f"peak_rss_mb  {rss_mb:.2f} MB")
    for r in records:
        if not r["ok"]:
            print(f"# FAILED cycle {r['cycle']} job {r['template']} ({r['kind']}): {r['error']}")

    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "jobs_per_s": {"value": e2e["jobs_per_s"], "unit": "1/s"},
        "job_p50_s": {"value": e2e["job_p50_s"], "unit": "s"},
        "job_tail_s": {"value": e2e["job_tail_s"], "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    _write(f"{workload}-seed{seed}-trace0.json",
           {"provenance": prov, "setups_s": setups, "records": records, "calibration": refs,
            "raw_wall": raw, "metrics": metrics})
    return n, failed, metrics


PER_LAYER = (
    ("circle.build.calls", "count"), ("circle.build.self_s", "s"),
    ("circle.spectrum.calls", "count"), ("circle.spectrum.self_s", "s"),
    ("circle.zeta_data.calls", "count"), ("circle.zeta_data.hit_ratio", "ratio"),
    ("circle.zeta_invariant.self_s", "s"),
    ("extrapolate.richardson_sqrt.calls", "count"), ("extrapolate.richardson_sqrt.self_s", "s"),
    ("circle.phi_psi_matrix.self_s", "s"),
    ("model.cutoff_normalization.calls", "count"), ("model.cutoff_normalization.self_s", "s"),
    ("model.numeric_model_check.self_s", "s"), ("model.model_spectrum.self_s", "s"),
    ("zdist.pair.calls", "count"), ("zdist.pair.self_s", "s"),
    ("zdist.nodes_per_pair", "count"), ("zdist.svd_per_pair", "count"),
    ("circle.torus_zeta_exact.self_s", "s"),
    ("spectral.heat_supertrace.calls", "count"), ("spectral.heat_supertrace.self_s", "s"),
    ("spectral.complex.calls", "count"), ("spectral.complex.self_s", "s"),
    ("spectral.assemble_laplacians.self_s", "s"), ("spectral.eigendecompose.self_s", "s"),
    ("spectral.zeta_via_spectrum.self_s", "s"),
    ("linalg.svd.calls", "count"), ("linalg.svd.self_s", "s"), ("linalg.svd.flops", "flop"),
    ("linalg.eigh.calls", "count"), ("linalg.eigh.self_s", "s"), ("linalg.eigh.flops", "flop"),
    ("linalg.norm2.calls", "count"), ("linalg.norm2.self_s", "s"),
    ("linalg.norm2.flops", "flop"),
    ("linalg.pinv.calls", "count"), ("linalg.pinv.flops", "flop"),
    ("linalg.bytes", "B"),
    ("morse.build_differential.self_s", "s"), ("morse.hodge_ranks_numeric.self_s", "s"),
    ("morse.analyze_ranks.self_s", "s"), ("morse.small_spectrum_window.self_s", "s"),
    ("morse.projection_law_check.self_s", "s"), ("morse.graph_io.self_s", "s"),
    ("weight_prescription.prescribe.self_s", "s"),
    ("weight_prescription.verify_prescription.self_s", "s"),
    ("weight_prescription.potential_consistency.self_s", "s"),
    ("weight_prescription.edges_per_s", "1/s"),
    ("circle.errors", "count"), ("spectral.errors", "count"), ("morse.errors", "count"),
    ("zdist.errors", "count"), ("weight_prescription.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def traced(workload, seed):
    _set_up(workload, seed)
    import tracing
    import workloads

    cycle = workloads.make_cycle(workload, seed, 1)
    before, records, after, refs = [], [], [], []
    # the traced pass sits between two untraced passes over the same inputs
    _run_cycle(workloads, cycle, 1, before, refs)
    tracer = tracing.install_layers(tracing.Tracer())
    try:
        _run_cycle(workloads, cycle, 1, records, refs, tracer=tracer)
    finally:
        tracer.uninstall()
    _run_cycle(workloads, cycle, 1, after, refs)
    spans = tracer.spans
    measured, errors = tracing.layer_metrics(spans)
    busy = lambda rs: sum(r["seconds"] for r in rs)
    measured["trace.overhead_ratio"] = busy(records) / (0.5 * (busy(before) + busy(after)))
    prov = provenance(workload, seed, cycle)
    failed = sum(1 for r in records if not r["ok"])

    print(f"# {workload} seed={seed}: traced run of cycle 1 ({len(records)} jobs), "
          f"{len(spans)} spans")
    print("# provenance " + json.dumps(prov))
    metrics = {}
    for name, unit in PER_LAYER:
        value = measured.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        label = " (computed)" if name.endswith((".flops", ".bytes")) else ""
        print(f"{name:48s} {value:.6g} {unit}{label}")
    for layer, counts in errors.items():
        print(f"# {layer}.errors by class: {counts}")
    print("# reference cross-check (ROADMAP item 1 figures vs this run):")
    for what, ref, got, n, verdict in tracing.reference_checks(spans):
        print(f"#   {what}: reference {ref}, measured {got} (median of {n}): {verdict}")
    for r in records:
        if not r["ok"]:
            print(f"# FAILED job {r['template']} ({r['kind']}): {r['error']}")
    _write(f"{workload}-seed{seed}-trace1.json",
           {"provenance": prov, "records": records, "metrics": metrics,
            "span_fields": ["name", "start", "end", "parent", "job", "meta", "error"],
            "spans": spans})

    missing = [name for name in MAIN_LAYERS[workload]
               if measured.get(f"{name}.calls", 0) == 0]
    if missing:
        print(f"error: layers with no calls in {workload}: {', '.join(missing)}", file=sys.stderr)
        sys.exit(EXIT_MISSING_LAYER)
    return len(records), failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(MAIN_LAYERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.setup_only:
        print(f"{_set_up(args.workload, args.seed):.6f}")
        return
    if args.trace:
        attempted, failed, metrics = traced(args.workload, args.seed)
    else:
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
