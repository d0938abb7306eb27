"""In-memory span tracing installed from outside the library.

Wrappers replace the attributes through which callers reach each layer's
public functions (module functions, methods and class methods of
``wittenlab`` and the ``numpy.linalg`` entry points), at every name in the
``wittenlab`` modules that binds the same object.  A span records its name,
start, end, parent span, job id, metadata and the exception class that left
it.  Nothing is written until the run ends.

Self time is a span's duration minus the part of it covered by its child
spans.  Kernel counts at the ``linalg`` boundary (flops and bytes moved) are
computed from array shapes with the Golub-Van Loan operation counts; they
are labelled "computed" because they ignore what LAPACK actually executes
and how caches behave.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, JOB, META, ERROR = range(7)


class Tracer:
    """Span store plus the wrappers that feed it; one per traced run."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.job = None
        self._stack = []
        self._installed = []

    def wrap(self, name, fn, meta=None):
        """Return ``fn`` wrapped in a span called ``name``.

        A call made while the innermost open span already has the same name
        (a constructor delegating to ``__init__``, say) joins that span
        instead of opening a nested one, so ``calls`` counts outer calls.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled or (stack and spans[stack[-1]][NAME] == name):
                return fn(*args, **kwargs)
            rec = [name, clock(), None, stack[-1] if stack else -1, self.job,
                   meta(args, kwargs) if meta else None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install_function(self, module, attr, name, meta=None):
        """Wrap ``module.attr`` there and at every other binding of that
        object in the ``wittenlab`` package and its modules."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, meta)
        owners = [module] + [
            m for key, m in list(sys.modules.items())
            if key.startswith("wittenlab") and m is not None
        ]
        seen = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    self._installed.append((owner, key, original))

    def install_method(self, cls, attr, name, meta=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, meta))
        else:
            wrapped = self.wrap(name, raw, meta)
        setattr(cls, attr, wrapped)
        self._installed.append((cls, attr, raw))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()


# --------------------------------------------------------------------------
# Kernel counts at the linalg boundary (computed from shapes)


def _dims(a):
    a = np.asarray(a)
    if a.ndim < 2:
        return a, 1, max(a.size, 1), 1
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return a, a.shape[-2], a.shape[-1], batch


def _scalar_factor(a):
    # a complex multiply-add costs four real ones
    return (4.0, 16) if np.iscomplexobj(a) else (1.0, 8)


def svd_counts(args, kwargs):
    a, m, n, batch = _dims(args[0])
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    f, isz = _scalar_factor(a)
    big, small = max(m, n), min(m, n)
    if not uv:
        flops = 4 * big * small**2 - 4 * small**3 / 3
        out = small * 8
    elif full:
        flops = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
        out = (m * m + n * n) * isz + small * 8
    else:
        flops = 14 * big * small**2 + 8 * small**3
        out = (m + n) * small * isz + small * 8
    return {"m": m, "n": n, "flops": f * flops * batch, "bytes": (m * n * isz + out) * batch}


def eigh_counts(args, kwargs):
    a, n, _, batch = _dims(args[0])
    f, isz = _scalar_factor(a)
    return {"n": n, "flops": f * 9 * n**3 * batch, "bytes": (2 * n * n * isz + n * 8) * batch}


def norm2_counts(args, kwargs):
    a, m, n, batch = _dims(args[0])
    f, isz = _scalar_factor(a)
    big, small = max(m, n), min(m, n)
    return {"m": m, "n": n, "flops": f * (4 * big * small**2 - 4 * small**3 / 3) * batch,
            "bytes": (m * n * isz + 8) * batch}


def pinv_counts(args, kwargs):
    a, m, n, batch = _dims(args[0])
    f, isz = _scalar_factor(a)
    big, small = max(m, n), min(m, n)
    flops = 14 * big * small**2 + 8 * small**3 + 2 * big * small**2
    return {"m": m, "n": n, "flops": f * flops * batch, "bytes": 2 * m * n * isz * batch}


def _is_matrix_2norm(args, kwargs):
    ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
    return ord_ == 2 and axis is None and np.ndim(args[0]) == 2


def install_layers(tracer):
    """Install every layer's wrappers; returns the tracer for chaining."""
    from wittenlab import circle, extrapolate, model, morse, spectral, zdist
    from wittenlab import weight_prescription as wp

    system_n = lambda a, k: {"N": a[0].N}
    for attr in ("from_standard_zeros", "from_arc_weights", "from_profile",
                 "from_callable_profile", "__init__"):
        tracer.install_method(circle.CircleWittenSystem, attr, "circle.build")
    tracer.install_method(circle.CircleWittenSystem, "spectrum", "circle.spectrum", system_n)
    tracer.install_method(circle.CircleWittenSystem, "zeta_data", "circle.zeta_data")
    tracer.install_method(spectral.GradedMatrixComplex, "__init__", "spectral.complex")
    tracer.install_method(morse.InstantonGraph, "dumps", "morse.graph_io")
    tracer.install_method(morse.InstantonGraph, "loads", "morse.graph_io")

    functions = [
        (circle, "zeta_invariant", "circle.zeta_invariant", None),
        (circle, "phi_psi_matrix", "circle.phi_psi_matrix", None),
        (circle, "torus_zeta_exact", "circle.torus_zeta_exact", system_n),
        (extrapolate, "richardson_sqrt", "extrapolate.richardson_sqrt", None),
        (model, "cutoff_normalization", "model.cutoff_normalization", None),
        (model, "numeric_model_check", "model.numeric_model_check", None),
        (model, "model_spectrum", "model.model_spectrum", None),
        (zdist, "pair_outer_first", "zdist.pair", system_n),
        (zdist, "pair_inner_first", "zdist.pair", system_n),
        (spectral, "assemble_laplacians", "spectral.assemble_laplacians", None),
        (spectral, "eigendecompose", "spectral.eigendecompose",
         lambda a, k: {"degrees": list(a[0].degrees)}),
        (spectral, "heat_supertrace", "spectral.heat_supertrace", None),
        (spectral, "zeta_via_spectrum", "spectral.zeta_via_spectrum", None),
        (morse, "build_differential", "morse.build_differential", None),
        (morse, "hodge_ranks_numeric", "morse.hodge_ranks_numeric", None),
        (morse, "analyze_ranks", "morse.analyze_ranks", None),
        (morse, "small_spectrum_window", "morse.small_spectrum_window", None),
        (morse, "projection_law_check", "morse.projection_law_check", None),
        (wp, "prescribe", "weight_prescription.prescribe",
         lambda a, k: {"edges": len(a[0].graph.edges)}),
        (wp, "verify_prescription", "weight_prescription.verify_prescription", None),
        (wp, "potential_consistency", "weight_prescription.potential_consistency", None),
    ]
    for module, attr, name, meta in functions:
        tracer.install_function(module, attr, name, meta)

    linalg = np.linalg
    for attr, name, meta in (("svd", "linalg.svd", svd_counts),
                             ("eigh", "linalg.eigh", eigh_counts),
                             ("pinv", "linalg.pinv", pinv_counts)):
        tracer.install_function(linalg, attr, name, meta)
    norm = linalg.norm
    spanned = tracer.wrap("linalg.norm2", norm, norm2_counts)

    def norm_wrapper(*args, **kwargs):
        if _is_matrix_2norm(args, kwargs):
            return spanned(*args, **kwargs)
        return norm(*args, **kwargs)

    linalg.norm = norm_wrapper
    tracer._installed.append((linalg, "norm", norm))
    return tracer


# --------------------------------------------------------------------------
# Aggregation


def self_times(spans):
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted((max(spans[c][START], lo), min(spans[c][END], hi)) for c in children[i]):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


ERROR_LAYERS = ("circle", "spectral", "morse", "zdist", "weight_prescription")


def layer_metrics(spans):
    """Counts, self times, ratios and computed kernel counts by span name."""
    own = self_times(spans)
    calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
    flops, nbytes = defaultdict(float), 0.0
    child_names = defaultdict(set)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += own[i]
        total_s[name] += s[END] - s[START]
        if s[PARENT] >= 0:
            child_names[s[PARENT]].add(name)
        if name.startswith("linalg.") and s[META]:
            flops[name] += s[META]["flops"]
            nbytes += s[META]["bytes"]

    m = {}
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("linalg.svd", "linalg.eigh", "linalg.norm2", "linalg.pinv"):
        m[f"{name}.flops"] = flops[name]
    m["linalg.bytes"] = nbytes

    zd = [i for i, s in enumerate(spans) if s[NAME] == "circle.zeta_data"]
    hits = sum(1 for i in zd if not spans[i][ERROR] and "circle.spectrum" not in child_names[i])
    m["circle.zeta_data.hit_ratio"] = hits / len(zd) if zd else 0.0

    pairs = calls["zdist.pair"]
    nodes = svds = 0
    for i, s in enumerate(spans):
        if s[NAME] in ("circle.zeta_invariant", "linalg.svd") and any(
            spans[a][NAME] == "zdist.pair" for a in _ancestors(spans, i)
        ):
            if s[NAME] == "linalg.svd":
                svds += 1
            else:
                nodes += 1
    m["zdist.nodes_per_pair"] = nodes / pairs if pairs else 0.0
    m["zdist.svd_per_pair"] = svds / pairs if pairs else 0.0

    edges = sum(s[META]["edges"] for s in spans if s[NAME] == "weight_prescription.prescribe")
    busy = total_s["weight_prescription.prescribe"]
    m["weight_prescription.edges_per_s"] = edges / busy if busy else 0.0

    # an exception is counted once: at the innermost span it left with
    # that class (a class changed on the way out counts again, in its layer)
    by_class = {layer: defaultdict(int) for layer in ERROR_LAYERS}
    errored_children = defaultdict(set)
    for i, s in enumerate(spans):
        if s[ERROR] and s[PARENT] >= 0:
            errored_children[s[PARENT]].add(s[ERROR])
    for i, s in enumerate(spans):
        layer = s[NAME].split(".")[0]
        if s[ERROR] and layer in by_class and s[ERROR] not in errored_children[i]:
            by_class[layer][s[ERROR]] += 1
    for layer, counts in by_class.items():
        m[f"{layer}.errors"] = sum(counts.values())
    return m, {layer: dict(c) for layer, c in by_class.items() if c}


# --------------------------------------------------------------------------
# Cross-check against the reference figures in ROADMAP item 1, measured on
# a 2-core machine.  A point figure ("~4.2 s") counts as matched within
# -20 % / +25 %; a range as given.


def reference_checks(spans):
    """Rows (what, reference, measured, samples, verdict) for the figures
    this workload exercises."""
    rows = []

    def durations(pred):
        return [s[END] - s[START] for s in spans if pred(s)]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    def row(what, lo, hi, unit, values, scale=1.0):
        if not values:
            return
        med = float(np.median(values)) * scale
        verdict = "within" if lo <= med <= hi else "MISMATCH"
        ref = f"{lo:g}-{hi:g} {unit}" if lo != hi else f"~{lo:g} {unit}"
        rows.append((what, ref, f"{med:.4g} {unit}", len(values), verdict))

    svd256 = durations(lambda s: s[NAME] == "linalg.svd" and parent_name(s) == "circle.spectrum"
                       and s[META]["m"] == 256)
    row("SVD of d_z at N=256", 22.0, 31.0, "ms", svd256, 1e3)

    pair256 = [i for i, s in enumerate(spans) if s[NAME] == "zdist.pair" and s[META]["N"] == 256]
    row("pair_outer_first at N=256", 4.2 * 0.8, 4.2 * 1.25, "s",
        [spans[i][END] - spans[i][START] for i in pair256])
    if pair256:
        svds = [sum(1 for j, s in enumerate(spans) if s[NAME] == "linalg.svd"
                    and i in _ancestors(spans, j)) for i in pair256]
        row("SVDs per pair_outer_first", 129, 129, "SVDs", svds)

    row("torus_zeta_exact at N=16", 5.9 * 0.8, 5.9 * 1.25, "s",
        durations(lambda s: s[NAME] == "circle.torus_zeta_exact" and s[META]["N"] == 16))

    ratios = []
    for i, s in enumerate(spans):
        if s[NAME] == "spectral.eigendecompose" and 512 in s[META]["degrees"]:
            bare = sum(c[END] - c[START] for c in spans
                       if c[PARENT] == i and c[NAME] == "linalg.eigh")
            if bare > 0:
                ratios.append((s[END] - s[START]) / bare)
    row("eigendecompose / bare eigh (family with a 512 degree)", 3.5 * 0.8, 3.5 * 1.25, "x", ratios)
    return rows
