"""Command-line front door.

Deterministic: identical configuration produces identical report files.  Exit codes: 0 all thresholds pass, 1 a threshold failed, 2 usage
error, 3 infeasible input, 4 falsified mathematical certificate.  A run
writes each warning category once.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import circle, model, morse, spectral, zdist
from . import weight_prescription as presc
from .errors import (
    ConfigError,
    ConvergenceError,
    InvariantViolation,
    NotAComplex,
    NumericalError,
    StateError,
)
from .reports import Report, write_csv, write_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_FALSIFIED = 4

# NotAComplex is a ValueError, so main() catches the falsified errors first.
# Every other package error, a malformed number or JSON file, a missing
# config key and an unreadable path are input errors.
_FALSIFIED_ERRORS = (NotAComplex, InvariantViolation)
_INPUT_ERRORS = (
    ValueError, KeyError, OSError, StateError, NumericalError, ConvergenceError,
)


def _finite(text):
    """argparse type: a finite float (no nan or inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _number_list(convert):
    """argparse type: a non-empty comma-separated list of ``convert`` values."""

    def parse(text):
        try:
            values = [convert(x) for x in text.split(",") if x]
        except (ValueError, argparse.ArgumentTypeError):
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}")
        return values

    return parse


@contextlib.contextmanager
def _read_json(path):
    """The parsed JSON of ``path``; a TypeError or AttributeError raised while
    reading it means the file has the wrong shape, and becomes a ConfigError."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        yield data
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: unexpected JSON shape ({exc})") from None


def load_system(path, n_override=None):
    """Build a circle system from a JSON descriptor file.  Every value is
    read first, so that no error of the construction is taken for a shape
    fault of the file."""
    cws = circle.CircleWittenSystem
    with _read_json(path) as cfg:
        kind = cfg.get("type", "standard_zeros")
        N = int(n_override if n_override is not None else cfg.get("N", 256))
        r = float(cfg.get("r", 0.35))
        if kind == "standard_zeros":
            zeros = [(float(p), float(v), int(k)) for p, v, k in cfg["zeros"]]
            build = functools.partial(cws.from_standard_zeros, zeros, r=r, N=N,
                                      c=float(cfg.get("c", 0.0)))
        elif kind == "arc_weights":
            build = functools.partial(
                cws.from_arc_weights, [float(p) for p in cfg["positions"]],
                [int(k) for k in cfg["indices"]],
                [float(w) for w in cfg["weights"]], r=r, N=N,
            )
        elif kind == "trig_profile":
            cos = [float(a) for a in cfg.get("cos", [])]
            sin = [float(b) for b in cfg.get("sin", [])]

            def dh(t):
                t = np.asarray(t, dtype=float)
                out = np.zeros_like(t)
                for k, a in enumerate(cos, start=1):
                    out += -a * k * np.sin(k * t)
                for k, b in enumerate(sin, start=1):
                    out += b * k * np.cos(k * t)
                return out

            build = functools.partial(cws.from_callable_profile, dh,
                                      c=float(cfg.get("c", 0.0)), N=N)
        else:
            raise ConfigError(f"unknown system type {kind!r}")
    return build()


def _emit(report, rows, header, out):
    if out:
        write_csv(out, header, rows)
        write_json(out + ".json", report.summary())
    return EXIT_PASS if report.passed else EXIT_FAIL


# -- model -------------------------------------------------------------------


def cmd_model_spectrum(args):
    spec = model.MorseModelSpec(args.n, args.index)
    eigs = model.model_spectrum(spec, args.degree, args.mu, args.max_quanta)
    report = Report("model spectrum")
    rows = []
    print(f"model spectrum n={args.n} index={args.index} degree={args.degree} "
          f"mu={args.mu}")
    for e in eigs[: args.count]:
        print(f"  {e.value:.12g}  quanta={e.quanta} signs={e.signs}")
        rows.append((e.value, *e.quanta, *e.signs))
    zero_mult = sum(1 for e in eigs if e.value == 0.0)
    report.check(
        "ground multiplicity",
        zero_mult == (1 if args.degree == args.index else 0),
        f"multiplicity {zero_mult}",
    )
    return _emit(report, rows, ("value",), args.out)


def cmd_model_check(args):
    report = Report("model check")
    rows = []
    for index in (0, 1):
        for degree in (0, 1):
            rep = model.numeric_model_check(
                model.MorseModelSpec(1, index), args.mu, degree,
                grid_points=args.grid,
            )
            rows.extend(
                (args.mu, index, degree, f, n, e)
                for f, n, e in zip(rep.formula, rep.numeric, rep.rel_errors)
            )
            report.check(
                f"index {index} degree {degree} max rel error",
                rep.max_rel_error < args.tol,
                f"{rep.max_rel_error:.3e}",
            )
    return _emit(
        report, rows, ("mu", "index", "degree", "formula", "numeric", "rel_error"),
        args.out,
    )


# -- circle ------------------------------------------------------------------


def cmd_circle_gap(args):
    system = load_system(args.config)
    rep = circle.spectral_gap_report(system, args.mu, args.nu)
    report = Report("circle gap")
    rows = []
    for mu, ms, ml, cnt in zip(
        rep.mu_values, rep.max_small, rep.min_large, rep.small_counts
    ):
        rows.append((mu, args.nu, ms, ml, cnt))
        print(f"  mu={mu:g}: max_small={ms:.6e} min_large={ml:.6e} count={cnt}")
    expected = system.counts[0]
    tail = [c for m, c in zip(rep.mu_values, rep.small_counts) if m >= 10.0]
    if tail:
        report.check("small count equals zero count (mu >= 10)",
                     all(c == expected for c in tail), f"expected {expected}")
    if np.isfinite(rep.slope_log_small):
        report.check("log max-small slope < -0.1",
                     rep.slope_log_small < -0.1, f"{rep.slope_log_small:.3f}")
    report.check("min large / mu >= 0.2",
                 all(v >= 0.2 for v in rep.min_large_over_mu),
                 f"min {min(rep.min_large_over_mu):.3f}")
    return _emit(report, rows,
                 ("mu", "nu", "max_small", "min_large", "small_count"), args.out)


def cmd_circle_zeta(args):
    system = load_system(args.config)
    report = Report("circle zeta")
    rows = []
    for mu in args.mu:
        res = circle.zeta_invariant(system, complex(mu, args.nu))
        rows.extend(res.csv_rows())
        print(f"  mu={mu:g}: zeta1={res.value:.8f} sm={res.zeta_sm:.8f} "
              f"la={res.zeta_la:.8f}")
        report.check(f"kernel margin > {spectral.AMBIGUITY_MARGIN:g} (mu={mu:g})",
                     res.kernel_margin > spectral.AMBIGUITY_MARGIN,
                     f"margin {res.kernel_margin:.3g}")
        if system.exact:
            cont = circle.continuum_zeta(system, complex(mu, args.nu))
            rel = abs(res.value - cont) / max(abs(cont), 1e-12)
            report.check(
                f"exact-form value within 1e-6 of continuum (mu={mu:g})",
                rel <= 1e-6,
                f"zeta1={res.value.real:.8f} continuum={cont.real:.8f} "
                f"rel={rel:.2e}",
            )
    header = ("mu", "nu", "t", "raw_supertrace_re", "raw_supertrace_im",
              "zeta1_re", "zeta1_im", "zeta_sm", "zeta_la")
    return _emit(report, rows, header, args.out)


def cmd_circle_identity(args):
    report = Report("circle identity")
    rows = []
    residuals = []
    for n in args.N:
        system = load_system(args.config, n_override=n)
        resid, lhs, rhs = circle.exact_identity_residual(
            system, complex(args.mu, args.nu), args.t
        )
        scale = max(abs(lhs), abs(rhs), 1.0)
        residuals.append((n, resid, scale))
        rows.append((n, args.mu, args.t, resid, scale))
        print(f"  N={n}: residual={resid:.3e} (scale {scale:.3f})")
    if len(residuals) >= 2:
        first, last = residuals[0], residuals[-1]
        drop = first[1] / max(last[1], 1e-300)
        report.check("residual drops by >= 1e3 across the sweep",
                     drop >= 1e3, f"drop {drop:.2e}")
    n, resid, scale = residuals[-1]
    report.check("final residual < 1e-8 * scale", resid < 1e-8 * scale,
                 f"{resid:.3e}")
    return _emit(report, rows, ("N", "mu", "t", "residual", "scale"), args.out)


def _decreasing(values):
    """Each step decreases, or stays exactly 0 (an off-diagonal between zeros
    of different index is exactly 0)."""
    return all(b < a or a == b == 0.0 for a, b in zip(values, values[1:]))


def cmd_circle_phi(args):
    if len(set(args.mu)) < 2:
        print("error: circle phi checks trends in mu and needs at least two "
              "distinct --mu values", file=sys.stderr)
        return EXIT_USAGE
    system = load_system(args.config)
    report = Report("circle phi")
    rows = []
    for mu in args.mu:
        mat, targets = circle.phi_psi_matrix(system, complex(mu, args.nu))
        ratios = np.abs(np.diag(mat)) / targets
        off = np.abs(mat - np.diag(np.diag(mat)))
        rows.append((mu, float(np.max(np.abs(ratios - 1.0))), float(off.max())))
        print(f"  mu={mu:g}: max|diag ratio - 1|={rows[-1][1]:.3e} "
              f"max off-diagonal={rows[-1][2]:.3e}")
    trend = sorted({row[0]: row for row in rows}.values())  # distinct mu, ascending
    report.check("diagonal deviation decreasing", _decreasing([r[1] for r in trend]))
    report.check("off-diagonal decreasing", _decreasing([r[2] for r in trend]))
    return _emit(report, rows, ("mu", "diag_deviation", "max_offdiag"), args.out)


# -- morse -------------------------------------------------------------------


def cmd_morse_analyze(args):
    graph = morse.InstantonGraph.load(args.graph)
    z = complex(args.mu, args.nu)
    report = Report("morse analyze")
    profile = morse.analyze_ranks(graph, z)
    print(f"  counts     = {profile.counts}")
    print(f"  betti      = {profile.betti}")
    print(f"  m          = {profile.m}")
    print(f"  m1         = {profile.m1}")
    print(f"  m2         = {profile.m2}")
    report.check("supertrace of m vanishes", profile.supertrace_m == 0)
    tight = morse.tightness_check(graph)
    print(f"  tight      = {tight.tight}  index costs = {tight.index_costs}")
    rows = [("counts", *profile.counts), ("betti", *profile.betti),
            ("m", *profile.m), ("m1", *profile.m1), ("m2", *profile.m2)]
    if tight.tight:
        limits = morse.z_invariants(graph, profile.m1)
        print(f"  z_sm       = {limits.small_limit:.9g}")
        rows.append(("z_sm", limits.small_limit))
        windows = morse.small_spectrum_window(graph, z)
        for k, win in enumerate(windows, start=1):
            if win.size:
                print(f"  window k={k}: [{win.min():.4g}, {win.max():.4g}] "
                      f"(rescaled)")
                rows.append((f"window_{k}", win.min(), win.max()))
    return _emit(report, rows, ("quantity", "values"), args.out)


# -- prescribe ----------------------------------------------------------------


def _certify(name, problem, result):
    """Print the four certificate checks of ``result`` under report ``name``;
    return the certificate and whether all four pass."""
    cert = presc.verify_prescription(problem, result)
    consistent, bad = presc.potential_consistency(problem, result)
    report = Report(name)
    report.check("exactness", cert.exactness)
    report.check("cycle-sum exactness", consistent, str(bad) if bad else "")
    report.check("negativity", cert.negativity)
    report.check("per-index costs", cert.costs_ok)
    return cert, report.passed


def cmd_prescribe(args):
    graph = morse.InstantonGraph.load(args.graph, require_negative=False)
    problem = presc.PrescriptionProblem(graph, args.targets)
    result = presc.prescribe(problem)
    cert, passed = _certify("prescribe", problem, result)
    if args.out:
        result.graph.dump(args.out)
    if args.cert:
        stages = [
            {"k": s.k, "b_min": s.b_min, "b": {str(v): b for v, b in s.b.items()}}
            for s in result.stages
        ]
        payload = cert.to_json(stages)
        payload["potential"] = {str(v): p for v, p in result.potential.items()}
        payload["shift_constant"] = result.c
        write_json(args.cert, payload)
    return EXIT_PASS if passed else EXIT_FALSIFIED


def cmd_verify(args):
    graph = morse.InstantonGraph.load(args.graph, require_negative=False)
    problem = presc.PrescriptionProblem(graph, args.targets)
    final = morse.InstantonGraph.load(args.result)
    with _read_json(args.cert) as payload:
        potential = {v: float(p) for v, p in payload["potential"].items()}
        shift = float(payload["shift_constant"])
    result = presc.PrescriptionResult(problem, shift, potential, final, ())
    _, passed = _certify("verify", problem, result)
    return EXIT_PASS if passed else EXIT_FALSIFIED


# -- zdist ---------------------------------------------------------------------


def cmd_zdist_pair(args):
    system = load_system(args.config)
    report = Report("zdist pair")
    rows = []
    spec = zdist.GaussianTestFunction(args.sigma)
    graph = circle.circle_graph(system)
    profile = morse.analyze_ranks(graph, complex(args.mu, 0.0))
    z_la = circle.mathai_quillen_1d(system).value
    target = morse.z_invariants(graph, profile.m1).small_limit + z_la
    mu = args.mu
    outer = zdist.pair_outer_first(system, mu, spec)
    dev = abs(outer.value - target * spec.at_zero)
    rows.append((mu, args.sigma, "outer", outer.value.real, outer.value.imag, dev))
    print(f"  mu={mu:g}: outer={outer.value.real:.8f} target={target:.8f}")
    report.check(f"deviation < 2% (mu={mu:g})",
                 dev < 0.02 * abs(target), f"dev {dev:.4f}")
    header = ("mu", "sigma", "order", "value_re", "value_im", "deviation")
    return _emit(report, rows, header, args.out)


# -- parser --------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="wittenlab")
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("model", help="model Laplacian of a nondegenerate zero")
    msub = pm.add_subparsers(dest="subcommand", required=True)
    ms = msub.add_parser("spectrum")
    ms.add_argument("--n", type=int, required=True)
    ms.add_argument("--index", type=int, required=True)
    ms.add_argument("--degree", type=int, required=True)
    ms.add_argument("--mu", type=_finite, required=True)
    ms.add_argument("--max-quanta", type=int, default=6)
    ms.add_argument("--count", type=int, default=12)
    ms.add_argument("--out")
    ms.set_defaults(func=cmd_model_spectrum)
    mc = msub.add_parser("check")
    mc.add_argument("--mu", type=_finite, required=True)
    mc.add_argument("--grid", type=int, default=3000)
    mc.add_argument("--tol", type=_finite, default=1e-4)
    mc.add_argument("--out")
    mc.set_defaults(func=cmd_model_check)

    pc = sub.add_parser("circle", help="discretized circle complexes")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    cg = csub.add_parser("gap")
    cg.add_argument("--config", required=True)
    cg.add_argument("--mu", type=_number_list(_finite), required=True)
    cg.add_argument("--nu", type=_finite, default=0.0)
    cg.add_argument("--out")
    cg.set_defaults(func=cmd_circle_gap)
    cz = csub.add_parser("zeta")
    cz.add_argument("--config", required=True)
    cz.add_argument("--mu", type=_number_list(_finite), required=True)
    cz.add_argument("--nu", type=_finite, default=0.0)
    cz.add_argument("--out")
    cz.set_defaults(func=cmd_circle_zeta)
    ci = csub.add_parser("identity")
    ci.add_argument("--config", required=True)
    ci.add_argument("--N", type=_number_list(int), required=True)
    ci.add_argument("--mu", type=_finite, default=10.0)
    ci.add_argument("--nu", type=_finite, default=0.0)
    ci.add_argument("--t", type=_finite, default=0.1)
    ci.add_argument("--out")
    ci.set_defaults(func=cmd_circle_identity)
    cp = csub.add_parser("phi")
    cp.add_argument("--config", required=True)
    cp.add_argument("--mu", type=_number_list(_finite), required=True)
    cp.add_argument("--nu", type=_finite, default=0.0)
    cp.add_argument("--out")
    cp.set_defaults(func=cmd_circle_phi)

    pmo = sub.add_parser("morse", help="instanton graph analysis")
    mosub = pmo.add_subparsers(dest="subcommand", required=True)
    ma = mosub.add_parser("analyze")
    ma.add_argument("--graph", required=True)
    ma.add_argument("--mu", type=_finite, required=True)
    ma.add_argument("--nu", type=_finite, default=0.0)
    ma.add_argument("--out")
    ma.set_defaults(func=cmd_morse_analyze)

    pp = sub.add_parser("prescribe", help="reweight to per-index targets")
    pp.add_argument("--graph", required=True)
    pp.add_argument("--targets", type=_number_list(_finite), required=True)
    pp.add_argument("--out")
    pp.add_argument("--cert")
    pp.set_defaults(func=cmd_prescribe)

    pv = sub.add_parser("verify", help="verify a claimed reweighting")
    pv.add_argument("--graph", required=True)
    pv.add_argument("--targets", type=_number_list(_finite), required=True)
    pv.add_argument("--result", required=True)
    pv.add_argument("--cert", required=True)
    pv.set_defaults(func=cmd_verify)

    pz = sub.add_parser("zdist", help="distribution pairings")
    zsub = pz.add_subparsers(dest="subcommand", required=True)
    zp = zsub.add_parser("pair")
    zp.add_argument("--config", required=True)
    zp.add_argument("--mu", type=_finite, required=True)
    zp.add_argument("--sigma", type=_finite, required=True)
    zp.add_argument("--out")
    zp.set_defaults(func=cmd_zdist_pair)

    return p


@contextlib.contextmanager
def _each_warning_kind_once():
    """Show only the first warning of each category inside the block.  A
    sweep repeats one warning at every node, each time with its own
    numbers, so the once-per-location filter lets every repeat through."""
    with warnings.catch_warnings():
        shown = set()
        show = warnings.showwarning

        def show_first(message, category, *args, **kwargs):
            if category not in shown:
                shown.add(category)
                show(message, category, *args, **kwargs)

        warnings.showwarning = show_first
        yield


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _each_warning_kind_once():
            code = args.func(args)
    except _FALSIFIED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return code


if __name__ == "__main__":
    sys.exit(main())
