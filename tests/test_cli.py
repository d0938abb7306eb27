import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wittenlab import circle, cli, model, morse
from wittenlab.errors import (
    AmbiguousKernel,
    ConvergenceError,
    DataError,
    InvariantViolation,
    NotAComplex,
    NumericalError,
    ShapeError,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return cli.main(list(argv))


def test_model_spectrum_table(capsys):
    code = run(
        "model", "spectrum", "--n", "2", "--index", "1", "--degree", "1",
        "--mu", "1",
    )
    out = capsys.readouterr().out
    assert code == 0
    values = [
        float(line.split()[0]) for line in out.splitlines()
        if line.startswith("  ") and line.split()[0][0].isdigit()
    ]
    assert values[:3] == [0.0, 2.0, 2.0]


def test_model_check_passes(capsys):
    assert run("model", "check", "--mu", "4") == 0


@pytest.mark.parametrize("grid", ["12", "0", "-5"])
def test_model_check_too_small_grid_exits_3(grid, capsys):
    assert run("model", "check", "--mu", "4", "--grid", grid) == 3
    assert "grid_points must be at least 20" in capsys.readouterr().err


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("model", "check")
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("circle", "identity", "--config", "two_zero_exact.json", "--N", ","),
        ("circle", "identity", "--config", "two_zero_exact.json", "--N", "64,abc"),
        ("circle", "gap", "--config", "tight.json", "--mu", ","),
        ("circle", "zeta", "--config", "two_zero_exact.json", "--mu", "x"),
        ("prescribe", "--graph", "raw.graph", "--targets", ","),
    ],
)
def test_malformed_list_argument_exits_2(argv, capsys):
    argv = [str(DATA / a) if a.endswith((".json", ".graph")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert "list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("zdist", "pair", "--config", "tight.json", "--mu", "30", "--sigma", "inf"),
        ("model", "spectrum", "--n", "2", "--index", "1", "--degree", "1", "--mu", "nan"),
        ("circle", "zeta", "--config", "two_zero_exact.json", "--mu", "nan"),
        ("prescribe", "--graph", "raw.graph", "--targets", "nan"),
    ],
)
def test_non_finite_number_exits_2(argv, capsys):
    argv = [str(DATA / a) if a.endswith((".json", ".graph")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert repr(argv[-1]) in capsys.readouterr().err


def test_circle_zeta(tmp_path, capsys):
    out = tmp_path / "zeta.csv"
    code = run(
        "circle", "zeta", "--config", str(DATA / "two_zero_exact.json"),
        "--mu", "30", "--out", str(out),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "zeta1=-1.98" in text
    assert "[PASS] kernel margin > 10 (mu=30)" in text
    assert "[PASS] exact-form value within 1e-6 of continuum (mu=30)" in text
    assert out.exists() and out.with_suffix(".csv.json").exists()


def test_circle_zeta_four_zero_exact_against_continuum(capsys):
    # the lattice value is within 1e-7 of the continuum at mu = 10 and 16;
    # at mu = 30 the tunnelling value sits below the kernel threshold, the
    # kernel is miscounted and the value is 0.85 off, so the check fails
    assert run("circle", "zeta", "--config", str(DATA / "four_zero_exact.json"),
               "--mu", "10,16") == 0
    text = capsys.readouterr().out
    assert text.count("[PASS] exact-form value within 1e-6 of continuum") == 2
    assert run("circle", "zeta", "--config", str(DATA / "four_zero_exact.json"),
               "--mu", "30") == 1
    text = capsys.readouterr().out
    assert "[FAIL] exact-form value within 1e-6 of continuum (mu=30)" in text


def test_circle_zeta_ambiguous_kernel_exits_1(tmp_path, capsys):
    # with circulation 0.1 on N = 128 the tunnelling singular value at
    # mu = 10 lies within 1.09x of the kernel threshold: the value depends
    # on rounding, so the kernel-margin check fails
    cfg = tmp_path / "c01.json"
    cfg.write_text(json.dumps({
        "type": "standard_zeros",
        "zeros": [[0.0, 1.0, 1], [3.141592653589793, -1.0, 0]],
        "r": 0.35, "c": 0.1, "N": 128,
    }))
    with pytest.warns(AmbiguousKernel):
        code = run("circle", "zeta", "--config", str(cfg), "--mu", "10")
    assert code == 1
    assert "[FAIL] kernel margin > 10 (mu=10)" in capsys.readouterr().out


def test_circle_gap(capsys):
    code = run(
        "circle", "gap", "--config", str(DATA / "tight.json"),
        "--mu", "5,10,20,40",
    )
    assert code == 0


@pytest.mark.parametrize("mus", ["10", "10,10"])
def test_circle_gap_one_mu_fits_no_slope(mus, capsys):
    # a slope needs two distinct mu: one point prints no slope check and
    # raises no RankWarning from a one-point fit
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        code = run("circle", "gap", "--config", str(DATA / "tight.json"), "--mu", mus)
    assert code == 0
    assert "slope" not in capsys.readouterr().out


_SCIPY_CHECK = """
import itertools
import sys
from wittenlab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
split = itertools.groupby(sys.argv[1:], lambda arg: arg == "--")
for command in [list(args) for cut, args in split if not cut]:
    assert cli.main(command) == 0, command
    assert not scipy_modules(), (command, scipy_modules())
"""


def test_import_and_readme_commands_load_no_scipy(tmp_path):
    # the package needs numpy alone: the import, these README commands (the
    # finite-difference model check and the cell integrals of circle phi
    # included), a shifted standard form whose zeros are known in closed
    # form, a shifted shallow arc and a trig_profile (whose zeros are
    # located numerically) load no SciPy module
    configs = {
        "shifted": {"type": "standard_zeros", "r": 0.35, "c": 0.1, "N": 128,
                    "zeros": [[0.0, 1.0, 1], [3.141592653589793, -1.0, 0]]},
        "shallow": {"type": "standard_zeros", "r": 0.35, "c": 0.1, "N": 128,
                    "zeros": [[0.0, 0.2, 1], [3.141592653589793, -0.2, 0]]},
        "trig": {"type": "trig_profile", "cos": [1.0, 0.45], "N": 128},
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_CHECK,
         "model", "check", "--mu", "4",
         "--", "circle", "zeta", "--config", str(DATA / "two_zero_exact.json"), "--mu", "30",
         "--", "morse", "analyze", "--graph", str(DATA / "s1.graph"), "--mu", "20",
         "--", "circle", "zeta", "--config", str(tmp_path / "shifted.json"), "--mu", "5",
         "--", "circle", "gap", "--config", str(tmp_path / "shallow.json"), "--mu", "5",
         "--", "circle", "zeta", "--config", str(tmp_path / "trig.json"), "--mu", "5",
         "--", "circle", "phi", "--config", str(DATA / "four_zero_exact.json"),
         "--mu", "8,12,16"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("max rel error") == 4
    assert "zeta1=" in proc.stdout and "z_sm       = 0.45" in proc.stdout
    assert proc.stdout.count("mu=5: zeta1=") == 2
    assert "count=2" in proc.stdout
    assert "[PASS] off-diagonal decreasing" in proc.stdout


def test_repeated_warning_is_written_once(tmp_path):
    # the kernel margin of this system is ambiguous at nearly every node of
    # the pairing; each repeat carries its own threshold, yet the run writes
    # the warning once, then the quadrature error, and exits 3
    cfg = tmp_path / "arcs.json"
    cfg.write_text(json.dumps({
        "type": "arc_weights", "positions": [0.0, 3.141592653589793], "indices": [1, 0],
        "weights": [-1.6, 2.2], "r": 0.35, "N": 128}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wittenlab.cli", "zdist", "pair", "--config", str(cfg),
         "--mu", "10", "--sigma", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert sum("AmbiguousKernel" in line for line in lines) == 1
    assert lines[-1].startswith("error: frequency quadrature estimate ")
    assert lines[-1].endswith("of the integrand mass 3.013e-01, at mu=10")


@pytest.mark.parametrize("threads", ["1", None])
def test_circle_gap_two_zero_exact_has_no_slope(threads):
    # the small branch of an exact two-zero form is the kernel alone, whose
    # eigenvalues are rounding noise that varies with the BLAS thread count:
    # max_small is 0 and no decay slope is fitted, at any thread count
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wittenlab.cli", "circle", "gap", "--config",
         str(DATA / "two_zero_exact.json"), "--mu", "5,10,20,40"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if "max_small=" in line]
    assert len(rows) == 4
    assert all("max_small=0.000000e+00" in line for line in rows)
    assert "slope" not in proc.stdout


def test_circle_identity(capsys):
    code = run(
        "circle", "identity", "--config", str(DATA / "two_zero_exact.json"),
        "--N", "64,128,256", "--mu", "10", "--t", "0.1",
    )
    assert code == 0


def test_circle_identity_zero_grid_exits_3(capsys):
    # an explicit N=0 is a grid size, not "use the config's N"
    code = run(
        "circle", "identity", "--config", str(DATA / "two_zero_exact.json"),
        "--N", "0,64",
    )
    assert code == 3
    assert "grid size" in capsys.readouterr().err


def test_circle_infeasible_config_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "type": "standard_zeros",
        "zeros": [[0.0, 1.0, 1], [0.2, -1.0, 0]],
        "r": 0.4, "N": 64,
    }))
    assert run("circle", "zeta", "--config", str(bad), "--mu", "30") == 3


def test_circle_phi_readme_example(capsys):
    code = run(
        "circle", "phi", "--config", str(DATA / "four_zero_exact.json"),
        "--mu", "8,12,16",
    )
    assert code == 0


@pytest.mark.parametrize("config", ["tight.json", "two_zero_exact.json"])
def test_circle_phi_two_zero_configs_pass(config, capsys):
    # the two zeros have different indices, so every off-diagonal entry of
    # Phi o Psi is exactly 0; a trend of exact zeros passes
    code = run("circle", "phi", "--config", str(DATA / config), "--mu", "10,16,22")
    out = capsys.readouterr().out
    assert out.count("max off-diagonal=0.000e+00") == 3
    assert "[PASS] off-diagonal decreasing" in out
    assert code == 0


def test_circle_phi_checks_trends_in_ascending_mu(capsys):
    code = run("circle", "phi", "--config", str(DATA / "tight.json"), "--mu", "22,10,16")
    assert "[PASS] diagonal deviation decreasing" in capsys.readouterr().out
    assert code == 0


@pytest.mark.parametrize("mus", ["10", "10,10"])
def test_circle_phi_needs_two_distinct_mu(mus, capsys):
    code = run("circle", "phi", "--config", str(DATA / "tight.json"), "--mu", mus)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "at least two distinct --mu values" in captured.err


@pytest.mark.parametrize(
    "exc_type, expected",
    [
        (NotAComplex, 4),
        (InvariantViolation, 4),
        (ShapeError, 3),
        (DataError, 3),
        (NumericalError, 3),
    ],
)
def test_library_errors_map_to_exit_codes(monkeypatch, exc_type, expected):
    def fail(*args, **kwargs):
        raise exc_type("injected")

    monkeypatch.setattr(model, "numeric_model_check", fail)
    assert run("model", "check", "--mu", "4") == expected


def _malformed_input(kind, tmp_path):
    """argv of a CLI call whose input is malformed in the way ``kind`` names."""
    if kind == "directory":
        return ["morse", "analyze", "--graph", str(tmp_path), "--mu", "20"]
    if kind == "graph_sign":
        graph = tmp_path / "bad.graph"
        graph.write_text("v p 1\nv q 0\ne p q x -0.5\n")
        return ["morse", "analyze", "--graph", str(graph), "--mu", "20"]
    if kind == "cert_potential":
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"potential": 3, "shift_constant": 0.0}))
        return ["verify", "--graph", str(DATA / "raw.graph"), "--targets", "4",
                "--result", str(DATA / "s1.graph"), "--cert", str(cert)]
    cfg = json.loads((DATA / "two_zero_exact.json").read_text())
    if kind == "grid_text":
        cfg["N"] = "abc"
    elif kind == "zeros_scalar":
        cfg = {"type": "standard_zeros", "zeros": 5}
    elif kind == "top_level_list":
        cfg = [1, 2]
    else:
        del cfg["zeros"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    return ["circle", "zeta", "--config", str(bad), "--mu", "10"]


@pytest.mark.parametrize("kind", ["graph_sign", "grid_text", "no_zeros", "directory"])
def test_malformed_input_exits_3(kind, tmp_path, capsys):
    assert run(*_malformed_input(kind, tmp_path)) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["zeros_scalar", "top_level_list", "cert_potential"])
def test_wrong_json_shape_exits_3(kind, tmp_path, capsys):
    # JSON that parses but has the wrong shape is infeasible input
    assert run(*_malformed_input(kind, tmp_path)) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "unexpected JSON shape" in err and "Traceback" not in err


def test_trig_profile_config(tmp_path, capsys):
    # h = cos t: a maximum (index 1) at 0 and a minimum (index 0) at pi
    config = tmp_path / "cos.json"
    config.write_text(json.dumps({"type": "trig_profile", "cos": [1.0]}))
    system = cli.load_system(str(config))
    assert [(z.index, z.position) for z in system.zeros] == [
        (1, pytest.approx(0.0, abs=1e-12)), (0, pytest.approx(math.pi))
    ]
    assert system.c == 0
    assert run("circle", "zeta", "--config", str(config), "--mu", "10") == 0
    out = capsys.readouterr().out
    assert "[PASS] exact-form value within 1e-6 of continuum (mu=10)" in out


def test_h_channel_guard_raises_and_exits_3(monkeypatch, capsys):
    # no known system makes the oscillation guard fire; forcing it shows
    # what a firing guard does to the library call and to the CLI
    monkeypatch.setattr(circle, "oscillating", lambda result: True)
    config = str(DATA / "two_zero_exact.json")
    with pytest.raises(ConvergenceError, match="oscillates"):
        circle.zeta_invariant(cli.load_system(config), complex(10.0, 0.0))
    assert run("circle", "zeta", "--config", config, "--mu", "10") == 3
    assert "oscillates" in capsys.readouterr().err


def test_morse_analyze_not_a_complex_exits_4(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_text(
        "v a 2\nv b 1\nv c 0\ne a b +1 -1.0\ne b c +1 -1.0\n"
    )
    assert run("morse", "analyze", "--graph", str(graph), "--mu", "20") == 4
    assert "do not cancel" in capsys.readouterr().err


def test_morse_analyze(capsys):
    code = run("morse", "analyze", "--graph", str(DATA / "s1.graph"),
               "--mu", "20")
    out = capsys.readouterr().out
    assert code == 0
    assert "m1         = (0, 1)" in out
    assert "z_sm" in out


@pytest.mark.parametrize("mu", ["46.2", "60", "120"])
def test_morse_analyze_exponentially_small_differential(capsys, mu):
    code = run("morse", "analyze", "--graph", str(DATA / "s1.graph"),
               "--mu", mu)
    out = capsys.readouterr().out
    assert code == 0
    assert "betti      = (0, 0)" in out
    assert "z_sm       = 0.45\n" in out


def test_prescribe_verify_roundtrip(tmp_path):
    out = tmp_path / "new.graph"
    cert = tmp_path / "cert.json"
    code = run(
        "prescribe", "--graph", str(DATA / "raw.graph"), "--targets", "4",
        "--out", str(out), "--cert", str(cert),
    )
    assert code == 0
    assert run(
        "verify", "--graph", str(DATA / "raw.graph"), "--targets", "4",
        "--result", str(out), "--cert", str(cert),
    ) == 0
    # tamper with one weight: the verifier must fail with exit 4
    lines = out.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("e "):
            parts = line.split()
            parts[-1] = repr(float(parts[-1]) + 0.1)
            lines[i] = " ".join(parts)
            break
    out.write_text("\n".join(lines) + "\n")
    assert run(
        "verify", "--graph", str(DATA / "raw.graph"), "--targets", "4",
        "--result", str(out), "--cert", str(cert),
    ) == 4


def test_prescribe_failing_certificate_exits_4(tmp_path, monkeypatch, capsys):
    # a failed check still prints all four and writes the certificate
    monkeypatch.setattr(cli.presc, "potential_consistency",
                        lambda problem, result: (False, [("p", "q2")]))
    cert = tmp_path / "cert.json"
    assert run("prescribe", "--graph", str(DATA / "raw.graph"), "--targets", "4",
               "--cert", str(cert)) == 4
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] exactness",
        "[FAIL] cycle-sum exactness ([('p', 'q2')])",
        "[PASS] negativity",
        "[PASS] per-index costs",
    ]
    assert json.loads(cert.read_text())["exactness"] is True


def test_prescribe_unserializable_result_exits_3(tmp_path, monkeypatch, capsys):
    # raw.graph with index-0 ids whose texts collide, so --out cannot be read back
    graph = morse.InstantonGraph(
        [("p", 1), (1, 0), ("1", 0)], [("p", 1, 1, 0.7), ("p", "1", -1, -0.4)],
        require_negative=False,
    )
    monkeypatch.setattr(morse.InstantonGraph, "load",
                        classmethod(lambda cls, path, require_negative=True: graph))
    out = tmp_path / "new.graph"
    assert run("prescribe", "--graph", "raw.graph", "--targets", "4",
               "--out", str(out)) == 3
    assert "vertex id '1' not serializable" in capsys.readouterr().err
    assert not out.exists()

@pytest.mark.parametrize("edit", ["deleted", "swapped"])
def test_verify_rejects_edited_edge_list(edit, tmp_path, capsys):
    out = tmp_path / "new.graph"
    cert = tmp_path / "cert.json"
    assert run(
        "prescribe", "--graph", str(DATA / "raw.graph"), "--targets", "4",
        "--out", str(out), "--cert", str(cert),
    ) == 0
    lines = []
    for line in out.read_text().splitlines():
        if line.startswith("e p q2 "):
            if edit == "deleted":
                continue
            line = line.replace(" q2 ", " q1 ")
        lines.append(line)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(
        "verify", "--graph", str(DATA / "raw.graph"), "--targets", "4",
        "--result", str(out), "--cert", str(cert),
    ) == 4
    printed = capsys.readouterr().out
    assert "[FAIL] exactness" in printed
    assert "[FAIL] cycle-sum exactness (('p', 'q2'))" in printed


def test_zdist_pair_outer_rows_only(tmp_path, capsys):
    config = tmp_path / "exact.json"
    config.write_text(json.dumps({
        "type": "standard_zeros",
        "zeros": [[0.0, 1.0, 1], [3.141592653589793, -1.0, 0]],
        "r": 0.35, "N": 128,
    }))
    out = tmp_path / "pair.csv"
    code = run(
        "zdist", "pair", "--config", str(config), "--mu", "20",
        "--sigma", "1", "--out", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][2] == "order"
    assert [row[2] for row in rows[1:]] == ["outer"]
    with pytest.raises(SystemExit) as exc:
        run(
            "zdist", "pair", "--config", str(config), "--mu", "20",
            "--sigma", "1", "--seed", "0",
        )
    assert exc.value.code == 2


def test_report_determinism(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        run(
            "circle", "gap", "--config", str(DATA / "tight.json"),
            "--mu", "5,10", "--out", str(out),
        )
        hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
        hashes.append(
            hashlib.sha256(out.with_suffix(".csv.json").read_bytes()).hexdigest()
        )
    assert hashes[0] == hashes[2] and hashes[1] == hashes[3]
