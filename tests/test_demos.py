"""The demos run end to end against the public API they narrate."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, expected",
    [
        ("prescription_demo.py", "random feasible problems verified: 100/100"),
        ("morse_windows_demo.py", "tau=+5 -> c0=1.666667, cn=0.000000"),
    ],
)
def test_demo_runs(demo, expected):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
