"""Smoke test: each demo script runs to completion at a small size."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_ARGS = {
    "design_and_decode.py": ("--n", 60, "--k", 3),
    "error_sweep.py": ("--n", 120, "--k", 4, "--trials", 20),
    "threshold_curves.py": ("--samples", 2000),
}


@pytest.mark.parametrize("script", sorted(DEMO_ARGS))
def test_demo_runs(script):
    r = subprocess.run(
        [sys.executable, str(DEMOS / script), *map(str, DEMO_ARGS[script])],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout
