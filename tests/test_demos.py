"""Smoke test: every script in demos/ runs to completion from a checkout;
the dense-oracle demo prints its pinned output byte for byte."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_dense_oracle_demo_output_is_pinned():
    pinned = json.loads((ROOT / "tests" / "pinned_outputs.json").read_text())
    done = run_demo(ROOT / "demos" / "04_dense_oracle.py")
    assert (done.returncode, done.stdout) == (0, pinned["demos/04_dense_oracle.py"])


def test_demos_are_found():
    assert DEMOS  # an empty parameter list would skip test_demo_runs silently
