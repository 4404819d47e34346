"""Smoke test: every script in demos/ runs to completion from a checkout;
each demo with an entry in pinned_outputs.json prints it byte for byte."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = {key: text for key, text in
          json.loads((ROOT / "tests" / "pinned_outputs.json").read_text()).items()
          if key.startswith("demos/")}


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


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: Path(key).name)
def test_demo_output_is_pinned(key):
    done = run_demo(ROOT / key)
    assert (done.returncode, done.stdout) == (0, PINNED[key])


def test_demos_are_found():
    # an empty parameter list would skip test_demo_runs silently
    assert DEMOS
    assert {"demos/01_finite_fields.py", "demos/04_dense_oracle.py"} <= set(PINNED)
