"""Every demo runs to completion: each is a script run from the root of the
checkout, in a fresh interpreter, with lcer imported from src/."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, os.path.join("demos", demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
