"""Each demo prints exactly the bytes committed in demos/expected.

The expected files are the demos' standard output; regenerate one with
``PYTHONPATH=src python demos/<demo>.py > demos/expected/<demo>.out`` only
when a change to what the demo prints is intended.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    expected = sorted((ROOT / "demos" / "expected").glob("*.out"))
    assert [p.stem for p in expected] == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_expected_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                         cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.out").read_bytes()
