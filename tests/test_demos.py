"""The four demos print exactly their recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetvar

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    src = str(Path(jetvar.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / f"demo_{name}.txt").read_text()
