"""Each demo script runs to completion against the package in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosetkernel

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    # the child imports the same package as this process; the working
    # directory is a scratch one because kernel_heatmap writes its CSV there
    source_dir = os.path.dirname(os.path.dirname(cosetkernel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_dir, env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
