"""The test suite's own import path: which tree's qgeo the tests import."""

import os
import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent / "conftest.py"

# Runs conftest.py as pytest does, then names the file qgeo would import from.
_PROBE = (
    "import importlib.util, runpy, sys; runpy.run_path(sys.argv[1]); "
    "print(importlib.util.find_spec('qgeo').origin)"
)


def _qgeo_origin(pythonpath: str) -> Path:
    env = {**os.environ, "PYTHONPATH": pythonpath}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(CONFTEST)], env=env, capture_output=True, text=True, check=True
    )
    return Path(out.stdout.strip())


def test_an_explicit_pythonpath_that_provides_qgeo_wins(tmp_path):
    other = tmp_path / "other" / "src"
    (other / "qgeo").mkdir(parents=True)
    (other / "qgeo" / "__init__.py").write_text("")
    empty = tmp_path / "empty"
    empty.mkdir()
    checkout = CONFTEST.parent.parent / "src" / "qgeo" / "__init__.py"
    assert _qgeo_origin(os.pathsep.join([str(empty), str(other)])) == other / "qgeo" / "__init__.py"
    assert _qgeo_origin(str(empty)) == checkout
    assert _qgeo_origin("") == checkout
