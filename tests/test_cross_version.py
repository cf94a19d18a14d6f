"""The numpy-free stages write the same bytes under Python 3.12+ as under this interpreter.

Python 3.12 made ``sum()`` of floats compensated, so a float total that went
through it could differ in its last bit, and with it an artifact. The inputs
come from ``gen-synthetic`` here, since it needs numpy. The seven stages that
load no numpy then run on them in this interpreter, and again under each
``python3.12`` or ``python3.13`` on PATH that can import click, with
``PYTHONDONTWRITEBYTECODE=1`` so that it leaves no ``.pyc`` in ``src/``. Every
file they write must have the same digest. The test skips an interpreter that
is missing.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest
from click.testing import CliRunner

from rankfit.cli import main

from test_quickstart import quickstart_digest

SRC = Path(__file__).resolve().parents[1] / "src"

_GENERATE, *_NUMPY_FREE, _SIMULATE = quickstart_digest.quickstart(50, 400, 8)


def _interpreter(name: str) -> str | None:
    """The path of ``name`` if it is on PATH and imports click."""
    exe = shutil.which(name)
    if exe is None:
        return None
    probe = subprocess.run([exe, "-c", "import click"], capture_output=True, timeout=120)
    return exe if probe.returncode == 0 else None


@pytest.fixture(scope="module")
def here(tmp_path_factory):
    """The quickstart's inputs, and {path: sha256} of what the numpy-free stages write from them in this interpreter."""
    root = tmp_path_factory.mktemp("here")
    runner = CliRunner()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in [_GENERATE, *_NUMPY_FREE]:
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, (argv[0], result.output)
    finally:
        os.chdir(cwd)
    return root / "data", {path: digest for digest, path in quickstart_digest.digests(root / "run")}


@pytest.mark.parametrize("name", ["python3.12", "python3.13"])
def test_numpy_free_stages_write_the_same_bytes(name, here, tmp_path):
    exe = _interpreter(name)
    if exe is None:
        pytest.skip(f"no {name} that imports click on PATH")
    data, expected = here
    shutil.copytree(data, tmp_path / "data")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    for argv in _NUMPY_FREE:
        proc = subprocess.run([exe, "-m", "rankfit.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv[0], proc.stdout + proc.stderr)
    written = {path: digest for digest, path in quickstart_digest.digests(tmp_path / "run")}
    assert len(expected) == 15
    assert sorted(p for p in expected.keys() | written.keys() if expected.get(p) != written.get(p)) == []
