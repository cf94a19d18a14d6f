"""The README quickstart's artifacts keep their bytes.

Runs ``tests/data/quickstart_digest.quickstart(50, 400, 8)`` in-process and
compares the sha256 of each file it writes with a pinned value. The
``run/grpo/*`` files are left out: numpy's exp/log may differ by an ulp
between CPUs, and acceptance criterion 7 covers the simulator's numerics.
A change that alters an artifact on purpose updates these pins and records
the old and new ``quickstart_digest.py`` lists in CHANGES.md. The digest
script itself must end without a traceback on ``--help`` and on a bad
argument.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rankfit.cli import main

SCRIPT = Path(__file__).parent / "data" / "quickstart_digest.py"
_spec = importlib.util.spec_from_file_location("quickstart_digest", SCRIPT)
quickstart_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quickstart_digest)

QUICKSTART_SHA256 = {
    "data/corpus.jsonl": "5d4a77feb3379e96f8f7e8955435bc76d5450dc842b5c1370548fe382071971e",
    "data/corpus.jsonl.meta.json": "5a576af61047851498d7252226160e24de46d818c718b7464b291e9e897f172b",
    "data/labels.jsonl": "5585f31e654a11afc17e15cf355303e8df9970be84e4e8b771bc934b815401c8",
    "data/labels.jsonl.meta.json": "5a576af61047851498d7252226160e24de46d818c718b7464b291e9e897f172b",
    "data/pools.jsonl": "2fc3846156406e0b99dbdfa4dd6a58354b51b7bb353df42ad481c0b43c9505ed",
    "data/pools.jsonl.meta.json": "5a576af61047851498d7252226160e24de46d818c718b7464b291e9e897f172b",
    "run/ablation.json": "c9145c9dfe3f67619a10d212e92adecd8ab452dbd01e125e3b3a18b03037b581",
    "run/ablation.json.meta.json": "7c884d061c5d1305f74d3f578c4067f31d5bd025969c4ad90c86f561980b62d7",
    "run/annotated.jsonl": "6dc4e9f2ed6b6bb7a7eeba82e22ffbf6189a2e14ff3353e1ebd4f2d18a60353e",
    "run/annotated.jsonl.meta.json": "0e9575220f3d2641c4f0c8977f3ddc0fa0a0ba0d28a679c76d86cbab20f3eaf1",
    "run/filtered.jsonl": "a29e2ffcb349dbf37a71b83fe3ef466f92a42627280b776292681865eca5eda3",
    "run/filtered.jsonl.meta.json": "26e41af117aa16f8fca148dce5f079275ca0543ee540032b28d4114a466adc89",
    "run/rerank_report.json": "8a105223649dbbe757236d5f1996382d1a46e3eee76f42dee23ecf72362bde06",
    "run/rerank_report.json.meta.json": "fb2ad0bff2432c17c4b8c8b5f81d1f27bedbeb03e240e99e15d4e8765f46af84",
    "run/reranked.jsonl": "9ae366b733b1d8085d8322eea8767a8e0b4fd9b18d238eca6e1076549ac77fd1",
    "run/reranked.jsonl.meta.json": "bdc44dd163472ada169141e5f52d239dd6efedcdb98ba3b8fecf9e65d43b0167",
    "run/sft.jsonl": "3d38c8439873d9fdf4364cfbe7e64563ae20fab10bb8ab541e260d67f5692fc6",
    "run/sft.jsonl.meta.json": "c4759a1f57ae99d6976c78d0ec078bf3727a58e3c40060b5ddd7a2b3017231d8",
    "run/skips.json": "dc27cd5a232c77c0a8a439b8386492e1b781eb26454c0376cc0247c209793e05",
    "run/windows.jsonl": "f2294a9692751541b953eed6f1ad893bb70b5c4d0e885d35d9acf02f6915d45f",
    "run/windows.jsonl.meta.json": "e4cc1197f3f81ce44a0511d32719ce2b376ecffbf6fd7494bd1141e1b86fcf9f",
}


def test_quickstart_artifacts_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for argv in quickstart_digest.quickstart(50, 400, 8):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, (argv[0], result.output)
    written = {path: digest for digest, path in quickstart_digest.digests(tmp_path)}
    assert {"run/grpo/curve.csv", "run/grpo/policy.json"} <= set(written)
    assert {path: d for path, d in written.items() if not path.startswith("run/grpo/")} == QUICKSTART_SHA256


@pytest.mark.parametrize("args,code", [(["--help"], 0), (["--seed", "x"], 2)])
def test_digest_script_closes_its_spawner_when_argparse_exits(args, code):
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
