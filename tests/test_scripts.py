"""Smoke test of ``scripts/run_all_recipes.py``, run as a user runs it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_all_recipes.py"
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.cfg"))


def _run_script(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, env=env)


def test_runs_every_bundled_config(tmp_path):
    proc = _run_script("--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    reports = [line for line in proc.stdout.splitlines() if not line.startswith(" ")]
    assert len(reports) == len(CONFIGS)
    for line in reports:
        experiment, csv_path = line.split(": wrote ")
        assert Path(csv_path) == tmp_path / f"{experiment}.csv"
        assert Path(csv_path).is_file()


def test_rejects_jobs(tmp_path):
    proc = _run_script("--out", str(tmp_path), "--jobs", "2")
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs" in proc.stderr


def test_unwritable_out_exits_3_without_a_traceback(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    proc = _run_script("--out", str(blocker / "sub"))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "i/o error" in proc.stderr
