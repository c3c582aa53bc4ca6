"""The measuring tools under ``tools/`` run and print what they promise."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scaling_prints_one_line_per_family():
    command = [sys.executable, str(ROOT / "tools" / "scaling.py"), "--leaves", "2"]
    done = subprocess.run(
        [*command, str(ROOT / "src")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    families = [line.partition(":")[0] for line in lines]
    assert families == ["elaborate+compile", "render_expression"]
    for line in lines:
        assert " 2 leaves " in line and " 4 leaves " in line and ", ratio " in line
