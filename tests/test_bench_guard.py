"""The benchmark's untraced path still runs against this src/.

bench/ imports and wraps names of the package (DEFAULT_SPACING,
serialize_frame, SessionEngine.process_frame, ...); a rename in src/ that
breaks it shows here. The run uses copies of bench/ and src/, so it writes
nothing into the checkout.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["crowd16", "group4-csv"])
def test_untraced_bench_run_is_correct(tmp_path, workload):
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, done.stdout[-2000:]
