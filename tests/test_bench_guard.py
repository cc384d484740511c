"""The benchmark's untraced path still runs against this src/.

bench/ imports and wraps names of the package (DEFAULT_SPACING,
serialize_frame, SessionEngine.process_frame, ...); a rename in src/ that
breaks it shows here, and so does one that leaves another traced entry
point without a function to wrap. The runs use copies of bench/ and src/,
so they write nothing into the checkout.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench_copy(tmp_path, workload, trace):
    """Run bench/run.py on copies of bench/ and src/; return its last line."""
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


@pytest.mark.parametrize("workload", ["solo", "crowd16", "group4-csv"])
def test_untraced_bench_run_is_correct(tmp_path, workload):
    last, stdout = run_bench_copy(tmp_path, workload, trace=0)
    assert last["correct"] is True and last["failed"] == 0, stdout[-2000:]


def test_traced_bench_run_misses_no_more_entry_points(tmp_path):
    """The tracer wraps every entry point but the two known stale ones, and
    observes every call without an error."""
    run_bench_copy(tmp_path, "crowd16", trace=1)
    record = json.loads((tmp_path / ".bench_work" / "results" /
                         "crowd16-seed1-trace1.json").read_text(encoding="utf-8"))
    assert record["correct"] is True
    assert record["trace_observe_errors"] == 0
    assert record["absent_entry_points"] == ["repcount.pipeline.normalize_skeleton",
                                             "repcount.pipeline.angle_for"]
