"""Smoke check of the benchmark itself: every workload at tiny size.

    python3 bench/smoke.py

Runs run.py untraced and traced on each workload and checks that the last
line follows the result contract, that every metric BENCHMARK.json names is
emitted with its unit, that the correctness metrics are sane and repeat
between the two runs, and that run.py refuses to run without the package.
Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_work" / "results"
SEED = 7
TIMEOUT_S = 180


def run(*argv: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        records = {}
        for trace in (0, 1):
            code, lines = run(str(BENCH / "run.py"), "--workload", workload,
                              "--seed", str(SEED), "--seconds", "1",
                              "--trace", str(trace), "--size", "tiny")
            what = f"{workload} trace {trace}"
            check(code == 0 and bool(lines), f"{what}: exits 0 with output")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what}: correct, nothing failed")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == wanted[trace], f"{what}: every named metric with its unit")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                check(all(v > 0 for v in values.values()), f"{what}: end-to-end metrics > 0")
            else:
                check(values["trace.unattributed_frac"] <= 0.05,
                      f"{what}: layer self times add up to end to end")
                check(values["trace.absent_entry_points"] == 0,
                      f"{what}: every entry point traced")
            records[trace] = json.loads(
                (RESULTS / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
            m = records[trace]["metrics"]
            check(m["id_excess"] == 0 and m["failed_frac"] == 0
                  and 0 < m["verdict_acc"] <= 1 and 0 < m["exercise_acc"] <= 1
                  and m["count_abs_err"] >= 0, f"{what}: correctness metrics sane")
        same = ("input_sha256", "model_sha256", "report_sha256")
        check(all(records[0][k] == records[1][k] for k in same)
              and all(records[0]["metrics"][k] == records[1]["metrics"][k]
                      for k in ("count_abs_err", "verdict_acc", "exercise_acc", "id_excess")),
              f"{workload}: inputs, report and accuracy repeat exactly")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run(*spec["command"][1:], "--workload", "solo", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not lines, "refuses to run without the package, printing no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
