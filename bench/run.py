"""repcount benchmark: the `repcount analyze` user path on seeded sessions.

    python3 bench/run.py --workload {solo,crowd16,group4-csv} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere inside a checkout whose src/ holds the repcount package.
Every input is built from --seed before any timing; the model is trained
from a fixed seed. One process, one thread, closed loop: each analyze call
starts after the previous one returns, for at least --seconds seconds and
at least MIN_CALLS calls.

--trace 0 reports the end-to-end metrics with tracing off; --trace 1 runs
traced and untraced calls alternately and reports the per-layer metrics.
Timed metrics are scaled by the host speed measured around and during each
call (see hostspeed.py); the raw values go to the record. Outputs are checked against
the generator's ground truth and the shipped report schema. The last stdout
line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The full record (input and report digests, host record, every metric) goes
to .bench_work/results/ in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import NOMINAL_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"

END_TO_END_UNITS = {
    "analyze_fps": "1/s", "frame_p50_us": "us", "frame_p99_us": "us",
    "setup_s": "s", "peak_rss_mb": "MB", "verdict_acc": "ratio",
}
# correctness metrics that can legitimately be 0: reported, and gated below
REPORTED_UNITS = {
    "count_abs_err": "reps", "exercise_acc": "ratio", "id_excess": "count",
    "failed_frac": "ratio", "frame_samples": "count",
}
SETUP_PROBES = {"full": 9, "tiny": 3}  # timed fresh processes, after one warm-up
# analyze calls per run at least, traced and untraced together; crowd16 makes
# only about three in 20 s, and its frame percentiles need five
MIN_CALLS = 5
PROBE_TIMEOUT_S = 150
# output floors, from acceptance criteria 2 (verdicts) and 6 (no id swaps)
MIN_VERDICT_ACC = 0.85
MAX_COUNT_REL_ERR = 0.05


@dataclass
class Call:
    """One successful analyze call."""

    wall_s: float  # without the host-speed samples taken inside it
    slowness: float  # host slowness around and during the call, see HostSpeed
    latencies: list[float] = field(default_factory=list)  # per frame; untraced calls
    layers: dict[str, float] = field(default_factory=dict)  # traced calls


def host_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_probe(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, str(PROBE), *argv], capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[0]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OutputChecker:
    """Checks each analyze call's outputs: exit code, schema, text/JSON
    agreement, and that every call wrote the same JSON bytes."""

    def __init__(self, validator, workloads_mod):
        self.validator = validator
        self.w = workloads_mod
        self.reports: dict[str, dict] = {}  # digest -> parsed report
        self.failures: list[str] = []

    def check(self, code, out_json: Path, out_text: Path) -> bool:
        if code != 0:
            self.failures.append(f"analyze exited with {code!r}")
            return False
        try:
            data = out_json.read_bytes()
            text = out_text.read_text(encoding="utf-8")
        except OSError as exc:
            self.failures.append(f"missing output: {exc}")
            return False
        digest = hashlib.sha256(data).hexdigest()
        if digest in self.reports:
            return True
        try:
            report = json.loads(data)
        except ValueError as exc:
            self.failures.append(f"JSON report does not parse: {exc}")
            return False
        errors = [e.message for e in self.validator.iter_errors(report)]
        if errors:
            self.failures.append(f"JSON report violates the schema: {errors[0]}")
            return False
        if self.w.text_totals(text) != self.w.json_totals(report):
            self.failures.append("text report totals disagree with the JSON report")
            return False
        self.reports[digest] = report
        return True


def analyze(cli, session, model_path: Path, out_json: Path, out_text: Path):
    """One `repcount analyze` call in this process: (exit code or error, wall s)."""
    for stale in (out_json, out_text):
        stale.unlink(missing_ok=True)
    argv = ["analyze", str(session.path), "--model", str(model_path),
            "--out-json", str(out_json), "--out-text", str(out_text)]
    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a counted failure, not the end of the run
        traceback.print_exc(file=sys.stderr)
        code = repr(exc)
    return code, perf_counter() - start


def measure_setup(model_path: Path, probes: int) -> tuple[list[float], list[float]]:
    """(raw, host-scaled) set-up seconds of `probes` fresh processes; each
    probe samples the host speed itself, right after the timed part."""
    run_probe("setup", str(SRC), str(model_path))  # warm-up: bytecode cache
    results = [run_probe("setup", str(SRC), str(model_path)) for _ in range(probes)]
    return [r["setup_s"] for r in results], [r["setup_s"] / r["slowness"] for r in results]


def measure(args, cli, pipeline, tracing, session, model_path, run_dir, checker):
    """The closed loop: (untraced calls, traced calls, attempted, failed, tracer)."""
    out_json, out_text = run_dir / "report.json", run_dir / "report.txt"
    engine_cls = pipeline.SessionEngine
    untimed = engine_cls.process_frame
    latencies: list[float] = []
    host = HostSpeed()

    def timed_process_frame(self, frame, _clock=perf_counter, _record=latencies.append):
        start = _clock()
        result = untimed(self, frame)
        _record(_clock() - start)
        host.tick()
        return result

    def timed_call(tracer=None) -> Call | None:
        nonlocal attempted, failed, host
        latencies.clear()
        gc.collect()  # no call pays for the previous call's garbage
        host = HostSpeed()
        host.sample()
        if tracer is None:
            engine_cls.process_frame = timed_process_frame
        else:
            tracer.reset()
            tracer.install()
        try:
            code, wall = analyze(cli, session, model_path, out_json, out_text)
        finally:
            engine_cls.process_frame = untimed
            if tracer is not None:
                tracer.remove()
        host.sample()
        attempted += 1
        if not checker.check(code, out_json, out_text):
            failed += 1
            return None
        wall -= host.inside_s
        if tracer is None:
            return Call(wall, host.slowness(), latencies=list(latencies))
        return Call(wall, host.slowness(), layers=tracing.layer_metrics(tracer, wall))

    untraced: list[Call] = []
    traced: list[Call] = []
    attempted = failed = 0
    tracer = tracing.Tracer() if args.trace else None
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or attempted < MIN_CALLS:
        call = timed_call()
        if call is None:
            continue
        untraced.append(call)
        if tracer is not None:
            call = timed_call(tracer)
            if call is not None:
                traced.append(call)
    return untraced, traced, attempted, failed, tracer


def frame_percentiles(untraced: list[Call], raw: dict, metrics: dict) -> None:
    """frame_p50_us and frame_p99_us, raw and host-scaled.

    Every call replays the same session, so each frame has one time per
    call. A frame's median over calls drops the host's interference bursts
    (which hit random frames) and keeps the frames that are slow in
    themselves; the percentiles are taken over those per-frame medians.
    Each session has >= 10 frames beyond p99.
    """
    times = np.array([c.latencies for c in untraced])
    slowness = np.array([[c.slowness] for c in untraced])
    per_frame_raw = np.sort(np.median(times, axis=0))
    per_frame = np.sort(np.median(times / slowness, axis=0))
    for q in (50, 99):
        raw[f"frame_p{q}_us"] = 1e6 * percentile(per_frame_raw, q)
        metrics[f"frame_p{q}_us"] = 1e6 * percentile(per_frame, q)
    metrics["frame_samples"] = times.size


def score(w, report: dict, truth, metrics: dict) -> dict[str, bool]:
    """Adds the accuracy metrics of the (single) report; returns their gates."""
    result = w.score_report(report, truth)
    metrics.update({k: result[k] for k in
                    ("count_abs_err", "verdict_acc", "exercise_acc", "id_excess")})
    return {
        "no_extra_ids": result["id_excess"] == 0,
        "in_class_exercises_recognized": result["in_class_exercise_acc"] == 1.0,
        f"verdict_acc>={MIN_VERDICT_ACC}": result["verdict_acc"] >= MIN_VERDICT_ACC,
        # within 1 rep per person on average, or 5 % of the true reps
        "count_error_small": (result["count_abs_err"] <= 1.0
                              or result["count_rel_err"] <= MAX_COUNT_REL_ERR),
    }


def layer_summary(traced: list[Call], untraced: list[Call], tracing) -> dict[str, float]:
    """Median over traced calls of each per-layer metric, times host-scaled,
    plus the tracing overhead against the untraced call before each."""
    median = statistics.median
    per_layer = {}
    for key, unit in tracing.PER_LAYER_UNITS.items():
        if key not in traced[0].layers:
            continue
        if unit in ("s", "us"):
            per_layer[key] = median(c.layers[key] / c.slowness for c in traced)
        else:
            per_layer[key] = median(c.layers[key] for c in traced)
    # each traced call directly follows an untraced one, so the host drifts
    # little within a pair
    per_layer["trace.overhead_frac"] = median(
        t.wall_s / u.wall_s for u, t in zip(untraced, traced)) - 1.0
    return per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cycles per person, for the smoke check")
    args = parser.parse_args(argv)

    if not (SRC / "repcount" / "__init__.py").is_file():
        print(f"error: no repcount package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads as w
    from repcount import cli, pipeline

    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(w.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    results_dir = WORK / "results"
    run_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    median = statistics.median
    try:
        model_path = run_dir / "model.json"
        w.build_model(model_path)
        session = w.build_session(args.workload, args.seed, args.size == "tiny", run_dir)
        inputs = {"input_sha256": w.sha256_file(session.path),
                  "model_sha256": w.sha256_file(model_path)}
        checker = OutputChecker(w.load_schema_validator(SRC), w)

        raw: dict[str, float] = {}  # timed metrics as measured, before host scaling
        metrics: dict[str, float] = {}
        attempted = failed = 0
        if not args.trace:
            setup_raw, setup_scaled = measure_setup(model_path, SETUP_PROBES[args.size])
            raw["setup_s"] = median(setup_raw)
            metrics["setup_s"] = median(setup_scaled)
            out_json, out_text = run_dir / "rss.json", run_dir / "rss.txt"
            rss = run_probe("rss", str(SRC), str(model_path), str(session.path),
                            str(out_json), str(out_text))
            attempted += 1
            failed += not checker.check(rss["exit_code"], out_json, out_text)
            metrics["peak_rss_mb"] = rss["peak_rss_mb"]

        untraced, traced, loop_attempted, loop_failed, tracer = measure(
            args, cli, pipeline, tracing, session, model_path, run_dir, checker)
        attempted += loop_attempted
        failed += loop_failed

        every_frame_once = all(len(c.latencies) == session.frames for c in untraced)
        if untraced:
            raw["analyze_s"] = median(c.wall_s for c in untraced)
            metrics["analyze_fps"] = session.frames / median(
                c.wall_s / c.slowness for c in untraced)
            if every_frame_once:
                frame_percentiles(untraced, raw, metrics)
        metrics["failed_frac"] = failed / attempted

        checks = {"no_failed_calls": failed == 0,
                  "one_report_digest": len(checker.reports) == 1,
                  "every_frame_processed_once": every_frame_once}
        report_sha256 = next(iter(checker.reports), None)
        if report_sha256 is not None:
            checks.update(score(w, checker.reports[report_sha256], session.truth, metrics))
        correct = all(checks.values())

        per_layer = layer_summary(traced, untraced, tracing) if traced else {}
        if traced:
            tracing.write_spans(tracer, results_dir / f"{args.workload}.spans.csv")

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "frames": session.frames,
            **inputs, "report_sha256": report_sha256,
            "host": {**host_record(), "kernel_nominal_s": NOMINAL_S,
                     "median_slowness": median(c.slowness for c in untraced + traced)
                     if untraced else None},
            "correct": correct, "checks": checks, "failures": checker.failures,
            "attempted": attempted, "failed": failed,
            "metrics": metrics, "raw": raw, "per_layer": per_layer,
            "layer_self_s": tracing.layer_totals(per_layer) if per_layer else {},
            "absent_entry_points": tracer.absent if tracer else [],
            "trace_observe_errors": tracer.observe_errors if tracer else 0,
            "calls": [{"wall_s": c.wall_s, "slowness": c.slowness} for c in untraced],
            "traced_calls": [{"wall_s": c.wall_s, "slowness": c.slowness} for c in traced],
        }
        record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print_summary(record, record_path, tracing.PER_LAYER_UNITS)
    if args.trace:
        emitted = {k: {"value": per_layer.get(k, 0.0), "unit": u}
                   for k, u in tracing.PER_LAYER_UNITS.items()}
    else:
        emitted = {k: {"value": metrics[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items() if k in metrics}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": emitted}))
    return 0


def print_summary(record: dict, record_path: Path, per_layer_units: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"frames {record['frames']}  calls {len(record['calls'])}  "
          f"traced calls {len(record['traced_calls'])}  "
          f"median host slowness {record['host']['median_slowness'] or float('nan'):.4f}")
    units = {**END_TO_END_UNITS, **REPORTED_UNITS}
    for key, unit in units.items():
        if key in record["metrics"]:
            print(f"  {key:<24} {record['metrics'][key]:>14.6g} {unit}")
    for key, value in record["raw"].items():
        print(f"  raw {key:<20} {value:>14.6g}")
    for layer, seconds in record["layer_self_s"].items():
        print(f"  layer {layer:<18} {seconds:>14.6g} s self")
    for key, value in record["per_layer"].items():
        print(f"  {key:<32} {value:>14.6g} {per_layer_units[key]}")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for failure in record["failures"][:5]:
        print(f"  failure: {failure}")
    print(f"  record: {record_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
