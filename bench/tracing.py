"""Outside-in layer tracing of one `repcount analyze` call.

The tracer wraps each layer's public entry points where the engine binds
them (module globals and class attributes), records one span per call
(name, start, end, parent) in memory, and counts work at the same
boundaries. Nothing inside the program is changed. An entry point that no
longer exists is reported absent; its time then falls into its parent's
self time, so the layer sums still add up to end to end.
"""
from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (layer, module, attribute path); the attribute path names the span
ENTRY_POINTS = (
    ("cli", "repcount.cli", "main"),
    ("keypoints", "repcount.cli", "load_frames"),
    ("keypoints", "repcount.keypoints", "load_session_csv"),
    ("keypoints", "repcount.keypoints", "parse_frame"),
    ("keypoints", "repcount.pipeline", "normalize_skeleton"),
    ("tracker", "repcount.tracker", "PoseTracker.match_frame"),
    ("recognizer", "repcount.pipeline", "classify_with_reject"),
    ("recognizer", "repcount.recognizer", "forward"),
    ("kinematics", "repcount.pipeline", "angle_for"),
    ("conditioning", "repcount.conditioning", "StreamingConditioner.feed"),
    ("conditioning", "repcount.conditioning", "StreamingConditioner.flush"),
    ("counting", "repcount.counting", "RepCounter.step"),
    ("counting", "repcount.counting", "RepCounter.finalize"),
    ("reporting", "repcount.cli", "render_json"),
    ("reporting", "repcount.cli", "render_text"),
    ("pipeline", "repcount.pipeline", "SessionEngine.process_frame"),
    ("pipeline", "repcount.pipeline", "SessionEngine.finalize"),
)
LAYER_OF = {path: layer for layer, _, path in ENTRY_POINTS}
LAYERS = ("keypoints", "tracker", "recognizer", "kinematics", "conditioning",
          "counting", "reporting", "pipeline", "cli")

# per-layer metrics, in the order BENCHMARK.json lists them, with units
PER_LAYER_UNITS = {
    "keypoints.load_s": "s", "keypoints.parse_s": "s", "keypoints.frames": "count",
    "keypoints.normalize_s": "s", "keypoints.normalize_calls": "count",
    "keypoints.unnormalizable_frac": "ratio",
    "tracker.match_s": "s", "tracker.match_us_per_frame": "us",
    "tracker.pair_evals": "count", "tracker.new_ids": "count", "tracker.retired": "count",
    "recognizer.classify_s": "s", "recognizer.forward_s": "s",
    "recognizer.forward_calls": "count", "recognizer.rows_per_forward": "count",
    "recognizer.unknown_frac": "ratio",
    "kinematics.angle_s": "s", "kinematics.calls": "count", "kinematics.gap_frac": "ratio",
    "conditioning.feed_s": "s", "conditioning.samples_out": "count",
    "conditioning.adjusted_frac": "ratio",
    "counting.step_s": "s", "counting.steps": "count", "counting.events": "count",
    "reporting.render_s": "s", "reporting.json_bytes": "bytes",
    "pipeline.self_s": "s", "pipeline.frames": "count", "pipeline.persons_alive": "count",
    "cli.self_s": "s",
    "trace.unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
    "trace.absent_entry_points": "count",
}


def _count_frames(n, args, frames):
    n["frames"] += len(frames)


def _count_normalize(n, args, feature):
    n["normalize_none"] += feature is None


def _count_match(n, args, assignment):
    tracker, frame = args[0], args[1]
    known_before = len(tracker.persons) - len(assignment.new_ids) + len(assignment.retired)
    n["pair_evals"] += known_before * len(frame.skeletons)
    n["new_ids"] += len(assignment.new_ids)
    n["retired"] += len(assignment.retired)


def _count_classify(n, args, label):
    n["unknown"] += label == "unknown"


def _count_forward(n, args, probs):
    features = args[1]
    n["forward_rows"] += 1 if getattr(features, "ndim", 1) == 1 else len(features)


def _count_angle(n, args, angle):
    n["angle_none"] += angle is None


def _count_conditioned(n, args, samples):
    n["samples_out"] += len(samples)
    n["adjusted"] += sum(1 for _, filled, conditioned in samples if filled != conditioned)


def _count_step(n, args, event):
    n["events"] += event is not None


def _count_json(n, args, data):
    n["json_bytes"] += len(data)


def _count_persons(n, args, _):
    n["persons_alive"] = max(n["persons_alive"], len(args[0].persons))


# entry point -> counter of the work one call did, from its arguments and result
OBSERVERS = {
    "load_frames": _count_frames,
    "normalize_skeleton": _count_normalize,
    "PoseTracker.match_frame": _count_match,
    "classify_with_reject": _count_classify,
    "forward": _count_forward,
    "angle_for": _count_angle,
    "StreamingConditioner.feed": _count_conditioned,
    "StreamingConditioner.flush": _count_conditioned,
    "RepCounter.step": _count_step,
    "render_json": _count_json,
    "SessionEngine.process_frame": _count_persons,
}


class Tracer:
    """Span recorder for traced analyze calls; install() before, remove() after."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.observe_errors = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for _, module, path in ENTRY_POINTS:
            owner, attr, fn = _resolve(module, path)
            if fn is None:
                self.absent.append(f"{module}.{path}")
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(path, fn))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, path: str, fn):
        stack = self._stack
        clock = perf_counter
        observe = OBSERVERS.get(path)

        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (path, start, end, parent)
            if observe is not None:
                try:
                    observe(self.counts, args, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # a refactored signature or result shape loses the count, not the run
                    self.observe_errors += 1
            return result

        return traced

    def self_times(self) -> tuple[Counter, Counter, float]:
        """(self seconds by span name, calls by span name, root span seconds).

        A span's self time is its duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        root = 0.0
        for i, (path, start, end, parent) in enumerate(spans):
            self_s[path] += (end - start) - child[i]
            calls[path] += 1
            if parent < 0:
                root += end - start
        return self_s, calls, root


def _resolve(module: str, path: str):
    """(owner, attribute, current value) of an entry point, or Nones if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, attr, getattr(owner, attr, None)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the one traced call whose spans the tracer holds.

    wall_s is that call's duration measured around it by the caller; the
    part no span covers is trace.unattributed_frac.
    """
    self_s, calls, root = tracer.self_times()
    n = tracer.counts
    normalize = calls["normalize_skeleton"]
    forward = calls["forward"]
    angles = calls["angle_for"]
    match_s = self_s["PoseTracker.match_frame"]
    return {
        "keypoints.load_s": self_s["load_frames"] + self_s["load_session_csv"],
        "keypoints.parse_s": self_s["parse_frame"],
        "keypoints.frames": n["frames"],
        "keypoints.normalize_s": self_s["normalize_skeleton"],
        "keypoints.normalize_calls": normalize,
        "keypoints.unnormalizable_frac": _ratio(n["normalize_none"], normalize),
        "tracker.match_s": match_s,
        "tracker.match_us_per_frame": 1e6 * _ratio(match_s, calls["PoseTracker.match_frame"]),
        "tracker.pair_evals": n["pair_evals"],
        "tracker.new_ids": n["new_ids"],
        "tracker.retired": n["retired"],
        "recognizer.classify_s": self_s["classify_with_reject"],
        "recognizer.forward_s": self_s["forward"],
        "recognizer.forward_calls": forward,
        "recognizer.rows_per_forward": _ratio(n["forward_rows"], forward),
        "recognizer.unknown_frac": _ratio(n["unknown"], calls["classify_with_reject"]),
        "kinematics.angle_s": self_s["angle_for"],
        "kinematics.calls": angles,
        "kinematics.gap_frac": _ratio(n["angle_none"], angles),
        "conditioning.feed_s": (self_s["StreamingConditioner.feed"]
                                + self_s["StreamingConditioner.flush"]),
        "conditioning.samples_out": n["samples_out"],
        "conditioning.adjusted_frac": _ratio(n["adjusted"], n["samples_out"]),
        "counting.step_s": self_s["RepCounter.step"] + self_s["RepCounter.finalize"],
        "counting.steps": calls["RepCounter.step"],
        "counting.events": n["events"],
        "reporting.render_s": self_s["render_json"] + self_s["render_text"],
        "reporting.json_bytes": n["json_bytes"],
        "pipeline.self_s": (self_s["SessionEngine.process_frame"]
                            + self_s["SessionEngine.finalize"]),
        "pipeline.frames": calls["SessionEngine.process_frame"],
        "pipeline.persons_alive": n["persons_alive"],
        "cli.self_s": self_s["main"],
        "trace.unattributed_frac": _ratio(wall_s - root, wall_s),
        "trace.absent_entry_points": len(tracer.absent),
    }


def layer_totals(metrics: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer: the sum of the layer's *_s metrics."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for key, value in metrics.items():
        layer, _, metric = key.partition(".")
        if layer in totals and metric.endswith("_s"):
            totals[layer] += value
    return totals


def write_spans(tracer: Tracer, path) -> None:
    """Dump the held spans as CSV: index, name, layer, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,layer,start,end,parent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i},{name},{LAYER_OF[name]},{start!r},{end!r},{parent}\n")
