"""Command-line surface: analyze sessions, train/calibrate the recognizer,
generate synthetic ground-truth data, and benchmark throughput.

Commands raise; main alone turns an error into an `error:` line on stderr
and an exit code (EXIT_CODES): 0 success, 2 unreadable input, 3 bad model
file, 4 invalid config or unwritable output, 5 degenerate training dataset.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .body25 import NUM_JOINTS
from .counting import DEFAULT_TOLERANCE_DEG
from .keypoints import (READ_BUFFER, ParseError, SchemaError, _raise_not_utf8, load_chunks,
                        load_frames, normalize_frame, read_ndjson, serialize_frame,
                        write_session_csv)
from .kinematics import ProfileError, builtin_profiles, load_profiles
from .pipeline import EngineConfig, SessionEngine
from .recognizer import (CalibrationError, ModelFormatError, TrainConfig,
                         TrainingError, calibrate_reject, load_model, save_model,
                         train)
from .reporting import render_json, render_text, write_events_csv, write_trace_csv
from .synthetic import (PersonMotion, SpecError, SyntheticSessionSpec,
                        generate_session, make_labeled_dataset)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_MODEL = 3
EXIT_BAD_CONFIG = 4
EXIT_BAD_DATASET = 5


class InputError(Exception):
    """The input of analyze or bench cannot be read."""


# the exit code of each error a command raises; any other exception is a bug
EXIT_CODES = {InputError: EXIT_BAD_INPUT, ModelFormatError: EXIT_BAD_MODEL,
              SpecError: EXIT_BAD_CONFIG, TrainingError: EXIT_BAD_DATASET,
              CalibrationError: EXIT_BAD_DATASET}
_UNREADABLE = (OSError, ParseError, SchemaError)  # what reading an input file may raise


def _check_data_args(args) -> None:
    """Raise a SpecError when the data flags of train or calibrate are invalid."""
    given = " and ".join(flag for flag in ("--data", "--labels") if getattr(args, flag[2:], None))
    if args.synthetic_frames and given:
        raise SpecError(f"--synthetic-frames excludes {given}: give one source of data")
    if args.synthetic_frames and args.synthetic_frames < 3:
        raise SpecError(f"--synthetic-frames {args.synthetic_frames}: "
                        "need at least 1 frame per class of 3")
    if args.seed is not None and args.seed < 0:
        raise SpecError(f"--seed must be >= 0, got {args.seed}")


def _check_train_args(args) -> None:
    """Raise a SpecError when a number of the train command is invalid."""
    if args.epochs < 1:
        raise SpecError(f"--epochs must be >= 1, got {args.epochs}")
    if args.batch_size < 1:
        raise SpecError(f"--batch-size must be >= 1, got {args.batch_size}")
    if not (math.isfinite(args.learning_rate) and args.learning_rate > 0):
        raise SpecError(f"--learning-rate must be a finite number > 0, got {args.learning_rate!r}")
    if not 0 <= args.calibrate_split < 1:  # NaN fails the comparison
        raise SpecError(f"--calibrate-split must lie in [0, 1), got {args.calibrate_split!r}")


def _check_outputs(args, *flags: str) -> None:
    """Raise a SpecError unless the path each given output flag names is a
    file in an existing directory. Checked before anything is read, so that
    no work is done for a file that cannot be written."""
    for flag in flags:
        if (path := getattr(args, flag[2:].replace("-", "_"))) is None:
            continue
        if not Path(path).parent.is_dir():
            raise SpecError(f"{flag} {path}: directory {str(Path(path).parent)!r} does not exist")
        if Path(path).is_dir():
            raise SpecError(f"{flag} {path}: is a directory")


@contextmanager
def _writing(flag: str, path):
    """Turn a failed write of an output (a full disk) into a SpecError naming it."""
    try:
        yield
    except OSError as exc:
        raise SpecError(f"{flag} {path}: cannot write: {exc.strerror or exc}") from exc


def _read_chunks(args):
    """The input's chunks; an unreadable input raises an InputError."""
    try:
        return _read_stdin() if args.input == "-" else load_chunks(args.input)
    except _UNREADABLE as exc:
        raise InputError(f"unreadable input: {exc}") from exc


def _read_stdin():
    """The chunks of stdin, read like a file: through a READ_BUFFER buffer
    of its own over its raw stream, when it has one."""
    stdin = sys.stdin.buffer
    if not hasattr(stdin, "raw"):  # an in-memory stream
        return read_ndjson(stdin)
    fh = io.BufferedReader(stdin.raw, READ_BUFFER)
    try:
        return read_ndjson(fh)
    finally:
        fh.detach()  # leaves stdin open


def _load_pose_model(path):
    """load_model for a model that classifies skeletons: its input width
    must be the 2 * NUM_JOINTS features normalize_frame gives a skeleton."""
    model, thresholds = load_model(path)
    if model.layer_dims[0] != 2 * NUM_JOINTS:
        raise ModelFormatError(f"model {path} takes {model.layer_dims[0]} input features, "
                               f"a skeleton gives {2 * NUM_JOINTS}")
    return model, thresholds


def _run_chunks(chunks, model, thresholds, profiles, config=EngineConfig()) -> SessionEngine:
    """A fresh engine that has processed the chunks, in order."""
    engine = SessionEngine(model=model, thresholds=thresholds, profiles=profiles, config=config)
    for chunk in chunks:
        engine.process_chunk(chunk)
    return engine


def cmd_analyze(args) -> None:
    try:
        config = EngineConfig(fps=args.fps, tolerance=args.tolerance,
                              keep_traces=bool(args.out_csv))
    except ValueError as exc:  # it names the field, which is the option's name
        raise SpecError(f"--{exc}") from exc
    _check_outputs(args, "--out-text", "--out-json", "--out-csv")
    try:
        profiles = load_profiles(args.profiles) if args.profiles else builtin_profiles()
    except (OSError, ProfileError, json.JSONDecodeError) as exc:
        raise SpecError(f"invalid profile config: {exc}") from exc
    model, thresholds = _load_pose_model(args.model) if args.model else (None, None)
    engine = _run_chunks(_read_chunks(args), model, thresholds, profiles, config)
    result = engine.finalize()

    text = render_text(result)
    if args.out_text:
        with _writing("--out-text", args.out_text):
            Path(args.out_text).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.out_json:
        with _writing("--out-json", args.out_json):
            Path(args.out_json).write_bytes(render_json(result))
    if args.out_csv:
        with _writing("--out-csv", args.out_csv):
            write_events_csv(args.out_csv, [e for s in result.summaries for e in s.events])
            for pid, rows in engine.traces().items():
                write_trace_csv(Path(args.out_csv).with_suffix(f".person{pid}.trace.csv"), rows)


def _load_training_data(args):
    """(features, labels, class_names) from synthetic or user-supplied data."""
    if args.synthetic_frames:
        class_names = ["push-up", "pull-up", "squat"]
        x, y = make_labeled_dataset(class_names, args.synthetic_frames // 3,
                                    seed=args.seed)
        return x, y, class_names
    if not args.data or not args.labels:
        raise TrainingError("need --data and --labels (or --synthetic-frames)")
    try:
        x, frame_of = _data_rows(args.data)
        labels_by_frame = _read_labels(args.labels)
    except _UNREADABLE as exc:
        raise TrainingError(str(exc)) from exc
    keep = [k for k, f in enumerate(frame_of) if f in labels_by_frame]
    if not keep:
        raise TrainingError("no usable labeled frames")
    # the classes are the labels of the kept rows: a label of no kept row
    # would be a class without a training row
    labels = [labels_by_frame[frame_of[k]] for k in keep]
    class_names = sorted(set(labels))
    index = {name: i for i, name in enumerate(class_names)}
    return x[keep], np.asarray([index[label] for label in labels]), class_names


def _data_rows(path) -> tuple[np.ndarray, list[int]]:
    """The features of every normalizable skeleton of the session at path,
    in order, and the frame index of each."""
    features, frame_of = [np.empty((0, 2 * NUM_JOINTS))], []
    for frame in load_frames(path):
        rows, ok = normalize_frame(frame.coords, frame.confidence)
        features.append(rows[ok])
        frame_of += [frame.frame_index] * len(features[-1])
    return np.concatenate(features), frame_of


def _read_labels(path) -> dict[int, str]:
    """frame -> label of a labels CSV with columns frame and label; a bad
    row raises a TrainingError naming its line, a byte that is not UTF-8 a
    ParseError naming its line."""
    labels = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                if None in (row.get("frame"), row.get("label")):
                    raise ValueError("need a frame and a label value (columns frame,label)")
                labels[int(row["frame"])] = row["label"]
    except UnicodeDecodeError as exc:
        _raise_not_utf8(path, exc)
    except ValueError as exc:
        raise TrainingError(f"labels CSV line {reader.line_num}: {exc}") from exc
    return labels


def cmd_train(args) -> None:
    _check_data_args(args)
    _check_train_args(args)
    _check_outputs(args, "--out", "--curve-out")
    x, y, class_names = _load_training_data(args)
    n_cal = int(len(x) * args.calibrate_split)
    if args.calibrate_split > 0 and n_cal == 0:
        raise TrainingError(f"--calibrate-split {args.calibrate_split!r} of {len(x)} rows "
                            f"holds out int({len(x)} * {args.calibrate_split!r}) = 0 rows: "
                            "no held-out samples to calibrate on")
    config = TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                         batch_size=args.batch_size, seed=args.seed)
    model, history = train(x, y, class_names, config)
    thresholds = calibrate_reject(model, x[len(x) - n_cal:]) if n_cal else None
    with _writing("--out", args.out):
        save_model(args.out, model, thresholds)
    if args.curve_out:
        with _writing("--curve-out", args.curve_out), \
                open(args.curve_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "accuracy"])
            for epoch, loss, acc in history:
                writer.writerow([epoch, repr(loss), repr(acc)])
    print(f"model written to {args.out} "
          f"(final loss {history[-1][1]:.4f}, accuracy {history[-1][2]:.4f})")


def cmd_calibrate(args) -> None:
    _check_data_args(args)  # before any reading
    _check_outputs(args, "--out")
    if args.seed is not None and args.data:  # the seed (default 0) seeds synthetic frames only
        raise SpecError("--seed applies to --synthetic-frames only, not to --data")
    model, _ = _load_pose_model(args.model)
    if args.synthetic_frames:
        x, _ = make_labeled_dataset(model.class_names,
                                    args.synthetic_frames // len(model.class_names),
                                    seed=args.seed or 0)
    elif not args.data:
        raise CalibrationError("need --data (or --synthetic-frames)")
    else:
        try:
            x, _ = _data_rows(args.data)
        except _UNREADABLE as exc:
            raise CalibrationError(str(exc)) from exc
        if not len(x):
            raise CalibrationError("no normalizable skeleton in --data")
    thresholds = calibrate_reject(model, x)
    out = args.out or args.model
    with _writing("--out" if args.out else "--model", out):
        save_model(out, model, thresholds)
    for name, (lo, hi) in sorted(thresholds.bounds.items()):
        print(f"{name}: ci_low={lo:.4f} ci_high={hi:.4f}")


def cmd_simulate(args) -> None:
    _check_outputs(args, "--out", "--truth-out")
    persons = tuple(
        PersonMotion(exercise=args.exercise, full_cycles=args.full_cycles,
                     partial_cycles=args.partial_cycles, period=args.period,
                     noise_sigma=args.noise, gap_rate=args.gap_rate)
        for _ in range(args.persons)
    )
    frames, truth = generate_session(SyntheticSessionSpec(persons=persons, seed=args.seed))
    out = Path(args.out)
    with _writing("--out", out):
        if out.suffix.lower() == ".csv":
            write_session_csv(out, frames)
        else:
            with open(out, "wb") as fh:
                for frame in frames:
                    fh.write(serialize_frame(frame) + b"\n")
    if args.truth_out:
        with _writing("--truth-out", args.truth_out):
            Path(args.truth_out).write_text(
                json.dumps(truth, sort_keys=True, indent=2), encoding="utf-8")
    print(f"wrote {len(frames)} frames to {out}")


def cmd_bench(args) -> None:
    if args.repetitions < 1:
        raise SpecError("--repetitions must be >= 1")
    model, thresholds = _load_pose_model(args.model) if args.model else (None, None)
    chunks = _read_chunks(args)
    profiles = builtin_profiles()
    frames = sum(len(chunk.sizes) for chunk in chunks)

    # post-pose pipeline throughput: parsing excluded, everything else included
    rates = []
    for _ in range(args.repetitions):
        start = time.perf_counter()
        _run_chunks(chunks, model, thresholds, profiles).finalize()
        rates.append(frames / (time.perf_counter() - start))
    median_fps = statistics.median(rates)

    print(f"frames: {frames}  runs: {args.repetitions}")
    print(f"pipeline throughput: {median_fps:.0f} frames/s (median)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repcount")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full counting pipeline on a session")
    p.add_argument("input", help="frame stream: NDJSON file, JSON dir, CSV, or '-'")
    p.add_argument("--model", help="model file path")
    p.add_argument("--profiles", help="exercise profile config (JSON)")
    p.add_argument("--fps", type=float, default=30.0,
                   help="frame rate of the session, for the time of each rep")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE_DEG,
                   help="ROM bound tolerance, degrees")
    p.add_argument("--out-text", help="write the text report here (default stdout)")
    p.add_argument("--out-json", help="write the JSON report here")
    p.add_argument("--out-csv", help="write the events CSV here (plus per-person traces)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train the exercise recognition model")
    p.add_argument("--data", help="keypoint session (CSV/NDJSON/dir)")
    p.add_argument("--labels", help="labels CSV with columns frame,label")
    p.add_argument("--synthetic-frames", type=int, default=0,
                   help="train on N generated frames instead of --data")
    p.add_argument("--out", required=True)
    p.add_argument("--curve-out", help="training curve CSV (epoch,loss,accuracy)")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--calibrate-split", type=float, default=0.2,
                   help="fraction of data reused for reject calibration (0 disables)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="estimate reject thresholds for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="held-out keypoint session")
    p.add_argument("--synthetic-frames", type=int, default=0)
    p.add_argument("--out", help="output model path (default: overwrite --model)")
    p.add_argument("--seed", type=int, help="seed of --synthetic-frames (default 0)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="generate a synthetic session with ground truth")
    p.add_argument("--exercise", default="push-up")
    p.add_argument("--persons", type=int, default=1)
    p.add_argument("--full-cycles", type=int, default=10)
    p.add_argument("--partial-cycles", type=int, default=0)
    p.add_argument("--period", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--gap-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help=".csv for format B, else NDJSON")
    p.add_argument("--truth-out", help="write the ground-truth record here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="measure post-pose pipeline throughput")
    p.add_argument("input")
    p.add_argument("--model")
    p.add_argument("--repetitions", type=int, default=5)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
