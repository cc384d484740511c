"""Benchmark inputs and their ground-truth scoring.

Every input is built from the run's seed with repcount's own synthetic
generator, written to disk with repcount's own serializers, and read back by
the program under test through `repcount analyze`. The model is trained once
per run from a fixed seed, so every workload and seed sees the same model.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repcount.keypoints import serialize_frame, write_session_csv
from repcount.kinematics import builtin_profiles
from repcount.recognizer import TrainConfig, calibrate_reject, save_model, train
from repcount.synthetic import (DEFAULT_SPACING, PersonMotion, SyntheticSessionSpec,
                                generate_session, make_labeled_dataset)

CLASSES = ["push-up", "pull-up", "squat"]
MODEL_SEED = 0
MODEL_FRAMES_PER_CLASS = 2500  # 6000 train / 1500 reject calibration
NOISE_SIGMA = 5.0  # degrees, AR(1) angle noise
GAP_RATE = 0.05  # per-joint dropout
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Workload:
    """A fixed session layout; the seed only drives noise, gaps and order."""

    exercises: tuple[str, ...]  # one entry per person, left to right
    full_cycles: int
    partial_cycles: int
    shuffle_order: bool
    suffix: str  # ".ndjson" (format A stream) or ".csv" (format B)


# Sessions are long enough that at least 10 per-frame samples lie beyond p99
# (>= 1000 frames). Why each workload exists:
#   solo: the single-user real-time path; parsing and fixed per-frame cost
#     dominate, cross-person pairing does almost nothing.
#   crowd16: 16 x 16 tracker pairings per frame, 16 recognizer rows per frame,
#     and four out-of-class sit-ups that take the Unknown path.
#   group4-csv: the 4-person point and the format-B CSV loader.
WORKLOADS = {
    "solo": Workload(("squat",), 120, 30, False, ".ndjson"),
    "crowd16": Workload(("push-up", "pull-up", "squat", "sit-up") * 4, 40, 10,
                        True, ".ndjson"),
    "group4-csv": Workload(("squat", "push-up", "pull-up", "squat"), 40, 10,
                           False, ".csv"),
}
# the smoke check runs every workload at this size (a few cycles per person)
TINY_CYCLES = (10, 2)


@dataclass(frozen=True)
class TruePerson:
    exercise: str  # expected predicted_exercise; UNKNOWN for out-of-class motion
    total: int
    correct: int
    incorrect: int


@dataclass(frozen=True)
class Session:
    path: Path
    frames: int
    truth: tuple[TruePerson, ...]  # indexed by frame-0 skeleton order in the file


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_model(path: Path) -> None:
    """Train and calibrate the recognizer the acceptance suite uses."""
    x, y = make_labeled_dataset(CLASSES, MODEL_FRAMES_PER_CLASS, seed=MODEL_SEED)
    n_train = 6000
    model, _ = train(x[:n_train], y[:n_train], CLASSES, TrainConfig(seed=MODEL_SEED))
    save_model(path, model, calibrate_reject(model, x[n_train:]))


def build_session(name: str, seed: int, tiny: bool, workdir: Path) -> Session:
    workload = WORKLOADS[name]
    full, partial = TINY_CYCLES if tiny else (workload.full_cycles, workload.partial_cycles)
    motions = tuple(PersonMotion(ex, full_cycles=full, partial_cycles=partial,
                                 noise_sigma=NOISE_SIGMA, gap_rate=GAP_RATE)
                    for ex in workload.exercises)
    spec = SyntheticSessionSpec(persons=motions, seed=seed,
                                shuffle_order=workload.shuffle_order)
    frames, _ = generate_session(spec)

    path = workdir / f"{name}{workload.suffix}"
    if workload.suffix == ".csv":
        write_session_csv(path, frames)
    else:
        with open(path, "wb") as fh:
            for frame in frames:
                fh.write(serialize_frame(frame) + b"\n")

    profiles = builtin_profiles()
    by_slot = [
        TruePerson(m.exercise, *m.expected_counts) if m.exercise in profiles
        # an out-of-class motion must be reported unknown and never counted
        else TruePerson(UNKNOWN, 0, 0, 0)
        for m in motions
    ]
    # spawn slot of each frame-0 skeleton, from the mean x of its detected
    # joints (mid-hip itself may be a gap; shuffle_order permutes the slots)
    truth = []
    for skel in frames[0].skeletons:
        xs = skel.coords[skel.confidence > 0, 0]
        truth.append(by_slot[int(round(float(xs.mean()) / DEFAULT_SPACING))])
    return Session(path=path, frames=len(frames), truth=tuple(truth))


def score_report(report: dict, truth: tuple[TruePerson, ...]) -> dict:
    """Accuracy of one JSON report against the generator's ground truth.

    Fresh ids are granted in frame-0 skeleton order, so the i-th lowest
    person id is truth[i]; ids beyond those are tracker splits (id_excess).
    """
    persons = sorted(report["persons"], key=lambda p: p["person_id"])
    matched = persons[:len(truth)]
    abs_err = hits = true_total = exercise_hits = 0
    for person, true in zip(matched, truth):
        abs_err += abs(person["total_reps"] - true.total)
        hits += (min(person["correct_reps"], true.correct)
                 + min(person["incorrect_reps"], true.incorrect))
        true_total += true.total
        exercise_hits += person["predicted_exercise"] == true.exercise
    # a true person with no report at all counts as fully missed
    for true in truth[len(matched):]:
        abs_err += true.total
        true_total += true.total
    return {
        "count_abs_err": abs_err / len(truth),
        "count_rel_err": abs_err / true_total,
        "verdict_acc": hits / true_total,
        "exercise_acc": exercise_hits / len(truth),
        "in_class_exercise_acc": (
            sum(p["predicted_exercise"] == t.exercise
                for p, t in zip(matched, truth) if t.exercise != UNKNOWN)
            / sum(t.exercise != UNKNOWN for t in truth)),
        "id_excess": len(persons) - len(truth),
    }


def text_totals(text: str) -> dict[int, int]:
    """person id -> Total Reps, parsed from the plain-text report."""
    totals, current = {}, None
    for line in text.splitlines():
        if line.startswith("Person "):
            current = int(line.split()[1])
        elif line.startswith("Total Reps:") and current is not None:
            totals[current] = int(line.split(":")[1])
    return totals


def json_totals(report: dict) -> dict[int, int]:
    return {p["person_id"]: p["total_reps"] for p in report["persons"]}


def load_schema_validator(src: Path):
    """Validator for the report schema shipped inside the package."""
    import jsonschema

    schema = json.loads((src / "repcount" / "report_schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft7Validator(schema)
