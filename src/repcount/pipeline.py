"""The end-to-end session engine: parse -> track -> recognize -> angle ->
condition -> count -> report.

One SessionEngine processes one frame stream sequentially. What depends
only on a frame, or on it and the frame before it, is planned for a chunk
of frames at once from one stack of their rows: the tracker's gates and
candidate distances, the labels, and the angle cosines of every profile.
Matching, the label vote, angles, conditioning and counting then run frame
by frame on the plan. Each tracked person carries a label window and a
stack of exercise sets; when the windowed label switches to a different
known exercise the current set's counter is finalized and a new one
starts. Unknown and warmup labels pause counting without closing the set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, islice, pairwise
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import keypoints
from .conditioning import StreamingConditioner
from .counting import DEFAULT_TOLERANCE_DEG, RepCounter, RepEvent
from .keypoints import SkeletonFrame, normalize_frame
# angle_for stays bound here for tools that trace the engine's angle step by
# this name; the engine measures angles through profile_cosines
from .kinematics import (ExerciseProfile, angle_for, angle_of_cosine,  # noqa: F401
                         builtin_profiles, profile_cosines)
from .recognizer import (UNKNOWN, LabelWindow, MlpModel, RejectThresholds,
                         classify_with_reject)
from .reporting import PersonSummary, SessionResult
from .tracker import PoseTracker, check_match_settings


@dataclass
class EngineConfig:
    tolerance: float = DEFAULT_TOLERANCE_DEG
    max_match_distance: Optional[float] = None
    keep_traces: bool = False  # retain per-set angle traces for CSV export
    fps: float = 30.0  # frame rate of the session: a rep at frame f is at f / fps seconds

    def __post_init__(self):
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"fps must be a finite number > 0, got {self.fps!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.tolerance!r}")
        check_match_settings(self.max_match_distance)


@dataclass
class _ExerciseSet:
    exercise: str
    conditioner: StreamingConditioner
    counter: RepCounter
    frames: int = 0
    trace: list[tuple[int, Optional[float], float, float]] = field(default_factory=list)


@dataclass
class _PersonState:
    person_id: int
    window: LabelWindow = field(default_factory=LabelWindow)
    active: Optional[_ExerciseSet] = None
    closed_sets: list[_ExerciseSet] = field(default_factory=list)
    frames_seen: list[int] = field(default_factory=list)
    last_window_label: str = UNKNOWN
    raw_angles: dict[int, Optional[float]] = field(default_factory=dict)


class _Planned(NamedTuple):
    """A frame's part of its chunk's plan."""

    labels: list[str]  # per skeleton
    cosines: dict[str, list[float]]  # the chunk's profile_cosines
    row: int  # the frame's first row in the chunk's cosine lists


class SessionEngine:
    def __init__(self, model: Optional[MlpModel] = None,
                 thresholds: Optional[RejectThresholds] = None,
                 profiles: Optional[dict[str, ExerciseProfile]] = None,
                 config: EngineConfig = EngineConfig()):
        self.model = model
        self.thresholds = thresholds
        self.profiles = profiles if profiles is not None else builtin_profiles()
        self.config = config
        self.tracker = PoseTracker(max_match_distance=config.max_match_distance)
        self.persons: dict[int, _PersonState] = {}
        self.frame_count = 0
        self._finalized = False
        # plans of the frames of the chunk in hand, by id() of the frame
        self._pending: dict[int, _Planned] = {}

    def process_frames(self, frames: Iterable[SkeletonFrame]) -> None:
        """Process frames in order, planning each chunk of
        keypoints.CHUNK_FRAMES frames together before processing its frames
        one by one; nothing planned ahead outlives the call."""
        if self._finalized:
            raise RuntimeError("session already finalized")
        frames = iter(frames)
        while chunk := list(islice(frames, keypoints.CHUNK_FRAMES)):
            try:
                self._pending.update(zip(map(id, chunk), self._plan_chunk(chunk)))
                for frame in chunk:
                    self.process_frame(frame)
            finally:  # the chunk holds its frames, so their ids stay theirs
                self._pending.clear()
                self.tracker.clear_plans()

    def process_frame(self, frame: SkeletonFrame) -> None:
        if self._finalized:
            raise RuntimeError("session already finalized")
        self.frame_count += 1
        planned = self._pending.pop(id(frame), None)
        if planned is None:  # a direct caller: the frame is a chunk of one
            (planned,) = self._plan_chunk([frame])
        assignment = self.tracker.match_frame(frame)
        # a skeleton without an id (no detected joint) is skipped
        for sidx in sorted(assignment.id_by_skeleton):
            pid = assignment.id_by_skeleton[sidx]
            state = self.persons.get(pid)
            if state is None:
                state = self.persons[pid] = _PersonState(person_id=pid)
            state.frames_seen.append(frame.frame_index)
            state.window.push(planned.labels[sidx])
            windowed = state.window.current()
            state.last_window_label = windowed
            if windowed in self.profiles:
                cosine = planned.cosines[windowed][planned.row + sidx]
                self._step_exercise(state, windowed, cosine, frame.frame_index)

    def _plan_chunk(self, frames: list[SkeletonFrame]) -> list[_Planned]:
        """Plan frames: the tracker plans each against the frame before it
        and hands back the frames' rows, stacked once, from which the labels
        and angle cosines of every row are computed."""
        coords, confidence = self.tracker.plan(frames)
        labels = self._chunk_labels(frames, coords, confidence)
        cosines = profile_cosines(self.profiles, coords, confidence)
        rows = accumulate((len(f.coords) for f in frames), initial=0)
        return [_Planned(frame_labels, cosines, row) for frame_labels, row in zip(labels, rows)]

    def _chunk_labels(self, frames: list[SkeletonFrame], coords: np.ndarray,
                      confidence: np.ndarray) -> list[list[str]]:
        """The labels of the skeleton rows of each frame, given the frames'
        stacked rows: every row is normalized in one call, and the
        normalizable ones are classified in one forward pass."""
        sizes = [len(frame.coords) for frame in frames]
        labels = [UNKNOWN] * len(coords)
        if self.model is not None and labels:
            features, ok = normalize_frame(coords, confidence)
            rows = np.flatnonzero(ok)
            if len(rows):
                batch = classify_with_reject(self.model, self.thresholds, features[rows])
                for i, label in zip(rows.tolist(), batch):
                    labels[i] = label
        return [labels[a:b] for a, b in pairwise(accumulate(sizes, initial=0))]

    def _step_exercise(self, state: _PersonState, exercise: str, cosine: float,
                       frame_index: int) -> None:
        """Feed one frame's angle, given as its profile_cosines value, to the
        person's set of the exercise, opening the set if needed."""
        if state.active is not None and state.active.exercise != exercise:
            self._close_set(state)
        if state.active is None:
            profile = self.profiles[exercise]
            state.active = _ExerciseSet(
                exercise=exercise,
                conditioner=StreamingConditioner(profile.rom_mid),
                counter=RepCounter(profile, person_id=state.person_id,
                                   tolerance=self.config.tolerance),
            )
        raw = angle_of_cosine(cosine)
        # a sample with an angle is always emitted later, and pops it then
        if self.config.keep_traces and raw is not None:
            state.raw_angles[frame_index] = raw
        state.active.frames += 1
        self._emit(state, state.active.conditioner.feed(frame_index, raw))

    def _emit(self, state: _PersonState, samples) -> None:
        """Count the conditioned samples of the active set, tracing them when asked."""
        current = state.active
        for f, filled, conditioned in samples:
            current.counter.step(f, f / self.config.fps, conditioned)
            if self.config.keep_traces:
                current.trace.append((f, state.raw_angles.pop(f, None), filled, conditioned))

    def _close_set(self, state: _PersonState) -> None:
        current = state.active
        if current is None:
            return
        self._emit(state, current.conditioner.flush())
        current.counter.finalize()
        state.closed_sets.append(current)
        state.active = None

    def finalize(self) -> SessionResult:
        if self._finalized:
            raise RuntimeError("session already finalized")
        self._finalized = True
        summaries = []
        id_history = {}
        for pid in sorted(self.persons):
            state = self.persons[pid]
            self._close_set(state)
            events: list[RepEvent] = []
            total = correct = incorrect = 0
            dominant = None
            for ex_set in state.closed_sets:
                events.extend(ex_set.counter.events)
                t, c, i = ex_set.counter.counts()
                total += t
                correct += c
                incorrect += i
                if dominant is None or ex_set.frames > dominant.frames:
                    dominant = ex_set
            predicted = dominant.exercise if dominant is not None else state.last_window_label
            if predicted not in self.profiles:
                predicted = UNKNOWN
            summaries.append(PersonSummary(
                person_id=pid, predicted_exercise=predicted,
                total=total, correct=correct, incorrect=incorrect, events=events,
            ))
            id_history[pid] = state.frames_seen
        return SessionResult(
            fps=self.config.fps,
            frame_count=self.frame_count,
            profiles=sorted(self.profiles),
            summaries=summaries,
            id_history=id_history,
        )

    def traces(self) -> dict[int, list[tuple[int, Optional[float], float, float]]]:
        """Per-person conditioned angle traces (requires keep_traces)."""
        out = {}
        for pid, state in self.persons.items():
            rows: list[tuple[int, Optional[float], float, float]] = []
            for ex_set in state.closed_sets:
                rows.extend(ex_set.trace)
            if state.active is not None:
                rows.extend(state.active.trace)
            out[pid] = rows
        return out


def analyze_frames(frames, model=None, thresholds=None, profiles=None,
                   config: EngineConfig = EngineConfig()) -> SessionResult:
    """Run a whole pre-parsed frame list through a fresh engine."""
    engine = SessionEngine(model=model, thresholds=thresholds,
                           profiles=profiles, config=config)
    engine.process_frames(frames)
    return engine.finalize()
