"""The end-to-end session engine: parse -> track -> recognize -> angle ->
condition -> count -> report.

One SessionEngine processes one frame stream sequentially, a FrameChunk at
a time. What depends only on a frame, or on it and the frame before it, is
planned for the whole chunk on its own arrays: the tracker's gates and
candidate distances, the labels, and the angle cosines of every profile.
Matching, the label vote, angles, conditioning and counting then run frame
by frame (process_frame), each frame handed its plan. Each tracked person
carries a label window and a stack of exercise sets; when the windowed label switches to a different
known exercise the current set's counter is finalized and a new one
starts. Unknown and warmup labels pause counting without closing the set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .conditioning import StreamingConditioner
from .counting import DEFAULT_TOLERANCE_DEG, RepCounter, RepEvent
from .keypoints import FrameChunk, SkeletonFrame, chunk_is_full, normalize_frame
from .kinematics import ExerciseProfile, angle_of_cosine, builtin_profiles, profile_cosines
from .recognizer import (UNKNOWN, LabelWindow, MlpModel, RejectThresholds,
                         classify_with_reject)
from .reporting import PersonSummary, SessionResult
from .tracker import FramePlan, PoseTracker


@dataclass(frozen=True)
class EngineConfig:
    tolerance: float = DEFAULT_TOLERANCE_DEG
    keep_traces: bool = False  # retain per-set angle traces for CSV export
    fps: float = 30.0  # frame rate of the session: a rep at frame f is at f / fps seconds

    def __post_init__(self):
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"fps must be a finite number > 0, got {self.fps!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.tolerance!r}")


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
    raw_angles: dict[int, Optional[float]] = field(default_factory=dict)


class _Planned(NamedTuple):
    """A frame's part of its chunk's plan."""

    labels: list[str]  # the chunk's, per row
    cosines: dict[str, list[float]]  # the chunk's profile_cosines
    row: int  # the frame's first row in the chunk
    match: FramePlan  # the tracker's plan of the frame


class SessionEngine:
    def __init__(self, model: Optional[MlpModel] = None,
                 thresholds: Optional[RejectThresholds] = None,
                 profiles: Optional[dict[str, ExerciseProfile]] = None,
                 config: EngineConfig = EngineConfig()):
        self.model = model
        self.thresholds = thresholds
        self.profiles = profiles if profiles is not None else builtin_profiles()
        self.config = config
        self.tracker = PoseTracker()
        self.persons: dict[int, _PersonState] = {}
        self.frame_count = 0
        self._finalized = False
        # the next frame process_chunk hands to process_frame, and its plan
        self._next: tuple[Optional[SkeletonFrame], Optional[_Planned]] = (None, None)

    def process_frames(self, frames: Iterable[SkeletonFrame]) -> None:
        """Process frames in order, stacked in chunks closed where
        keypoints.chunk_is_full says, as the loaders close theirs."""
        chunk: list[SkeletonFrame] = []
        rows = 0
        for frame in frames:
            size = len(frame.coords)
            if chunk_is_full(len(chunk), rows, size):
                self.process_chunk(FrameChunk.of(chunk))
                chunk, rows = [], 0
            chunk.append(frame)
            rows += size
        if chunk:
            self.process_chunk(FrameChunk.of(chunk))

    def process_chunk(self, chunk: FrameChunk) -> None:
        """Plan the chunk's frames together, then process them one by one;
        no plan outlives the call."""
        if self._finalized:
            raise RuntimeError("session already finalized")
        try:
            for frame, planned in zip(chunk.frames, self._plan_chunk(chunk)):
                self._next = (frame, planned)
                self.process_frame(frame)
        finally:
            self._next = (None, None)

    def process_frame(self, frame: SkeletonFrame) -> None:
        if self._finalized:
            raise RuntimeError("session already finalized")
        next_frame, planned = self._next
        self._next = (None, None)
        if next_frame is not frame:  # a direct caller: the frame is a chunk of one
            (planned,) = self._plan_chunk(FrameChunk.of([frame]))
        labels, cosines, row, match = planned
        assignment = self.tracker.match_frame(frame, match)
        self.frame_count += 1  # once matched: a frame out of order is not counted
        index = frame.frame_index
        persons, profiles = self.persons, self.profiles
        ids = assignment.id_by_skeleton
        # a skeleton without an id (no detected joint) is skipped
        for sidx in sorted(ids):
            pid = ids[sidx]
            state = persons.get(pid)
            if state is None:
                state = persons[pid] = _PersonState(person_id=pid)
            state.frames_seen.append(index)
            window = state.window
            window.push(labels[row + sidx])
            windowed = window.current()
            if windowed in profiles:
                self._step_exercise(state, windowed, cosines[windowed][row + sidx], index)

    def _plan_chunk(self, chunk: FrameChunk) -> list[_Planned]:
        """Plan a chunk's frames on its own arrays: the tracker plans each
        against the frame before it, and the labels and angle cosines of
        every row are computed at once."""
        labels = self._chunk_labels(chunk)
        cosines = profile_cosines(self.profiles, chunk.coords, chunk.confidence)
        rows = accumulate(chunk.sizes, initial=0)
        return [_Planned(labels, cosines, row, match)
                for row, match in zip(rows, self.tracker.plan(chunk))]

    def _chunk_labels(self, chunk: FrameChunk) -> list[str]:
        """The labels of the chunk's rows: every row is normalized in one
        call, and the normalizable ones are classified in one forward pass."""
        labels = [UNKNOWN] * len(chunk.coords)
        if self.model is not None and labels:
            features, ok = normalize_frame(chunk.coords, chunk.confidence)
            rows = np.flatnonzero(ok)
            if len(rows):
                batch = classify_with_reject(self.model, self.thresholds, features[rows])
                for i, label in zip(rows.tolist(), batch):
                    labels[i] = label
        return labels

    def _step_exercise(self, state: _PersonState, exercise: str, cosine: float,
                       frame_index: int) -> None:
        """Feed one frame's angle, given as its profile_cosines value, to the
        person's set of the exercise, opening the set if needed."""
        active = state.active
        if active is not None and active.exercise != exercise:
            self._close_set(state)
            active = None
        if active is None:
            profile = self.profiles[exercise]
            active = state.active = _ExerciseSet(
                exercise=exercise,
                conditioner=StreamingConditioner(profile.rom_mid),
                counter=RepCounter(profile, person_id=state.person_id,
                                   tolerance=self.config.tolerance),
            )
        raw = angle_of_cosine(cosine)
        # a sample with an angle is always emitted later, and pops it then
        if raw is not None and self.config.keep_traces:
            state.raw_angles[frame_index] = raw
        active.frames += 1
        samples = active.conditioner.feed(frame_index, raw)
        if samples:
            self._emit(state, samples)

    def _emit(self, state: _PersonState, samples) -> None:
        """Count the conditioned samples of the active set, tracing them when asked."""
        current = state.active
        step, fps, keep_traces = current.counter.step, self.config.fps, self.config.keep_traces
        for f, filled, conditioned in samples:
            step(f, f / fps, conditioned)
            if keep_traces:
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
            # a set opens whenever the voted label is a profile, so a person
            # without one never had a profile label
            predicted = dominant.exercise if dominant is not None else UNKNOWN
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
