"""The end-to-end session engine: parse -> track -> recognize -> angle ->
condition -> count -> report.

One SessionEngine processes one frame stream sequentially, a FrameChunk at
a time. What depends only on a frame, or on it and the frame before it, is
planned for the whole chunk on its own arrays, in one plan per chunk: the
tracker's gates, candidate distances and which frames are steady, the
labels, and the angle cosines of every profile. Matching, the label vote,
angles, conditioning and counting then run frame by frame (process_frame),
each frame reading the chunk's plan at its position and rows, with no
plan object and no views of its own. In the steady state the tracker
hands a steady frame's planned ids straight to the persons, and the one
sample the conditioner releases goes straight to the counter. Each tracked person
has one record: a label window, the open exercise set if any, and the
answer so far. A set opens when the windowed label is a known exercise and
closes when that label switches to another one, when the tracker retires
the person, or at finalize; closing folds it into the record. Unknown and
warmup labels pause counting without closing the set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .conditioning import StreamingConditioner
from .counting import DEFAULT_TOLERANCE_DEG, RepCounter, RepEvent, tally
from .keypoints import FrameChunk, SkeletonFrame, chunk_starts, normalize_frame
from .kinematics import ExerciseProfile, builtin_profiles, check_profile_names, profile_cosines
from .recognizer import (UNKNOWN, LabelWindow, MlpModel, RejectThresholds,
                         classify_with_reject)
from .reporting import PersonSummary, SessionResult
from .tracker import ChunkPlan, PoseTracker


# the least share of a person's frames that their longest set must cover
# for the report to name its exercise, unless the person has a rep: a few
# frames voted an exercise are no evidence of it
MIN_EXERCISE_SHARE = 0.5


@dataclass(frozen=True, slots=True)
class EngineConfig:
    tolerance: float = DEFAULT_TOLERANCE_DEG
    keep_traces: bool = False  # retain per-person angle traces for CSV export
    fps: float = 30.0  # frame rate of the session: a rep at frame f is at f / fps seconds

    def __post_init__(self):
        # frame indices are int64: the last one must still have a finite time
        if not (math.isfinite(self.fps) and self.fps > 0 and math.isfinite(2.0**63 / self.fps)):
            raise ValueError(f"fps must be a finite number > 0 that gives every int64 frame "
                             f"index a finite time, got {self.fps!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.tolerance!r}")


@dataclass(slots=True)
class _ExerciseSet:
    exercise: str
    conditioner: StreamingConditioner
    counter: RepCounter
    frames: int = 0


@dataclass(slots=True)
class _PersonState:
    person_id: int
    window: LabelWindow = field(default_factory=LabelWindow)
    active: Optional[_ExerciseSet] = None
    events: list[RepEvent] = field(default_factory=list)  # of the closed sets
    # of the closed set with the most frames; the first one wins a tie
    exercise: str = UNKNOWN
    exercise_frames: int = 0
    trace: list[tuple[int, Optional[float], float, float]] = field(default_factory=list)
    frames_seen: list[int] = field(default_factory=list)
    raw_angles: dict[int, Optional[float]] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class _ChunkPlan:
    """The plan of a chunk's frames: the frame at position k reads the
    labels and cosines of its rows, rows[k]:rows[k + 1]."""

    chunk: FrameChunk
    match: ChunkPlan  # the tracker's
    rows: list[int]
    labels: list[str]  # per row
    cosines: dict[str, list[float]]  # profile_cosines, per row


class SessionEngine:
    def __init__(self, model: Optional[MlpModel] = None,
                 thresholds: Optional[RejectThresholds] = None,
                 profiles: Optional[dict[str, ExerciseProfile]] = None,
                 config: EngineConfig = EngineConfig()):
        self.model = model
        self.thresholds = thresholds
        self.profiles = profiles if profiles is not None else builtin_profiles()
        check_profile_names(self.profiles)
        self.config = config
        self.tracker = PoseTracker()
        self.persons: dict[int, _PersonState] = {}
        self.frame_count = 0
        self._finalized = False
        # the plan of the chunk whose frames process_chunk hands to process_frame
        self._next: Optional[_ChunkPlan] = None

    def process_frames(self, frames: Iterable[SkeletonFrame]) -> None:
        """Process frames in order, stacked in the chunks keypoints.chunk_starts
        cuts, as the loaders cut theirs."""
        frames = list(frames)
        starts = chunk_starts([len(frame.coords) for frame in frames])
        for k, m in zip(starts, [*starts[1:], len(frames)]):
            self.process_chunk(FrameChunk.of(frames[k:m]))

    def process_chunk(self, chunk: FrameChunk) -> None:
        """Plan the chunk's frames together, then process them one by one;
        no plan outlives the call."""
        if self._finalized:
            raise RuntimeError("session already finalized")
        try:
            self._next = self._plan_chunk(chunk)
            for frame in chunk.frames:
                self.process_frame(frame)
        finally:
            self._next = None

    def process_frame(self, frame: SkeletonFrame) -> None:
        plan = self._next
        if plan is None or frame.chunk is not plan.chunk:
            # a direct caller: the frame is processed as a chunk of one
            self.process_chunk(FrameChunk.of([frame]))
            return
        assignment = self.tracker.match_frame(frame, plan.match)
        self.frame_count += 1  # once matched: a frame out of order is not counted
        index = frame.frame_index
        row = plan.rows[frame.position]
        labels, cosines = plan.labels, plan.cosines
        persons, profiles = self.persons, self.profiles
        # skeletons without an id (no detected joint) are skipped; any order will do
        for sidx, pid in assignment.id_by_skeleton.items():
            state = persons.get(pid)
            if state is None:
                state = persons[pid] = _PersonState(person_id=pid)
            state.frames_seen.append(index)
            r = row + sidx
            windowed = state.window.push(labels[r])
            if windowed in profiles:
                self._step_exercise(state, windowed, cosines[windowed][r], index)
        for pid in assignment.retired:  # never matched again: its set is over
            self._close_set(persons[pid])

    def _plan_chunk(self, chunk: FrameChunk) -> _ChunkPlan:
        """Plan a chunk's frames on its own arrays: the tracker plans each
        against the frame before it, and the labels and angle cosines of
        every row are computed at once."""
        labels = self._chunk_labels(chunk)
        cosines = profile_cosines(self.profiles, chunk.coords, chunk.confidence)
        return _ChunkPlan(chunk, self.tracker.plan(chunk), chunk.offsets, labels, cosines)

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
        raw = None if cosine != cosine else math.degrees(math.acos(cosine))  # angle_of_cosine
        keep_traces = self.config.keep_traces
        # a sample with an angle is always emitted later, and pops it then
        if raw is not None and keep_traces:
            state.raw_angles[frame_index] = raw
        active.frames += 1
        samples = active.conditioner.feed(frame_index, raw)
        if len(samples) == 1 and not keep_traces:  # the steady state
            ((f, _, conditioned),) = samples
            active.counter.step(f, f / self.config.fps, conditioned)
        elif samples:
            self._emit(state, samples)

    def _emit(self, state: _PersonState, samples) -> None:
        """Count the conditioned samples of the active set, tracing them when asked."""
        step, fps = state.active.counter.step, self.config.fps
        keep_traces = self.config.keep_traces
        for f, filled, conditioned in samples:
            step(f, f / fps, conditioned)
            if keep_traces:
                state.trace.append((f, state.raw_angles.pop(f, None), filled, conditioned))

    def _close_set(self, state: _PersonState) -> None:
        """End the person's open set, if any, and fold it into the record."""
        current = state.active
        if current is None:
            return
        self._emit(state, current.conditioner.flush())
        current.counter.finalize()
        state.events += current.counter.events
        if current.frames > state.exercise_frames:
            state.exercise, state.exercise_frames = current.exercise, current.frames
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
            total, correct, incorrect = tally(state.events)
            # a set opens whenever the voted label is a profile, so a person
            # without one never had a profile label and stays UNKNOWN
            named = total or state.exercise_frames >= MIN_EXERCISE_SHARE * len(state.frames_seen)
            summaries.append(PersonSummary(
                person_id=pid, predicted_exercise=state.exercise if named else UNKNOWN,
                total=total, correct=correct, incorrect=incorrect, events=state.events,
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
        return {pid: state.trace for pid, state in self.persons.items()}


def analyze_frames(frames, model=None, thresholds=None,
                   config: EngineConfig = EngineConfig()) -> SessionResult:
    """Run a whole pre-parsed frame list through a fresh engine on the built-in profiles."""
    engine = SessionEngine(model=model, thresholds=thresholds, config=config)
    engine.process_frames(frames)
    return engine.finalize()
