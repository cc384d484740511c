import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import keypoints, pipeline
from repcount.body25 import MID_HIP, NECK, NUM_JOINTS
from repcount.keypoints import (FrameChunk, RawSkeleton, SkeletonFrame, normalize_frame,
                                normalize_skeleton)
from repcount.kinematics import ProfileError, angle_for, builtin_profiles
from repcount.pipeline import EngineConfig, SessionEngine, analyze_frames
from repcount.recognizer import UNKNOWN, WARMUP, LabelWindow, classify_with_reject
from repcount.reporting import render_json, render_text
from repcount.synthetic import (PersonMotion, SyntheticSessionSpec,
                                generate_session)
from repcount.tracker import RETENTION_WINDOW, ChunkPlan, PoseTracker, SequencingError
from test_ndjson_chunks import CHUNK_ROWS_DRAWN


def run_session(spec, trained_model, **config_kw):
    model, thresholds, _ = trained_model
    frames, truth = generate_session(spec)
    result = analyze_frames(frames, model=model, thresholds=thresholds,
                            config=EngineConfig(**config_kw))
    return result, truth


def wide_gate_engine(model, thresholds, **config_kw):
    """An engine whose tracker matches at any distance, so that a change of
    posture never spawns a second person."""
    engine = SessionEngine(model=model, thresholds=thresholds, config=EngineConfig(**config_kw))
    engine.tracker = PoseTracker(max_match_distance=1e9)
    return engine


class TestEngineConfig:
    def test_rep_times_use_the_configured_fps(self, trained_model):
        spec = SyntheticSessionSpec(persons=(PersonMotion("squat", full_cycles=4),), seed=11)
        result, _ = run_session(spec, trained_model, fps=12.5)
        assert result.fps == 12.5
        events = [e for s in result.summaries for e in s.events]
        assert len(events) == 4
        assert all(e.time_s == e.frame / 12.5 for e in events)

    def test_empty_session_reports_the_configured_fps(self):
        assert analyze_frames([], config=EngineConfig(fps=60.0)).fps == 60.0

    # 1e-310: the time of a frame index near 2**63 would be inf
    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0,
                                     1e-310])
    def test_rejects_bad_fps(self, fps):
        with pytest.raises(ValueError, match="fps must be a finite number > 0"):
            EngineConfig(fps=fps)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.5])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            EngineConfig(tolerance=tolerance)

    # the engine counts the frames of every profile the vote names
    @pytest.mark.parametrize("name", [UNKNOWN, WARMUP])
    def test_rejects_a_profile_named_like_a_label(self, name):
        with pytest.raises(ProfileError, match=f"profile name '{name}' is reserved"):
            SessionEngine(profiles={name: builtin_profiles()["squat"]})

    def test_is_frozen(self):
        """The default config an engine shares with every other engine
        cannot be changed through one of them."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            SessionEngine().config.fps = 0.0
        assert SessionEngine().config.fps == 30.0

    @pytest.mark.parametrize("gate", [None, 0, 0.0, 1e9])
    def test_accepts_max_match_distance(self, gate, trained_model):
        """The accepted edges run: a still person is one person at any of them."""
        model, thresholds, _ = trained_model
        frames, _ = generate_session(SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=1),), seed=3))
        still = [SkeletonFrame(f.frame_index, frames[0].coords, frames[0].confidence)
                 for f in frames]
        engine = SessionEngine(model=model, thresholds=thresholds)
        engine.tracker = PoseTracker(max_match_distance=gate)
        engine.process_frames(still)
        assert len(engine.finalize().summaries) == 1


class TestEndToEnd:
    @pytest.mark.parametrize("exercise", ["push-up", "pull-up", "squat"])
    def test_noise_free_exact_counts(self, trained_model, exercise):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion(exercise, full_cycles=6, partial_cycles=2),),
            seed=11)
        result, truth = run_session(spec, trained_model)
        (summary,) = result.summaries
        assert summary.predicted_exercise == exercise
        assert (summary.total, summary.correct, summary.incorrect) == \
            tuple(truth[0]["expected_counts"])

    def test_multi_person_independent_counts(self, trained_model):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=4),
                     PersonMotion("push-up", full_cycles=3, partial_cycles=1)),
            seed=12)
        result, truth = run_session(spec, trained_model)
        assert len(result.summaries) == 2
        by_ex = {s.predicted_exercise: s for s in result.summaries}
        assert (by_ex["squat"].total, by_ex["squat"].correct) == (4, 4)
        assert (by_ex["push-up"].total, by_ex["push-up"].correct,
                by_ex["push-up"].incorrect) == (4, 3, 1)

    def test_noisy_session_within_one_rep(self, trained_model):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=8, noise_sigma=5.0,
                                  gap_rate=0.05),),
            seed=13)
        result, _ = run_session(spec, trained_model)
        assert abs(result.summaries[0].total - 8) <= 1

    def test_empty_stream(self, trained_model):
        model, thresholds, _ = trained_model
        result = analyze_frames([], model=model, thresholds=thresholds)
        assert result.summaries == []
        assert result.frame_count == 0

    def test_no_model_yields_unknown(self):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=3),), seed=14)
        frames, _ = generate_session(spec)
        result = analyze_frames(frames)
        (summary,) = result.summaries
        assert summary.predicted_exercise == UNKNOWN
        assert summary.total == 0

    def test_a_person_mostly_unknown_is_reported_unknown(self, trained_model):
        """A sit-up, no class of the model, whose window votes squat for a
        frame: their squat set covers too few of their frames and holds no
        rep, so no exercise is named."""
        model, thresholds, _ = trained_model
        spec = SyntheticSessionSpec(persons=(PersonMotion("sit-up", full_cycles=6,
                                                          noise_sigma=5.0, gap_rate=0.05),),
                                    seed=0)
        frames, _ = generate_session(spec)
        engine = SessionEngine(model=model, thresholds=thresholds)
        engine.process_frames(frames)
        (state,) = engine.persons.values()
        (summary,) = engine.finalize().summaries
        assert state.exercise == "squat"
        assert 0 < state.exercise_frames < pipeline.MIN_EXERCISE_SHARE * len(state.frames_seen)
        assert summary.total == 0
        assert summary.predicted_exercise == UNKNOWN

    def test_exercise_switch_closes_set(self, trained_model):
        # same tracked person: squat block then push-up block; the engine
        # finalizes the squat set when the windowed label flips
        model, thresholds, _ = trained_model
        spec_a = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=4),), seed=15)
        frames_a, _ = generate_session(spec_a)
        spec_b = SyntheticSessionSpec(
            persons=(PersonMotion("push-up", full_cycles=3),), seed=15)
        frames_b, _ = generate_session(spec_b)
        frames = list(frames_a)
        offset = len(frames)
        for f in frames_b:
            frames.append(SkeletonFrame.of(f.frame_index + offset, f.skeletons))
        engine = wide_gate_engine(model, thresholds)
        engine.process_frames(frames)
        (summary,) = engine.finalize().summaries
        assert summary.total == 7
        assert summary.predicted_exercise in ("squat", "push-up")

    def test_traces_exported_when_enabled(self, trained_model):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=3),), seed=16)
        model, thresholds, _ = trained_model
        frames, _ = generate_session(spec)
        engine = SessionEngine(model=model, thresholds=thresholds,
                               config=EngineConfig(keep_traces=True))
        for f in frames:
            engine.process_frame(f)
        engine.finalize()
        traces = engine.traces()
        (rows,) = traces.values()
        assert len(rows) > 0
        frames_in_trace = [r[0] for r in rows]
        assert frames_in_trace == sorted(frames_in_trace)

    def test_trace_state_is_bounded(self, trained_model):
        # a squat set, then a push-up set of the same person, with gaps
        model, thresholds, _ = trained_model
        frames = []
        for exercise in ("squat", "push-up"):
            spec = SyntheticSessionSpec(
                persons=(PersonMotion(exercise, full_cycles=3, noise_sigma=5.0,
                                      gap_rate=0.2),), seed=19)
            frames += [SkeletonFrame.of(f.frame_index + len(frames), f.skeletons)
                       for f in generate_session(spec)[0]]
        engine = wide_gate_engine(model, thresholds, keep_traces=True)
        ends = []  # (exercise, length of the trace) as each set closes
        close_set = engine._close_set

        def recording_close_set(state):
            exercise = state.active and state.active.exercise
            close_set(state)
            if exercise:
                ends.append((exercise, len(state.trace)))

        engine._close_set = recording_close_set
        for f in frames:
            engine.process_frame(f)
            # only the sample awaiting its successor holds a raw angle
            assert all(len(s.raw_angles) <= 1 for s in engine.persons.values())
        engine.finalize()
        (state,) = engine.persons.values()
        assert state.raw_angles == {}
        assert [exercise for exercise, _ in ends] == ["squat", "push-up"]
        assert ends[-1][1] == len(state.trace)
        start = 0
        for exercise, end in ends:
            profile = engine.profiles[exercise]
            assert end > start
            for f, raw, _, _ in state.trace[start:end]:
                assert raw == angle_for(profile, frames[f].coords[0], frames[f].confidence[0])
            start = end

    def test_finalize_twice_rejected(self, trained_model):
        model, thresholds, _ = trained_model
        engine = SessionEngine(model=model, thresholds=thresholds)
        engine.finalize()
        with pytest.raises(RuntimeError):
            engine.finalize()


def test_engine_reads_rows_not_skeleton_views(trained_model, monkeypatch):
    """The engine hands angle_for a person's rows of the frame arrays; the
    RawSkeleton views of frame.skeletons are for API callers only."""
    model, thresholds, _ = trained_model
    spec = SyntheticSessionSpec(
        persons=(PersonMotion("squat", full_cycles=4, partial_cycles=1),
                 PersonMotion("push-up", full_cycles=3, noise_sigma=3.0, gap_rate=0.05)),
        seed=23)
    frames, truth = generate_session(spec)

    def refuse(frame):
        raise AssertionError("the engine built frame.skeletons")

    monkeypatch.setattr(SkeletonFrame, "skeletons", property(refuse))
    result = analyze_frames(frames, model=model, thresholds=thresholds)
    assert [(s.predicted_exercise, s.total) for s in result.summaries] == \
        [(t["exercise"], t["expected_counts"][0]) for t in truth]


EMPTY_SKELETON = RawSkeleton(coords=np.zeros((NUM_JOINTS, 3)),
                             confidence=np.zeros(NUM_JOINTS))


class TestSkeletonWithoutJoints:
    def test_never_becomes_a_person(self, trained_model):
        model, thresholds, _ = trained_model
        frames = [SkeletonFrame.of(i, (EMPTY_SKELETON,))
                  for i in range(300)]
        result = analyze_frames(frames, model=model, thresholds=thresholds)
        assert result.summaries == []
        assert result.frame_count == 300

    def test_skipped_next_to_a_real_person(self, trained_model):
        model, thresholds, _ = trained_model
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=4),), seed=17)
        frames, truth = generate_session(spec)
        with_empty = [SkeletonFrame.of(f.frame_index, (EMPTY_SKELETON, *f.skeletons))
                      for f in frames]
        (summary,) = analyze_frames(with_empty, model=model,
                                    thresholds=thresholds).summaries
        assert (summary.total, summary.correct, summary.incorrect) == \
            tuple(truth[0]["expected_counts"])


def chunk_labels(engine, frames):
    """The engine's labels of frames planned as one chunk, per frame."""
    labels = engine._chunk_labels(FrameChunk.of(frames))
    bounds = np.cumsum([0] + [len(f.coords) for f in frames]).tolist()
    return [labels[a:b] for a, b in zip(bounds, bounds[1:])]


def test_batched_labels_equal_per_skeleton_labels(trained_model):
    model, thresholds, _ = trained_model
    spec = SyntheticSessionSpec(
        persons=tuple(PersonMotion(ex, full_cycles=3, noise_sigma=8.0,
                                   gap_rate=0.1, pos_jitter=3.0)
                      for ex in ("squat", "push-up", "sit-up", "pull-up", "sit-up")),
        shuffle_order=True, seed=18)
    frames, _ = generate_session(spec)
    engine = SessionEngine(model=model, thresholds=thresholds)
    want = []
    for f in frames:
        labels = []
        for skel in f.skeletons:
            feature = normalize_skeleton(skel)
            labels.append(UNKNOWN if feature is None
                          else classify_with_reject(model, thresholds, feature))
        assert chunk_labels(engine, [f]) == [labels]
        want.append(labels)
    assert chunk_labels(engine, frames) == want
    # the reject rule and every class are exercised
    assert {label for labels in want for label in labels} == {UNKNOWN, *model.class_names}


def frame_labels_reference(model, thresholds, coords, confidence):
    """SessionEngine._frame_labels as it was before frames were labelled in
    chunks: one frame at a time, a single normalizable row as a 1-D call."""
    labels = [UNKNOWN] * len(coords)
    if model is None:
        return labels
    features, ok = normalize_frame(coords, confidence)
    rows = np.flatnonzero(ok).tolist()
    if len(rows) == 1:
        labels[rows[0]] = classify_with_reject(model, thresholds, features[rows[0]])
    elif rows:
        batch = classify_with_reject(model, thresholds, features[rows])
        for i, label in zip(rows, batch):
            labels[i] = label
    return labels


class PerFrameEngine(SessionEngine):
    """The engine with every frame labelled by the per-frame reference."""

    def _chunk_labels(self, chunk):
        return [label for f in chunk.frames
                for label in frame_labels_reference(self.model, self.thresholds,
                                                    f.coords, f.confidence)]


@functools.cache
def six_person_source():
    spec = SyntheticSessionSpec(
        persons=tuple(PersonMotion(ex, full_cycles=2, noise_sigma=5.0, gap_rate=0.05)
                      for ex in ("squat", "push-up", "sit-up", "pull-up", "squat", "push-up")),
        seed=21)
    return generate_session(spec)[0]


ROW_CASES = ["as is"] * 4 + ["gaps", "no neck", "no mid-hip", "no joint"]


@st.composite
def label_sessions(draw):
    """Consecutive frames of a six-person session; each frame keeps any
    subset of its persons (sometimes none), and a kept row may lose some
    joints, its neck or mid-hip (it cannot be normalized), or every joint
    (it is never tracked)."""
    source = six_person_source()
    start = draw(st.integers(0, len(source) - 1))
    frames = []
    for f in source[start:start + draw(st.integers(1, 40))]:
        keep = draw(st.lists(st.booleans(), min_size=len(f.coords), max_size=len(f.coords)))
        if draw(st.integers(0, 9)) == 0:
            keep = [False] * len(keep)
        coords, conf = f.coords[keep].copy(), f.confidence[keep].copy()
        for i in range(len(coords)):
            case = draw(st.sampled_from(ROW_CASES))
            if case == "gaps":
                lost = draw(st.lists(st.integers(0, NUM_JOINTS - 1), max_size=8))
                conf[i, lost] = 0.0
            elif case == "no neck":
                conf[i, NECK] = 0.0
            elif case == "no mid-hip":
                conf[i, MID_HIP] = 0.0
            elif case == "no joint":
                conf[i] = 0.0
            coords[i][conf[i] == 0] = 0.0
        frames.append(SkeletonFrame(len(frames), coords, conf))
    return frames


@settings(max_examples=100, deadline=None)
@given(label_sessions(), CHUNK_ROWS_DRAWN)
def test_chunked_labels_equal_per_frame_labels(trained_model, frames, budget):
    """Frames labelled in chunks of any budget get the labels
    of the per-frame path, and the report is the one a hand loop of
    process_frame gives with per-frame labels."""
    model, thresholds, _ = trained_model
    want = [frame_labels_reference(model, thresholds, f.coords, f.confidence) for f in frames]
    pushed = []
    push = LabelWindow.push

    def recording_push(window, label):
        pushed.append(label)
        return push(window, label)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keypoints, "CHUNK_ROWS", budget)
        mp.setattr(LabelWindow, "push", recording_push)
        assert chunk_labels(SessionEngine(model=model, thresholds=thresholds), frames) == want
        chunked = analyze_frames(frames, model=model, thresholds=thresholds)
        chunked_pushed, pushed = pushed, []
        reference = PerFrameEngine(model=model, thresholds=thresholds)
        for f in frames:
            reference.process_frame(f)
    assert chunked_pushed == pushed
    assert render_json(chunked) == render_json(reference.finalize())


def test_labels_computed_ahead_do_not_outlive_process_frames(monkeypatch, trained_model):
    model, thresholds, _ = trained_model
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", full_cycles=3),), seed=20))
    monkeypatch.setattr(keypoints, "CHUNK_ROWS", 8)  # one person: chunks of 8 frames
    engine = SessionEngine(model=model, thresholds=thresholds)
    engine.process_frames(frames[:12])
    assert engine._next is None
    match_frame = engine.tracker.match_frame

    def failing_match(frame, plan=None):
        if frame.frame_index == 20:
            raise RuntimeError("tracker failed")
        return match_frame(frame, plan)

    monkeypatch.setattr(engine.tracker, "match_frame", failing_match)
    with pytest.raises(RuntimeError, match="tracker failed"):
        engine.process_frames(frames[12:])
    assert engine._next is None
    engine.finalize()
    with pytest.raises(RuntimeError, match="finalized"):
        engine.process_frames(frames)


def test_labels_computed_ahead_belong_to_their_frame(monkeypatch, trained_model):
    """A process_frame wrapper that passes on only the even frames gets the
    report of the engine that was given only those; the odd frames, whose
    skeletons have no neck, would label every row unknown."""
    model, thresholds, _ = trained_model
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", full_cycles=4, noise_sigma=5.0),
                 PersonMotion("push-up", full_cycles=4, noise_sigma=5.0)), seed=22))
    for i in range(1, len(frames), 2):
        confidence = frames[i].confidence.copy()
        confidence[:, NECK] = 0.0
        frames[i] = SkeletonFrame(i, frames[i].coords, confidence)
    want = render_json(analyze_frames(frames[::2], model=model, thresholds=thresholds))
    assert b'"total_reps":4' in want.replace(b" ", b"")
    process_frame = SessionEngine.process_frame

    def every_other_frame(self, frame):
        if frame.frame_index % 2 == 0:
            process_frame(self, frame)

    monkeypatch.setattr(SessionEngine, "process_frame", every_other_frame)
    assert render_json(analyze_frames(frames, model=model, thresholds=thresholds)) == want


def test_steady_frames_cost_no_views_and_no_plan_of_their_own(monkeypatch, trained_model):
    """A generated 3-person session is planned once per chunk, and the
    frames that match on the steady path never make the views of their
    rows: the plan reads the chunk's arrays, not the frames'."""
    model, thresholds, _ = trained_model
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("push-up", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("pull-up", 2, noise_sigma=5.0, gap_rate=0.05)), seed=3))
    chunks = [FrameChunk.of(frames[k:k + 40]) for k in range(0, len(frames), 40)]
    plans, general = [], []

    def recording(owner, name, record):
        original = getattr(owner, name)

        def recorded(self, *args, **kwargs):
            record(self, *args)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)

    for cls in (ChunkPlan, pipeline._ChunkPlan):  # the tracker's, the engine's
        recording(cls, "__init__", lambda plan, *_: plans.append(type(plan)))
    recording(PoseTracker, "_match_general", lambda _, frame, *__: general.append(frame))
    engine = SessionEngine(model=model, thresholds=thresholds)
    for chunk in chunks:
        engine.process_chunk(chunk)
    assert plans == [ChunkPlan, pipeline._ChunkPlan] * len(chunks)
    steady = [f for chunk in chunks for f in chunk.frames if f not in general]
    assert len(general) == 1 and len(steady) == len(frames) - 1
    assert not any({"coords", "confidence"} & vars(f).keys() for f in steady)
    assert engine.frame_count == len(frames)


def test_frame_the_tracker_rejects_is_not_counted():
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", full_cycles=1),), seed=23))
    engine = SessionEngine()
    engine.process_frame(frames[5])
    with pytest.raises(SequencingError):
        engine.process_frame(frames[3])
    result = engine.finalize()
    assert result.frame_count == 1
    assert result.id_history == {1: [5]}


@functools.cache
def mixed_session():
    """Four noisy persons with gaps, one of them doing sit-ups, which no
    profile counts."""
    spec = SyntheticSessionSpec(
        persons=tuple(PersonMotion(ex, full_cycles=3, noise_sigma=5.0, gap_rate=0.05)
                      for ex in ("squat", "sit-up", "push-up", "pull-up")),
        shuffle_order=True, seed=24)
    return generate_session(spec)[0]


@settings(max_examples=20, deadline=None)
@given(st.integers(-8, 8))
def test_scaling_by_a_power_of_two_leaves_the_report_unchanged(trained_model, k):
    """Gates, the box slack, the features and the angles are all relative:
    scaling every coordinate by 2**k, which is exact, changes no byte of
    the report."""
    model, thresholds, _ = trained_model
    frames = mixed_session()
    scaled = [SkeletonFrame(f.frame_index, f.coords * 2.0**k, f.confidence) for f in frames]
    want = analyze_frames(frames, model=model, thresholds=thresholds)
    assert sum(s.total for s in want.summaries) > 0
    assert render_json(analyze_frames(scaled, model=model, thresholds=thresholds)) == \
        render_json(want)


@st.composite
def sessions_on_a_1_64_grid(draw):
    """A short synthetic session of 1-3 persons, any of them doing sit-ups,
    with every coordinate rounded to a multiple of 1/64."""
    motions = tuple(
        PersonMotion(draw(st.sampled_from(["squat", "push-up", "pull-up", "sit-up"])),
                     full_cycles=draw(st.integers(1, 3)), noise_sigma=5.0, gap_rate=0.05)
        for _ in range(draw(st.integers(1, 3))))
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=motions, seed=draw(st.integers(0, 2**32 - 1)), shuffle_order=draw(st.booleans())))
    return [SkeletonFrame(f.frame_index, np.round(f.coords * 64.0) / 64.0, f.confidence)
            for f in frames]


@settings(max_examples=25, deadline=None)
@given(sessions_on_a_1_64_grid(), st.tuples(*[st.integers(-2**20, 2**20)] * 3), st.booleans())
def test_translation_leaves_the_report_unchanged(trained_model, frames, shift, with_model):
    """Every layer reads coordinates only through their differences. On
    multiples of 1/64 of at most 2**12, a shift by an integer vector of at
    most 2**20 keeps each coordinate and each difference exact, so it
    changes no byte of the report."""
    model, thresholds, _ = trained_model if with_model else (None, None, None)
    assert np.abs(np.concatenate([f.coords for f in frames])).max() <= 2**12
    moved = [SkeletonFrame(f.frame_index, f.coords + np.array(shift, dtype=np.float64),
                           f.confidence) for f in frames]
    assert render_json(analyze_frames(moved, model=model, thresholds=thresholds)) == \
        render_json(analyze_frames(frames, model=model, thresholds=thresholds))


@st.composite
def damaged_sessions(draw):
    """A synthetic session of 1-4 persons of any motion, cadence, noise and
    gap rate, then damaged by a drawn seed: frames dropped, persons lost for
    a frame, necks and mid-hips unseen, and every coordinate scaled by a
    power of ten."""
    motions = tuple(
        PersonMotion(draw(st.sampled_from(["squat", "push-up", "pull-up", "sit-up"])),
                     full_cycles=draw(st.integers(1, 4)), partial_cycles=draw(st.integers(0, 2)),
                     period=draw(st.integers(8, 30)),
                     noise_sigma=draw(st.sampled_from([0.0, 5.0, 30.0])),
                     gap_rate=draw(st.sampled_from([0.0, 0.05, 0.4])))
        for _ in range(draw(st.integers(1, 4))))
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=motions, seed=draw(st.integers(0, 2**32 - 1)), shuffle_order=draw(st.booleans())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drop, lose, unseen = (draw(st.sampled_from([0.0, 0.0, 0.1, 0.5])) for _ in range(3))
    scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-300, 300)))
    damaged = []
    for f in frames:
        if rng.random() < drop:
            continue
        keep = rng.random(len(f.coords)) >= lose
        coords, conf = f.coords[keep] * scale, f.confidence[keep].copy()
        conf[rng.random(conf.shape[:1]) < unseen, NECK] = 0.0
        conf[rng.random(conf.shape[:1]) < unseen, MID_HIP] = 0.0
        coords[conf == 0] = 0.0
        damaged.append(SkeletonFrame(f.frame_index, coords, conf))
    return damaged


@settings(max_examples=40, deadline=None)
@given(damaged_sessions())
def test_counters_see_finite_values_and_verdicts_add_up(trained_model, frames):
    """Whatever the input, every value a RepCounter steps on is finite, and
    each person's total is their correct plus their incorrect reps."""
    model, thresholds, _ = trained_model
    stepped = []
    step = pipeline.RepCounter.step

    def recording_step(counter, frame, time_s, angle):
        stepped.append((frame, time_s, angle))
        return step(counter, frame, time_s, angle)

    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(pipeline.RepCounter, "step", recording_step)
        result = analyze_frames(frames, model=model, thresholds=thresholds)
    assert all(math.isfinite(v) for values in stepped for v in values)
    for summary in result.summaries:
        assert summary.total == summary.correct + summary.incorrect
        assert summary.total == len(summary.events)


@functools.cache
def three_person_source():
    spec = SyntheticSessionSpec(
        persons=tuple(PersonMotion(ex, full_cycles=12, noise_sigma=5.0, gap_rate=0.05)
                      for ex in ("squat", "push-up", "pull-up")),
        seed=5)
    return generate_session(spec)[0]


def leaving_session(leave, back, gone=None):
    """The three-person session with its second person away in frames
    [leave, back), and its third gone from frame `gone` on."""
    frames = []
    for f in three_person_source():
        i = f.frame_index
        keep = [True, not leave <= i < back, gone is None or i < gone]
        frames.append(SkeletonFrame(i, f.coords[keep], f.confidence[keep]))
    return frames


def recording_tracker(engine, assignments, keep_retired=False):
    """Record each frame's Assignment; with keep_retired the engine is told
    of no retirement (the tracker still drops the tracks)."""
    match_frame = engine.tracker.match_frame

    def recording_match_frame(frame, plan=None):
        assignment = match_frame(frame, plan)
        assignments.append(dataclasses.replace(assignment))
        if keep_retired:
            assignment.retired = []
        return assignment

    engine.tracker.match_frame = recording_match_frame


@settings(max_examples=15, deadline=None)
@given(st.integers(40, 120), st.integers(RETENTION_WINDOW + 1, 3 * RETENTION_WINDOW))
def test_a_returning_person_is_a_new_person(trained_model, leave, away):
    """A person away mid-set for longer than the retention window comes
    back under a new id; the set of the retired id closes on the frame that
    retires it, and its record does not change after that frame."""
    model, thresholds, _ = trained_model
    back = leave + away
    engine = SessionEngine(model=model, thresholds=thresholds)
    assignments = []
    recording_tracker(engine, assignments)
    retired_record = None
    for f in leaving_session(leave, back):
        engine.process_frame(f)
        assignment = assignments[-1]
        if f.frame_index == leave - 1:
            leaver = assignment.id_by_skeleton[1]
            assert engine.persons[leaver].active is not None  # it leaves mid-set
        elif f.frame_index == back:
            assert 1 in assignment.new_ids  # ids are never reused
            returner = assignment.id_by_skeleton[1]
        if assignment.retired:
            assert (f.frame_index, assignment.retired) == (leave + RETENTION_WINDOW, [leaver])
            state = engine.persons[leaver]
            assert state.active is None
            retired_record = (list(state.events), state.exercise)
    assert retired_record is not None
    result = engine.finalize()
    by_id = {s.person_id: s for s in result.summaries}
    assert (by_id[leaver].events, by_id[leaver].predicted_exercise) == retired_record
    assert all(e.frame >= back for e in by_id[returner].events)


@st.composite
def skipping_streams(draw):
    """Frames of the three-person session under frame indices that skip
    now and then, by less than, exactly, or more than the retention window
    allows; after a skip, each person may be out of view. Returns the
    frames and, per skip, which skipped indices a stream that writes a frame
    without persons there instead has."""
    source = three_person_source()
    start = draw(st.integers(0, len(source) - 200))
    frames, filled, index, keep = [], [], 0, [True] * 3
    for f in source[start:start + draw(st.integers(1, 200))]:
        step = draw(st.sampled_from([1] * 16 + [2, RETENTION_WINDOW, RETENTION_WINDOW + 1,
                                                RETENTION_WINDOW + 2, 3 * RETENTION_WINDOW]))
        if step > 1:
            keep = draw(st.lists(st.booleans(), min_size=3, max_size=3))
            skipped = range(index + 1, index + step)
            filled += draw(st.sampled_from([[], list(skipped), [skipped[-1]],
                                            list(skipped[::2])]))
        index += step
        frames.append(SkeletonFrame(index, f.coords[keep], f.confidence[keep]))
    return frames, filled


@settings(max_examples=40, deadline=None)
@given(skipping_streams())
def test_skipped_indices_and_frames_without_persons_agree(trained_model, case):
    """A stream that skips frame indices and the one with frames without
    persons at some of those indices give the same ids, events and
    exercises; only the frame count differs."""
    model, thresholds, _ = trained_model
    frames, filled = case
    empty = np.zeros((0, NUM_JOINTS, 3)), np.zeros((0, NUM_JOINTS))
    with_empty = sorted(frames + [SkeletonFrame(i, *empty) for i in filled],
                        key=lambda f: f.frame_index)
    skipping = analyze_frames(frames, model=model, thresholds=thresholds)
    result = analyze_frames(with_empty, model=model, thresholds=thresholds)
    assert result.frame_count == skipping.frame_count + len(filled)
    assert dataclasses.replace(result, frame_count=skipping.frame_count) == skipping


@pytest.mark.parametrize("leave,back,gone", [(60, 100, 150), (45, 200, 100), (100, 150, None)])
def test_retirement_moves_when_a_set_closes_not_what_is_reported(trained_model, leave, back,
                                                                 gone):
    """Closing a retired person's set at retirement, not at finalize,
    leaves the reports and the traces byte for byte as they were."""
    model, thresholds, _ = trained_model
    frames = leaving_session(leave, back, gone)
    outputs = []
    for keep_retired in (False, True):
        engine = SessionEngine(model=model, thresholds=thresholds,
                               config=EngineConfig(keep_traces=True))
        assignments = []
        recording_tracker(engine, assignments, keep_retired)
        engine.process_frames(frames)
        result = engine.finalize()
        assert sum(len(a.retired) for a in assignments) == (1 if gone is None else 2)
        outputs.append((render_json(result), render_text(result), engine.traces()))
    assert outputs[0] == outputs[1]
