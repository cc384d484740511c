import numpy as np
import pytest

from repcount.body25 import NUM_JOINTS
from repcount.keypoints import RawSkeleton, SkeletonFrame, normalize_skeleton
from repcount.kinematics import angle_for
from repcount.pipeline import EngineConfig, SessionEngine, analyze_frames
from repcount.recognizer import UNKNOWN, classify_with_reject
from repcount.synthetic import (PersonMotion, SyntheticSessionSpec,
                                generate_session)


def run_session(spec, trained_model, **config_kw):
    model, thresholds, _ = trained_model
    frames, truth = generate_session(spec)
    result = analyze_frames(frames, model=model, thresholds=thresholds,
                            config=EngineConfig(**config_kw))
    return result, truth


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
            frames.append(SkeletonFrame.of(f.frame_index + offset, f.skeletons, f.source_fps))
        # huge gate so the posture change does not spawn a second person
        result = analyze_frames(frames, model=model, thresholds=thresholds,
                                config=EngineConfig(max_match_distance=1e9))
        (summary,) = result.summaries
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
            frames += [SkeletonFrame.of(f.frame_index + len(frames), f.skeletons, f.source_fps)
                       for f in generate_session(spec)[0]]
        engine = SessionEngine(model=model, thresholds=thresholds,
                               config=EngineConfig(max_match_distance=1e9, keep_traces=True))
        for f in frames:
            engine.process_frame(f)
            # only the sample awaiting its successor holds a raw angle
            assert all(len(s.raw_angles) <= 1 for s in engine.persons.values())
        engine.finalize()
        (state,) = engine.persons.values()
        assert state.raw_angles == {}
        assert [s.exercise for s in state.closed_sets] == ["squat", "push-up"]
        for ex_set in state.closed_sets:
            profile = engine.profiles[ex_set.exercise]
            assert ex_set.trace
            for f, raw, _, _ in ex_set.trace:
                assert raw == angle_for(profile, frames[f].skeletons[0])

    def test_finalize_twice_rejected(self, trained_model):
        model, thresholds, _ = trained_model
        engine = SessionEngine(model=model, thresholds=thresholds)
        engine.finalize()
        with pytest.raises(RuntimeError):
            engine.finalize()


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


def test_batched_labels_equal_per_skeleton_labels(trained_model):
    model, thresholds, _ = trained_model
    spec = SyntheticSessionSpec(
        persons=tuple(PersonMotion(ex, full_cycles=3, noise_sigma=8.0,
                                   gap_rate=0.1, pos_jitter=3.0)
                      for ex in ("squat", "push-up", "sit-up", "pull-up", "sit-up")),
        shuffle_order=True, seed=18)
    frames, _ = generate_session(spec)
    engine = SessionEngine(model=model, thresholds=thresholds)
    seen = set()
    for f in frames:
        want = []
        for skel in f.skeletons:
            feature = normalize_skeleton(skel)
            want.append(UNKNOWN if feature is None
                        else classify_with_reject(model, thresholds, feature))
        assert engine._frame_labels(f.coords, f.confidence) == want
        seen.update(want)
    # the reject rule and every class are exercised
    assert seen == {UNKNOWN, *model.class_names}
