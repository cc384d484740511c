import numpy as np
import pytest

from repcount.keypoints import serialize_frame
from repcount.kinematics import angle_for, builtin_profiles
from repcount.synthetic import (PersonMotion, SpecError, SyntheticSessionSpec,
                                angle_schedule, generate_session,
                                make_labeled_dataset)
from repcount.tracker import PoseTracker


class TestSpecValidation:
    def test_unknown_motion(self):
        with pytest.raises(SpecError):
            PersonMotion("burpee", full_cycles=3)

    def test_zero_cycles(self):
        with pytest.raises(SpecError):
            PersonMotion("squat", full_cycles=0)

    def test_bad_gap_rate(self):
        with pytest.raises(SpecError):
            PersonMotion("squat", full_cycles=1, gap_rate=1.0)

    def test_empty_spec(self):
        with pytest.raises(SpecError):
            SyntheticSessionSpec(persons=())

    @pytest.mark.parametrize("field", ["noise_sigma", "pos_jitter"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_noise_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(SpecError, match="noise parameters must be finite numbers >= 0"):
            PersonMotion("squat", full_cycles=1, **{field: value})

    def test_expected_counts(self):
        m = PersonMotion("squat", full_cycles=4, partial_cycles=2)
        assert m.expected_counts == (6, 4, 2)


class TestAngleSchedule:
    def test_full_cycle_span(self):
        prof = builtin_profiles()["squat"]
        sched = angle_schedule(PersonMotion("squat", full_cycles=3), lead_in=0)
        assert sched.min() == pytest.approx(prof.rom_low - 5.0)
        assert sched.max() == pytest.approx(prof.rom_high + 5.0)

    def test_partial_cycle_span(self):
        prof = builtin_profiles()["squat"]
        sched = angle_schedule(PersonMotion("squat", full_cycles=0, partial_cycles=3),
                               lead_in=0)
        assert sched.min() == pytest.approx(prof.rom_mid - 10.0)
        assert sched.max() == pytest.approx(prof.rom_mid + 10.0)

    def test_lead_in_starts_at_completing_extreme(self):
        # push: rep completes on the upward crossing, so the lead-in sits at
        # the top; the k-th upward crossing is then the k-th counted rep
        sched = angle_schedule(PersonMotion("squat", full_cycles=2), lead_in=12)
        assert np.all(sched[:12] == sched.max())
        pull = angle_schedule(PersonMotion("pull-up", full_cycles=2), lead_in=12)
        assert np.all(pull[:12] == pull.min())


class TestGenerateSession:
    def test_measured_angle_matches_schedule(self):
        for name in ("squat", "push-up", "pull-up"):
            motion = PersonMotion(name, full_cycles=2)
            spec = SyntheticSessionSpec(persons=(motion,), lead_in=4)
            frames, _ = generate_session(spec)
            sched = angle_schedule(motion, lead_in=4)
            prof = builtin_profiles()[name]
            for f, frame in enumerate(frames):
                measured = angle_for(prof, frame.coords[0], frame.confidence[0])
                assert measured == pytest.approx(sched[f], abs=1e-6), name

    def test_deterministic_byte_identical(self):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("push-up", full_cycles=3, noise_sigma=3.0,
                                  gap_rate=0.05, pos_jitter=2.0),),
            seed=7)
        a, _ = generate_session(spec)
        b, _ = generate_session(spec)
        assert [serialize_frame(f) for f in a] == [serialize_frame(f) for f in b]

    def test_seed_changes_noise(self):
        def one(seed):
            spec = SyntheticSessionSpec(
                persons=(PersonMotion("squat", full_cycles=2, noise_sigma=3.0),),
                seed=seed)
            return [serialize_frame(f) for f in generate_session(spec)[0]]
        assert one(1) != one(2)

    def test_two_persons_trackable(self):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=3),
                     PersonMotion("push-up", full_cycles=3)),
            shuffle_order=True, seed=3)
        frames, _ = generate_session(spec)
        tracker = PoseTracker()
        ids = set()
        for frame in frames:
            a = tracker.match_frame(frame)
            ids.update(a.id_by_skeleton.values())
        assert len(ids) == 2

    def test_truth_record(self):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=5, partial_cycles=2),))
        _, truth = generate_session(spec)
        assert truth[0]["exercise"] == "squat"
        assert tuple(truth[0]["expected_counts"]) == (7, 5, 2)

    def test_gap_rate_drops_joints(self):
        spec = SyntheticSessionSpec(
            persons=(PersonMotion("squat", full_cycles=3, gap_rate=0.2),), seed=5)
        frames, _ = generate_session(spec)
        dropped = sum(int((~f.skeletons[0].detected).sum()) for f in frames)
        per_frame = dropped / len(frames)
        assert 2.0 < per_frame < 8.0  # around 20% of 25 joints


class TestLabeledDataset:
    def test_shapes_and_balance(self):
        x, y = make_labeled_dataset(["push-up", "squat"], 60, seed=1)
        assert x.shape == (120, 50)
        assert np.bincount(y).tolist() == [60, 60]

    @pytest.mark.parametrize("frames_per_class", [0, -1, -10])
    def test_fewer_than_one_frame_per_class_rejected(self, frames_per_class):
        with pytest.raises(SpecError, match="at least 1 frame per class"):
            make_labeled_dataset(["push-up", "squat"], frames_per_class)

    def test_class_without_motion_rejected(self, monkeypatch):
        monkeypatch.setattr("repcount.synthetic.generate_session", None)  # never reached
        with pytest.raises(SpecError, match="'jog'"):
            make_labeled_dataset(["push-up", "jog"], 10)

    def test_deterministic(self):
        a = make_labeled_dataset(["push-up", "squat"], 40, seed=2)
        b = make_labeled_dataset(["push-up", "squat"], 40, seed=2)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
