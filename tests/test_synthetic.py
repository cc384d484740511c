import gc
import weakref
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import body25 as b
from repcount.body25 import NUM_JOINTS
from repcount.keypoints import RawSkeleton, SkeletonFrame, serialize_frame
from repcount.kinematics import angle_for, builtin_profiles
from repcount.synthetic import (_ANIMATED, BASE_CONFIDENCE, POSE_BUILDERS, PersonMotion,
                                SpecError, SyntheticSessionSpec, _ar1_noise,
                                angle_schedule, generate_session,
                                make_labeled_dataset)
from repcount.tracker import PoseTracker


def _reference_rot(v: np.ndarray, theta_deg: float) -> np.ndarray:
    t = np.radians(theta_deg)
    c, s = np.cos(t), np.sin(t)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _reference_solve_limb(coords: np.ndarray, a: int, vertex: int, c: int,
                          length: float, theta_deg: float, sign: float) -> None:
    """Place joint c so the angle at the vertex equals theta_deg exactly."""
    ba = coords[a] - coords[vertex]
    ba /= np.linalg.norm(ba)
    coords[c] = coords[vertex] + length * _reference_rot(ba, sign * theta_deg)


def _reference_face_and_feet(coords: np.ndarray, upright: bool) -> None:
    nose = coords[b.NOSE]
    coords[b.R_EYE] = nose + (-3, 2)
    coords[b.L_EYE] = nose + (3, 2)
    coords[b.R_EAR] = nose + (-6, 0)
    coords[b.L_EAR] = nose + (6, 0)
    down = np.array([0.0, -4.0]) if upright else np.array([-2.0, -3.0])
    for ankle, toe, small, heel in ((b.R_ANKLE, b.R_BIG_TOE, b.R_SMALL_TOE, b.R_HEEL),
                                    (b.L_ANKLE, b.L_BIG_TOE, b.L_SMALL_TOE, b.L_HEEL)):
        coords[toe] = coords[ankle] + down + (6, 0)
        coords[small] = coords[ankle] + down + (8, 1)
        coords[heel] = coords[ankle] + down + (-3, 0)


def _reference_pose_squat(theta: float) -> np.ndarray:
    xy = np.zeros((NUM_JOINTS, 2))
    xy[b.MID_HIP] = (0, 60)
    xy[b.NECK] = (0, 120)
    xy[b.NOSE] = (0, 135)
    xy[b.R_SHOULDER] = (-12, 118)
    xy[b.L_SHOULDER] = (12, 118)
    xy[b.R_ELBOW] = (-16, 95)
    xy[b.L_ELBOW] = (16, 95)
    xy[b.R_WRIST] = (-18, 72)
    xy[b.L_WRIST] = (18, 72)
    xy[b.R_HIP] = (-8, 60)
    xy[b.L_HIP] = (8, 60)
    xy[b.R_KNEE] = (-8, 30)
    xy[b.L_KNEE] = (8, 30)
    _reference_solve_limb(xy, b.R_HIP, b.R_KNEE, b.R_ANKLE, 28, theta, -1)
    _reference_solve_limb(xy, b.L_HIP, b.L_KNEE, b.L_ANKLE, 28, theta, +1)
    _reference_face_and_feet(xy, upright=True)
    return xy


def _reference_pose_pushup(theta: float) -> np.ndarray:
    xy = np.zeros((NUM_JOINTS, 2))
    xy[b.MID_HIP] = (0, 30)
    xy[b.NECK] = (58, 36)
    xy[b.NOSE] = (70, 40)
    xy[b.R_SHOULDER] = (56, 30)
    xy[b.L_SHOULDER] = (60, 42)
    xy[b.R_ELBOW] = (56, 8)
    xy[b.L_ELBOW] = (60, 20)
    _reference_solve_limb(xy, b.R_SHOULDER, b.R_ELBOW, b.R_WRIST, 22, theta, +1)
    _reference_solve_limb(xy, b.L_SHOULDER, b.L_ELBOW, b.L_WRIST, 22, theta, -1)
    xy[b.R_HIP] = (0, 27)
    xy[b.L_HIP] = (0, 33)
    xy[b.R_KNEE] = (-30, 26)
    xy[b.L_KNEE] = (-30, 32)
    xy[b.R_ANKLE] = (-60, 25)
    xy[b.L_ANKLE] = (-60, 31)
    _reference_face_and_feet(xy, upright=False)
    return xy


def _reference_pose_pullup(theta: float) -> np.ndarray:
    xy = np.zeros((NUM_JOINTS, 2))
    xy[b.MID_HIP] = (0, 0)
    xy[b.NECK] = (0, 60)
    xy[b.NOSE] = (0, 72)
    xy[b.R_SHOULDER] = (-14, 58)
    xy[b.L_SHOULDER] = (14, 58)
    xy[b.R_ELBOW] = (-16, 83)
    xy[b.L_ELBOW] = (16, 83)
    _reference_solve_limb(xy, b.R_SHOULDER, b.R_ELBOW, b.R_WRIST, 24, theta, +1)
    _reference_solve_limb(xy, b.L_SHOULDER, b.L_ELBOW, b.L_WRIST, 24, theta, -1)
    xy[b.R_HIP] = (-8, 0)
    xy[b.L_HIP] = (8, 0)
    xy[b.R_KNEE] = (-8, -30)
    xy[b.L_KNEE] = (8, -30)
    xy[b.R_ANKLE] = (-8, -58)
    xy[b.L_ANKLE] = (8, -58)
    _reference_face_and_feet(xy, upright=True)
    return xy


def _reference_pose_situp(theta: float) -> np.ndarray:
    """Out-of-class motion: lying posture with the hip angle oscillating."""
    xy = np.zeros((NUM_JOINTS, 2))
    xy[b.MID_HIP] = (0, 12)
    xy[b.R_HIP] = (0, 10)
    xy[b.L_HIP] = (0, 14)
    xy[b.R_KNEE] = (28, 28)
    xy[b.L_KNEE] = (28, 32)
    xy[b.R_ANKLE] = (44, 8)
    xy[b.L_ANKLE] = (44, 12)
    # torso rotates about the mid-hip toward the knees
    _reference_solve_limb(xy, b.R_KNEE, b.MID_HIP, b.NECK, 55, theta, -1)
    torso_dir = (xy[b.NECK] - xy[b.MID_HIP]) / 55.0
    perp = np.array([-torso_dir[1], torso_dir[0]])
    xy[b.NOSE] = xy[b.NECK] + 12 * torso_dir
    xy[b.R_SHOULDER] = xy[b.NECK] - 4 * torso_dir - 5 * perp
    xy[b.L_SHOULDER] = xy[b.NECK] - 4 * torso_dir + 5 * perp
    xy[b.R_ELBOW] = xy[b.R_SHOULDER] + 14 * torso_dir - 4 * perp
    xy[b.L_ELBOW] = xy[b.L_SHOULDER] + 14 * torso_dir + 4 * perp
    xy[b.R_WRIST] = xy[b.R_ELBOW] + 12 * torso_dir
    xy[b.L_WRIST] = xy[b.L_ELBOW] + 12 * torso_dir
    _reference_face_and_feet(xy, upright=False)
    return xy


# motion name -> the pose builder that places its joints for one angle
REFERENCE_POSE_BUILDERS: dict[str, Callable[[float], np.ndarray]] = {
    "squat": _reference_pose_squat,
    "push-up": _reference_pose_pushup,
    "pull-up": _reference_pose_pullup,
    "sit-up": _reference_pose_situp,
}


def reference_generate_session(spec: SyntheticSessionSpec) -> tuple[list[SkeletonFrame], list[dict]]:
    """generate_session as it was before the pose builders took angle
    arrays: one skeleton at a time, verbatim."""
    rng = np.random.default_rng(spec.seed)

    schedules = []
    for motion in spec.persons:
        sched = angle_schedule(motion, spec.lead_in)
        noisy = np.clip(sched + _ar1_noise(rng, len(sched), motion.noise_sigma), 1.0, 179.0)
        schedules.append(noisy)
    n_frames = max(len(s) for s in schedules)

    frames = []
    for f in range(n_frames):
        skeletons = []
        for pi, motion in enumerate(spec.persons):
            sched = schedules[pi]
            theta = float(sched[min(f, len(sched) - 1)])
            xy = REFERENCE_POSE_BUILDERS[motion.exercise](theta)
            if motion.pos_jitter > 0:
                jitter = rng.normal(0.0, motion.pos_jitter, size=xy.shape)
                jitter[list(_ANIMATED[motion.exercise])] = 0.0
                xy = xy + jitter
            xy = xy + np.array([pi * spec.spacing, 0.0])
            conf = np.full(NUM_JOINTS, BASE_CONFIDENCE)
            if motion.gap_rate > 0:
                dropped = rng.random(NUM_JOINTS) < motion.gap_rate
                conf[dropped] = 0.0
                xy = np.where(dropped[:, None], 0.0, xy)
            coords = np.concatenate([xy, np.zeros((NUM_JOINTS, 1))], axis=1)
            skeletons.append(RawSkeleton(coords=coords, confidence=conf))
        if spec.shuffle_order and len(skeletons) > 1:
            order = rng.permutation(len(skeletons))
            skeletons = [skeletons[i] for i in order]
        frames.append(SkeletonFrame.of(f, skeletons))

    truth = [
        {
            "exercise": motion.exercise,
            "full_cycles": motion.full_cycles,
            "partial_cycles": motion.partial_cycles,
            "expected_counts": motion.expected_counts,
        }
        for motion in spec.persons
    ]
    return frames, truth


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

    @pytest.mark.parametrize("motion,session,field", [
        ({"full_cycles": 1.5}, {}, "full_cycles"),
        ({"full_cycles": True}, {}, "full_cycles"),
        ({"partial_cycles": np.float64(1.0)}, {}, "partial_cycles"),
        ({"period": 8.5}, {}, "period"),
        ({}, {"seed": 1.0}, "seed"),
        ({}, {"lead_in": 2.5}, "lead_in"),
        ({}, {"spacing": float("nan")}, "spacing"),
        ({}, {"spacing": float("-inf")}, "spacing"),
    ])
    def test_whole_numbers_of_cycles_and_frames_and_a_finite_spacing(self, motion, session,
                                                                     field):
        with pytest.raises(SpecError, match=f"^{field} must be"):
            SyntheticSessionSpec(persons=(PersonMotion("squat", **{"full_cycles": 1, **motion}),),
                                 **session)

    def test_numpy_integers_are_whole_numbers(self):
        motion = PersonMotion("squat", full_cycles=np.int64(2), period=np.int32(9))
        spec = SyntheticSessionSpec(persons=(motion,), seed=np.uint32(3), lead_in=np.int8(1))
        assert len(generate_session(spec)[0]) == 19

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


MOTIONS = st.builds(
    lambda exercise, cycles, **params: PersonMotion(exercise, *cycles, **params),
    st.sampled_from(sorted(POSE_BUILDERS)),
    st.tuples(st.integers(0, 3), st.integers(0, 2)).filter(any),  # (full, partial)
    period=st.integers(8, 25), noise_sigma=st.floats(0, 8), gap_rate=st.floats(0, 0.5),
    pos_jitter=st.floats(0, 5),
)
SPECS = st.builds(SyntheticSessionSpec, st.lists(MOTIONS, min_size=1, max_size=4).map(tuple),
                  seed=st.integers(0, 2**32), lead_in=st.integers(0, 15),
                  spacing=st.floats(-1e6, 1e6), shuffle_order=st.booleans())


class TestArrayGenerator:
    @settings(deadline=None)
    @given(SPECS)
    def test_equals_the_per_skeleton_generator(self, spec):
        frames, truth = generate_session(spec)
        expected, expected_truth = reference_generate_session(spec)
        assert truth == expected_truth
        assert len(frames) == len(expected)
        for frame, want in zip(frames, expected):
            assert frame.frame_index == want.frame_index
            assert frame.coords.tobytes() == want.coords.tobytes()
            assert frame.confidence.tobytes() == want.confidence.tobytes()

    def test_a_session_is_read_only(self):
        spec = SyntheticSessionSpec(persons=(PersonMotion("squat", full_cycles=1),
                                             PersonMotion("sit-up", full_cycles=1)),
                                    shuffle_order=True)
        frame = generate_session(spec)[0][3]
        with pytest.raises(ValueError, match="read-only"):
            frame.coords[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            frame.confidence[0, 0] = 0.5
        for array in (frame.coords, frame.confidence):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.base.flags.writeable = True

    def test_a_session_is_freed_by_reference_counting(self):
        frames, _ = generate_session(SyntheticSessionSpec(
            persons=(PersonMotion("push-up", full_cycles=1),) * 2))
        refs = [weakref.ref(frames[0]), weakref.ref(frames[-1]), weakref.ref(frames[0].coords.base)]
        gc.disable()
        try:
            del frames
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
