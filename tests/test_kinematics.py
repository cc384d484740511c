import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repcount import body25
from repcount.body25 import NUM_JOINTS, mirror_triple
from repcount.keypoints import RawSkeleton
from repcount.kinematics import (LIMB_EPSILON, DegenerateGeometryError,
                                 ExerciseProfile, ProfileError, angle_for,
                                 angle_of_cosine, builtin_profiles, joint_angle,
                                 load_profiles, profile_cosines)


def reference_angle_for(profile, skel):
    """angle_for as it read the confidences through numpy scalars."""
    def mean_confidence(triple):
        conf = skel.confidence
        return (conf[triple[0]] + conf[triple[1]] + conf[triple[2]]) / 3.0

    primary = profile.joint_triple
    mirrored = mirror_triple(primary)
    have_primary = all(skel.confidence[j] > 0 for j in primary)
    have_mirror = all(skel.confidence[j] > 0 for j in mirrored)
    if have_primary and have_mirror:
        triple = primary if mean_confidence(primary) >= mean_confidence(mirrored) else mirrored
    elif have_primary:
        triple = primary
    elif have_mirror:
        triple = mirrored
    else:
        return None
    a, b, c = triple
    try:
        return joint_angle(skel.coords[a], skel.coords[b], skel.coords[c])
    except DegenerateGeometryError:
        return None


class TestJointAngle:
    def test_orthogonal_90(self):
        assert joint_angle((1, 0, 0), (0, 0, 0), (0, 1, 0)) == pytest.approx(90.0)

    def test_collinear_opposite_180(self):
        assert joint_angle((1, 0, 0), (0, 0, 0), (-1, 0, 0)) == pytest.approx(180.0)

    def test_45_degrees(self):
        assert joint_angle((1, 0, 0), (0, 0, 0), (1, 1, 0)) == pytest.approx(45.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGeometryError):
            joint_angle((0, 0, 0), (0, 0, 0), (1, 0, 0))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = rng.uniform(-10, 10, size=(3, 3))
            assert joint_angle(a, b, c) == pytest.approx(joint_angle(c, b, a))

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.uniform(-10, 10, size=(3, 3))
            base = joint_angle(a, b, c)
            s = rng.uniform(0.1, 20)
            t = rng.uniform(-100, 100, 3)
            # random 3D rotation from a normalized quaternion
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            rot = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])
            moved = [s * (rot @ p) + t for p in (a, b, c)]
            assert joint_angle(*moved) == pytest.approx(base, abs=1e-6)

    def test_clamp_near_collinear(self):
        # rounding can push |cos| past 1; output must stay in [0, 180]
        for scale in (1e-8, 1e8, 0.1, 3.0):
            ang = joint_angle((scale, 0, 0), (0, 0, 0), (2 * scale, 1e-16, 0))
            assert 0.0 <= ang <= 180.0


def skeleton_with(coords_map, default_conf=1.0):
    coords = np.zeros((NUM_JOINTS, 3))
    conf = np.zeros(NUM_JOINTS)
    for j, xy in coords_map.items():
        coords[j, : len(xy)] = xy
        conf[j] = default_conf
    return RawSkeleton(coords=coords, confidence=conf)


class TestAngleFor:
    def test_straight_right_arm_180(self):
        prof = builtin_profiles()["push-up"]
        skel = skeleton_with({2: (0, 0), 3: (10, 0), 4: (20, 0), 1: (0, 5), 8: (0, -55)})
        assert angle_for(prof, skel.coords, skel.confidence) == pytest.approx(180.0)

    def test_missing_wrists_gives_gap(self):
        prof = builtin_profiles()["push-up"]
        skel = skeleton_with({2: (0, 0), 3: (10, 0), 5: (0, 2), 6: (10, 2)})
        assert angle_for(prof, skel.coords, skel.confidence) is None

    def test_left_side_fallback(self):
        prof = builtin_profiles()["push-up"]
        # right wrist undetected; mirrored left triple is bent at 90
        skel = skeleton_with({2: (0, 0), 3: (10, 0),
                              5: (0, 0), 6: (10, 0), 7: (10, 10)})
        assert angle_for(prof, skel.coords, skel.confidence) == pytest.approx(90.0)

    def test_constructed_90_knee(self):
        prof = builtin_profiles()["squat"]
        skel = skeleton_with({9: (0, 30), 10: (0, 0), 11: (25, 0)})
        assert angle_for(prof, skel.coords, skel.confidence) == pytest.approx(90.0, abs=1e-6)

    def test_higher_confidence_side_wins(self):
        prof = builtin_profiles()["push-up"]
        coords = np.zeros((NUM_JOINTS, 3))
        conf = np.zeros(NUM_JOINTS)
        # right arm at 180, left arm at 90, left more confident
        for j, xy in {2: (0, 0), 3: (10, 0), 4: (20, 0)}.items():
            coords[j, :2] = xy
            conf[j] = 0.5
        for j, xy in {5: (0, 0), 6: (10, 0), 7: (10, 10)}.items():
            coords[j, :2] = xy
            conf[j] = 0.9
        skel = RawSkeleton(coords=coords, confidence=conf)
        assert angle_for(prof, skel.coords, skel.confidence) == pytest.approx(90.0)


class TestProfiles:
    def test_squat_vertex_is_right_knee(self):
        assert builtin_profiles()["squat"].joint_triple[1] == body25.R_KNEE == 10

    def test_pushup_is_push(self):
        assert builtin_profiles()["push-up"].motion_type == "push"

    def test_unknown_name_absent(self):
        assert "burpee" not in builtin_profiles()

    def test_rom_mid(self):
        p = ExerciseProfile("x", (2, 3, 4), 60.0, 160.0, "pull")
        assert p.rom_mid == 110.0

    @pytest.mark.parametrize("low,high", [(-1, 90), (90, 90), (90, 181)])
    def test_bad_rom_rejected(self, low, high):
        with pytest.raises(ProfileError):
            ExerciseProfile("x", (2, 3, 4), low, high, "push")

    def test_bad_triple_rejected(self):
        with pytest.raises(ProfileError):
            ExerciseProfile("x", (2, 2, 4), 10, 170, "push")
        with pytest.raises(ProfileError):
            ExerciseProfile("x", (2, 3, 25), 10, 170, "push")

    @pytest.mark.parametrize("triple", [
        pytest.param((9, 10), id="two-joints"),
        pytest.param((9, 10, 11, 12), id="four-joints"),
        pytest.param((9, 10.5, 11), id="float-joint"),
        pytest.param((9, 10.0, 11), id="integral-float-joint"),
        pytest.param((9, True, 11), id="boolean-joint"),
        pytest.param((-1, 10, 11), id="negative-joint"),
        pytest.param([9, 10, 11], id="list"),
    ])
    def test_malformed_triple_rejected(self, triple):
        with pytest.raises(ProfileError, match="joint triple"):
            ExerciseProfile("x", triple, 10, 170, "push")

    def test_bad_motion_type_rejected(self):
        with pytest.raises(ProfileError):
            ExerciseProfile("x", (2, 3, 4), 10, 170, "sideways")

    def test_load_profiles_config(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([
            {"name": "deadlift", "joint_triple": [9, 10, 11],
             "rom_low": 90, "rom_high": 175, "motion_type": "push"},
        ]))
        profiles = load_profiles(path)
        assert profiles["deadlift"].rom_high == 175

    def test_load_profiles_invalid(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([{"name": "bad"}]))
        with pytest.raises(ProfileError):
            load_profiles(path)

    @pytest.mark.parametrize("changes", [
        pytest.param({"joint_triple": [9, 10]}, id="two-joints"),
        pytest.param({"joint_triple": [9, 10.5, 11]}, id="float-joint"),
        pytest.param({"joint_triple": [9, True, 11]}, id="boolean-joint"),
        pytest.param({"joint_triple": 10}, id="triple-not-array"),
        pytest.param({"joint_triple": "abc"}, id="triple-string"),
        pytest.param({"rom_low": "60"}, id="rom-string"),
        pytest.param({"rom_low": True}, id="rom-boolean"),
        pytest.param({"rom_high": 10 ** 400}, id="rom-beyond-float"),
        pytest.param({"rom_high": None}, id="rom-null"),
        pytest.param({"name": ["x"]}, id="name-not-string"),
        pytest.param({"motion_type": ["push"]}, id="motion-type-array"),
    ])
    def test_load_profiles_malformed_entry(self, tmp_path, changes):
        entry = {"name": "x", "joint_triple": [9, 10, 11], "rom_low": 60,
                 "rom_high": 160, "motion_type": "push", **changes}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ProfileError):
            load_profiles(path)

    def test_load_profiles_name_given_twice(self, tmp_path):
        """A second entry of a name would silently replace the first."""
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([
            {"name": "squat", "joint_triple": [9, 10, 11],
             "rom_low": 80, "rom_high": 170, "motion_type": "push"},
            {"name": "deadlift", "joint_triple": [9, 10, 11],
             "rom_low": 90, "rom_high": 175, "motion_type": "push"},
            {"name": "squat", "joint_triple": [2, 3, 4],
             "rom_low": 10, "rom_high": 20, "motion_type": "push"},
        ]))
        with pytest.raises(ProfileError, match="'squat' is named twice"):
            load_profiles(path)

    def test_load_profiles_empty_list(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text("[]")
        with pytest.raises(ProfileError, match="non-empty"):
            load_profiles(path)

    def test_load_profiles_not_utf8(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_bytes(b'[{"name": "\xff"}]')
        with pytest.raises(ProfileError, match="not UTF-8"):
            load_profiles(path)

    @pytest.mark.parametrize("entry", [None, 5, "x", ["x"]])
    def test_load_profiles_entry_not_object(self, tmp_path, entry):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ProfileError):
            load_profiles(path)


# few confidence levels, so both sides are often detected with equal means
CONFIDENCE_LEVELS = st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, (NUM_JOINTS, 3), elements=st.floats(-100, 100)),
       arrays(np.float64, NUM_JOINTS, elements=CONFIDENCE_LEVELS),
       st.sampled_from(sorted(builtin_profiles())))
def test_angle_for_equals_numpy_scalar_reference(coords, conf, name):
    """Side choice, gaps and angles bit for bit as with numpy scalar reads."""
    profile = builtin_profiles()[name]
    skel = RawSkeleton(coords=coords, confidence=conf)
    want = reference_angle_for(profile, skel)
    got = angle_for(profile, skel.coords, skel.confidence)
    assert got == want if want is not None else got is None


ANGLE_CASES = ["as drawn", "limb at epsilon", "limb just above epsilon", "collinear",
               "equal sides", "2-D", "missing side"]


@st.composite
def angle_rows(draw):
    """(profile name, coords, confidences, case) of one row whose profile
    triple may be degenerate, collinear, tied between sides, flat or
    one-sided."""
    name = draw(st.sampled_from(sorted(builtin_profiles())))
    coords = draw(arrays(np.float64, (NUM_JOINTS, 3), elements=st.floats(-100, 100)))
    conf = draw(arrays(np.float64, NUM_JOINTS, elements=CONFIDENCE_LEVELS))
    case = draw(st.sampled_from(ANGLE_CASES))
    primary = builtin_profiles()[name].joint_triple
    side = draw(st.sampled_from([primary, mirror_triple(primary)]))
    a, b, c = side
    if case in ("limb at epsilon", "limb just above epsilon"):
        length = LIMB_EPSILON if case == "limb at epsilon" else np.nextafter(LIMB_EPSILON, 1.0)
        coords[b] = 0.0
        coords[draw(st.sampled_from([a, c]))] = (length, 0.0, 0.0)
    elif case == "collinear":
        step = draw(arrays(np.float64, 3, elements=st.integers(-5, 5).map(float)))
        coords[a] = coords[b] + draw(st.integers(1, 4)) * step
        coords[c] = coords[b] + draw(st.integers(-4, 4)) * step
    elif case == "equal sides":
        level = draw(CONFIDENCE_LEVELS.filter(bool))
        conf[list(primary) + list(mirror_triple(primary))] = level
    elif case == "2-D":
        coords[:, 2] = 0.0
    elif case == "missing side":
        conf[draw(st.sampled_from(side))] = 0.0
    return name, coords, conf, case


@settings(max_examples=300, deadline=None)
@given(st.lists(angle_rows(), min_size=1, max_size=6))
def test_chunk_angles_equal_scalar_angles(rows):
    """profile_cosines over a chunk of rows gives, through angle_of_cosine,
    the angles of joint_angle and of the side choice angle_for made with it
    before, bit for bit; angle_for on one row agrees."""
    profiles = builtin_profiles()
    coords = np.stack([r[1] for r in rows])
    conf = np.stack([r[2] for r in rows])
    cosines = profile_cosines(profiles, coords, conf)
    for i, (name, row_coords, row_conf, case) in enumerate(rows):
        profile = profiles[name]
        want = reference_angle_for(profile, RawSkeleton(row_coords, row_conf))
        if case == "2-D" and want is not None:  # joint_angle's 2-D path: z read as 0
            a, b, c = (row_coords[j][:2] for j in chosen_triple(profile, row_conf))
            assert joint_angle(a, b, c) == want
        for got in (angle_of_cosine(cosines[name][i]), angle_for(profile, row_coords, row_conf)):
            assert got == want if want is not None else got is None


def chosen_triple(profile, conf):
    primary, mirrored = profile.joint_triple, mirror_triple(profile.joint_triple)
    if not all(conf[j] > 0 for j in mirrored):
        return primary
    if not all(conf[j] > 0 for j in primary):
        return mirrored
    mean = [(conf[t[0]] + conf[t[1]] + conf[t[2]]) / 3.0 for t in (primary, mirrored)]
    return primary if mean[0] >= mean[1] else mirrored


def test_angle_cases_reach_their_edges():
    """The cases above hit what they are named for: a limb of exactly
    LIMB_EPSILON is a gap, one just above it is not, and a collinear
    triple is clamped to 0 or 180 degrees."""
    profile = builtin_profiles()["squat"]
    a, b, c = profile.joint_triple
    coords = np.zeros((NUM_JOINTS, 3))
    conf = np.zeros(NUM_JOINTS)
    conf[[a, b, c]] = 1.0
    coords[c] = (0.0, 5.0, 0.0)
    coords[a] = (LIMB_EPSILON, 0.0, 0.0)
    assert angle_for(profile, coords, conf) is None
    coords[a] = (np.nextafter(LIMB_EPSILON, 1.0), 0.0, 0.0)
    assert angle_for(profile, coords, conf) == 90.0
    coords[a], coords[c] = (1.0, 3.0, 2.0), (3.0, 9.0, 6.0)
    assert angle_for(profile, coords, conf) == 0.0
    coords[c] = (-3.0, -9.0, -6.0)
    assert angle_for(profile, coords, conf) == 180.0
