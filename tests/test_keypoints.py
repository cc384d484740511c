import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repcount.body25 import MID_HIP, NECK, NUM_JOINTS
from repcount.keypoints import (TORSO_EPSILON, ParseError, RawSkeleton, SchemaError,
                                SkeletonFrame, load_frames, read_ndjson,
                                load_session_csv, normalize_frame, normalize_skeleton,
                                parse_frame, serialize_frame, write_session_csv)


def make_skeleton(rng=None, confidence=1.0):
    rng = rng or np.random.default_rng(0)
    coords = np.zeros((NUM_JOINTS, 3))
    coords[:, :2] = rng.uniform(-50, 50, size=(NUM_JOINTS, 2))
    coords[NECK, :2] = (0.0, 60.0)
    coords[MID_HIP, :2] = (0.0, 0.0)
    conf = np.full(NUM_JOINTS, confidence)
    return RawSkeleton(coords=coords, confidence=conf)


def frame_doc(flat_2d):
    return json.dumps({"people": [{"pose_keypoints_2d": flat_2d}]})


class TestParseFrame:
    def test_one_person_all_joints(self):
        flat = [v for j in range(NUM_JOINTS) for v in (float(j), float(j) + 0.5, 0.9)]
        frame = parse_frame(frame_doc(flat), 0)
        assert len(frame.skeletons) == 1
        skel = frame.skeletons[0]
        assert skel.coords.shape == (NUM_JOINTS, 3)
        assert np.all(skel.confidence == 0.9)
        assert skel.coords[3, 0] == 3.0 and skel.coords[3, 1] == 3.5

    def test_empty_people(self):
        frame = parse_frame('{"people": []}', 4)
        assert frame.frame_index == 4
        assert frame.skeletons == ()

    def test_zero_confidence_joint_is_undetected(self):
        flat = [v for j in range(NUM_JOINTS) for v in (1.0, 2.0, 0.9)]
        flat[4 * 3 + 2] = 0.0
        frame = parse_frame(frame_doc(flat), 0)
        skel = frame.skeletons[0]
        assert not skel.detected[4]
        assert np.all(skel.coords[4] == 0.0)
        assert skel.detected[3] and skel.detected[5]

    def test_3d_layout(self):
        flat = [v for j in range(NUM_JOINTS) for v in (1.0, 2.0, 3.0, 0.8)]
        frame = parse_frame(json.dumps({"people": [{"pose_keypoints_3d": flat}]}), 0)
        assert frame.skeletons[0].coords[0, 2] == 3.0

    def test_malformed_json_names_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_frame('{"people": [', 0)
        assert exc.value.offset is not None

    def test_bad_stride(self):
        with pytest.raises(SchemaError, match="stride"):
            parse_frame(frame_doc([1.0, 2.0, 0.9, 1.0]), 0)

    def test_wrong_joint_count(self):
        flat = [1.0, 2.0, 0.9] * 10
        with pytest.raises(SchemaError, match="joints"):
            parse_frame(frame_doc(flat), 0)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        skel = make_skeleton(rng)
        frame = SkeletonFrame.of(7, (skel,))
        reparsed = parse_frame(serialize_frame(frame), 7)
        assert np.allclose(reparsed.skeletons[0].coords, skel.coords)
        assert np.allclose(reparsed.skeletons[0].confidence, skel.confidence)
        # serialize is a fixed point
        assert serialize_frame(reparsed) == serialize_frame(frame)


NON_FINITE = [("x", float("nan")), ("x", float("inf")), ("x", float("-inf")),
              ("confidence", float("nan")), ("confidence", float("inf"))]


@pytest.mark.parametrize("field,value", NON_FINITE)
def test_non_finite_frame_rejected(field, value):
    flat = [v for j in range(NUM_JOINTS) for v in (1.0, 2.0, 0.9)]
    flat[4 * 3 + (0 if field == "x" else 2)] = value
    with pytest.raises(SchemaError, match="finite"):
        parse_frame(frame_doc(flat), 0)


def test_negative_confidence_rejected_in_both_formats(tmp_path):
    flat = [v for j in range(NUM_JOINTS) for v in (1.0, 2.0, 0.9)]
    flat[4 * 3 + 2] = -0.5
    with pytest.raises(SchemaError, match=r"\[0, 1\]"):
        parse_frame(frame_doc(flat), 0)
    path = tmp_path / "session.csv"
    path.write_text("frame,person,joint,x,y,z,confidence\n0,0,4,1.0,2.0,0.0,-0.5\n")
    with pytest.raises(SchemaError, match=r"\[0, 1\]"):
        load_session_csv(path)


def test_negative_zero_confidence_is_undetected():
    flat = [v for j in range(NUM_JOINTS) for v in (1.0, 2.0, 0.9)]
    flat[4 * 3 + 2] = -0.0
    skel = parse_frame(frame_doc(flat), 0).skeletons[0]
    assert not skel.detected[4] and np.all(skel.coords[4] == 0.0)
    assert str(skel.confidence[4]) == "0.0"


@pytest.mark.parametrize("n", [0, 1, 3])
def test_frame_stacks_skeleton_arrays(n):
    rng = np.random.default_rng(n)
    skels = tuple(make_skeleton(rng, confidence=0.5 + 0.1 * i) for i in range(n))
    frame = SkeletonFrame.of(0, skels)
    assert frame.coords.shape == (n, NUM_JOINTS, 3)
    assert frame.confidence.shape == (n, NUM_JOINTS)
    for i, skel in enumerate(skels):
        assert np.array_equal(frame.coords[i], skel.coords)
        assert np.array_equal(frame.confidence[i], skel.confidence)
    with pytest.raises(ValueError):
        frame.confidence[...] = 0.0


@pytest.mark.parametrize("field,value", NON_FINITE)
def test_non_finite_csv_row_rejected(tmp_path, field, value):
    x, conf = (value, 0.9) if field == "x" else (1.0, value)
    path = tmp_path / "session.csv"
    path.write_text(f"frame,person,joint,x,y,z,confidence\n0,0,4,{x},2.0,0.0,{conf}\n")
    with pytest.raises(SchemaError, match="finite"):
        load_session_csv(path)


class TestNormalizeSkeleton:
    def test_identity_case(self):
        skel = make_skeleton()
        base = normalize_skeleton(skel)
        # feed the normalized output back in as a unit-torso skeleton
        coords = np.zeros((NUM_JOINTS, 3))
        coords[:, :2] = base.reshape(NUM_JOINTS, 2)
        again = normalize_skeleton(RawSkeleton(coords=coords, confidence=skel.confidence))
        assert np.max(np.abs(again - base)) < 1e-9

    def test_similarity_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            skel = make_skeleton(rng)
            base = normalize_skeleton(skel)
            s = rng.uniform(0.1, 10.0)
            t = rng.uniform(-100, 100, size=2)
            coords = skel.coords.copy()
            coords[:, :2] = s * coords[:, :2] + t
            moved = normalize_skeleton(RawSkeleton(coords=coords, confidence=skel.confidence))
            assert np.max(np.abs(moved - base)) < 1e-9

    def test_undetected_joint_imputed_zero(self):
        skel = make_skeleton()
        conf = skel.confidence.copy()
        conf[4] = 0.0
        fv = normalize_skeleton(RawSkeleton(coords=skel.coords, confidence=conf))
        assert fv[8] == 0.0 and fv[9] == 0.0

    def test_missing_midhip_rejected(self):
        skel = make_skeleton()
        conf = skel.confidence.copy()
        conf[MID_HIP] = 0.0
        assert normalize_skeleton(RawSkeleton(coords=skel.coords, confidence=conf)) is None

    def test_degenerate_torso_rejected(self):
        skel = make_skeleton()
        coords = skel.coords.copy()
        coords[NECK] = coords[MID_HIP]
        assert normalize_skeleton(RawSkeleton(coords=coords, confidence=skel.confidence)) is None

    def test_integer_coordinates(self):
        skel = make_skeleton()
        ints = np.round(skel.coords * 100).astype(np.int64)
        fv = normalize_skeleton(RawSkeleton(coords=ints, confidence=skel.confidence))
        expected = normalize_skeleton(RawSkeleton(coords=ints.astype(np.float64),
                                                  confidence=skel.confidence))
        assert fv.dtype == np.float64
        assert fv.tobytes() == expected.tobytes()

    def test_feature_shape_and_finite(self):
        fv = normalize_skeleton(make_skeleton())
        assert fv.shape == (2 * NUM_JOINTS,)
        assert np.all(np.isfinite(fv))


def per_skeleton_normalize(skel: RawSkeleton):
    """normalize_skeleton as it was written before normalize_frame existed."""
    if not (skel.detected[NECK] and skel.detected[MID_HIP]):
        return None
    xy = skel.coords[:, :2]
    origin = xy[MID_HIP]
    torso = float(np.linalg.norm(xy[NECK] - origin))
    if torso < TORSO_EPSILON:
        return None
    out = (xy - origin) / torso
    out = np.where(skel.detected[:, None], out, 0.0)
    return out.ravel()


@st.composite
def normalize_cases(draw):
    """A 0-8 person frame with gaps, some persons without a neck or mid-hip,
    and some with a torso at, just above or below TORSO_EPSILON."""
    n = draw(st.integers(0, 8))
    coords = draw(arrays(np.float64, (n, NUM_JOINTS, 3),
                         elements=st.floats(-1e4, 1e4, allow_nan=False)))
    conf = draw(arrays(np.float64, (n, NUM_JOINTS),
                       elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    for i in range(n):
        case = draw(st.sampled_from(["any", "torso detected", "no neck", "no mid-hip",
                                     "short torso", "torso at epsilon"]))
        if case == "torso detected":
            conf[i, [NECK, MID_HIP]] = 1.0
        elif case == "no neck":
            conf[i, NECK] = 0.0
        elif case == "no mid-hip":
            conf[i, MID_HIP] = 0.0
        elif case == "short torso":
            conf[i, [NECK, MID_HIP]] = 1.0
            length = TORSO_EPSILON * draw(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-6, 2.0]))
            heading = draw(st.floats(0.0, 2 * math.pi))
            coords[i, NECK, :2] = (coords[i, MID_HIP, :2]
                                   + length * np.array([math.cos(heading), math.sin(heading)]))
        elif case == "torso at epsilon":
            conf[i, [NECK, MID_HIP]] = 1.0
            coords[i, MID_HIP, :2] = 0.0
            coords[i, NECK, :2] = (0.0, TORSO_EPSILON)
    return coords, conf


@settings(max_examples=300, deadline=None)
@given(normalize_cases())
def test_normalize_frame_is_per_skeleton_normalize_bit_for_bit(case):
    coords, conf = case
    features, ok = normalize_frame(coords, conf)
    assert features.shape == (len(coords), 2 * NUM_JOINTS) and ok.shape == (len(coords),)
    for i in range(len(coords)):
        skel = RawSkeleton(coords=coords[i], confidence=conf[i])
        want = per_skeleton_normalize(skel)
        assert bool(ok[i]) == (want is not None)
        one_row = normalize_skeleton(skel)
        if want is None:
            assert one_row is None
        else:
            assert features[i].tobytes() == want.tobytes()
            assert one_row.tobytes() == want.tobytes()


def test_session_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    frames = [
        SkeletonFrame.of(i, (make_skeleton(rng),))
        for i in range(3)
    ]
    path = tmp_path / "session.csv"
    write_session_csv(path, frames)
    loaded = load_frames(path)
    assert len(loaded) == 3
    for orig, back in zip(frames, loaded):
        assert np.allclose(orig.skeletons[0].coords, back.skeletons[0].coords)


def test_frame_invariants():
    with pytest.raises(SchemaError):
        SkeletonFrame.of(-1, ())


@st.composite
def frame_arrays(draw):
    """Writable (S, 25, 3) coords and (S, 25) confidences of a valid 1-6
    person frame with gaps: undetected joints sit at the origin, and every
    person has a detected joint (a CSV has no row for one without)."""
    n = draw(st.integers(1, 6))
    coords = draw(arrays(np.float64, (n, NUM_JOINTS, 3),
                         elements=st.floats(-1e6, 1e6, allow_nan=False)))
    conf = draw(arrays(np.float64, (n, NUM_JOINTS),
                       elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    conf[~(conf > 0).any(axis=1), 0] = 1.0
    coords[conf == 0] = 0.0
    return coords, conf


def format_a(coords, conf):
    flat = np.concatenate([coords, conf[..., None]], axis=2).reshape(len(coords), -1)
    # json.dumps writes NaN and Infinity, which json.loads reads back
    return json.dumps({"people": [{"pose_keypoints_3d": row} for row in flat.tolist()]})


def format_b(path, coords, conf):
    """Every joint as a row, undetected ones included."""
    lines = ["frame,person,joint,x,y,z,confidence"]
    for p in range(len(coords)):
        for j in range(NUM_JOINTS):
            x, y, z = coords[p, j].tolist()
            lines.append(f"0,{p},{j},{x!r},{y!r},{z!r},{float(conf[p, j])!r}")
    path.write_text("\n".join(lines) + "\n")


BAD_VALUES = [("coords", float("nan")), ("coords", float("inf")), ("coords", float("-inf")),
              ("undetected coords", float("nan")), ("undetected coords", float("inf")),
              ("confidence", float("nan")), ("confidence", -0.5), ("confidence", 1.5)]


@settings(max_examples=100, deadline=None)
@given(frame_arrays(), st.data(), st.sampled_from(BAD_VALUES))
def test_bad_keypoint_rejected_by_every_entry(tmp_path_factory, keypoints, data, bad):
    coords, conf = keypoints
    p = data.draw(st.integers(0, len(coords) - 1))
    j = data.draw(st.integers(0, NUM_JOINTS - 1))
    field, value = bad
    if field == "coords":
        conf[p, j] = 0.5
        coords[p, j, data.draw(st.integers(0, 2))] = value
    elif field == "undetected coords":  # parsing zeroes these, after checking them
        conf[p, j] = 0.0
        coords[p, j, data.draw(st.integers(0, 2))] = value
    else:
        conf[p, j] = value
    with pytest.raises(SchemaError):
        parse_frame(format_a(coords, conf), 0)
    path = tmp_path_factory.getbasetemp() / "bad.csv"
    format_b(path, coords, conf)
    with pytest.raises(SchemaError):
        load_session_csv(path)
    with pytest.raises(SchemaError):
        SkeletonFrame.of(0, [RawSkeleton(coords=c, confidence=k) for c, k in zip(coords, conf)])


@settings(max_examples=100, deadline=None)
@given(frame_arrays())
def test_valid_frame_round_trips_bit_exactly(tmp_path_factory, keypoints):
    frame = SkeletonFrame(3, *keypoints)
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_session_csv(path, [frame])
    for back in (parse_frame(serialize_frame(frame), 3), *load_frames(path)):
        assert back.frame_index == 3
        assert back.coords.tobytes() == frame.coords.tobytes()
        assert back.confidence.tobytes() == frame.confidence.tobytes()


@settings(max_examples=50, deadline=None)
@given(frame_arrays())
def test_skeletons_are_read_only_row_views(keypoints):
    frame = SkeletonFrame(0, *keypoints)
    skeletons = frame.skeletons
    assert len(skeletons) == len(frame.coords)
    for i, skel in enumerate(skeletons):
        assert np.shares_memory(skel.coords, frame.coords[i])
        assert np.shares_memory(skel.confidence, frame.confidence[i])
        with pytest.raises(ValueError):
            skel.coords[0, 0] = 1.0
        with pytest.raises(ValueError):
            skel.confidence[0] = 1.0


@pytest.mark.parametrize("bad,error,message", [
    pytest.param('{"people": [}', ParseError, "malformed frame document at offset 12",
                 id="parse"),
    pytest.param('{"people": [{"pose_keypoints_2d": [1.0]}]}', SchemaError,
                 "person 0: keypoint array length 1", id="schema"),
])
def test_ndjson_error_names_its_line(bad, error, message):
    lines = ['{"people": []}', "", "   ", '{"people": []}', bad, '{"people": []}']
    with pytest.raises(error) as exc:
        read_ndjson(io.BytesIO("".join(line + "\n" for line in lines).encode()))
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"line 5: {message}")
    if error is ParseError:
        assert exc.value.offset == 12


def test_directory_error_names_its_file(tmp_path):
    (tmp_path / "000.json").write_text('{"people": []}')
    (tmp_path / "001.json").write_text('{"people": 3}')
    with pytest.raises(SchemaError, match=r'001\.json: "people" must be an array'):
        load_frames(tmp_path)
    (tmp_path / "001.json").write_text('{"people": [')
    with pytest.raises(ParseError, match=r"001\.json: malformed frame document") as exc:
        load_frames(tmp_path)
    assert exc.value.offset == 12
