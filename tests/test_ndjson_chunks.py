"""The chunked format-A decoder against the per-document decoder it replaced,
the one frame rule that a FrameChunk applies to all its frames, and the
chunks every loader makes."""
import io
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repcount import keypoints
from repcount.body25 import NUM_JOINTS
from repcount.keypoints import (FrameChunk, ParseError, SchemaError, SkeletonFrame,
                                load_chunks, load_frames, parse_frame,
                                read_ndjson, serialize_frame, write_session_csv)

_PACKERS = {stride: struct.Struct(f"{NUM_JOINTS * stride}d") for stride in (3, 4)}


def _reference_keypoint_rows(person, person_idx, spells_boolean):
    """_keypoint_rows as it was before chunked decoding, verbatim."""
    if not isinstance(person, dict):
        raise SchemaError(f"person {person_idx}: must be an object")
    if "pose_keypoints_3d" in person:
        values, stride = person["pose_keypoints_3d"], 4
    elif "pose_keypoints_2d" in person:
        values, stride = person["pose_keypoints_2d"], 3
    else:
        raise SchemaError(f"person {person_idx}: no pose_keypoints_2d or pose_keypoints_3d field")
    if not isinstance(values, list):
        raise SchemaError(f"person {person_idx}: keypoints must be an array")
    if len(values) % stride != 0:
        raise SchemaError(
            f"person {person_idx}: keypoint array length {len(values)} "
            f"is not a multiple of the per-joint stride {stride}"
        )
    n = len(values) // stride
    if n != NUM_JOINTS:
        raise SchemaError(f"person {person_idx}: expected {NUM_JOINTS} joints, got {n}")
    try:
        if not (spells_boolean and any(type(v) is bool for v in values)):
            packed = _PACKERS[stride].pack(*values)
            return np.frombuffer(packed).reshape(NUM_JOINTS, stride)
    except struct.error:
        pass
    raise SchemaError(f"person {person_idx}: keypoint values must be numbers")


def reference_parse_frame(data, frame_index):
    """parse_frame as it was before chunked decoding, verbatim."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed frame document at offset {exc.pos}: {exc.msg}", offset=exc.pos) from exc
    if not isinstance(doc, dict) or "people" not in doc:
        raise SchemaError('frame document must be an object with a "people" array')
    people = doc["people"]
    if not isinstance(people, list):
        raise SchemaError('"people" must be an array')
    coords = np.zeros((len(people), NUM_JOINTS, 3))
    confidence = np.empty((len(people), NUM_JOINTS))
    spells_boolean = ("u" in data and "true" in data) or ("a" in data and "false" in data)
    for i, person in enumerate(people):
        rows = _reference_keypoint_rows(person, i, spells_boolean)
        coords[i, :, : rows.shape[1] - 1] = rows[:, :-1]
        confidence[i] = rows[:, -1]
    if not np.isfinite(coords).all():
        raise SchemaError("coordinates must be finite and confidence values must lie in [0, 1]")
    undetected = confidence == 0
    coords[undetected] = 0.0
    confidence[undetected] = 0.0  # -0.0 becomes 0.0
    return SkeletonFrame(frame_index, coords, confidence)


def reference_iter_ndjson_frames(lines):
    """The frames of an NDJSON stream as they were read before chunked
    decoding: one document at a time, through reference_parse_frame."""
    index = 0
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            frame = reference_parse_frame(line, index)
        except (ParseError, SchemaError) as exc:
            if isinstance(exc, ParseError):
                raise ParseError(f"line {number}: {exc}", offset=exc.offset) from exc
            raise SchemaError(f"line {number}: {exc}") from exc
        yield frame
        index += 1


def frames_of(chunks):
    return [frame for chunk in chunks for frame in chunk.frames]


def outcome(load):
    """(frames, None) or (None, (error type, message, offset))."""
    try:
        return list(load()), None
    except (ParseError, SchemaError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "offset", None))


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.frame_index) is int and g.frame_index == w.frame_index
        assert g.coords.tobytes() == w.coords.tobytes()
        assert g.confidence.tobytes() == w.confidence.tobytes()
        for a in (g.coords, g.confidence):
            assert not a.flags.writeable
            assert a.base is None or not a.base.flags.writeable


COORDINATES = st.floats(-1e4, 1e4, allow_nan=False)
CONFIDENCES = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
# one bad document each, as (kind, JSON text); the line it lands on is drawn
BAD_DOCUMENTS = {
    "malformed": '{"people": [}',
    "no-people": '{"persons": []}',
    "people-not-array": '{"people": 3}',
    "person-not-object": '{"people": [1]}',
    "stride": '{"people": [{"pose_keypoints_2d": [1.0, 2.0]}]}',
    "joints": '{"people": [{"pose_keypoints_2d": [1.0, 2.0, 0.5]}]}',
    "string": json.dumps({"people": [{"pose_keypoints_2d": ["1"] + [1.0] * 74}]}),
    "boolean": json.dumps({"people": [{"pose_keypoints_2d": [True] + [1.0] * 74}]}),
    "null": json.dumps({"people": [{"pose_keypoints_2d": [None] + [1.0] * 74}]}),
    "huge-integer": json.dumps({"people": [{"pose_keypoints_2d": [10 ** 400] + [1.0] * 74}]}),
    "nan": json.dumps({"people": [{"pose_keypoints_2d": [float("nan")] + [1.0] * 74}]}),
    "inf-undetected": json.dumps({"people": [{"pose_keypoints_2d": [float("inf"), 1.0, 0.0]
                                              + [1.0] * 72}]}),
    "negative-confidence": json.dumps({"people": [{"pose_keypoints_2d": [1.0] * 74 + [-0.5]}]}),
    "confidence-above-1": json.dumps({"people": [{"pose_keypoints_3d": [1.0] * 99 + [1.5]}]}),
}


@st.composite
def persons(draw):
    """One person in the 2-D or 3-D layout, with undetected joints that keep
    nonzero coordinates, -0.0 confidences and some values as JSON integers."""
    stride = draw(st.sampled_from([3, 4]))
    values = draw(arrays(np.float64, (NUM_JOINTS, stride), elements=COORDINATES))
    values[:, -1] = draw(arrays(np.float64, NUM_JOINTS, elements=CONFIDENCES))
    values = values.ravel().tolist()
    for k in draw(st.lists(st.integers(0, len(values) - 1), max_size=4)):
        values[k] = int(values[k])
    return {"pose_keypoints_2d" if stride == 3 else "pose_keypoints_3d": values}


@st.composite
def streams(draw):
    """The lines of a format-A stream: 0-4 persons per frame, blank and
    whitespace-only lines, padded documents, and 0-2 bad documents."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        doc = json.dumps({"people": draw(st.lists(persons(), max_size=4))},
                         separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
        padding = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", "  "]))
        lines.append(padding[0] + doc + padding[1])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), BAD_DOCUMENTS[draw(st.sampled_from(
            sorted(BAD_DOCUMENTS)))])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   ", " \t "])))
    return lines


@settings(max_examples=200, deadline=None)
@given(streams(), st.integers(1, 9), st.sampled_from(["\n", "\r\n", "\r"]))
def test_chunked_decoder_equals_per_document_decoder(lines, chunk_frames, newline):
    want_frames, want_error = outcome(lambda: reference_iter_ndjson_frames(lines))
    data = "".join(line + newline for line in lines).encode("utf-8")
    with mock.patch.object(keypoints, "CHUNK_FRAMES", chunk_frames):
        got_frames, got_error = outcome(lambda: frames_of(read_ndjson(io.BytesIO(data))))
    assert got_error == want_error
    if want_error is None:
        assert_same_frames(got_frames, want_frames)
    if want_error is None:  # parse_frame is the same decoder, one document at a time
        docs = [line for line in lines if line.strip()]
        assert_same_frames([parse_frame(doc, i) for i, doc in enumerate(docs)], want_frames)


def per_document_error(doc: str, place: str):
    """The error parse_frame gives doc, prefixed with its place."""
    with pytest.raises((ParseError, SchemaError)) as exc:
        parse_frame(doc, 0)
    return type(exc.value), f"{place}: {exc.value}", getattr(exc.value, "offset", None)


FIRST_BAD = [  # (line, kind) of two bad documents; the first one wins
    pytest.param((3, "nan"), (7, "malformed"), id="non-finite-then-malformed"),
    pytest.param((2, "negative-confidence"), (4, "people-not-array"),
                 id="negative-confidence-then-schema"),
    pytest.param((3, "confidence-above-1"), (5, "string"), id="range-then-type"),
    pytest.param((3, "malformed"), (7, "nan"), id="malformed-then-non-finite"),
    pytest.param((2, "inf-undetected"), (3, "joints"), id="undetected-non-finite-then-schema"),
]


@pytest.mark.parametrize("chunk_frames", [64, 5, 1],
                         ids=["one-chunk", "across-a-boundary", "chunks-of-one"])
@pytest.mark.parametrize("first,second", FIRST_BAD)
def test_first_bad_document_wins(chunk_frames, first, second):
    lines = ['{"people": []}'] * 9
    for number, kind in (first, second):
        lines[number - 1] = BAD_DOCUMENTS[kind]
    with mock.patch.object(keypoints, "CHUNK_FRAMES", chunk_frames):
        _, got = outcome(lambda: read_ndjson(io.BytesIO("\n".join(lines).encode())))
    assert got == per_document_error(BAD_DOCUMENTS[first[1]], f"line {first[0]}")


@pytest.mark.parametrize("first,second", FIRST_BAD)
def test_first_bad_file_wins(tmp_path, first, second):
    for i in range(9):
        (tmp_path / f"{i:03d}.json").write_text('{"people": []}')
    for number, kind in (first, second):
        (tmp_path / f"{number - 1:03d}.json").write_text(BAD_DOCUMENTS[kind])
    with mock.patch.object(keypoints, "CHUNK_FRAMES", 5):
        _, got = outcome(lambda: load_frames(tmp_path))
    path = tmp_path / f"{first[0] - 1:03d}.json"
    assert got == per_document_error(BAD_DOCUMENTS[first[1]], str(path))


def test_bad_file_before_an_unreadable_one_wins(tmp_path):
    (tmp_path / "000.json").write_text(BAD_DOCUMENTS["nan"])
    (tmp_path / "001.json").mkdir()  # reading it raises IsADirectoryError
    with pytest.raises(SchemaError, match="000.json: coordinates must be finite"):
        load_frames(tmp_path)
    (tmp_path / "000.json").write_text('{"people": []}')
    with pytest.raises(IsADirectoryError):
        load_frames(tmp_path)


def test_directory_frames_equal_stream_frames(tmp_path):
    rng = np.random.default_rng(4)
    lines = []
    for i in range(11):
        flat = rng.uniform(0, 100, (i % 4, NUM_JOINTS, 4))
        flat[..., 3] = rng.choice([0.0, 0.5, 1.0], (i % 4, NUM_JOINTS))
        lines.append(json.dumps({"people": [{"pose_keypoints_3d": p.ravel().tolist()}
                                            for p in flat]}))
        (tmp_path / f"{i:03d}.json").write_text(lines[-1])
    with mock.patch.object(keypoints, "CHUNK_FRAMES", 4):
        got = load_frames(tmp_path)
    assert_same_frames(got, list(reference_iter_ndjson_frames(lines)))


NOT_UTF8 = b'{"people": [\xff]}'


def test_ndjson_line_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "session.ndjson"
    path.write_bytes(b'{"people": []}\n\n' + NOT_UTF8 + b"\n")
    with pytest.raises(ParseError) as exc:
        load_frames(path)
    assert str(exc.value) == "line 3: not UTF-8 at byte 12: invalid start byte"
    assert exc.value.offset == 12


def test_not_utf8_line_is_reported_in_line_order():
    """A bad byte after a bad document in the same chunk: the document wins."""
    lines = [b'{"people": []}', BAD_DOCUMENTS["nan"].encode(), NOT_UTF8]
    with pytest.raises(SchemaError, match="^line 2: coordinates must be finite"):
        read_ndjson(io.BytesIO(b"\n".join(lines)))
    with pytest.raises(ParseError, match="^line 2: not UTF-8 at byte 12"):
        read_ndjson(io.BytesIO(b"\n".join(lines[::2])))


def test_directory_file_that_is_not_utf8_is_named(tmp_path):
    (tmp_path / "000.json").write_text('{"people": []}')
    (tmp_path / "001.json").write_bytes(NOT_UTF8)
    with pytest.raises(ParseError) as exc:
        load_frames(tmp_path)
    assert str(exc.value) == f"{tmp_path / '001.json'}: not UTF-8 at byte 12: invalid start byte"
    assert exc.value.offset == 12


@pytest.mark.parametrize("text,line", [
    pytest.param(b"frame,person,joint,x,y,z,confidence\n0,0,1,1.0,2.0,0.0,\xff\n", 2, id="row"),
    pytest.param(b"frame,person,\xffjoint,x,y,z,confidence\n", 1, id="header"),
    pytest.param(b"frame,person,joint,x,y,z,confidence\r\n\r\n0,0,1,1.0,2.0,0.0,0.5\r0,\xe9\n",
                 4, id="crlf-and-cr"),
])
def test_session_csv_that_is_not_utf8_names_line_and_byte(tmp_path, text, line):
    path = tmp_path / "session.csv"
    path.write_bytes(text)
    byte = next(i for i, b in enumerate(text) if b >= 0x80)
    with pytest.raises(ParseError) as exc:
        load_frames(path)
    assert str(exc.value).startswith(f"line {line}: not UTF-8 at byte {byte}: ")
    assert exc.value.offset == byte


BAD_VALUES = [float("nan"), float("inf"), -0.5, 1.5]


@st.composite
def split_cases(draw):
    """Frame indices, sizes and an array pair for a FrameChunk, with a
    negative index or bad values in some rows."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    n = sum(sizes)
    coords = draw(arrays(np.float64, (n, NUM_JOINTS, 3), elements=st.floats(-1e3, 1e3)))
    conf = draw(arrays(np.float64, (n, NUM_JOINTS), elements=st.floats(0.0, 1.0)))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        row, joint = draw(st.integers(0, n - 1)), draw(st.integers(0, NUM_JOINTS - 1))
        value = draw(st.sampled_from(BAD_VALUES))
        if draw(st.booleans()):
            coords[row, joint, draw(st.integers(0, 2))] = value
        else:
            conf[row, joint] = value
    first = draw(st.sampled_from([0, 0, 5, -1]))
    indices = list(range(first, first + len(sizes)))
    return indices, sizes, coords, conf


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_split_rejects_exactly_when_a_frame_would(case):
    indices, sizes, coords, conf = case
    starts = np.cumsum([0] + sizes).tolist()
    want, errors = [], []
    for index, a, b in zip(indices, starts, starts[1:]):
        try:
            want.append(SkeletonFrame(index, coords[a:b].copy(), conf[a:b].copy()))
        except SchemaError as exc:
            errors.append(str(exc))
    try:
        chunk = FrameChunk(indices, sizes, coords, conf)
    except SchemaError as exc:
        assert str(exc) in errors
        assert coords.flags.writeable and conf.flags.writeable  # left as they were
        return
    assert not errors
    assert_same_frames(chunk.frames, want)
    assert chunk.frames is chunk.frames  # built once
    for frame in chunk.frames:
        assert frame.coords.base is coords and frame.confidence.base is conf


def test_split_sizes_must_cover_the_rows():
    # rows left over, rows missing, a frame without a size, a size without a frame
    for indices, sizes in ([0], [1]), ([0, 1], [2, 1]), ([0, 1], [2]), ([0], [1, 1]):
        with pytest.raises(SchemaError, match="one size per frame, and the sizes add up to its rows"):
            FrameChunk(indices, sizes, np.zeros((2, NUM_JOINTS, 3)), np.zeros((2, NUM_JOINTS)))


@st.composite
def sessions(draw):
    """Frames of 0-3 persons, at increasing frame indices with gaps; some
    joints and some whole skeletons undetected."""
    frames, index = [], -1
    for _ in range(draw(st.integers(0, 30))):
        index += draw(st.sampled_from([1, 1, 1, 2, 7]))
        n = draw(st.integers(0, 3))
        coords = draw(arrays(np.float64, (n, NUM_JOINTS, 3), elements=COORDINATES))
        conf = draw(arrays(np.float64, (n, NUM_JOINTS), elements=st.sampled_from([0.0, 0.5, 1.0])))
        coords[conf == 0] = 0.0
        frames.append(SkeletonFrame(index, coords, conf))
    return frames


@settings(max_examples=100, deadline=None)
@given(sessions(), st.integers(1, 9))
def test_every_loader_makes_chunks_of_its_frames(frames, chunk_frames):
    """NDJSON, directory and CSV input load as chunks of at most
    CHUNK_FRAMES frames at strictly increasing indices, whose frames are
    load_frames' and, for format A, the per-document decoder's."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # serialize_frame fails on a frame without a person
        docs = [serialize_frame(frame).decode() if len(frame.coords) else '{"people": []}'
                for frame in frames]
        (tmp / "session.ndjson").write_text("".join(doc + "\n" for doc in docs))
        (tmp / "frames").mkdir()
        for i, doc in enumerate(docs):
            (tmp / "frames" / f"{i:03d}.json").write_text(doc)
        write_session_csv(tmp / "session.csv", frames)
        with mock.patch.object(keypoints, "CHUNK_FRAMES", chunk_frames):
            for name in ("session.ndjson", "frames", "session.csv"):
                chunks = load_chunks(tmp / name)
                indices = [i for chunk in chunks for i in chunk.indices]
                assert all(0 < len(chunk.indices) <= chunk_frames for chunk in chunks)
                assert all(a < b for a, b in zip(indices, indices[1:]))
                got = frames_of(chunks)
                assert_same_frames(got, load_frames(tmp / name))
                if name != "session.csv":
                    assert_same_frames(got, list(reference_iter_ndjson_frames(docs)))
                else:  # a frame without a detected joint has no row
                    assert indices == [f.frame_index for f in frames if f.confidence.any()]
