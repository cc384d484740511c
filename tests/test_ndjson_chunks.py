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
from repcount.pipeline import SessionEngine
from repcount.synthetic import PersonMotion, SyntheticSessionSpec, generate_session

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
    "stride-3d": '{"people": [{"pose_keypoints_3d": [1.0, 2.0, 3.0]}]}',
    "joints-3d": '{"people": [{"pose_keypoints_3d": [1.0, 2.0, 3.0, 0.5]}]}',
    "string-3d": json.dumps({"people": [{"pose_keypoints_3d": ["1"] + [1.0] * 99}]}),
    "boolean-3d": json.dumps({"people": [{"pose_keypoints_3d": [True] + [1.0] * 99}]}),
    "null-3d": json.dumps({"people": [{"pose_keypoints_3d": [None] + [1.0] * 99}]}),
    "huge-integer-3d": json.dumps({"people": [{"pose_keypoints_3d": [10 ** 400] + [1.0] * 99}]}),
    "nan-3d": json.dumps({"people": [{"pose_keypoints_3d": [float("nan")] + [1.0] * 99}]}),
    "inf-undetected-3d": json.dumps({"people": [{"pose_keypoints_3d": [float("inf"), 1.0, 1.0, 0.0]
                                                 + [1.0] * 96}]}),
    "negative-confidence-3d": json.dumps({"people": [{"pose_keypoints_3d": [1.0] * 99 + [-0.5]}]}),
}
# good documents that a stream draws besides generated ones: 2-D and 3-D
# persons in one document, and a person with both layouts, whose 3-D one
# counts
GOOD_DOCUMENTS = [
    json.dumps({"people": [{"pose_keypoints_2d": [2.0, 3.0, 0.5] * 25},
                           {"pose_keypoints_3d": [4.0, 5.0, 6.0, 1.0] * 25}]}),
    json.dumps({"people": [{"pose_keypoints_2d": [2.0, 3.0, 0.5] * 25,
                            "pose_keypoints_3d": [4.0, 5.0, 6.0, 1.0] * 25}]}),
]
# whitespace that str.strip strips and bytes.strip does not
UNICODE_SPACES = ["\u3000", "\x85", "\x1c"]


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
    whitespace-only lines, padded documents, and 0-2 bad documents; the
    whitespace is ASCII or Unicode."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        doc = draw(st.one_of(
            st.builds(json.dumps, st.builds(dict, people=st.lists(persons(), max_size=4)),
                      separators=st.sampled_from([(",", ":"), (", ", ": ")])),
            st.sampled_from(GOOD_DOCUMENTS)))
        padding = (draw(st.sampled_from(["", " ", "\t", *UNICODE_SPACES])),
                   draw(st.sampled_from(["", "  ", *UNICODE_SPACES])))
        lines.append(padding[0] + doc + padding[1])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), BAD_DOCUMENTS[draw(st.sampled_from(
            sorted(BAD_DOCUMENTS)))])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", " \t ", *UNICODE_SPACES, " \u3000\t"])))
    return lines


def chunk_budget(chunk_frames, chunk_rows):
    """A patch of both chunk bounds, for a with block."""
    return mock.patch.multiple(keypoints, CHUNK_FRAMES=chunk_frames, CHUNK_ROWS=chunk_rows)


def greedy_chunk_sizes(sizes, chunk_frames, chunk_rows):
    """The frames per chunk of frames of the given row counts: a chunk takes
    the next frame unless it holds chunk_frames frames already, or the
    frame would take it past chunk_rows rows; an empty chunk takes any."""
    chunks = []
    rows = 0
    for size in sizes:
        if not chunks or chunks[-1] == chunk_frames or rows + size > chunk_rows:
            chunks.append(0)
            rows = 0
        chunks[-1] += 1
        rows += size
    return chunks


# CHUNK_ROWS values: none (each frame a chunk of its own), a few frames' rows
# or fewer than one frame's, and the default
CHUNK_ROWS_DRAWN = st.sampled_from([0, 1, 2, 3, 5, 8, 1024])


@settings(max_examples=200, deadline=None)
@given(streams(), st.integers(1, 9), CHUNK_ROWS_DRAWN, st.sampled_from(["\n", "\r\n", "\r"]))
def test_chunked_decoder_equals_per_document_decoder(lines, chunk_frames, chunk_rows, newline):
    want_frames, want_error = outcome(lambda: reference_iter_ndjson_frames(lines))
    data = "".join(line + newline for line in lines).encode("utf-8")
    with chunk_budget(chunk_frames, chunk_rows):
        got_chunks, got_error = outcome(lambda: read_ndjson(io.BytesIO(data)))
    got_frames = None if got_chunks is None else frames_of(got_chunks)
    assert got_error == want_error
    if want_error is None:
        assert_same_frames(got_frames, want_frames)
        assert [len(chunk.sizes) for chunk in got_chunks] == greedy_chunk_sizes(
            [len(frame.coords) for frame in want_frames], chunk_frames, chunk_rows)
    if want_error is None:  # parse_frame is the same decoder, one document at a time
        # JSON whitespace is the decoder's to skip, and other whitespace the stream's
        docs = [line.strip("".join(UNICODE_SPACES)) for line in lines if line.strip()]
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


# a good document of two persons, so that the row budget cuts chunks too
TWO_PERSONS = json.dumps({"people": [{"pose_keypoints_2d": [1.0] * 75}] * 2})


@pytest.mark.parametrize("chunk_frames,chunk_rows", [
    pytest.param(64, 1024, id="one-chunk"),
    pytest.param(5, 1024, id="across-a-boundary"),
    pytest.param(1, 1024, id="chunks-of-one"),
    pytest.param(64, 5, id="rows-across-a-boundary"),
    pytest.param(64, 1, id="rows-below-a-frame"),
])
@pytest.mark.parametrize("first,second", FIRST_BAD)
def test_first_bad_document_wins(chunk_frames, chunk_rows, first, second):
    lines = [TWO_PERSONS] * 9
    for number, kind in (first, second):
        lines[number - 1] = BAD_DOCUMENTS[kind]
    with chunk_budget(chunk_frames, chunk_rows):
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
    # rows left over, rows missing, a frame without a size, a size without a
    # frame, and negative sizes that add up to the rows
    for indices, sizes in (([0], [1]), ([0, 1], [2, 1]), ([0, 1], [2]), ([0], [1, 1]),
                           ([0, 1, 2], [2, -1, 1]), ([0, 1], [3, -1])):
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
@given(sessions(), st.integers(1, 9), CHUNK_ROWS_DRAWN)
def test_every_loader_makes_chunks_of_its_frames(frames, chunk_frames, chunk_rows):
    """NDJSON, directory and CSV input load as chunks at strictly
    increasing indices, cut by the greedy rule of CHUNK_FRAMES frames and
    CHUNK_ROWS rows, whose frames are load_frames' and, for format A, the
    per-document decoder's; SessionEngine.process_frames cuts the frames
    of every loader where the loader does."""
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
        with chunk_budget(chunk_frames, chunk_rows):
            for name in ("session.ndjson", "frames", "session.csv"):
                chunks = load_chunks(tmp / name)
                indices = [i for chunk in chunks for i in chunk.indices]
                assert all(a < b for a, b in zip(indices, indices[1:]))
                got = frames_of(chunks)
                assert [len(chunk.sizes) for chunk in chunks] == greedy_chunk_sizes(
                    [len(frame.coords) for frame in got], chunk_frames, chunk_rows)
                assert_same_frames(got, load_frames(tmp / name))
                assert cuts_of_process_frames(got) == indices_of(chunks)
                if name != "session.csv":
                    assert_same_frames(got, list(reference_iter_ndjson_frames(docs)))
                else:  # a frame without a detected joint has no row
                    assert indices == [f.frame_index for f in frames if f.confidence.any()]


def indices_of(chunks):
    return [list(chunk.indices) for chunk in chunks]


def cuts_of_process_frames(frames):
    """The frame indices of each chunk SessionEngine.process_frames makes."""
    engine, cuts = SessionEngine(), []
    process_chunk = engine.process_chunk

    def recording(chunk):
        cuts.append(list(chunk.indices))
        process_chunk(chunk)

    engine.process_chunk = recording
    engine.process_frames(frames)
    return cuts


def frames_of_sizes(sizes):
    """Frames 0, 1, ... of sizes[k] fully detected persons each."""
    rng = np.random.default_rng(len(sizes))
    return [SkeletonFrame(i, rng.uniform(0, 100, (n, NUM_JOINTS, 3)), np.ones((n, NUM_JOINTS)))
            for i, n in enumerate(sizes)]


def write_ndjson(path, frames):
    path.write_bytes(b"".join(serialize_frame(frame) + b"\n" for frame in frames))
    return path


def test_solo_stream_loads_in_chunks_of_chunk_frames(tmp_path):
    frames = frames_of_sizes([1] * 601)
    write_session_csv(tmp_path / "solo.csv", frames)
    for path in (write_ndjson(tmp_path / "solo.ndjson", frames), tmp_path / "solo.csv"):
        chunks = load_chunks(path)
        assert [len(chunk.sizes) for chunk in chunks] == [256, 256, 89]
        assert_same_frames(frames_of(chunks), frames)
        assert cuts_of_process_frames(frames) == indices_of(chunks)


def test_crowd_stream_loads_in_chunks_of_at_most_chunk_rows(tmp_path):
    frames = frames_of_sizes([16] * 150)
    path = write_ndjson(tmp_path / "crowd.ndjson", frames)
    chunks = load_chunks(path)
    assert [len(chunk.coords) for chunk in chunks] == [1024, 1024, 352]
    assert [len(chunk.sizes) for chunk in chunks] == [64, 64, 22]
    assert cuts_of_process_frames(frames) == indices_of(chunks)


def test_frame_wider_than_the_row_budget_is_a_chunk_of_its_own(tmp_path):
    frames = frames_of_sizes([2, 7, 1, 1, 6, 6, 3])
    ndjson = write_ndjson(tmp_path / "session.ndjson", frames)
    write_session_csv(tmp_path / "session.csv", frames)
    with chunk_budget(256, 5):
        for path in (ndjson, tmp_path / "session.csv"):
            chunks = load_chunks(path)
            assert [list(chunk.sizes) for chunk in chunks] == [[2], [7], [1, 1], [6], [6], [3]]
            assert_same_frames(frames_of(chunks), frames)
            assert cuts_of_process_frames(frames) == indices_of(chunks)


def brute_force_starts(sizes, chunk_frames, chunk_rows):
    """The first frame of each chunk, each chunk the longest run of the
    frames after the one before that holds at most chunk_frames frames and
    chunk_rows rows, or else the one frame that comes next."""
    starts, k = [], 0
    while k < len(sizes):
        starts.append(k)
        k = max(m for m in range(k + 1, len(sizes) + 1)
                if m == k + 1 or (m - k <= chunk_frames and sum(sizes[k:m]) <= chunk_rows))
    return starts


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0, 0, 1, 2, 3, 9]), max_size=40), st.integers(1, 9),
       CHUNK_ROWS_DRAWN)
def test_chunk_starts_is_the_greedy_rule(sizes, chunk_frames, chunk_rows):
    """chunk_starts cuts any row counts where the brute-force reference
    does, frames of 0 rows and frames wider than CHUNK_ROWS among them."""
    with chunk_budget(chunk_frames, chunk_rows):
        assert keypoints.chunk_starts(sizes) == brute_force_starts(sizes, chunk_frames,
                                                                    chunk_rows)


def document_2d(frame):
    """A frame as a format-A document in the 2-D layout; z is dropped."""
    people = [{"pose_keypoints_2d": np.column_stack([xyz[:, :2], c]).ravel().tolist()}
              for xyz, c in zip(frame.coords, frame.confidence)]
    return json.dumps({"people": people})


def openpose_document(frame):
    """A frame as OpenPose 1.3 and later write it: each person with all of
    its keypoint arrays, the 3-D ones empty; z is dropped."""
    people = json.loads(document_2d(frame))["people"]
    for person in people:
        person.update({"person_id": [-1], "face_keypoints_2d": [],
                       "hand_left_keypoints_2d": [], "hand_right_keypoints_2d": [],
                       "pose_keypoints_3d": [], "face_keypoints_3d": [],
                       "hand_left_keypoints_3d": [], "hand_right_keypoints_3d": []})
    return json.dumps({"version": 1.3, "people": people})


def flattened(frames):
    """The frames with z set to 0, as their 2-D documents hold them."""
    return [SkeletonFrame(f.frame_index, np.concatenate([f.coords[..., :2], np.zeros_like(
        f.coords[..., 2:])], axis=2), f.confidence.copy()) for f in frames]


def test_openpose_document_reads_its_2d_keypoints(tmp_path):
    frames = flattened(frames_of_sizes([2, 0, 1, 3]))
    docs = [openpose_document(frame) for frame in frames]
    assert_same_frames([parse_frame(doc, i) for i, doc in enumerate(docs)], frames)
    # a document that spells a boolean is read person by person, by the same rule
    spelled = [doc[:-1] + ', "tracked": true}' for doc in docs]
    assert_same_frames([parse_frame(doc, i) for i, doc in enumerate(spelled)], frames)
    path = tmp_path / "openpose.ndjson"
    path.write_text("".join(doc + "\n" for doc in docs))
    (tmp_path / "frames").mkdir()
    for i, doc in enumerate(docs):
        (tmp_path / "frames" / f"{i:03d}.json").write_text(doc)
    for session in (path, tmp_path / "frames"):
        assert_same_frames(load_frames(session), frames)


def test_a_non_empty_3d_array_wins_over_the_2d_one():
    frame = parse_frame(GOOD_DOCUMENTS[1], 0)
    assert frame.coords[0, 0].tolist() == [4.0, 5.0, 6.0]
    assert frame.confidence[0, 0] == 1.0


def test_an_empty_3d_array_without_a_2d_one_is_rejected():
    for doc in ('{"people": [{"pose_keypoints_3d": []}]}',
                '{"people": [{"pose_keypoints_3d": [], "face_keypoints_2d": []}]}'):
        with pytest.raises(SchemaError, match="^person 0: expected 25 joints, got 0$"):
            parse_frame(doc, 0)


def test_generated_sessions_never_take_the_per_person_path():
    """Generated sessions in the 3-D, 2-D and OpenPose layouts are packed a
    document at a time: _packed_keypoints, the per-person path, never runs."""
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("push-up", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("pull-up", 2, noise_sigma=5.0, gap_rate=0.05)),
        seed=3, shuffle_order=True))
    layouts = [([serialize_frame(frame).decode() for frame in frames], frames),
               ([document_2d(frame) for frame in frames], flattened(frames)),
               ([openpose_document(frame) for frame in frames], flattened(frames))]
    with mock.patch.object(keypoints, "_packed_keypoints",
                           wraps=keypoints._packed_keypoints) as per_person:
        for docs, want in layouts:
            got = frames_of(read_ndjson(io.BytesIO("\n".join(docs).encode())))
            assert per_person.call_count == 0
            assert_same_frames(got, want)
        with pytest.raises(SchemaError):  # the counter sees a document the bulk path refuses
            parse_frame(BAD_DOCUMENTS["string-3d"], 0)
        assert per_person.call_count == 1
