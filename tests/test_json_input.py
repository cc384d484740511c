"""The one JSON decoding rule of every input (repcount.jsoninput): orjson
decodes, and json.loads judges every document orjson rejects. Its fast path
against the json.loads path it replaced, deep nesting on each input, and the
format-A writer that the decoder reads back."""
import io
import json
import struct
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repcount import jsoninput
from repcount.body25 import NUM_JOINTS
from repcount.cli import EXIT_BAD_CONFIG, EXIT_BAD_INPUT, EXIT_BAD_MODEL, main
from repcount.keypoints import (ParseError, SchemaError, SkeletonFrame, _decode_chunk,
                                parse_frame, read_ndjson, serialize_frame)
from repcount.recognizer import MlpModel, RejectThresholds, load_model, save_model
from repcount.synthetic import PersonMotion, SyntheticSessionSpec, generate_session
from test_ndjson_chunks import BAD_DOCUMENTS, assert_same_frames, outcome

DEEP = "[" * 100_000


def stdlib_only():
    """A patch under which orjson rejects every document, so json.loads
    decodes all of them: the decoding of every input before orjson."""
    return mock.patch.object(orjson, "loads",
                             side_effect=orjson.JSONDecodeError("forced", "", 0))


def count_stdlib_calls():
    """A patch that counts the documents json.loads decodes."""
    return mock.patch.object(jsoninput.json, "loads", wraps=json.loads)


# JSON numerals of keypoint values that orjson accepts: shortest and 17-digit
# reprs of any finite double (subnormals and -0.0 among them), long mantissas,
# and integers beyond 2**64 that a double holds
COORDINATE_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.30e}"),
    st.integers(2 ** 64, 2 ** 1000).map(lambda v: str(v * (-1) ** (v % 2))),
    st.sampled_from(["-0.0", "-0", "5e-324", "2.2250738585072014e-308",
                     "2.225073858507201e-308", "1E+2", "0.1e-400"]),
)
CONFIDENCE_TEXTS = st.one_of(st.sampled_from(["0", "0.0", "-0.0", "1", "1.0", "5e-324"]),
                             st.floats(0.0, 1.0).map(repr))


@st.composite
def person_texts(draw):
    """One person in the 2-D or 3-D layout, written as JSON text."""
    stride = draw(st.sampled_from([3, 4]))
    values = []
    for _ in range(NUM_JOINTS):
        values += [draw(COORDINATE_TEXTS) for _ in range(stride - 1)]
        values.append(draw(CONFIDENCE_TEXTS))
    key = "pose_keypoints_2d" if stride == 3 else "pose_keypoints_3d"
    return f'{{"{key}": [{", ".join(values)}]}}'


@st.composite
def document_texts(draw):
    return f'{{"people": [{", ".join(draw(st.lists(person_texts(), max_size=3)))}]}}'


@settings(max_examples=150, deadline=None)
@given(st.lists(document_texts(), min_size=1, max_size=4))
def test_valid_documents_decode_bit_identically_on_both_paths(docs):
    with count_stdlib_calls() as stdlib:
        fast = outcome(lambda: _decode_chunk(docs, 3).frames)
    assert stdlib.call_count == 0
    with stdlib_only():
        slow = outcome(lambda: _decode_chunk(docs, 3).frames)
    assert fast[1] is None and slow[1] is None
    assert_same_frames(fast[0], slow[0])


BAD_TEXTS = {
    **BAD_DOCUMENTS,
    "nan-literal": '{"people": [{"pose_keypoints_2d": [NaN' + ", 1.0" * 74 + "]}]}",
    "infinity-literal": '{"people": [{"pose_keypoints_2d": [-Infinity' + ", 1.0" * 74 + "]}]}",
    "beyond-double": '{"people": [{"pose_keypoints_2d": [1e400' + ", 1.0" * 74 + "]}]}",
    "lone-surrogate": '{"people": [{"pose_keypoints_2d": ["\\ud800"' + ", 1.0" * 74 + "]}]}",
    "lone-surrogate-key": '{"people": [{"pose_keypoints_2d": [], "\\udc00": 1}]}',
    "document-nan": "NaN",
    "deep-nesting": DEEP,
    "deep-nesting-in-person": '{"people": [' + DEEP,
    "trailing-comma": '{"people": [],}',
    "bom": '﻿{"people": []}',
    "control-character": '{"people": [], "a\tb": 1}',
    "extra-data": '{"people": []} {}',
}


@pytest.mark.parametrize("doc", BAD_TEXTS.values(), ids=BAD_TEXTS.keys())
def test_bad_documents_fail_alike_on_both_paths(doc):
    fast = outcome(lambda: _decode_chunk([doc], 0).frames)
    with stdlib_only():
        slow = outcome(lambda: _decode_chunk([doc], 0).frames)
    assert fast[1] is not None
    assert fast[1] == slow[1]


# documents orjson rejects and json.loads accepts, with the extension in a
# field no check reads
STDLIB_ONLY_TEXTS = {
    "lone-surrogate": '{"people": [], "name": "\\ud800"}',
    "nan-literal": '{"people": [], "score": NaN}',
    "beyond-double": '{"people": [], "id": 1' + "0" * 400 + "}",
}


@pytest.mark.parametrize("doc", STDLIB_ONLY_TEXTS.values(), ids=STDLIB_ONLY_TEXTS.keys())
def test_documents_only_the_stdlib_accepts_decode_alike(doc):
    with count_stdlib_calls() as stdlib:
        fast = outcome(lambda: _decode_chunk([doc], 0).frames)
    assert stdlib.call_count == 1
    with stdlib_only():
        slow = outcome(lambda: _decode_chunk([doc], 0).frames)
    assert fast[1] is None and slow[1] is None
    assert_same_frames(fast[0], slow[0])


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="offset 0: nested too deeply") as exc:
        parse_frame(DEEP, 0)
    assert exc.value.offset == 0


def test_a_generated_session_never_takes_the_stdlib_path():
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("push-up", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("pull-up", 2, noise_sigma=5.0, gap_rate=0.05)),
        seed=3, shuffle_order=True))
    data = b"".join(serialize_frame(frame) + b"\n" for frame in frames)
    with count_stdlib_calls() as stdlib:
        chunks = read_ndjson(io.BytesIO(data))
        assert stdlib.call_count == 0
        assert sum(len(chunk.indices) for chunk in chunks) == len(frames)
        with pytest.raises(SchemaError):  # the counter sees a document orjson rejects
            parse_frame(BAD_TEXTS["nan-literal"], 0)
        assert stdlib.call_count == 1


def test_deeply_nested_ndjson_line_exits_2(tmp_path, capsys):
    session = tmp_path / "session.ndjson"
    session.write_text('{"people": []}\n' + DEEP + "\n")
    assert main(["analyze", str(session)]) == EXIT_BAD_INPUT
    assert "line 2: malformed frame document at offset 0: nested too deeply" \
        in capsys.readouterr().err


def test_deeply_nested_frame_file_exits_2(tmp_path, capsys):
    (tmp_path / "000.json").write_text('{"people": []}')
    (tmp_path / "001.json").write_text(DEEP)
    assert main(["analyze", str(tmp_path)]) == EXIT_BAD_INPUT
    assert f"{tmp_path / '001.json'}: malformed frame document" in capsys.readouterr().err


# the input does not exist: model and profiles are rejected before it is read
def test_deeply_nested_model_exits_3(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(DEEP)
    assert main(["analyze", str(tmp_path / "none.ndjson"), "--model", str(model)]) \
        == EXIT_BAD_MODEL
    assert f"unreadable model file {model}: nested too deeply" in capsys.readouterr().err


def test_deeply_nested_profiles_exit_4(tmp_path, capsys):
    profiles = tmp_path / "profiles.json"
    profiles.write_text("[" + DEEP)
    assert main(["analyze", str(tmp_path / "none.ndjson"), "--profiles", str(profiles)]) \
        == EXIT_BAD_CONFIG
    assert "invalid profile config: nested too deeply" in capsys.readouterr().err


def _bits(model, thresholds):
    return ([w.tobytes() for w in model.weights], [b.tobytes() for b in model.biases],
            model.layer_dims, model.class_names,
            {name: struct.pack("2d", *bounds) for name, bounds in thresholds.bounds.items()})


def test_loaded_model_is_bit_equal_to_the_stdlib_decoded_one(tmp_path, trained_model):
    model, thresholds, _ = trained_model
    rng = np.random.default_rng(5)
    weights = [w.copy() for w in model.weights]
    # values whose decoding is easy to get wrong, in the first row
    awkward = [5e-324, -0.0, 2.2250738585072014e-308, 0.1 + 0.2, 1e300, -1.7976931348623157e308]
    weights[0][0, :len(awkward)] = awkward
    weights[0][1] = rng.standard_normal(weights[0].shape[1]) * 10.0 ** rng.integers(-300, 300)
    model = MlpModel(model.layer_dims, weights, model.biases, model.class_names)
    thresholds = RejectThresholds({name: (lo, 1.0) for name, (lo, _) in thresholds.bounds.items()})
    path = tmp_path / "model.json"
    save_model(path, model, thresholds)
    with count_stdlib_calls() as stdlib:
        fast = _bits(*load_model(path))
    assert stdlib.call_count == 0
    with stdlib_only():
        slow = _bits(*load_model(path))
    assert fast == slow == _bits(model, thresholds)


@st.composite
def frames(draw):
    """A frame of 0-3 persons whose undetected joints are zeroed, as a
    decoded frame's are."""
    n = draw(st.integers(0, 3))
    coords = draw(arrays(np.float64, (n, NUM_JOINTS, 3),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    confidence = draw(arrays(np.float64, (n, NUM_JOINTS),
                             elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    coords[confidence == 0] = 0.0
    confidence[confidence == 0] = 0.0  # -0.0 decodes as 0.0
    return SkeletonFrame(draw(st.integers(0, 10 ** 6)), coords, confidence)


@settings(max_examples=150, deadline=None)
@given(frames())
def test_serialized_frames_round_trip(frame):
    data = serialize_frame(frame)
    assert_same_frames([parse_frame(data, frame.frame_index)], [frame])
    # the bytes of the layout written before empty frames were supported
    people = [{"pose_keypoints_3d": [v for joint in zip(coords.tolist(), confidence.tolist())
                                     for v in (*joint[0], joint[1])]}
              for coords, confidence in zip(frame.coords, frame.confidence)]
    assert data == json.dumps({"people": people}, separators=(",", ":"),
                              sort_keys=True).encode("utf-8")


def test_empty_frame_serializes_to_no_people():
    frame = SkeletonFrame.of(0, [])
    assert serialize_frame(frame) == b'{"people":[]}'
