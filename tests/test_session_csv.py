"""The chunked format-B loader against the row-by-row loader it replaced."""
import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import keypoints
from repcount.body25 import NUM_JOINTS
from repcount.keypoints import SchemaError, SkeletonFrame, load_session_csv, write_session_csv

COLUMNS = ("frame", "person", "joint", "x", "y", "z", "confidence")


def reference_load_session_csv(path):
    """The csv.DictReader loader that load_session_csv replaced, verbatim."""
    by_frame: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"frame", "person", "joint", "x", "y", "z", "confidence"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SchemaError(f"session CSV must have columns {sorted(required)}")
        for row in reader:
            try:  # a missing column reads as None
                f, p, j = int(row["frame"]), int(row["person"]), int(row["joint"])
                xyz = (float(row["x"]), float(row["y"]), float(row["z"]))
                c = float(row["confidence"])
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"line {reader.line_num}: malformed row: {exc}") from exc
            if not 0 <= j < NUM_JOINTS:
                raise SchemaError(f"joint index {j} out of range")
            persons = by_frame.setdefault(f, {})
            if p not in persons:
                persons[p] = (np.zeros((NUM_JOINTS, 3)), np.zeros(NUM_JOINTS))
            coords, conf = persons[p]
            coords[j] = xyz
            conf[j] = c
    frames = []
    for f in sorted(by_frame):
        persons = [by_frame[f][p] for p in sorted(by_frame[f])]
        frames.append(SkeletonFrame(f, np.stack([coords for coords, _ in persons]),
                                    np.stack([conf for _, conf in persons])))
    return frames


def load_csv_frames(path):
    """The frames of load_session_csv's chunks."""
    return [frame for chunk in load_session_csv(path) for frame in chunk.frames]


def outcome(load, path):
    """(frames, None) or (None, (error type, message))."""
    try:
        return load(path), None
    except Exception as exc:  # noqa: BLE001  (the type is what is compared)
        return None, (type(exc), str(exc))


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.frame_index) is int and g.frame_index == w.frame_index
        assert g.coords.tobytes() == w.coords.tobytes()
        assert g.confidence.tobytes() == w.confidence.tobytes()


NUMBERS = st.floats(-1e4, 1e4, allow_nan=False, width=64)
CONFIDENCES = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
# one bad row each; the line it lands on is drawn
BAD_ROWS = {
    "frame-not-integer": {"frame": "1.5"},
    "value-not-number": {"y": "abc"},
    "joint-out-of-range": {"joint": "25"},
    "joint-negative": {"joint": "-1"},
    "nan": {"x": "nan"},
    "negative-confidence": {"confidence": "-0.5"},
    "negative-frame": {"frame": "-3"},
    "short-row": None,  # the row ends before a required column
}


@st.composite
def sessions(draw):
    """The lines of a format-B session with gaps, absent persons, duplicate
    rows, shuffled order, permuted and extra columns, quoted and padded
    numbers and blank lines; and the file line of its one bad row, if any."""
    frames = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True))
    rows = []
    for f in frames:  # persons present only in some frames, joints with gaps
        for p in draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)):
            for j in draw(st.sets(st.integers(0, NUM_JOINTS - 1), min_size=1, max_size=4)):
                rows.append({"frame": f, "person": p, "joint": j, "x": draw(NUMBERS),
                             "y": draw(NUMBERS), "z": draw(NUMBERS),
                             "confidence": draw(CONFIDENCES)})
    # a repeated (frame, person, joint) with other values: the last one counts
    for row in draw(st.lists(st.sampled_from(rows), max_size=4)):
        rows.append({**row, "x": draw(NUMBERS), "confidence": draw(CONFIDENCES)})
    rows = draw(st.permutations(rows))

    header = list(COLUMNS) + draw(st.lists(st.sampled_from(["note", "camera", "t"]),
                                           max_size=2, unique=True))
    header = draw(st.permutations(header))

    def field(row, name):
        value = row.get(name, "extra")
        text = value if isinstance(value, str) else repr(value)
        style = draw(st.sampled_from(["plain", "plain", "quoted", "padded"]))
        return {"plain": text, "quoted": f'"{text}"', "padded": f" {text} "}[style]

    lines = [",".join(field(row, name) for name in header) for row in rows]
    bad_line = None
    kind = draw(st.one_of(st.none(), st.sampled_from(sorted(BAD_ROWS))))
    if kind is not None:
        at = draw(st.integers(0, len(lines)))
        base = draw(st.sampled_from(rows))
        if kind == "short-row":
            last = max(header.index(name) for name in COLUMNS)
            bad = ",".join(field(base, name) for name in header[:last])
        else:
            bad = ",".join(field({**base, **BAD_ROWS[kind]}, name) for name in header)
        lines.insert(at, bad)
        bad_line = at
    for _ in range(draw(st.integers(0, 3))):  # blank lines anywhere after the header
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, "")
        if bad_line is not None and at <= bad_line:
            bad_line += 1
    text = "\r\n".join([",".join(header)] + lines) + "\r\n"
    # file line numbers count the header as line 1
    return text, None if bad_line is None else bad_line + 2


@settings(max_examples=300, deadline=None)
@given(sessions(), st.integers(1, 9))
def test_chunked_loader_equals_row_loader(tmp_path_factory, session, chunk_rows):
    text, bad_line = session
    path = tmp_path_factory.getbasetemp() / "session.csv"
    path.write_text(text, newline="")
    want_frames, want_error = outcome(reference_load_session_csv, path)
    with mock.patch.object(keypoints, "_CSV_CHUNK_ROWS", chunk_rows):
        got_frames, got_error = outcome(load_csv_frames, path)
    if want_error is None:
        assert got_error is None
        assert_same_frames(got_frames, want_frames)
        return
    assert got_error is not None and got_error[0] is want_error[0]
    malformed = re.fullmatch(r"line (\d+): malformed row: (.*)", want_error[1], re.S)
    if malformed is None:
        assert got_error[1] == want_error[1]
    else:
        # csv.DictReader numbers a row after blank lines by the first of
        # them; the chunked loader names the bad row's own line
        assert got_error[1] == f"line {bad_line}: malformed row: {malformed.group(2)}"


@pytest.mark.parametrize("header", [
    pytest.param("frame,person,joint,x,y,confidence", id="no-z"),
    pytest.param("", id="blank-header"),
    pytest.param(None, id="empty-file"),
])
def test_missing_column(tmp_path, header):
    path = tmp_path / "session.csv"
    path.write_text("" if header is None else header + "\n0,0,0,1.0,2.0,0.5\n")
    with pytest.raises(SchemaError) as want:
        reference_load_session_csv(path)
    with pytest.raises(SchemaError) as got:
        load_session_csv(path)
    assert str(got.value) == str(want.value)


def test_header_only_and_blank_lines(tmp_path):
    path = tmp_path / "session.csv"
    path.write_text(",".join(COLUMNS) + "\n\n\n")
    assert load_session_csv(path) == [] == reference_load_session_csv(path)


@pytest.mark.parametrize("row", [
    pytest.param("1_0,0,4,1.0,2.0,0.0,0.9", id="digit-separator-int"),
    pytest.param("0,0,4,1_0.5,2.0,0.0,0.9", id="digit-separator-float"),
    pytest.param("٣,0,4,1.0,2.0,0.0,0.9", id="arabic-indic-digit"),
    pytest.param("0,9223372036854775808,4,1.0,2.0,0.0,0.9", id="beyond-int64"),
])
def test_numerals_beyond_numpy_are_malformed(tmp_path, row):
    """Python's int() and float() read these; np.loadtxt does not."""
    path = tmp_path / "session.csv"
    path.write_text(",".join(COLUMNS) + "\n0,0,3,1.0,2.0,0.0,0.9\n" + row + "\n")
    reference_load_session_csv(path)
    with pytest.raises(SchemaError, match=r"^line 3: malformed row: "):
        load_session_csv(path)


def test_padded_non_ascii_whitespace_still_parses(tmp_path):
    path = tmp_path / "session.csv"
    path.write_text(",".join(COLUMNS) + "\n\u00a00\u00a0,0,4,1.0,\u20032.5,0.0,0.9\n",
                    encoding="utf-8")
    assert_same_frames(load_csv_frames(path), reference_load_session_csv(path))


def test_peak_memory_is_at_most_the_row_loader(tmp_path):
    """About 50k rows: the chunked loader's tracemalloc peak stays at or
    below that of the row-by-row loader, which bounds its peak RSS."""
    rng = np.random.default_rng(0)
    frames = [SkeletonFrame(i, rng.uniform(0, 1000, (4, NUM_JOINTS, 3)),
                            rng.uniform(0.1, 1.0, (4, NUM_JOINTS)))
              for i in range(500)]
    path = tmp_path / "session.csv"
    write_session_csv(path, frames)
    peaks = {}
    for load in (reference_load_session_csv, load_csv_frames):
        tracemalloc.start()
        try:
            loaded = load(path)
            peaks[load] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 500
        del loaded
    assert peaks[load_csv_frames] <= peaks[reference_load_session_csv]
