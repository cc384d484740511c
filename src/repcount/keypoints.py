"""Keypoint stream input: frame parsing, validation, and skeleton normalization.

Two input formats are supported:
  A) per-frame JSON objects with a "people" array, each person carrying
     "pose_keypoints_2d" (x, y, c per joint) or "pose_keypoints_3d"
     (x, y, z, c per joint); either one file per frame or a newline-delimited
     stream of such objects.
  B) a session CSV with header ``frame,person,joint,x,y,z,confidence``.
"""
from __future__ import annotations

import csv
import json
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NoReturn, Optional, Sequence

import numpy as np

from .body25 import MID_HIP, NECK, NUM_JOINTS
from .jsoninput import decode_json

# below this neck-to-mid-hip distance (input units) a skeleton is degenerate
TORSO_EPSILON = 1e-6


class ParseError(ValueError):
    """Malformed keypoint document; carries the byte offset when known."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class SchemaError(ValueError):
    """Well-formed document whose shape does not match the keypoint layout."""


@dataclass(eq=False, slots=True)
class RawSkeleton:
    """One person: 25 joints with coordinates and confidences; unchecked,
    usually row views of a SkeletonFrame, which validates them.

    A joint with confidence 0 is undetected; its coordinates are meaningless
    and must not enter any distance, angle, or feature computation.
    """

    coords: np.ndarray  # (25, 3) columns x, y, z
    confidence: np.ndarray  # (25,)

    @property
    def detected(self) -> np.ndarray:
        """Boolean mask of joints with nonzero confidence."""
        return self.confidence > 0


@dataclass(frozen=True, eq=False)
class SkeletonFrame:
    """All persons of one frame as stacked arrays, validated on construction
    and read-only afterwards. A frame carries no time: the engine's frame
    rate (EngineConfig.fps) turns its index into seconds."""

    frame_index: int
    coords: np.ndarray  # (S, 25, 3) finite float64, columns x, y, z
    confidence: np.ndarray  # (S, 25) float64 in [0, 1]

    def __post_init__(self):
        _check_frame_arrays(self.frame_index, self.coords, self.confidence)

    @classmethod
    def of(cls, frame_index: int, skeletons) -> SkeletonFrame:
        """A frame stacked from per-person skeletons, in their order."""
        if not skeletons:
            return cls(frame_index, np.zeros((0, NUM_JOINTS, 3)), np.zeros((0, NUM_JOINTS)))
        return cls(frame_index, np.stack([s.coords for s in skeletons], dtype=np.float64),
                   np.stack([s.confidence for s in skeletons], dtype=np.float64))

    @property
    def skeletons(self) -> tuple[RawSkeleton, ...]:
        """Row views of the arrays, one per person; built on each access,
        so read it once per frame."""
        return tuple(map(RawSkeleton, self.coords, self.confidence))


@dataclass(frozen=True, eq=False)
class FrameChunk:
    """Consecutive frames as one array pair: frame indices[k] holds the next
    sizes[k] rows of the (N, 25, 3) coords and (N, 25) confidences.

    The pair is checked once, by the rule each frame is held to, and made
    read-only; it is rejected exactly when one of its frames would be."""

    indices: Sequence[int]
    sizes: Sequence[int]
    coords: np.ndarray
    confidence: np.ndarray

    def __post_init__(self):
        if len(self.indices) != len(self.sizes) or sum(self.sizes) != len(self.coords):
            raise SchemaError("a chunk needs one size per frame, and the sizes add up to its rows")
        _check_frame_arrays(min(self.indices, default=0), self.coords, self.confidence)

    @classmethod
    def of(cls, frames: Sequence[SkeletonFrame]) -> FrameChunk:
        """One or more frames, in order, stacked into a chunk."""
        return cls([f.frame_index for f in frames], [len(f.coords) for f in frames],
                   np.concatenate([f.coords for f in frames]),
                   np.concatenate([f.confidence for f in frames]))

    @cached_property
    def frames(self) -> list[SkeletonFrame]:
        """The frames, as row views of the chunk's arrays."""
        frames = []
        for index, start, end in zip(self.indices, accumulate(self.sizes, initial=0),
                                     accumulate(self.sizes)):
            frame = object.__new__(SkeletonFrame)  # checked with the chunk: no __init__
            frame.__dict__.update(frame_index=index, coords=self.coords[start:end],
                                  confidence=self.confidence[start:end])
            frames.append(frame)
        return frames


def _check_frame_arrays(first_index: int, coords: np.ndarray, confidence: np.ndarray) -> None:
    """The rule of a SkeletonFrame, over the arrays of one frame or of several
    stacked (first_index is the smallest frame index); makes them read-only."""
    if first_index < 0:
        raise SchemaError("frame_index must be >= 0")
    n = len(coords)
    if coords.shape != (n, NUM_JOINTS, 3) or confidence.shape != (n, NUM_JOINTS):
        raise SchemaError(f"expected ({n}, {NUM_JOINTS}, 3) coords and ({n}, {NUM_JOINTS}) "
                          f"confidences, got {coords.shape} and {confidence.shape}")
    # NaN fails every comparison, so a NaN confidence fails the bounds
    if not (np.isfinite(coords).all()
            and (n == 0 or 0.0 <= confidence.min() and confidence.max() <= 1.0)):
        raise SchemaError("coordinates must be finite and confidence values must lie in [0, 1]")
    coords.flags.writeable = False
    confidence.flags.writeable = False


# packs one format-A person's keypoint values, 3 (2D) or 4 (3D) per joint,
# as doubles
_KEYPOINT_PACKERS = {stride: struct.Struct(f"{NUM_JOINTS * stride}d") for stride in (3, 4)}
# the most frames of a FrameChunk a loader makes, and so the frames the engine
# plans at once; enough to amortize the NumPy calls per chunk over its frames,
# few enough that a chunk stays small
CHUNK_FRAMES = 64


def _packed_keypoints(person, person_idx, spells_boolean: bool) -> tuple[int, bytes]:
    """One format-A person's stride, 3 (x, y, c) or 4 (x, y, z, c), and
    keypoint values packed as 25 * stride doubles.

    Values must be JSON numbers. Packing them as doubles rejects strings,
    null, objects, arrays and integers beyond float, but converts booleans,
    so these are looked for when the document spells one (spells_boolean)."""
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
            return stride, _KEYPOINT_PACKERS[stride].pack(*values)
    except struct.error:
        pass
    raise SchemaError(f"person {person_idx}: keypoint values must be numbers")


def _utf8(data: bytes) -> str:
    """data decoded from UTF-8; a ParseError names the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 at byte {exc.start}: {exc.reason}", offset=exc.start) from exc


def _decode_chunk(docs: Sequence[str | bytes], first_index: int) -> FrameChunk:
    """The chunk of frames first_index, first_index + 1, ... of format-A
    documents. Raises the error of the first document to fail a structural
    check, or else one of the chunk's value checks."""
    packed: dict[int, list[bytes]] = {3: [], 4: []}  # per stride, in row order
    rows: dict[int, list[int]] = {3: [], 4: []}  # per stride, the rows packed
    sizes: list[int] = []
    n = 0  # rows so far
    for doc in docs:
        text = _utf8(doc) if isinstance(doc, bytes) else doc
        try:
            data = decode_json(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed frame document at offset {exc.pos}: {exc.msg}",
                             offset=exc.pos) from exc
        if not isinstance(data, dict) or "people" not in data:
            raise SchemaError('frame document must be an object with a "people" array')
        people = data["people"]
        if not isinstance(people, list):
            raise SchemaError('"people" must be an array')
        # JSON booleans would convert to numbers; a document that spells one is
        # searched for them (a one-letter test is a memchr, a word search is slow)
        spells_boolean = ("u" in text and "true" in text) or ("a" in text and "false" in text)
        for i, person in enumerate(people):
            stride, values = _packed_keypoints(person, i, spells_boolean)
            packed[stride].append(values)
            rows[stride].append(n + i)
        sizes.append(len(people))
        n += len(people)
    coords = np.zeros((n, NUM_JOINTS, 3))
    confidence = np.empty((n, NUM_JOINTS))
    for stride, values in packed.items():
        if values:
            keypoints = np.frombuffer(b"".join(values)).reshape(-1, NUM_JOINTS, stride)
            coords[rows[stride], :, : stride - 1] = keypoints[..., :-1]
            confidence[rows[stride]] = keypoints[..., -1]
    # undetected joints carry no positional meaning and are zeroed, so a
    # non-finite one is rejected first, as format B does; a negative
    # confidence is left for the frame check to reject
    if not np.isfinite(coords).all():
        raise SchemaError("coordinates must be finite and confidence values must lie in [0, 1]")
    undetected = confidence == 0
    coords[undetected] = 0.0
    confidence[undetected] = 0.0  # -0.0 becomes 0.0
    return FrameChunk(range(first_index, first_index + len(docs)), sizes, coords, confidence)


def parse_frame(data: bytes | str, frame_index: int) -> SkeletonFrame:
    """Parse one keypoint frame document (input format A); bytes must be UTF-8."""
    return _decode_chunk([data], frame_index).frames[0]


def serialize_frame(frame: SkeletonFrame) -> bytes:
    """Serialize a frame back to the format-A JSON document (3D layout)."""
    flat = np.concatenate([frame.coords, frame.confidence[..., None]], axis=2)
    people = [{"pose_keypoints_3d": row}
              for row in flat.reshape(len(flat), 4 * NUM_JOINTS).tolist()]
    return json.dumps({"people": people}, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _located(exc: ParseError | SchemaError, where: str) -> ParseError | SchemaError:
    """exc with its message prefixed by `where`; a ParseError keeps its offset."""
    if isinstance(exc, ParseError):
        return ParseError(f"{where}: {exc}", offset=exc.offset)
    return SchemaError(f"{where}: {exc}")


def _decode_located(docs: list[tuple[str, str | bytes]], first_index: int) -> FrameChunk:
    """_decode_chunk of (place, document) pairs; when it fails, the documents
    are decoded again one by one, and the error of the first bad one is
    raised, prefixed by its place."""
    try:
        return _decode_chunk([doc for _, doc in docs], first_index)
    except (ParseError, SchemaError):
        for k, (place, doc) in enumerate(docs):
            try:
                _decode_chunk([doc], first_index + k)
            except (ParseError, SchemaError) as exc:
                raise _located(exc, place) from exc
        raise  # unreachable: a chunk fails only where one of its documents does


def _stripped(line: bytes) -> str | bytes:
    """line without surrounding whitespace, decoded when it is UTF-8; other
    bytes are left for _decode_chunk to reject in line order."""
    try:
        return line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return line.strip()


def _decoded_chunks(docs: Iterable[tuple[str, str | bytes]]) -> Iterator[FrameChunk]:
    """Yield the chunks, of CHUNK_FRAMES frames but the last, of format-A
    documents given as (place, document) pairs. A bad document's error names
    its place; an OSError of reading a document comes after the error of a
    bad one before it."""
    batch: list[tuple[str, str | bytes]] = []
    index = 0
    try:
        for doc in docs:
            batch.append(doc)
            if len(batch) == CHUNK_FRAMES:
                yield _decode_located(batch, index)
                index += len(batch)
                batch = []
    except OSError:
        _decode_located(batch, index)
        raise
    if batch:
        yield _decode_located(batch, index)


def read_ndjson(fh: BinaryIO) -> list[FrameChunk]:
    """The chunks of a binary stream of format-A documents, one a line.

    Lines end at LF, CR or CRLF, as in text mode; each is decoded from
    UTF-8 on its own, so a bad byte's error names its line (1-based, blank
    lines counted)."""
    lines = (part for line in fh
             for part in (line.splitlines() if b"\r" in line else (line,)))
    return list(_decoded_chunks((f"line {number}", line)
                                for number, line in enumerate(map(_stripped, lines), 1) if line))


def load_chunks(path: str | Path) -> list[FrameChunk]:
    """Load a session, in chunks of at most CHUNK_FRAMES frames, from a
    directory of per-frame JSON files (lexicographic order), a
    newline-delimited JSON file, or a format-B CSV file."""
    path = Path(path)
    if path.is_dir():
        return list(_decoded_chunks((str(child), child.read_bytes())
                                    for child in sorted(path.glob("*.json"))))
    if path.suffix.lower() == ".csv":
        return load_session_csv(path)
    with open(path, "rb") as fh:
        return read_ndjson(fh)


def load_frames(path: str | Path) -> list[SkeletonFrame]:
    """The frames of load_chunks(path), in order."""
    return [frame for chunk in load_chunks(path) for frame in chunk.frames]


# the format-B columns, in the order of the fields of _CSV_ROW
_CSV_COLUMNS = ("frame", "person", "joint", "x", "y", "z", "confidence")
_CSV_ROW = np.dtype([("frame", np.int64), ("person", np.int64), ("joint", np.int64),
                     ("xyz", np.float64, (3,)), ("confidence", np.float64)])
# rows per np.loadtxt call: enough to amortize the call, few enough that a
# parsed chunk stays small next to the assembled frames
_CSV_CHUNK_ROWS = 8192


def load_session_csv(path: str | Path) -> list[FrameChunk]:
    """Load a session CSV (format B): the columns frame, person, joint, x, y,
    z and confidence, found by name in the header, in any order and among
    any others.

    Rows may come in any order; blank lines are skipped, and of repeated
    (frame, person, joint) rows the last one counts. Frames come out sorted
    by frame number, their persons by id, in chunks of at most CHUNK_FRAMES
    frames that are row views of one array pair. Rows are read in chunks by
    np.loadtxt; when one is rejected, the first bad row of the file is
    reported with its line number. A file that is not UTF-8 raises a
    ParseError naming the line and byte of its first bad byte.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            usecols = _csv_usecols(next(csv.reader(fh), None))
            keys, coords, confidence = _read_csv_rows(fh, usecols, path)
    except UnicodeDecodeError as exc:
        _raise_not_utf8(path, exc)
    if len(keys) == 0:
        return []
    order = np.lexsort((keys[:, 1], keys[:, 0]))  # by frame, then person
    # one array at a time, so each grown array is freed before the next copy
    frame = keys[order, 0]
    coords = coords[order]
    confidence = confidence[order]
    starts = np.flatnonzero(np.r_[True, frame[1:] != frame[:-1]])
    indices, sizes = frame[starts].tolist(), np.diff(starts, append=len(frame)).tolist()
    cuts = [*starts[::CHUNK_FRAMES].tolist(), len(frame)]  # the chunks' first rows, and the end
    coords.flags.writeable = confidence.flags.writeable = False  # as each chunk's view
    return [FrameChunk(indices[k:k + CHUNK_FRAMES], sizes[k:k + CHUNK_FRAMES],
                       coords[a:b], confidence[a:b])
            for k, a, b in zip(range(0, len(indices), CHUNK_FRAMES), cuts, cuts[1:])]


def _read_csv_rows(fh, usecols: list[int],
                   path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the rows after the header of a session CSV into one skeleton per
    (frame, person): returns their (n, 2) keys in order of first appearance
    and (m, 25, 3) coordinates and (m, 25) confidences, of which the first n
    rows belong to the keys (m >= n)."""
    slots: dict[tuple[int, int], int] = {}  # (frame, person) -> row of the arrays
    coords = np.zeros((0, NUM_JOINTS, 3))
    confidence = np.zeros((0, NUM_JOINTS))
    with warnings.catch_warnings():
        # blank lines and an empty last chunk are not worth a warning
        warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
        # some NumPy releases read "3.0" as an integer with this warning
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        while True:
            try:
                rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", quotechar='"',
                                  comments=None, usecols=usecols,
                                  max_rows=_CSV_CHUNK_ROWS, ndmin=1)
            except UnicodeDecodeError:  # a ValueError too, but no bad row
                raise
            except ValueError as exc:
                _raise_first_bad_row(path, exc)
            if len(rows) == 0:
                break
            joint = rows["joint"]
            if joint.min() < 0 or joint.max() >= NUM_JOINTS:
                _raise_first_bad_row(path)
            # the rows of one (frame, person) usually come in a run: look each
            # run up once
            frame, person = rows["frame"], rows["person"]
            head = np.flatnonzero(np.r_[True, (frame[1:] != frame[:-1])
                                        | (person[1:] != person[:-1])])
            run_slot = [slots.setdefault(key, len(slots))
                        for key in zip(frame[head].tolist(), person[head].tolist())]
            if len(slots) > len(coords):
                # a quarter to spare: spare rows are still held while the
                # caller copies the used ones out
                size = max(len(slots), len(coords) * 5 // 4)
                coords = _grown(coords, size)
                confidence = _grown(confidence, size)
            flat = np.repeat(run_slot, np.diff(head, append=len(rows))) * NUM_JOINTS + joint
            # the last of repeated rows counts: np.unique returns the first
            # index of each value, here in reversed row order
            _, first = np.unique(flat[::-1], return_index=True)
            last = len(flat) - 1 - first
            coords.reshape(-1, 3)[flat[last]] = rows["xyz"][last]
            confidence.reshape(-1)[flat[last]] = rows["confidence"][last]
            if len(rows) < _CSV_CHUNK_ROWS:
                break
    return np.array(list(slots), dtype=np.int64).reshape(-1, 2), coords, confidence


def _csv_usecols(header: Optional[list[str]]) -> list[int]:
    """The indices of the format-B columns in a header row; of repeated names
    the last one counts."""
    index = {name: i for i, name in enumerate(header or ())}
    if not index.keys() >= set(_CSV_COLUMNS):
        raise SchemaError(f"session CSV must have columns {sorted(_CSV_COLUMNS)}")
    return [index[name] for name in _CSV_COLUMNS]


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """a extended with zero rows to `size` rows."""
    out = np.zeros((size, *a.shape[1:]))
    out[:len(a)] = a
    return out


def _csv_number(token: Optional[str], parse):
    """parse(token) for a numeral np.loadtxt reads as well: ASCII apart from
    surrounding whitespace, without digit separators, an integer in int64."""
    value = parse(token)  # a missing column (None) raises TypeError
    if (not token.strip().isascii() or "_" in token
            or (parse is int and not -2**63 <= value < 2**63)):
        raise ValueError(f"unsupported numeral {token!r}: digit separators, non-ASCII "
                         "digits and integers beyond int64 are not read")
    return value


def _raise_first_bad_row(path: str | Path, cause: Optional[ValueError] = None) -> NoReturn:
    """Raise the error of the first bad row of a session CSV, in file order:
    a value that is not a number np.loadtxt reads, or a joint index out of
    range. Only called once np.loadtxt or the joint check rejected a chunk."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        usecols = _csv_usecols(next(reader, None))
        for row in reader:
            if not row:
                continue
            values = [row[i] if i < len(row) else None for i in usecols]
            try:  # frame, person and joint are integers, the rest floats
                j = [_csv_number(v, int if k < 3 else float) for k, v in enumerate(values)][2]
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"line {reader.line_num}: malformed row: {exc}") from exc
            if not 0 <= j < NUM_JOINTS:
                raise SchemaError(f"joint index {j} out of range")
    raise SchemaError(f"malformed session CSV: {cause}") from cause


def _raise_not_utf8(path: str | Path, cause: UnicodeDecodeError) -> NoReturn:
    """Raise a ParseError naming the line (counted as text mode counts them)
    and the offset of the first byte of a file that is not UTF-8; cause is
    what reading it as text raised."""
    data = Path(path).read_bytes()
    try:
        _utf8(data)
    except ParseError as exc:
        head = data[:exc.offset]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise _located(exc, f"line {line}") from cause
    raise ParseError(f"not UTF-8: {cause.reason}") from cause  # the file changed since


def write_session_csv(path: str | Path, frames: Iterable[SkeletonFrame]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for frame in frames:
            for p, j in zip(*np.nonzero(frame.confidence > 0)):  # by person, then joint
                x, y, z = frame.coords[p, j].tolist()
                c = float(frame.confidence[p, j])
                writer.writerow([frame.frame_index, p, j, repr(x), repr(y), repr(z), repr(c)])


def normalize_frame(coords: np.ndarray, confidence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 50-value recognition features of every skeleton of a frame.

    Takes (S, 25, 3) coordinates and (S, 25) confidences and returns the
    (S, 50) features and an (S,) mask of the rows that could be normalized;
    the other rows carry no meaning. Coordinates are translated so the
    mid-hip is the origin and scaled so the neck-to-mid-hip distance is 1;
    undetected joints are imputed as (0, 0); z is discarded. A skeleton is
    rejected when its neck or mid-hip is undetected or its torso is shorter
    than TORSO_EPSILON.
    """
    xy = coords[:, :, :2]
    origin = xy[:, MID_HIP]
    d = xy[:, NECK] - origin
    torso = np.sqrt(np.vecdot(d, d))  # bit for bit what np.linalg.norm gives one row
    # neck and mid-hip detected: the smaller confidence of the two is > 0
    ok = (np.minimum(confidence[:, NECK], confidence[:, MID_HIP]) > 0) & (torso >= TORSO_EPSILON)
    out = xy - origin[:, None]
    out = out / np.where(ok, torso, 1.0)[:, None, None]  # rejected rows divide by 1, never by 0
    out = np.where((confidence > 0)[..., None], out, 0.0)
    return out.reshape(len(out), 2 * NUM_JOINTS), ok


def normalize_skeleton(skel: RawSkeleton) -> Optional[np.ndarray]:
    """One skeleton's 50-value feature vector (see normalize_frame), or None
    when it cannot be normalized."""
    features, ok = normalize_frame(skel.coords[None], skel.confidence[None])
    return features[0] if ok[0] else None
