"""Keypoint stream input: frame parsing, validation, and skeleton normalization.

Two input formats are supported:
  A) per-frame JSON objects with a "people" array, each person carrying
     "pose_keypoints_2d" (x, y, c per joint) or "pose_keypoints_3d"
     (x, y, z, c per joint); either one file per frame or a newline-delimited
     stream of such objects. An empty "pose_keypoints_3d", which OpenPose
     writes beside the 2-D array unless it reconstructs 3-D, counts as
     absent.
  B) a session CSV with header ``frame,person,joint,x,y,z,confidence``.

Every format-A person is packed as one row of (x, y, z, c) doubles, a 2-D
person's with z = 0. A document whose persons share one layout and which
spells no boolean is packed in bulk, one packer call for all its persons; any
other document, or one the bulk packing refuses, is read person by person,
which also names its error. Each chunk of documents becomes one array pair.
Both paths give the same values, and the errors are the per-person path's.
"""
from __future__ import annotations

import csv
import json
import struct
import warnings
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, count, repeat, starmap
from operator import itemgetter
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
    chunk = None  # the FrameChunk whose rows a frame is; a frame made on its own has none

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
        if (len(self.indices) != len(self.sizes) or sum(self.sizes) != len(self.coords)
                or min(self.sizes, default=0) < 0):  # a negative size overlaps frames
            raise SchemaError("a chunk needs one size per frame, and the sizes add up to its "
                              "rows, each >= 0")
        _check_frame_arrays(min(self.indices, default=0), self.coords, self.confidence)

    @classmethod
    def of(cls, frames: Sequence[SkeletonFrame]) -> FrameChunk:
        """One or more frames, in order, stacked into a chunk."""
        return cls([f.frame_index for f in frames], [len(f.coords) for f in frames],
                   np.concatenate([f.coords for f in frames]),
                   np.concatenate([f.confidence for f in frames]))

    @cached_property
    def offsets(self) -> list[int]:
        """Frame k's rows are offsets[k]:offsets[k + 1]."""
        return list(accumulate(self.sizes, initial=0))

    @cached_property
    def frames(self) -> list[SkeletonFrame]:
        """The frames, each holding its frame index, the chunk and its
        position in it; the views of a frame's rows are made when first read."""
        frames = list(map(object.__new__, repeat(_ChunkFrame, len(self.sizes))))
        # slot by slot, past the frozen __setattr__, with no call per frame
        for slot, values in ((_ChunkFrame.frame_index, self.indices),
                             (_ChunkFrame.chunk, repeat(self)), (_ChunkFrame.position, count())):
            for _ in map(slot.__set__, frames, values):
                pass
        return frames

    def rows(self, position: int) -> slice:
        """The rows of the chunk's frame at `position`."""
        offsets = self.offsets
        return slice(offsets[position], offsets[position + 1])


class _ChunkFrame(SkeletonFrame):
    """The frame at `position` of its chunk, checked with the chunk and
    built by it, with no __init__; its coords and confidence are views of
    the chunk's rows, made on first read."""

    __slots__ = ("frame_index", "chunk", "position")

    def __setattr__(self, name: str, *_) -> None:  # read-only, as every frame
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # a copy is a frame of its own
        return SkeletonFrame, (self.frame_index, self.coords, self.confidence)

    @cached_property
    def coords(self) -> np.ndarray:
        return self.chunk.coords[self.chunk.rows(self.position)]

    @cached_property
    def confidence(self) -> np.ndarray:
        return self.chunk.confidence[self.chunk.rows(self.position)]


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
# as a row of (x, y, z, c) doubles: a 2-D joint's z is the pad "8x", which
# struct writes as zero bytes, the bytes of +0.0
_KEYPOINT_PACKERS = {3: struct.Struct("dd8xd" * NUM_JOINTS), 4: struct.Struct(f"{NUM_JOINTS * 4}d")}
# the keypoint field of each stride's layout
_KEYPOINT_FIELDS = {3: itemgetter("pose_keypoints_2d"), 4: itemgetter("pose_keypoints_3d")}
# the most frames and skeleton rows of a FrameChunk a loader makes, and so
# what the engine plans at once. The NumPy calls of a chunk are amortized over
# its rows: a chunk closes before it would pass CHUNK_ROWS rows, enough rows
# to amortize them, few enough that a wide chunk stays in cache; CHUNK_FRAMES
# bounds the chunks of few persons, which have more frames per row.
CHUNK_ROWS = 1024
CHUNK_FRAMES = 256
# the read buffer of a format-A stream: a 16-person line is about 11 kB,
# more than the default 8 KiB, which copies such a line through refills
READ_BUFFER = 1 << 20


def chunk_starts(sizes: Sequence[int]) -> list[int]:
    """The first frame of each chunk of frames of these row counts: a chunk
    closes at CHUNK_FRAMES frames, or before a frame would take it past
    CHUNK_ROWS rows. A frame is never split, so one wider than CHUNK_ROWS
    is a chunk of its own."""
    starts: list[int] = []
    rows = 0
    for k, size in enumerate(sizes):
        if not starts or k - starts[-1] >= CHUNK_FRAMES or rows + size > CHUNK_ROWS:
            starts.append(k)
            rows = 0
        rows += size
    return starts


def _packed_keypoints(person, person_idx, spells_boolean: bool) -> bytes:
    """One format-A person's keypoint values, 3 (x, y, c) or 4 (x, y, z, c)
    per joint, packed as a row of 25 (x, y, z, c) doubles.

    Values must be JSON numbers. Packing them as doubles rejects strings,
    null, objects, arrays and integers beyond float, but converts booleans,
    so these are looked for when the document spells one (spells_boolean)."""
    if not isinstance(person, dict):
        raise SchemaError(f"person {person_idx}: must be an object")
    if person.get("pose_keypoints_3d", []) == [] and "pose_keypoints_2d" in person:
        values, stride = person["pose_keypoints_2d"], 3  # no 3-D array, or an empty one
    elif "pose_keypoints_3d" in person:
        values, stride = person["pose_keypoints_3d"], 4
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
            return _KEYPOINT_PACKERS[stride].pack(*values)
    except struct.error:
        pass
    raise SchemaError(f"person {person_idx}: keypoint values must be numbers")


def _bulk_run(people: list) -> Optional[bytes]:
    """The packed keypoints of a document's persons, when they share one
    layout; each person's bytes are those of _packed_keypoints, in person
    order. None when a person needs _packed_keypoints, to be read in its own
    layout or to name its error.

    Booleans are not looked for: the caller sends a document that spells one
    to _packed_keypoints. The packer rejects what else is not a number, and
    a keypoint array of a wrong length. A string or an object expands into
    its characters or keys, which it rejects too."""
    try:
        # the first person's layout, by the rule of _packed_keypoints
        stride = 3 if people and people[0].get("pose_keypoints_3d", []) == [] else 4
        if stride == 3 and any(person.get("pose_keypoints_3d", []) != [] for person in people):
            return None  # a 3-D person among 2-D ones
        return b"".join(starmap(_KEYPOINT_PACKERS[stride].pack,
                                 map(_KEYPOINT_FIELDS[stride], people)))
    except (AttributeError, KeyError, TypeError, struct.error):
        return None


def _not_utf8(exc: UnicodeDecodeError) -> ParseError:
    """The ParseError of bytes that are not UTF-8, naming the first bad byte."""
    return ParseError(f"not UTF-8 at byte {exc.start}: {exc.reason}", offset=exc.start)


def _spells_boolean(doc: str | bytes) -> bool:
    """Whether a document may spell a JSON boolean (a one-letter test is a
    memchr, a word search is slow; in bytes, only a letter's code is)."""
    if isinstance(doc, bytes):
        return (ord("u") in doc and b"true" in doc) or (ord("a") in doc and b"false" in doc)
    return ("u" in doc and "true" in doc) or ("a" in doc and "false" in doc)


def _decoded_document(doc: str | bytes) -> tuple[int, bytes]:
    """A format-A document's persons and their packed keypoints, one
    (x, y, z, c) row each in person order: from _bulk_run, or else joined
    from _packed_keypoints person by person. Raises the error of the first
    structural check it fails; the value checks are the chunk's."""
    try:
        data = decode_json(doc)
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed frame document at offset {exc.pos}: {exc.msg}",
                         offset=exc.pos) from exc
    if not isinstance(data, dict) or "people" not in data:
        raise SchemaError('frame document must be an object with a "people" array')
    people = data["people"]
    if not isinstance(people, list):
        raise SchemaError('"people" must be an array')
    # JSON booleans would pack as numbers: a document that spells one is
    # read person by person, which looks for them
    spells_boolean = _spells_boolean(doc)
    packed = None if spells_boolean else _bulk_run(people)
    if packed is None:
        packed = b"".join(map(_packed_keypoints, people, count(), repeat(spells_boolean)))
    return len(people), packed


def _assembled(frames: Sequence[tuple[int, bytes]], first_index: int) -> FrameChunk:
    """The chunk of frames first_index, first_index + 1, ... of decoded
    format-A documents; raises the error of one of its value checks."""
    sizes = [persons for persons, _ in frames]
    rows = np.frombuffer(b"".join([packed for _, packed in frames])).reshape(-1, NUM_JOINTS, 4)
    coords = np.empty((len(rows), NUM_JOINTS, 3))
    for axis in range(3):  # a column at a time: one long copy, not one a joint
        coords[..., axis] = rows[..., axis]
    confidence = rows[..., 3].copy()
    # undetected joints carry no positional meaning and are zeroed, so a
    # non-finite one is rejected first, as format B does; the chunk's check
    # covers the other joints and the confidences
    undetected = np.flatnonzero(confidence == 0)  # over the joints of all rows
    joints = coords.reshape(-1, 3)
    if not np.isfinite(joints[undetected]).all():
        raise SchemaError("coordinates must be finite and confidence values must lie in [0, 1]")
    joints[undetected] = 0.0
    confidence.reshape(-1)[undetected] = 0.0  # -0.0 becomes 0.0
    return FrameChunk(range(first_index, first_index + len(frames)), sizes, coords, confidence)


def _decode_chunk(docs: Sequence[str | bytes], first_index: int) -> FrameChunk:
    """The chunk of frames first_index, first_index + 1, ... of format-A
    documents. Raises the error of the first document to fail a structural
    check, or else one of the chunk's value checks."""
    return _assembled([_decoded_document(doc) for doc in docs], first_index)


def parse_frame(data: bytes | str, frame_index: int) -> SkeletonFrame:
    """Parse one keypoint frame document (input format A); bytes must be UTF-8."""
    return _decode_chunk([data], frame_index).frames[0]


def serialize_frame(frame: SkeletonFrame) -> bytes:
    """Serialize a frame back to the format-A JSON document (3D layout)."""
    flat = np.concatenate([frame.coords, frame.confidence[..., None]], axis=2)
    people = [{"pose_keypoints_3d": row}
              for row in flat.reshape(len(flat), 4 * NUM_JOINTS).tolist()]
    return json.dumps({"people": people}, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _located(exc: ParseError | SchemaError, place: str | int) -> ParseError | SchemaError:
    """exc with its message prefixed by its place, a path or a line number;
    a ParseError keeps its offset."""
    where = f"line {place}" if isinstance(place, int) else place
    if isinstance(exc, ParseError):
        return ParseError(f"{where}: {exc}", offset=exc.offset)
    return SchemaError(f"{where}: {exc}")


def _located_chunk(frames: list[tuple[int, bytes]], places: list[str | int],
                   first_index: int) -> FrameChunk:
    """_assembled(frames, first_index); when it fails, the frames are
    assembled again one by one, and the error of the first bad one is
    raised, prefixed by its place."""
    try:
        return _assembled(frames, first_index)
    except SchemaError:
        for k, frame in enumerate(frames):
            try:
                _assembled([frame], first_index + k)
            except SchemaError as exc:
                raise _located(exc, places[k]) from exc
        raise  # unreachable: a chunk fails only where one of its frames does


def _decoded_chunks(docs: Iterable[tuple[str | int, str | bytes]]) -> Iterator[FrameChunk]:
    """Yield the chunks of format-A documents given as (place, document)
    pairs, each cut where chunk_starts would cut it. A document is decoded
    before it joins the pending chunk, as its rows are known only then. A
    bad document's error names its place; an OSError of reading a document
    comes after the error of a bad one before it."""
    frames: list[tuple[int, bytes]] = []  # the pending chunk's documents
    places: list[str | int] = []
    rows = index = 0
    try:
        for place, doc in docs:
            try:
                frame = _decoded_document(doc)
            except (ParseError, SchemaError) as exc:
                _located_chunk(frames, places, index)  # a bad document before it wins
                raise _located(exc, place) from exc
            # the rule of chunk_starts, inlined as the documents stream in:
            # a call per document is a visible part of decoding one
            if frames and (len(frames) >= CHUNK_FRAMES or rows + frame[0] > CHUNK_ROWS):
                yield _located_chunk(frames, places, index)
                index += len(frames)
                frames, places, rows = [], [], 0
            frames.append(frame)
            places.append(place)
            rows += frame[0]
    except OSError:
        _located_chunk(frames, places, index)
        raise
    if frames:
        yield _located_chunk(frames, places, index)


def _ndjson_documents(fh: BinaryIO) -> Iterator[tuple[int, str | bytes]]:
    """Yield the (line number, document) pairs of a binary stream of
    format-A documents, one a line, without blank lines.

    Lines end at LF, CR or CRLF, as in text mode, and are numbered from 1.
    A line is stripped of whitespace as str.strip strips it. bytes.strip
    strips it alike when what is left starts with "{" and ends with "}", as
    a document does, so such a line stays bytes; any other line is decoded
    from UTF-8 first, unless it is not UTF-8, which _decoded_document then
    rejects."""
    number = 0
    for line in fh:
        for part in line.splitlines() if ord("\r") in line else (line,):
            number += 1
            doc = part.strip()
            if doc[:1] != b"{" or doc[-1:] != b"}":  # maybe Unicode whitespace, or blank
                try:
                    doc = part.decode("utf-8").strip()
                except UnicodeDecodeError:
                    pass
                if not doc:
                    continue
            yield number, doc


def read_ndjson(fh: BinaryIO) -> list[FrameChunk]:
    """The chunks of a binary stream of format-A documents, one a line.

    Lines end at LF, CR or CRLF, as in text mode; each is decoded from
    UTF-8 on its own, so a bad byte's error names its line (1-based, blank
    lines counted)."""
    return list(_decoded_chunks(_ndjson_documents(fh)))


def load_chunks(path: str | Path) -> list[FrameChunk]:
    """Load a session, in the chunks chunk_starts cuts, from a
    directory of per-frame JSON files (lexicographic order), a
    newline-delimited JSON file, or a format-B CSV file."""
    path = Path(path)
    if path.is_dir():
        return list(_decoded_chunks((str(child), child.read_bytes())
                                    for child in sorted(path.glob("*.json"))))
    if path.suffix.lower() == ".csv":
        return load_session_csv(path)
    with open(path, "rb", buffering=READ_BUFFER) as fh:
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
    by frame number, their persons by id, in the chunks chunk_starts
    cuts, which are row views of one array pair. Rows are read
    in chunks by np.loadtxt; when one is rejected, the first bad row of the
    file is reported with its line number. A file that is not UTF-8 raises a
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
    firsts = chunk_starts(sizes)
    cuts = [*starts[firsts].tolist(), len(frame)]  # the chunks' first rows, and the end
    coords.flags.writeable = confidence.flags.writeable = False  # as each chunk's view
    return [FrameChunk(indices[k:m], sizes[k:m], coords[a:b], confidence[a:b])
            for k, m, a, b in zip(firsts, [*firsts[1:], len(sizes)], cuts, cuts[1:])]


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
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise _located(_not_utf8(exc), line) from cause
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
    n = len(coords)
    origin = coords[:, MID_HIP, :2]
    d = coords[:, NECK, :2] - origin
    torso = np.sqrt(np.vecdot(d, d))  # bit for bit what np.linalg.norm gives one row
    # neck and mid-hip detected: the smaller confidence of the two is > 0
    ok = (np.minimum(confidence[:, NECK], confidence[:, MID_HIP]) > 0) & (torso >= TORSO_EPSILON)
    # rejected rows divide by 1, never by 0
    scale = np.repeat(np.where(ok, torso, 1.0), NUM_JOINTS)
    undetected = ~(confidence > 0).reshape(-1)
    joints = coords.reshape(-1, 3)
    out = np.empty((n * NUM_JOINTS, 2))
    # a plane of all joints at a time: long loops, where (S, 25, 2) arrays loop
    # over their short last axis; the values are those of the (S, 25, 2) form
    for axis in range(2):
        plane = joints[:, axis] - np.repeat(origin[:, axis], NUM_JOINTS)
        plane[undetected] = 0  # 0 over any scale is 0.0
        np.divide(plane, scale, out=out[:, axis])
    return out.reshape(n, 2 * NUM_JOINTS), ok


def normalize_skeleton(skel: RawSkeleton) -> Optional[np.ndarray]:
    """One skeleton's 50-value feature vector (see normalize_frame), or None
    when it cannot be normalized."""
    features, ok = normalize_frame(skel.coords[None], skel.confidence[None])
    return features[0] if ok[0] else None
