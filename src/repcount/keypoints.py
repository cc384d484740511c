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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .body25 import MID_HIP, NECK, NUM_JOINTS

# below this neck-to-mid-hip distance (input units) a skeleton is degenerate
TORSO_EPSILON = 1e-6

FEATURE_DIM = 2 * NUM_JOINTS


class ParseError(ValueError):
    """Malformed keypoint document; carries the byte offset when known."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class SchemaError(ValueError):
    """Well-formed document whose shape does not match the keypoint layout."""


@dataclass(frozen=True)
class RawSkeleton:
    """One detected person: 25 joints with coordinates and confidences.

    A joint with confidence 0 is undetected; its coordinates are meaningless
    and must not enter any distance, angle, or feature computation.
    """

    coords: np.ndarray  # (25, 3) finite float64, columns x, y, z
    confidence: np.ndarray  # (25,) float64 in [0, 1]

    def __post_init__(self):
        if self.coords.shape != (NUM_JOINTS, 3):
            raise SchemaError(f"expected ({NUM_JOINTS}, 3) coords, got {self.coords.shape}")
        if self.confidence.shape != (NUM_JOINTS,):
            raise SchemaError(f"expected ({NUM_JOINTS},) confidences, got {self.confidence.shape}")
        # NaN fails every comparison, so a NaN confidence fails the bounds
        if not (np.isfinite(self.coords).all()
                and 0.0 <= self.confidence.min() and self.confidence.max() <= 1.0):
            raise SchemaError("coordinates must be finite and confidence values must lie in [0, 1]")

    @property
    def detected(self) -> np.ndarray:
        """Boolean mask of joints with nonzero confidence."""
        return self.confidence > 0

    def has(self, *joints: int) -> bool:
        return all(self.confidence[j] > 0 for j in joints)


@dataclass(frozen=True)
class SkeletonFrame:
    frame_index: int
    skeletons: tuple[RawSkeleton, ...]
    source_fps: float = 30.0

    def __post_init__(self):
        if self.frame_index < 0:
            raise SchemaError("frame_index must be >= 0")
        if self.source_fps <= 0:
            raise SchemaError("source_fps must be > 0")

    # Stacked arrays for code that works on all persons at once. Each access
    # builds them anew, so a frame holds no second copy of its keypoints;
    # read them once per frame. They are read-only: with one skeleton they
    # are views of its arrays.
    @property
    def coords(self) -> np.ndarray:
        """(S, 25, 3) coordinates of all skeletons, in skeleton order."""
        return self._stack("coords", (NUM_JOINTS, 3))

    @property
    def confidence(self) -> np.ndarray:
        """(S, 25) confidences of all skeletons, in skeleton order."""
        return self._stack("confidence", (NUM_JOINTS,))

    def _stack(self, field, shape):
        if len(self.skeletons) == 1:  # np.stack would cost more than the frame
            out = getattr(self.skeletons[0], field)[None]
        elif not self.skeletons:
            out = np.zeros((0, *shape))
        else:
            out = np.stack([getattr(s, field) for s in self.skeletons])
        out.flags.writeable = False
        return out


def _skeleton_from_flat(values, stride, person_idx):
    if len(values) % stride != 0:
        raise SchemaError(
            f"person {person_idx}: keypoint array length {len(values)} "
            f"is not a multiple of the per-joint stride {stride}"
        )
    n = len(values) // stride
    if n != NUM_JOINTS:
        raise SchemaError(f"person {person_idx}: expected {NUM_JOINTS} joints, got {n}")
    arr = np.asarray(values, dtype=np.float64).reshape(NUM_JOINTS, stride)
    coords = np.zeros((NUM_JOINTS, 3))
    coords[:, : stride - 1] = arr[:, : stride - 1]
    conf = arr[:, stride - 1].copy()
    # undetected joints carry no positional meaning; a negative confidence
    # is left for RawSkeleton to reject, as format B does
    undetected = conf == 0
    coords[undetected] = 0.0
    conf[undetected] = 0.0  # -0.0 becomes 0.0
    return RawSkeleton(coords=coords, confidence=conf)


def parse_frame(data: bytes | str, frame_index: int, source_fps: float = 30.0) -> SkeletonFrame:
    """Parse one keypoint frame document (input format A)."""
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
    skeletons = []
    for i, person in enumerate(people):
        if "pose_keypoints_3d" in person:
            skeletons.append(_skeleton_from_flat(person["pose_keypoints_3d"], 4, i))
        elif "pose_keypoints_2d" in person:
            skeletons.append(_skeleton_from_flat(person["pose_keypoints_2d"], 3, i))
        else:
            raise SchemaError(f"person {i}: no pose_keypoints_2d or pose_keypoints_3d field")
    return SkeletonFrame(frame_index=frame_index, skeletons=tuple(skeletons), source_fps=source_fps)


def serialize_frame(frame: SkeletonFrame) -> bytes:
    """Serialize a frame back to the format-A JSON document (3D layout)."""
    people = []
    for skel in frame.skeletons:
        flat = np.concatenate([skel.coords, skel.confidence[:, None]], axis=1).ravel()
        people.append({"pose_keypoints_3d": flat.tolist()})
    return json.dumps({"people": people}, separators=(",", ":"), sort_keys=True).encode("utf-8")


def iter_ndjson_frames(lines: Iterable[str], source_fps: float = 30.0) -> Iterator[SkeletonFrame]:
    """Yield frames from a newline-delimited stream of format-A documents."""
    index = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        yield parse_frame(line, index, source_fps)
        index += 1


def load_frames(path: str | Path, source_fps: float = 30.0) -> list[SkeletonFrame]:
    """Load a session from a directory of per-frame JSON files (lexicographic
    order), a newline-delimited JSON file, or a format-B CSV file."""
    path = Path(path)
    if path.is_dir():
        frames = []
        for i, child in enumerate(sorted(path.glob("*.json"))):
            frames.append(parse_frame(child.read_bytes(), i, source_fps))
        return frames
    if path.suffix.lower() == ".csv":
        return load_session_csv(path, source_fps)
    with open(path, "r", encoding="utf-8") as fh:
        return list(iter_ndjson_frames(fh, source_fps))


def load_session_csv(path: str | Path, source_fps: float = 30.0) -> list[SkeletonFrame]:
    """Load a session CSV (format B): frame,person,joint,x,y,z,confidence."""
    by_frame: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"frame", "person", "joint", "x", "y", "z", "confidence"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SchemaError(f"session CSV must have columns {sorted(required)}")
        for row in reader:
            f = int(row["frame"])
            p = int(row["person"])
            j = int(row["joint"])
            if not 0 <= j < NUM_JOINTS:
                raise SchemaError(f"joint index {j} out of range")
            persons = by_frame.setdefault(f, {})
            if p not in persons:
                persons[p] = (np.zeros((NUM_JOINTS, 3)), np.zeros(NUM_JOINTS))
            coords, conf = persons[p]
            coords[j] = (float(row["x"]), float(row["y"]), float(row["z"]))
            conf[j] = float(row["confidence"])
    frames = []
    for f in sorted(by_frame):
        skeletons = tuple(
            RawSkeleton(coords=coords, confidence=conf)
            for _, (coords, conf) in sorted(by_frame[f].items())
        )
        frames.append(SkeletonFrame(frame_index=f, skeletons=skeletons, source_fps=source_fps))
    return frames


def write_session_csv(path: str | Path, frames: Iterable[SkeletonFrame]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "person", "joint", "x", "y", "z", "confidence"])
        for frame in frames:
            for p, skel in enumerate(frame.skeletons):
                for j in range(NUM_JOINTS):
                    if skel.confidence[j] <= 0:
                        continue
                    x, y, z = (float(v) for v in skel.coords[j])
                    writer.writerow([frame.frame_index, p, j, repr(x), repr(y), repr(z), repr(float(skel.confidence[j]))])


def normalize_skeleton(skel: RawSkeleton) -> Optional[np.ndarray]:
    """Produce the 50-value recognition feature vector, or None when the
    skeleton cannot be normalized.

    Coordinates are translated so the mid-hip is the origin and scaled so the
    neck-to-mid-hip distance is 1; undetected joints are imputed as (0, 0);
    z is discarded.
    """
    if not skel.has(NECK, MID_HIP):
        return None
    xy = skel.coords[:, :2]
    origin = xy[MID_HIP]
    torso = float(np.linalg.norm(xy[NECK] - origin))
    if torso < TORSO_EPSILON:
        return None
    out = (xy - origin) / torso
    out = np.where(skel.detected[:, None], out, 0.0)
    return out.ravel()
