"""Person re-identification across frames by Euclidean keypoint matching.

Each skeleton in a new frame is paired with the spatially closest known
person (greedy smallest-distance-first); unmatched skeletons get fresh ids,
except one with no detected joint, which is never tracked, and persons
unseen for longer than the retention window are retired.
Distances use raw coordinates, since spatial position is the identity cue.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .body25 import MID_HIP, NECK, NUM_JOINTS
from .keypoints import RawSkeleton, SkeletonFrame

DEFAULT_RETENTION_WINDOW = 30  # frames (~1 s at 30 fps)
# gate = this fraction of the median torso length observed in the frame
AUTO_GATE_TORSO_FRACTION = 0.5


class SequencingError(RuntimeError):
    """Frame fed to the tracker out of order."""


def skeleton_distance(a: RawSkeleton, b: RawSkeleton) -> Optional[float]:
    """Mean Euclidean distance over joints detected in both skeletons.

    Returns None (incomparable) when the two skeletons share no detected
    joint.
    """
    return _row_distance(a.coords, a.confidence, b.coords, b.confidence)


def _row_distance(coords_a, confidence_a, coords_b, confidence_b) -> Optional[float]:
    """skeleton_distance of two (25, 3) coordinate and (25,) confidence rows."""
    shared = (confidence_a > 0) & (confidence_b > 0)
    if not shared.any():
        return None
    diffs = coords_a[shared] - coords_b[shared]
    # np.mean(np.linalg.norm(diffs, axis=1)) term for term, minus their call overhead
    norms = np.sqrt((diffs * diffs).sum(axis=1))
    return float(norms.sum() / len(norms))


@dataclass
class TrackedPerson:
    id: int
    last_seen_frame: int
    frames_missing: int = 0


@dataclass
class Assignment:
    frame_index: int
    pairs: list[tuple[int, int]] = field(default_factory=list)  # (person id, skeleton index)
    new_ids: list[int] = field(default_factory=list)  # skeleton indices granted fresh ids
    retired: list[int] = field(default_factory=list)  # person ids dropped this frame
    # every skeleton index -> assigned person id (matched or fresh)
    id_by_skeleton: dict[int, int] = field(default_factory=dict)


def _frame_torso_gate(coords: np.ndarray, confidence: np.ndarray) -> float:
    """Gate from the stacked (S, 25, 3) coords and (S, 25) confidences."""
    # confidences are >= 0, so the smaller one is > 0 iff both joints are seen
    seen = np.minimum(confidence[:, NECK], confidence[:, MID_HIP]).tolist()
    deltas = (coords[:, NECK] - coords[:, MID_HIP]).tolist()
    # a Python loop over the few rows beats numpy's per-call cost here, and
    # statistics.median beats np.median
    torsos = [math.sqrt(dx * dx + dy * dy + dz * dz)
              for (dx, dy, dz), c in zip(deltas, seen) if c > 0]
    if not torsos:
        return float("inf")
    return AUTO_GATE_TORSO_FRACTION * statistics.median(torsos)


def distance_matrix(track_coords: np.ndarray, track_confidence: np.ndarray,
                    coords: np.ndarray, confidence: np.ndarray) -> np.ndarray:
    """(P, S) skeleton_distance of P tracks against S skeletons in one
    broadcast; NaN where a pair shares no detected joint.

    Equal to the pairwise values up to the last bit: the masked sum adds
    the same terms as skeleton_distance's mean, in a different order.
    """
    shared = (track_confidence > 0)[:, None, :] & (confidence > 0)[None, :, :]  # (P, S, 25)
    n_tracks, n_skeletons = len(track_coords), len(coords)
    # broadcasting over flat (25 * 3) rows is faster than over (25, 3) blocks
    diffs = track_coords.reshape(n_tracks, 1, -1) - coords.reshape(1, n_skeletons, -1)
    sq = (diffs * diffs).reshape(n_tracks, n_skeletons, NUM_JOINTS, 3)
    # the same left-to-right sum as .sum(axis=3), without a slow short-axis reduce
    norms = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    n_shared = shared.sum(axis=2)
    with np.errstate(invalid="ignore"):
        return np.where(shared, norms, 0.0).sum(axis=2) / n_shared


class PoseTracker:
    """Single-writer sequential tracker for one session stream.

    Each live track's last coordinates and confidences are array rows, in
    ascending person-id order, so a frame's distances to all tracks come
    from one broadcast.
    """

    def __init__(self, max_match_distance: Optional[float] = None,
                 retention_window: int = DEFAULT_RETENTION_WINDOW):
        self.max_match_distance = max_match_distance
        self.retention_window = retention_window
        self.persons: dict[int, TrackedPerson] = {}
        self._next_id = 1
        self._last_frame_index: Optional[int] = None
        self._row_ids: list[int] = []  # person id of each array row, ascending
        self._coords = np.zeros((0, NUM_JOINTS, 3))
        self._confidence = np.zeros((0, NUM_JOINTS))

    def _candidates(self, coords: np.ndarray, confidence: np.ndarray,
                    gate: float) -> list[tuple[int, int]]:
        """(track row, skeleton index) pairs within the gate, ordered like
        sorting (distance, person id, skeleton index) tuples."""
        n_pairs = len(self._row_ids) * len(coords)
        if n_pairs == 0:
            return []
        if n_pairs == 1:  # numpy's per-call cost outweighs one pair
            d = _row_distance(self._coords[0], self._confidence[0], coords[0], confidence[0])
            return [(0, 0)] if d is not None and d <= gate else []
        dist = distance_matrix(self._coords, self._confidence, coords, confidence)
        rows, cols = np.nonzero(dist <= gate)  # NaN (no shared joint) compares false
        # row-major nonzero is (person id, skeleton index) order; a stable
        # sort by distance keeps it among ties
        order = np.argsort(dist[rows, cols], kind="stable")
        return list(zip(rows[order].tolist(), cols[order].tolist()))

    def match_frame(self, frame: SkeletonFrame) -> Assignment:
        if self._last_frame_index is not None and frame.frame_index <= self._last_frame_index:
            raise SequencingError(
                f"frame {frame.frame_index} not after frame {self._last_frame_index}"
            )
        self._last_frame_index = frame.frame_index

        coords, confidence = frame.coords, frame.confidence
        gate = self.max_match_distance
        if gate is None:
            gate = _frame_torso_gate(coords, confidence)

        assignment = Assignment(frame_index=frame.frame_index)
        used_rows: set[int] = set()
        used_skeletons: set[int] = set()
        for row, sidx in self._candidates(coords, confidence, gate):
            if row in used_rows or sidx in used_skeletons:
                continue
            used_rows.add(row)
            used_skeletons.add(sidx)
            pid = self._row_ids[row]
            assignment.pairs.append((pid, sidx))
            assignment.id_by_skeleton[sidx] = pid
            person = self.persons[pid]
            person.last_seen_frame = frame.frame_index
            person.frames_missing = 0
            self._coords[row] = coords[sidx]
            self._confidence[row] = confidence[sidx]

        fresh = []
        for sidx in range(len(coords)):
            # a skeleton with no detected joint can never be matched again
            if sidx in used_skeletons or not (confidence[sidx] > 0).any():
                continue
            pid = self._next_id
            self._next_id += 1  # ids are never reused
            self.persons[pid] = TrackedPerson(id=pid, last_seen_frame=frame.frame_index)
            self._row_ids.append(pid)
            fresh.append(sidx)
            assignment.new_ids.append(sidx)
            assignment.id_by_skeleton[sidx] = pid
        if fresh:
            self._coords = np.concatenate([self._coords, coords[fresh]])
            self._confidence = np.concatenate([self._confidence, confidence[fresh]])

        retired_rows = []
        for row, pid in enumerate(self._row_ids):
            person = self.persons[pid]
            if person.last_seen_frame != frame.frame_index:
                person.frames_missing = frame.frame_index - person.last_seen_frame
                if person.frames_missing > self.retention_window:
                    assignment.retired.append(pid)
                    retired_rows.append(row)
                    del self.persons[pid]
        if retired_rows:
            self._row_ids = [pid for pid in self._row_ids if pid in self.persons]
            self._coords = np.delete(self._coords, retired_rows, axis=0)
            self._confidence = np.delete(self._confidence, retired_rows, axis=0)

        assignment.pairs.sort()
        return assignment
