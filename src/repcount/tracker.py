"""Person re-identification across frames by Euclidean keypoint matching.

Each skeleton in a new frame is paired with the spatially closest known
person (greedy smallest-distance-first); unmatched skeletons get fresh ids,
except one with no detected joint, which is never tracked, and persons
unseen for longer than the retention window are retired.
Distances use raw coordinates, since spatial position is the identity cue.

What depends only on a frame and the frame before it is planned ahead for
a whole FrameChunk (PoseTracker.plan): each frame's gate, and the
distances of the pairs of its skeletons with those of the frame before
whose detected-joint bounding boxes lie within the gate. The caller passes
each frame's plan to match_frame, which reads the pairs of the tracks seen
in the frame before from it; only tracks missing from that frame are
measured when the frame comes. The tracker keeps no plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .body25 import MID_HIP, NECK
from .keypoints import FrameChunk, RawSkeleton, SkeletonFrame

RETENTION_WINDOW = 30  # frames a track outlives its last sighting (~1 s at 30 fps)
# gate = this fraction of the median torso length observed in the frame
AUTO_GATE_TORSO_FRACTION = 0.5
# relative slack of the box-gap bound, against rounding in the gap and in
# the distance it bounds
BOX_GAP_SLACK = 1e-9


class SequencingError(RuntimeError):
    """Frame fed to the tracker out of order."""


def pair_distances(coords_a: np.ndarray, confidence_a: np.ndarray,
                   coords_b: np.ndarray, confidence_b: np.ndarray) -> np.ndarray:
    """Mean Euclidean distance over the joints detected in both rows, for K
    row pairs given as (K, 25, 3) coords and (K, 25) confidences per side;
    NaN where a pair shares no detected joint.

    The tracker's one distance rule: a masked sum over all 25 joints, so a
    pair gets the same bits whichever way it is reached.
    """
    shared = (confidence_a > 0) & (confidence_b > 0)
    sq = coords_a - coords_b
    np.multiply(sq, sq, out=sq)  # in place: fewer fresh arrays to fault in
    # the same left-to-right sum as .sum(axis=2), without a slow short-axis reduce
    norms = sq[..., 0] + sq[..., 1]
    norms += sq[..., 2]
    np.sqrt(norms, out=norms)
    norms[~shared] = 0.0
    with np.errstate(invalid="ignore"):
        return norms.sum(axis=1) / shared.sum(axis=1)


def skeleton_distance(a: RawSkeleton, b: RawSkeleton) -> Optional[float]:
    """Mean Euclidean distance over joints detected in both skeletons.

    Returns None (incomparable) when the two skeletons share no detected
    joint.
    """
    (d,) = pair_distances(a.coords[None], a.confidence[None],
                          b.coords[None], b.confidence[None]).tolist()
    return None if math.isnan(d) else d


def distance_matrix(track_coords: np.ndarray, track_confidence: np.ndarray,
                    coords: np.ndarray, confidence: np.ndarray) -> np.ndarray:
    """(P, S) pair_distances of P tracks against S skeletons; NaN where a
    pair shares no detected joint. Equal to skeleton_distance bit for bit."""
    n_tracks, n_skeletons = len(track_coords), len(coords)
    rows = np.repeat(np.arange(n_tracks), n_skeletons)
    cols = np.tile(np.arange(n_skeletons), n_tracks)
    return pair_distances(track_coords[rows], track_confidence[rows],
                          coords[cols], confidence[cols]).reshape(n_tracks, n_skeletons)


def detected_boxes(coords: np.ndarray, detected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(3, N) low and high corners, axis by axis, of the box around each
    row's detected joints; a row without one gets the empty box (+inf, -inf)."""
    low = np.empty((3, len(coords)))
    high = np.empty((3, len(coords)))
    for k in range(3):  # per axis: a reduce over (N, 25, 3) strides slowly
        axis = coords[..., k]
        low[k] = np.where(detected, axis, np.inf).min(axis=1)
        high[k] = np.where(detected, axis, -np.inf).max(axis=1)
    return low, high


def box_gaps(low: np.ndarray, high: np.ndarray, rows_a: np.ndarray,
             rows_b: np.ndarray) -> np.ndarray:
    """Euclidean gap between the detected_boxes of rows rows_a[k] and
    rows_b[k]; +inf if a box is empty.

    Every joint of a row lies in its box, so each shared joint is at least
    the gap apart, and so is their mean: a lower bound on pair_distances.
    """
    sq = 0.0
    for k in range(3):  # gathers from one axis's row are far cheaper than of (N, 3) rows
        lo, hi = low[k], high[k]
        gap = np.maximum(np.maximum(lo[rows_b] - hi[rows_a], lo[rows_a] - hi[rows_b]), 0.0)
        sq = sq + gap * gap
    return np.sqrt(sq)


@dataclass
class Assignment:
    frame_index: int
    pairs: list[tuple[int, int]] = field(default_factory=list)  # (person id, skeleton index)
    new_ids: list[int] = field(default_factory=list)  # skeleton indices granted fresh ids
    retired: list[int] = field(default_factory=list)  # person ids dropped this frame
    # every skeleton index -> assigned person id (matched or fresh)
    id_by_skeleton: dict[int, int] = field(default_factory=dict)


class FramePlan(NamedTuple):
    """What match_frame needs of a frame, computed ahead of it."""

    prev: Optional[SkeletonFrame]  # the frame the candidates were measured against
    gate: float
    tracked: list[bool]  # per skeleton: has a detected joint
    # (distance, skeleton of prev, skeleton of frame) for every pair within the gate
    candidates: list[tuple[float, int, int]]


def _frame_gates(bounds: list[int], coords: np.ndarray, confidence: np.ndarray) -> list[float]:
    """Each frame's automatic gate: the fraction of the median torso length of
    its skeletons whose neck and mid-hip are detected; inf without one.
    bounds[k]:bounds[k + 1] are frame k's rows of the stacked arrays.

    The medians of all frames are taken at once, with the operations of
    statistics.median on each frame's sorted torsos: the middle one of an
    odd count, the halved sum of the middle two of an even one."""
    # confidences are >= 0, so the smaller one is > 0 iff both joints are seen
    seen = np.minimum(confidence[:, NECK], confidence[:, MID_HIP]) > 0
    d = coords[:, NECK] - coords[:, MID_HIP]
    torsos = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])[seen]
    n_frames = len(bounds) - 1
    frame_of = np.repeat(np.arange(n_frames), np.diff(bounds))[seen]
    # each frame's torsos in ascending order, then an inf that frames without
    # one index into harmlessly
    ordered = np.append(torsos[np.lexsort((torsos, frame_of))], np.inf)
    counts = np.bincount(frame_of, minlength=n_frames)
    firsts = np.cumsum(counts) - counts
    low, high = ordered[firsts + (counts - 1) // 2], ordered[firsts + counts // 2]
    medians = np.where(counts % 2 == 1, high, (low + high) / 2)
    return np.where(counts > 0, AUTO_GATE_TORSO_FRACTION * medians, np.inf).tolist()


class PoseTracker:
    """Single-writer sequential tracker for one session stream.

    persons maps each live track's id to its last skeleton, a reference
    (frame, skeleton index) to the arrays of the frame it was last seen in.
    The gate is automatic (None) or a fixed distance.
    """

    def __init__(self, max_match_distance: Optional[float] = None):
        if max_match_distance is not None and not (math.isfinite(max_match_distance)
                                                   and max_match_distance >= 0):
            raise ValueError("max_match_distance must be None or a finite number >= 0, "
                             f"got {max_match_distance!r}")
        self.max_match_distance = max_match_distance
        self.persons: dict[int, tuple[SkeletonFrame, int]] = {}
        self._next_id = 1
        self._last_frame: Optional[SkeletonFrame] = None
        self._last_ids: dict[int, int] = {}  # skeleton of the last frame -> person id

    def plan(self, chunk: FrameChunk) -> list[FramePlan]:
        """The plans of the chunk's frames, for match_frame: each frame is
        planned against the frame before it, the first against the frame
        matched last, whose rows are stacked in front of the chunk's."""
        lead = [] if self._last_frame is None else [self._last_frame]
        frames = [*lead, *chunk.frames]
        coords = np.concatenate([*(f.coords for f in lead), chunk.coords])
        confidence = np.concatenate([*(f.confidence for f in lead), chunk.confidence])
        sizes = [len(f.coords) for f in frames]
        bounds = list(accumulate(sizes, initial=0))
        detected = confidence > 0
        tracked = detected.any(axis=1).tolist()
        if self.max_match_distance is None:
            gates = _frame_gates(bounds, coords, confidence)
        else:
            gates = [self.max_match_distance] * len(frames)

        # every (row of frame q - 1, row of frame q) pair, q >= 1, in row
        # order: each row of a frame pairs with the rows of the next frame
        sizes_a, bounds_a = np.array(sizes), np.array(bounds)
        fanout = np.repeat(sizes_a[1:], sizes_a[:-1])  # per row before the last frame
        prev_rows = np.repeat(np.arange(len(fanout)), fanout)
        first_paired = np.repeat(bounds_a[1:-1], sizes_a[:-1])  # next frame's first row
        rows = np.arange(len(prev_rows)) - np.repeat(np.cumsum(fanout) - fanout - first_paired,
                                                     fanout)
        gate = np.repeat(np.repeat(gates[1:], sizes_a[:-1]), fanout)
        # exact pruning: a pair whose boxes lie farther apart than the gate
        # cannot be within it
        low, high = detected_boxes(coords, detected)
        near = np.flatnonzero(box_gaps(low, high, prev_rows, rows) <= gate * (1 + BOX_GAP_SLACK))
        prev_rows, rows, gate = prev_rows[near], rows[near], gate[near]
        dist = pair_distances(coords[prev_rows], confidence[prev_rows],
                              coords[rows], confidence[rows])
        hit = np.flatnonzero(dist <= gate)  # NaN (no shared joint) compares false
        prev_rows, rows = prev_rows[hit], rows[hit]
        frame_of = np.searchsorted(bounds_a, rows, side="right") - 1
        candidates = list(zip(dist[hit].tolist(), (prev_rows - bounds_a[frame_of - 1]).tolist(),
                              (rows - bounds_a[frame_of]).tolist()))
        # prev_rows ascend, so a frame's candidates follow those of the frame before
        cuts = [0, *np.searchsorted(prev_rows, bounds_a[:-1]).tolist()]

        return [FramePlan(frames[q - 1] if q else None, gates[q],
                          tracked[bounds[q]:bounds[q + 1]], candidates[cuts[q]:cuts[q + 1]])
                for q in range(len(lead), len(frames))]

    def _missing_candidates(self, pids: list[int], frame: SkeletonFrame,
                            gate: float) -> list[tuple[float, int, int]]:
        """(distance, person id, skeleton index) within the gate for tracks
        whose last skeleton is not in the plan's previous frame."""
        refs = [self.persons[pid] for pid in pids]
        dist = distance_matrix(np.stack([f.coords[s] for f, s in refs]),
                               np.stack([f.confidence[s] for f, s in refs]),
                               frame.coords, frame.confidence)
        tracks, skeletons = np.nonzero(dist <= gate)
        return [(d, pids[t], s) for d, t, s in zip(dist[tracks, skeletons].tolist(),
                                                   tracks.tolist(), skeletons.tolist())]

    def match_frame(self, frame: SkeletonFrame, plan: Optional[FramePlan] = None) -> Assignment:
        """Match a frame's skeletons to the known persons, by its plan; a
        frame without one is planned as a chunk of one."""
        if plan is None:
            (plan,) = self.plan(FrameChunk.of([frame]))
        last = self._last_frame
        if last is not None and frame.frame_index <= last.frame_index:
            raise SequencingError(
                f"frame {frame.frame_index} not after frame {last.frame_index}"
            )
        self._last_frame = frame

        # the tracks seen in the frame before have their pairs in the plan
        planned_from = last if plan.prev is last else None
        persons, last_ids = self.persons, self._last_ids
        candidates = ([(d, last_ids[p], s) for d, p, s in plan.candidates]
                      if planned_from is not None else [])
        if planned_from is None or len(persons) > len(last_ids):
            missing = [pid for pid, (f, _) in persons.items() if f is not planned_from]
            if missing:
                candidates += self._missing_candidates(missing, frame, plan.gate)
        candidates.sort()  # by distance, then person id, then skeleton index

        index = frame.frame_index
        ids: dict[int, int] = {}  # skeleton index -> person id
        pairs: list[tuple[int, int]] = []
        used: set[int] = set()
        for _, pid, sidx in candidates:
            if pid in used or sidx in ids:
                continue
            used.add(pid)
            ids[sidx] = pid
            pairs.append((pid, sidx))
            persons[pid] = (frame, sidx)

        new_ids: list[int] = []
        if len(ids) < len(plan.tracked):  # some skeleton is unmatched
            for sidx, tracked in enumerate(plan.tracked):
                # a skeleton with no detected joint can never be matched again
                if sidx in ids or not tracked:
                    continue
                pid = self._next_id
                self._next_id += 1  # ids are never reused
                persons[pid] = (frame, sidx)
                new_ids.append(sidx)
                ids[sidx] = pid

        retired: list[int] = []
        if len(ids) < len(persons):  # someone was not seen
            for pid, (seen, _) in list(persons.items()):  # ascending id
                if index - seen.frame_index > RETENTION_WINDOW:
                    retired.append(pid)
                    del persons[pid]

        self._last_ids = dict(ids)
        pairs.sort()
        return Assignment(index, pairs, new_ids, retired, ids)
