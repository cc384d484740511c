"""Person re-identification across frames by Euclidean keypoint matching.

Each skeleton in a new frame is paired with the spatially closest known
person (greedy smallest-distance-first); unmatched skeletons get fresh ids,
except one with no detected joint, which is never tracked, and persons
unseen for longer than the retention window are retired. A frame index may
skip: a person last seen more than RETENTION_WINDOW + 1 frames back would
have retired in a frame in between, so it retires when the frame comes,
before matching, and is reported in that frame's retired ids.
Distances use raw coordinates, since spatial position is the identity cue.

What depends only on a frame and the frame before it is planned ahead for
a whole FrameChunk (PoseTracker.plan): each frame's gate, the distances of
the pairs of its skeletons with those of the frame before whose
detected-joint bounding boxes lie within the gate, and whether the frame
is steady: within the retention window of the frame before, with pairs
that are disjoint (no skeleton on either side in two of them) and pair
every skeleton of both frames. After a frame that saw every live track,
match_frame takes a steady frame's pairs as planned. Any other frame reads
the pairs of the tracks seen in the frame before from its plan, and only
tracks missing from that frame are measured when it comes. The tracker
keeps no plan.
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


def greedy_pairs(candidates: list[tuple[float, int, int]]) -> list[tuple[int, int]]:
    """The (person id, skeleton index) pairs of the greedy pass over
    (distance, person id, skeleton index) candidates: in ascending order,
    each candidate whose person and skeleton are both still free."""
    used: set[int] = set()
    taken: set[int] = set()
    pairs = []
    for _, pid, sidx in sorted(candidates):
        if pid not in used and sidx not in taken:
            used.add(pid)
            taken.add(sidx)
            pairs.append((pid, sidx))
    return pairs


@dataclass
class Assignment:
    """match_frame's answer for one frame; its fields are read-only to callers."""

    frame_index: int
    new_ids: list[int] = field(default_factory=list)  # skeleton indices granted fresh ids
    retired: list[int] = field(default_factory=list)  # person ids dropped this frame
    # every skeleton index -> assigned person id (matched or fresh)
    id_by_skeleton: dict[int, int] = field(default_factory=dict)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """(person id, skeleton index) of every matched skeleton, ascending:
        id_by_skeleton without the new_ids. Built on each access."""
        fresh = set(self.new_ids)
        return sorted((pid, s) for s, pid in self.id_by_skeleton.items() if s not in fresh)


class FramePlan(NamedTuple):
    """What match_frame needs of a frame, computed ahead of it."""

    prev: Optional[SkeletonFrame]  # the frame the candidates were measured against
    gate: float
    tracked: list[bool]  # per skeleton: has a detected joint
    # (distance, skeleton of prev, skeleton of frame) for every pair within the gate
    candidates: list[tuple[float, int, int]]
    steady: bool  # within the window of prev; candidates pair each skeleton of both once


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
        # a row pairs only with rows of one frame, so a row in two candidates
        # puts two of one frame's candidates in conflict; as many candidates
        # free of one as the rows on either side pair every row once
        shared = ((np.bincount(prev_rows, minlength=len(coords)) > 1)[prev_rows]
                  | (np.bincount(rows, minlength=len(coords)) > 1)[rows])
        free = np.bincount(frame_of[~shared], minlength=len(frames))[1:]
        gaps = np.diff([f.frame_index for f in frames])
        steady = [False, *((free == sizes_a[1:]) & (free == sizes_a[:-1])  # the first: no prev
                           & (gaps <= RETENTION_WINDOW + 1)).tolist()]

        return [FramePlan(frames[q - 1] if q else None, gates[q], tracked[bounds[q]:bounds[q + 1]],
                          candidates[cuts[q]:cuts[q + 1]], steady[q])
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
        index = frame.frame_index
        if last is not None and index <= last.frame_index:
            raise SequencingError(f"frame {index} not after frame {last.frame_index}")
        self._last_frame = frame
        persons, last_ids = self.persons, self._last_ids
        if plan.steady and plan.prev is last and len(persons) == len(last_ids):
            # each track pairs with its own skeleton: nothing to sort, grant or retire
            ids = self._last_ids = {}
            for _, p, sidx in plan.candidates:
                pid = ids[sidx] = last_ids[p]
                persons[pid] = (frame, sidx)
            return Assignment(index, [], [], ids)
        return self._match_general(frame, plan, last)

    def _match_general(self, frame: SkeletonFrame, plan: FramePlan, last) -> Assignment:
        """match_frame of a frame off the steady state, after the frame last."""
        index = frame.frame_index
        persons, last_ids = self.persons, self._last_ids
        retired: list[int] = []
        # every track is within the window of the frame before, so one can
        # outlive it unseen only across skipped frame indices
        if last is not None and index - last.frame_index > 1:
            retired = [pid for pid, (seen, _) in persons.items()
                       if index - seen.frame_index > RETENTION_WINDOW + 1]
            for pid in retired:
                del persons[pid]

        # the tracks seen in the frame before have their pairs in the plan,
        # unless they just retired: then every track did
        planned = (last is not None and plan.prev is last
                   and index - last.frame_index <= RETENTION_WINDOW + 1)
        pairs = plan.candidates
        if (planned and len(persons) == len(last_ids)
                and len({p for _, p, _ in pairs}) == len(pairs) == len({s for *_, s in pairs})):
            # every track is in the plan, and greedy_pairs would take each pair
            ids = {sidx: last_ids[p] for _, p, sidx in pairs}
        else:
            candidates = [(d, last_ids[p], s) for d, p, s in pairs] if planned else []
            if not planned or len(persons) > len(last_ids):
                missing = [pid for pid, (f, _) in persons.items() if not planned or f is not last]
                if missing:
                    candidates += self._missing_candidates(missing, frame, plan.gate)
            ids = {sidx: pid for pid, sidx in greedy_pairs(candidates)}
        for sidx, pid in ids.items():  # ids: skeleton index -> person id
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

        if len(ids) < len(persons):  # someone was not seen
            for pid, (seen, _) in list(persons.items()):  # ascending id
                if index - seen.frame_index > RETENTION_WINDOW:
                    retired.append(pid)
                    del persons[pid]

        self._last_ids = ids  # the tracker's map of the frame: never changed once handed out
        return Assignment(index, new_ids, retired, ids)
