"""Person re-identification across frames by Euclidean keypoint matching.

Each skeleton in a new frame is paired with the spatially closest known
person (greedy smallest-distance-first); unmatched skeletons get fresh ids,
except one with no detected joint, which is never tracked, and persons
unseen for longer than the retention window are retired. A frame index may
skip: a person last seen more than RETENTION_WINDOW + 1 frames back would
have retired in a frame in between, so it retires when the frame comes,
before matching, and is reported in that frame's retired ids.
Distances use raw coordinates, since spatial position is the identity cue.

What depends only on a frame and the frame before it is planned ahead for a
whole FrameChunk, in one ChunkPlan (PoseTracker.plan) whose per-frame lists
a frame reads at its position in the chunk: each frame's gate, the distances
of the pairs of its skeletons with those of the frame before (once rows have
several partners, only of the pairs whose detected-joint bounding boxes lie
within the gate), and whether the frame is steady: within the retention
window of the frame before, with pairs that are disjoint (no skeleton on
either side in two of them) and pair every skeleton of both frames. After a
frame that saw every live track, match_frame takes a steady frame's pairs as
planned. Every other frame (in the benchmark sessions, only the first) takes
one rule: retire across skipped frame indices, take the plan's pairs of the
tracks seen in the frame before, measure the other live tracks, pair by the
greedy pass, grant new ids, retire. The tracker keeps no plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

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


def pair_distances(coords: np.ndarray, detected: np.ndarray, rows_a: np.ndarray,
                   rows_b: np.ndarray) -> np.ndarray:
    """Mean Euclidean distance over the joints detected in both rows, for
    each row pair (rows_a[k], rows_b[k]) of (N, 25, 3) coords and their
    (N, 25) detected masks; NaN where a pair shares no detected joint.

    The tracker's one distance rule: a masked sum over all 25 joints, so a
    pair gets the same bits whichever way it is reached. Each axis is
    gathered and squared as one (K, 25) plane."""
    shared = detected[rows_a] & detected[rows_b]
    x, y, z = (coords[..., axis] for axis in range(3))
    norms = x[rows_a] - x[rows_b]
    np.multiply(norms, norms, out=norms)  # in place: fewer fresh arrays to fault in
    for plane in (y, z):  # (x² + y²) + z², left to right
        sq = plane[rows_a] - plane[rows_b]
        np.multiply(sq, sq, out=sq)
        norms += sq
    np.sqrt(norms, out=norms)
    norms[~shared] = 0.0
    with np.errstate(invalid="ignore"):
        return norms.sum(axis=1) / shared.sum(axis=1)


def skeleton_distance(a: RawSkeleton, b: RawSkeleton) -> Optional[float]:
    """Mean Euclidean distance over joints detected in both skeletons.

    Returns None (incomparable) when the two skeletons share no detected
    joint.
    """
    (d,) = pair_distances(np.stack([a.coords, b.coords]),
                          np.stack([a.confidence, b.confidence]) > 0, [0], [1]).tolist()
    return None if math.isnan(d) else d


def distance_matrix(track_coords: np.ndarray, track_confidence: np.ndarray,
                    coords: np.ndarray, confidence: np.ndarray) -> np.ndarray:
    """(P, S) pair_distances of P tracks against S skeletons; NaN where a
    pair shares no detected joint. Equal to skeleton_distance bit for bit."""
    n_tracks, n_skeletons = len(track_coords), len(coords)
    rows = np.repeat(np.arange(n_tracks), n_skeletons)
    cols = np.tile(np.arange(n_tracks, n_tracks + n_skeletons), n_tracks)
    return pair_distances(np.concatenate([track_coords, coords]),
                          np.concatenate([track_confidence, confidence]) > 0,
                          rows, cols).reshape(n_tracks, n_skeletons)


def detected_boxes(coords: np.ndarray, detected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(3, N) low and high corners, axis by axis, of the box around each
    row's detected joints; a row without one gets the empty box (+inf, -inf)."""
    low = np.empty((3, len(coords)))
    high = np.empty((3, len(coords)))
    undetected = np.flatnonzero(~detected.T)  # of the joint-major planes
    # per axis, a (25, N) plane of every row's joints: the reduce over its
    # first axis runs along rows, not over 25 strided values a row
    for axis, plane in enumerate(coords.transpose(2, 1, 0).copy()):
        values = plane.reshape(-1)
        values[undetected] = np.inf
        plane.min(axis=0, out=low[axis])
        values[undetected] = -np.inf
        plane.max(axis=0, out=high[axis])
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


@dataclass(slots=True)
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


@dataclass(frozen=True, slots=True)
class ChunkPlan:
    """What match_frame needs of a chunk's frames, computed ahead of them:
    the frame at position k of the chunk reads entry k of each per-frame list."""

    prev: list[Optional[SkeletonFrame]]  # per frame: the frame its candidates were measured against
    gates: list[float]  # per frame
    tracked: list[bool]  # per row of the chunk: has a detected joint
    # per frame: (distance, skeleton of prev, skeleton of the frame) for every pair within the gate
    candidates: list[list[tuple[float, int, int]]]
    steady: list[bool]  # per frame: within the window of prev; candidates pair each skeleton of both once


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

    def plan(self, chunk: FrameChunk) -> ChunkPlan:
        """The plan of the chunk's frames, for match_frame: each frame is
        planned against the frame before it, the first against the frame
        matched last, whose rows are stacked in front of the chunk's."""
        lead = self._last_frame
        sizes, indices = list(chunk.sizes), list(chunk.indices)
        coords, confidence = chunk.coords, chunk.confidence
        if lead is not None:  # every matched frame is a chunk's
            lead_rows = lead.chunk.rows(lead.position)
            coords = np.concatenate([lead.chunk.coords[lead_rows], coords])
            confidence = np.concatenate([lead.chunk.confidence[lead_rows], confidence])
            sizes.insert(0, lead_rows.stop - lead_rows.start)
            indices.insert(0, lead.frame_index)
        n_lead = len(sizes) - len(chunk.sizes)
        bounds = list(accumulate(sizes, initial=0))
        detected = confidence > 0
        if self.max_match_distance is None:
            gates = _frame_gates(bounds, coords, confidence)
        else:
            gates = [self.max_match_distance] * len(sizes)

        # every (row of frame q - 1, row of frame q) pair, q >= 1, in row
        # order: each row of a frame pairs with the rows of the next frame
        sizes_a, bounds_a = np.array(sizes), np.array(bounds)
        fanout = np.repeat(sizes_a[1:], sizes_a[:-1])  # per row before the last frame
        prev_rows = np.repeat(np.arange(len(fanout)), fanout)
        first_paired = np.repeat(bounds_a[1:-1], sizes_a[:-1])  # next frame's first row
        rows = np.arange(len(prev_rows)) - np.repeat(np.cumsum(fanout) - fanout - first_paired,
                                                     fanout)
        gate = np.repeat(np.repeat(gates[1:], sizes_a[:-1]), fanout)
        if len(prev_rows) > len(coords):
            # exact pruning, worth its boxes once rows have several partners:
            # a pair whose boxes lie farther apart than the gate cannot be within it
            low, high = detected_boxes(coords, detected)
            near = np.flatnonzero(box_gaps(low, high, prev_rows, rows)
                                  <= gate * (1 + BOX_GAP_SLACK))
            prev_rows, rows, gate = prev_rows[near], rows[near], gate[near]
        dist = pair_distances(coords, detected, prev_rows, rows)
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
        free = np.bincount(frame_of[~shared], minlength=len(sizes))[1:]
        gaps = np.diff(indices)
        steady = [False, *((free == sizes_a[1:]) & (free == sizes_a[:-1])  # the first: no prev
                           & (gaps <= RETENTION_WINDOW + 1)).tolist()]

        return ChunkPlan(prev=[lead, *chunk.frames[:-1]], gates=gates[n_lead:],
                         tracked=detected[bounds[n_lead]:].any(axis=1).tolist(),
                         candidates=[candidates[cuts[q]:cuts[q + 1]]
                                     for q in range(n_lead, len(sizes))],
                         steady=steady[n_lead:])

    def _retire(self, index: int, window: int) -> list[int]:
        """Drop the tracks last seen more than `window` frames before frame
        `index`; their ids, ascending (persons holds its ids in the order
        they were granted)."""
        retired = [pid for pid, (seen, _) in self.persons.items()
                   if index - seen.frame_index > window]
        for pid in retired:
            del self.persons[pid]
        return retired

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

    def match_frame(self, frame: SkeletonFrame, plan: Optional[ChunkPlan] = None) -> Assignment:
        """Match a frame's skeletons to the known persons, by the plan of the
        frame's chunk; a frame without one is matched as a chunk of one."""
        if plan is None:
            chunk = FrameChunk.of([frame])
            (frame,) = chunk.frames
            plan = self.plan(chunk)
        last = self._last_frame
        index = frame.frame_index
        if last is not None and index <= last.frame_index:
            raise SequencingError(f"frame {index} not after frame {last.frame_index}")
        self._last_frame = frame
        k = frame.position
        persons, last_ids = self.persons, self._last_ids
        if plan.steady[k] and plan.prev[k] is last and len(persons) == len(last_ids):
            # each track pairs with its own skeleton: nothing to sort, grant or retire
            ids = self._last_ids = {}
            for _, p, sidx in plan.candidates[k]:
                pid = ids[sidx] = last_ids[p]
                persons[pid] = (frame, sidx)
            return Assignment(index, [], [], ids)
        return self._match_general(frame, plan, last)

    def _match_general(self, frame: SkeletonFrame, plan: ChunkPlan, last) -> Assignment:
        """match_frame of a frame off the steady state, after the frame last."""
        index, k = frame.frame_index, frame.position
        persons, last_ids = self.persons, self._last_ids
        retired = self._retire(index, RETENTION_WINDOW + 1)  # across skipped frame indices

        # the tracks seen in the frame before have their pairs in the plan,
        # unless they just retired: then every track did
        planned = (last is not None and plan.prev[k] is last
                   and index - last.frame_index <= RETENTION_WINDOW + 1)
        candidates = [(d, last_ids[p], s) for d, p, s in plan.candidates[k]] if planned else []
        missing = [pid for pid, (f, _) in persons.items() if not planned or f is not last]
        if missing:
            candidates += self._missing_candidates(missing, frame, plan.gates[k])
        ids = {sidx: pid for pid, sidx in greedy_pairs(candidates)}
        for sidx, pid in ids.items():  # ids: skeleton index -> person id
            persons[pid] = (frame, sidx)

        new_ids: list[int] = []
        for sidx, detected in enumerate(plan.tracked[frame.chunk.rows(k)]):
            # a skeleton with no detected joint can never be matched again
            if detected and sidx not in ids:
                pid = self._next_id
                self._next_id += 1  # ids are never reused
                persons[pid] = (frame, sidx)
                new_ids.append(sidx)
                ids[sidx] = pid

        retired += self._retire(index, RETENTION_WINDOW)
        self._last_ids = ids  # the tracker's map of the frame: never changed once handed out
        return Assignment(index, new_ids, retired, ids)
