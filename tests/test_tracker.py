import dataclasses
import functools
import itertools
import json
import math
import statistics
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import keypoints, pipeline, recognizer, tracker
from repcount.body25 import MID_HIP, NECK, NUM_JOINTS
from repcount.keypoints import FrameChunk, RawSkeleton, SkeletonFrame, normalize_skeleton
from repcount.pipeline import EngineConfig, SessionEngine, analyze_frames
from repcount.reporting import render_json, render_text
from repcount.synthetic import (PersonMotion, SyntheticSessionSpec,
                                generate_session)
from repcount.tracker import (RETENTION_WINDOW, PoseTracker, SequencingError, distance_matrix,
                              skeleton_distance)
from test_ndjson_chunks import CHUNK_ROWS_DRAWN


def skeleton_at(offset, rng=None, detected=None):
    rng = rng or np.random.default_rng(0)
    coords = np.zeros((NUM_JOINTS, 3))
    coords[:, :2] = rng.uniform(-30, 30, size=(NUM_JOINTS, 2)) + np.asarray(offset)
    coords[1, :2] = (offset[0], offset[1] + 60)  # neck
    coords[8, :2] = offset  # mid-hip
    conf = np.ones(NUM_JOINTS)
    if detected is not None:
        conf[:] = 0.0
        conf[list(detected)] = 1.0
        coords[conf == 0] = 0.0
    return RawSkeleton(coords=coords, confidence=conf)


def frame(index, *skeletons):
    return SkeletonFrame.of(index, skeletons)


class TestSkeletonDistance:
    def test_identical_is_zero(self):
        s = skeleton_at((0, 0))
        assert skeleton_distance(s, s) == 0.0

    def test_translation_3_4_gives_5(self):
        a = skeleton_at((0, 0))
        coords = a.coords.copy()
        coords[:, 0] += 3
        coords[:, 1] += 4
        b = RawSkeleton(coords=coords, confidence=a.confidence)
        assert skeleton_distance(a, b) == pytest.approx(5.0)

    def test_disjoint_joints_incomparable(self):
        a = skeleton_at((0, 0), detected={1, 8})
        b = skeleton_at((0, 0), detected={2, 3})
        assert skeleton_distance(a, b) is None

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = skeleton_at(rng.uniform(-50, 50, 2), rng)
            b = skeleton_at(rng.uniform(-50, 50, 2), rng)
            d = skeleton_distance(a, b)
            assert d >= 0
            assert d == pytest.approx(skeleton_distance(b, a))

    def test_only_shared_joints_count(self):
        a = skeleton_at((0, 0))
        coords = a.coords.copy()
        coords[0] += 1000  # joint 0 far away but undetected in b
        a2 = RawSkeleton(coords=coords, confidence=a.confidence)
        conf = a.confidence.copy()
        conf[0] = 0.0
        b = RawSkeleton(coords=a.coords, confidence=conf)
        assert skeleton_distance(a2, b) == pytest.approx(0.0)


class TestSettings:
    @pytest.mark.parametrize("gate", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300])
    def test_rejects_bad_max_match_distance(self, gate):
        with pytest.raises(ValueError, match="max_match_distance must be None or a finite"):
            PoseTracker(max_match_distance=gate)

    @pytest.mark.parametrize("gate", [None, 0, 0.0, 1e9])
    @pytest.mark.parametrize("window", [0, 1, 30])
    def test_accepts_edges(self, gate, window):
        t = PoseTracker(max_match_distance=gate)
        s = skeleton_at((0, 0))
        with mock.patch.object(tracker, "RETENTION_WINDOW", window):
            first = t.match_frame(frame(0, s)).id_by_skeleton
            assert t.match_frame(frame(1, s)).id_by_skeleton == first == {0: 1}


def brute_force_assignment(dist):
    """Minimum-total-distance one-to-one assignment by enumeration."""
    n = dist.shape[0]
    best, best_cost = None, float("inf")
    for perm in itertools.permutations(range(n)):
        cost = sum(dist[i, perm[i]] for i in range(n))
        if cost < best_cost:
            best, best_cost = perm, cost
    return {i: perm_j for i, perm_j in enumerate(best)}


class TestMatchFrame:
    def test_singleton_keeps_id(self):
        t = PoseTracker()
        s = skeleton_at((0, 0))
        a0 = t.match_frame(frame(0, s))
        a1 = t.match_frame(frame(1, s))
        assert a0.new_ids == [0]
        assert a1.pairs == [(a0.id_by_skeleton[0], 0)]

    def test_two_person_reidentification(self):
        # same-person distances < cross distances: both keep their ids even
        # when the skeleton order flips
        t = PoseTracker()
        pa, pb = skeleton_at((0, 0)), skeleton_at((400, 0))
        a0 = t.match_frame(frame(0, pa, pb))
        ida, idb = a0.id_by_skeleton[0], a0.id_by_skeleton[1]
        a1 = t.match_frame(frame(1, pb, pa))
        assert a1.id_by_skeleton[0] == idb
        assert a1.id_by_skeleton[1] == ida

    def test_greedy_matches_exhaustive_on_2x2(self):
        t = PoseTracker(max_match_distance=1e9)
        pa, pb = skeleton_at((0, 0)), skeleton_at((400, 0))
        t.match_frame(frame(0, pa, pb))
        sa, sb = skeleton_at((10, 0)), skeleton_at((390, 0))
        dist = np.array([[skeleton_distance(x, y) for y in (sa, sb)] for x in (pa, pb)])
        expected = brute_force_assignment(dist)
        a = t.match_frame(frame(1, sa, sb))
        for pid, sidx in a.pairs:
            assert expected[pid - 1] == sidx

    def test_greedy_matches_exhaustive_unambiguous(self):
        # up to 4 persons, same-person distance always below cross distance
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            t = PoseTracker(max_match_distance=1e9)
            offsets = [(400 * i, 0) for i in range(n)]
            old = [skeleton_at(o, rng) for o in offsets]
            t.match_frame(frame(0, *old))
            new = [skeleton_at((o[0] + rng.uniform(-5, 5), o[1]), rng) for o in offsets]
            order = rng.permutation(n)
            a = t.match_frame(frame(1, *[new[i] for i in order]))
            dist = np.array([[skeleton_distance(o, new[j]) for j in order] for o in old])
            expected = brute_force_assignment(dist)
            for pid, sidx in a.pairs:
                assert expected[pid - 1] == sidx

    def test_stationary_skeleton_stable_id(self):
        t = PoseTracker()
        s = skeleton_at((0, 0))
        first = t.match_frame(frame(0, s)).id_by_skeleton[0]
        for i in range(1, 200):
            assert t.match_frame(frame(i, s)).id_by_skeleton[0] == first

    def test_retirement_and_no_id_reuse(self):
        t = PoseTracker()
        s = skeleton_at((0, 0))
        first = t.match_frame(frame(0, s)).id_by_skeleton[0]
        retired = []
        with mock.patch.object(tracker, "RETENTION_WINDOW", 5):
            for i in range(1, 10):
                retired += t.match_frame(frame(i)).retired
        assert retired == [first]
        # the person reappears: a fresh id, never the retired one
        again = t.match_frame(frame(10, s)).id_by_skeleton[0]
        assert again != first

    def test_unmatched_beyond_gate_gets_new_id(self):
        t = PoseTracker(max_match_distance=10.0)
        s = skeleton_at((0, 0))
        first = t.match_frame(frame(0, s)).id_by_skeleton[0]
        far = skeleton_at((5000, 0))
        a = t.match_frame(frame(1, far))
        assert a.id_by_skeleton[0] != first
        assert a.new_ids == [0]

    def test_out_of_order_frame_raises(self):
        t = PoseTracker()
        t.match_frame(frame(5, skeleton_at((0, 0))))
        with pytest.raises(SequencingError):
            t.match_frame(frame(5, skeleton_at((0, 0))))

    @pytest.mark.parametrize("gap", [tracker.RETENTION_WINDOW + 1, tracker.RETENTION_WINDOW + 2])
    def test_skipped_indices_retire_as_frames_without_persons_do(self, gap):
        """A frame RETENTION_WINDOW + 1 indices after a track's last
        skeleton still matches it; one index more and the track retires
        before the frame is matched, in that frame's assignment. Frames
        without persons in between give the same ids."""
        s = skeleton_at((0, 0))
        skipping, filled = PoseTracker(), PoseTracker()
        first = skipping.match_frame(frame(0, s)).id_by_skeleton[0]
        filled.match_frame(frame(0, s))
        a = skipping.match_frame(frame(gap, s))
        between = [pid for i in range(1, gap) for pid in filled.match_frame(frame(i)).retired]
        b = filled.match_frame(frame(gap, s))
        if gap == tracker.RETENTION_WINDOW + 1:
            assert (a.pairs, a.new_ids, a.retired) == ([(first, 0)], [], [])
        else:
            assert (a.pairs, a.new_ids, a.retired) == ([], [0], [first])
            assert a.id_by_skeleton[0] != first
        assert (a.pairs, a.new_ids, a.id_by_skeleton) == (b.pairs, b.new_ids, b.id_by_skeleton)
        assert a.retired == between + b.retired

    def test_frames_missing_tracks_gap(self):
        t = PoseTracker()
        s = skeleton_at((0, 0))
        pid = t.match_frame(frame(0, s)).id_by_skeleton[0]
        t.match_frame(frame(1))
        t.match_frame(frame(2))
        last_seen, sidx = t.persons[pid]
        assert (last_seen.frame_index, sidx) == (0, 0)

    def test_skeleton_without_detected_joint_never_tracked(self):
        t = PoseTracker()
        empty = RawSkeleton(coords=np.zeros((NUM_JOINTS, 3)),
                            confidence=np.zeros(NUM_JOINTS))
        s = skeleton_at((0, 0))
        a0 = t.match_frame(frame(0, empty, s))
        assert a0.new_ids == [1] and 0 not in a0.id_by_skeleton
        a1 = t.match_frame(frame(1, s, empty))
        assert a1.pairs == [(a0.id_by_skeleton[1], 0)] and a1.new_ids == []
        assert list(t.persons) == [a0.id_by_skeleton[1]]


def test_frames_in_no_doubt_skip_the_greedy_pass():
    """A generated 3-person session goes through greedy_pairs on its first
    frame only: after it, every track was seen in the frame before and no
    two planned pairs share a skeleton. A frame with two skeletons inside
    one track's gate goes through it, and so does a frame that misses a
    track, and the one after it."""
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("push-up", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("pull-up", 2, noise_sigma=5.0, gap_rate=0.05)),
        seed=3, shuffle_order=True))
    a, b, near_a = skeleton_at((0, 0)), skeleton_at((400, 0)), skeleton_at((3, 0))
    with mock.patch.object(tracker, "greedy_pairs", wraps=tracker.greedy_pairs) as greedy:
        result = analyze_frames(frames)
        assert greedy.call_count == 1
        assert sorted(result.id_history) == [1, 2, 3]

        t = PoseTracker(max_match_distance=50.0)
        ids = t.match_frame(frame(0, a, b)).id_by_skeleton  # the first frame
        assert t.match_frame(frame(1, a, b)).id_by_skeleton == ids
        assert greedy.call_count == 2
        crowded = t.match_frame(frame(2, near_a, a))  # both within a's gate
        assert greedy.call_count == 3
        assert crowded.pairs == [(ids[0], 1)] and crowded.new_ids == [0]

        t = PoseTracker(max_match_distance=50.0)
        ids = t.match_frame(frame(0, a, b)).id_by_skeleton
        assert t.match_frame(frame(1, a)).id_by_skeleton == {0: ids[0]}
        assert greedy.call_count == 5  # b's track is missing only from now on
        assert t.match_frame(frame(2, b, a)).id_by_skeleton == {0: ids[1], 1: ids[0]}
        assert greedy.call_count == 6


def test_only_frames_in_doubt_take_the_general_path(monkeypatch):
    """A generated 3-person session takes match_frame's general path on its
    first frame only: every later frame is steady. A frame with a new
    skeleton, each frame that misses a track, and the frame that retires
    it take the general path; the steady frames after them do not."""
    general_frames = []
    general = PoseTracker._match_general

    def counting(self, frame, plan, last):
        general_frames.append(frame.frame_index)
        return general(self, frame, plan, last)

    monkeypatch.setattr(PoseTracker, "_match_general", counting)
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("push-up", 2, noise_sigma=5.0, gap_rate=0.05),
                 PersonMotion("pull-up", 2, noise_sigma=5.0, gap_rate=0.05)),
        seed=3, shuffle_order=True))
    analyze_frames(frames)
    assert general_frames == [frames[0].frame_index]

    general_frames.clear()
    a, b, c = skeleton_at((0, 0)), skeleton_at((400, 0)), skeleton_at((800, 0))
    t = PoseTracker(max_match_distance=50.0)
    for index in range(3):
        t.match_frame(frame(index, a, b))
    assert t.match_frame(frame(3, a, b, c)).new_ids == [2]
    t.match_frame(frame(4, a, b, c))
    gone = 4 + RETENTION_WINDOW + 1  # c, missing from frame 5 on, retires here
    retired = {index: t.match_frame(frame(index, b, a)).retired for index in range(5, gone + 3)}
    assert retired[gone] == [3] and not any(retired[i] for i in retired if i != gone)
    assert general_frames == [0, 3, *range(5, gone + 1)]


def random_skeletons(rng, n, spread=40.0):
    """n skeletons near one another, each joint dropped with its own rate;
    some repeat an earlier one, so that distances tie exactly."""
    out = []
    for _ in range(n):
        if out and rng.random() < 0.2:
            out.append(out[rng.integers(len(out))])
            continue
        coords = rng.normal(0.0, spread, size=(NUM_JOINTS, 3))
        conf = rng.uniform(0.05, 1.0, NUM_JOINTS)
        conf[rng.random(NUM_JOINTS) < rng.uniform(0.0, 1.0)] = 0.0
        coords[conf == 0] = 0.0
        out.append(RawSkeleton(coords=coords, confidence=conf))
    return out


def reference_match(persons, skeletons, gate=None):
    """The pairwise greedy pass: sort (distance, person id, skeleton index)
    candidates within the gate, then take each whose ends are both free.
    Without a gate, half the median torso length of the frame is used."""
    if gate is None:
        torsos = []
        for s in skeletons:
            if s.detected[NECK] and s.detected[MID_HIP]:
                dx, dy, dz = s.coords[NECK] - s.coords[MID_HIP]
                torsos.append(math.sqrt(dx * dx + dy * dy + dz * dz))
        gate = 0.5 * statistics.median(torsos) if torsos else float("inf")
    candidates = []
    for pid, last in persons.items():
        for sidx, skel in enumerate(skeletons):
            d = skeleton_distance(last, skel)
            if d is not None and d <= gate:
                candidates.append((d, pid, sidx))
    candidates.sort()
    pairs, used_p, used_s = [], set(), set()
    for _, pid, sidx in candidates:
        if pid not in used_p and sidx not in used_s:
            used_p.add(pid)
            used_s.add(sidx)
            pairs.append((pid, sidx))
    return sorted(pairs)


class TestDistanceMatrix:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_equals_pairwise_distance(self, n_tracks, n_skeletons, seed):
        rng = np.random.default_rng(seed)
        old = random_skeletons(rng, n_tracks)
        new = random_skeletons(rng, n_skeletons)
        dist = distance_matrix(np.stack([s.coords for s in old]),
                               np.stack([s.confidence for s in old]),
                               np.stack([s.coords for s in new]),
                               np.stack([s.confidence for s in new]))
        assert dist.shape == (n_tracks, n_skeletons)
        for p, a in enumerate(old):
            for s, b in enumerate(new):
                want = skeleton_distance(a, b)
                if want is None:  # no shared joint is never a candidate
                    assert np.isnan(dist[p, s])
                else:
                    assert dist[p, s] == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([None, 20.0, 60.0, 1e9]))
    def test_match_frame_equals_pairwise_greedy(self, n_tracks, n_skeletons, seed, gate):
        rng = np.random.default_rng(seed)
        t = PoseTracker(max_match_distance=gate)
        first = random_skeletons(rng, n_tracks)
        a0 = t.match_frame(frame(0, *first))
        persons = {pid: first[sidx] for sidx, pid in a0.id_by_skeleton.items()}
        skeletons = random_skeletons(rng, n_skeletons)
        a = t.match_frame(frame(1, *skeletons))
        assert a.pairs == reference_match(persons, skeletons, gate)


def partly_seen(rng, joints):
    """A skeleton near the origin with only the given joints detected."""
    coords = rng.normal(0.0, 40.0, size=(NUM_JOINTS, 3))
    conf = np.zeros(NUM_JOINTS)
    conf[list(joints)] = rng.uniform(0.05, 1.0, len(joints))
    coords[conf == 0] = 0.0
    return RawSkeleton(coords=coords, confidence=conf)


def stacked(skeletons):
    return (np.stack([s.coords for s in skeletons]).reshape(-1, NUM_JOINTS, 3),
            np.stack([s.confidence for s in skeletons]).reshape(-1, NUM_JOINTS))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, NUM_JOINTS - 1), min_size=3, max_size=3, unique=True))
def test_one_distance_rule(n_old, n_new, seed, joints):
    """skeleton_distance, distance_matrix, a frame's plan and the distances
    of tracks missing from the frame before are one rule, bit for bit; the
    last skeletons of each side share exactly one joint, or none."""
    rng = np.random.default_rng(seed)
    j, k, m = joints
    old = random_skeletons(rng, n_old) + [partly_seen(rng, (j, k)), partly_seen(rng, (k,))]
    new = random_skeletons(rng, n_new) + [partly_seen(rng, (j, m)), partly_seen(rng, (m,))]
    want = np.array([[np.nan if (d := skeleton_distance(a, b)) is None else d for b in new]
                     for a in old])
    assert want[-2, -2] == skeleton_distance(old[-2], new[-2]) is not None  # joint j alone
    assert skeleton_distance(old[-1], new[-1]) is None
    assert np.array_equal(distance_matrix(*stacked(old), *stacked(new)), want, equal_nan=True)
    rows, cols = np.nonzero(~np.isnan(want))
    coords, confidence = stacked(old + new)
    assert np.array_equal(tracker.pair_distances(coords, confidence > 0, rows, len(old) + cols),
                          want[rows, cols])

    before, after = frame(0, *old), frame(2, *new)
    plan = PoseTracker(1e9).plan(FrameChunk.of([before, after]))
    assert plan.candidates[1] == [(want[r, c], r, c) for r, c in zip(rows.tolist(), cols.tolist())]

    seen = []

    def recording_matrix(*args):
        seen.append(distance_matrix(*args))
        return seen[-1]

    t = PoseTracker(1e9)
    ids = t.match_frame(before).id_by_skeleton
    t.match_frame(frame(1))  # every track goes missing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracker, "distance_matrix", recording_matrix)
        t.match_frame(after)
    (measured,) = seen
    tracked = [sidx for sidx in range(len(old)) if sidx in ids]
    assert np.array_equal(measured, want[tracked], equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-6, 1.0, 40.0, 1e6]),
       st.sampled_from([0.0, 1.0, 1e3, 1e9]))
def test_box_gap_bounds_the_distance(seed, spread, offset):
    """The gap between two skeletons' detected-joint boxes is at most their
    distance, up to the slack the pruning allows for rounding."""
    rng = np.random.default_rng(seed)
    a, b = random_skeletons(rng, 2, spread)
    b = RawSkeleton(b.coords + rng.uniform(-1, 1, 3) * offset, b.confidence)
    d = skeleton_distance(a, b)
    coords, confidence = stacked([a, b])
    low, high = tracker.detected_boxes(coords, confidence > 0)
    (gap,) = tracker.box_gaps(low, high, np.array([0]), np.array([1]))
    if d is None:
        assert gap >= 0.0
    else:
        assert gap <= d * (1 + tracker.BOX_GAP_SLACK)


@st.composite
def gappy_chunks(draw):
    """The (N, 25, 3) coords and (N, 25) confidences of 0-40 rows at one of
    several scales and offsets, each row with its own rate of undetected
    joints, some rows without any detected joint, and coordinates that
    repeat or are -0.0, so that minima, maxima and distances tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    scale = draw(st.sampled_from([1e-6, 1.0, 40.0, 1e6]))
    coords = rng.normal(0.0, scale, size=(n, NUM_JOINTS, 3))
    coords += draw(st.sampled_from([0.0, -1e3, 1e9]))
    coords[rng.random(coords.shape) < 0.1] = -0.0
    coords[rng.random(coords.shape) < 0.1] = coords.reshape(-1)[0] if n else 0.0
    conf = rng.uniform(0.05, 1.0, (n, NUM_JOINTS))
    conf[rng.random((n, NUM_JOINTS)) < rng.uniform(0.0, 1.0, (n, 1))] = 0.0
    conf[rng.random(n) < 0.2] = 0.0  # rows without a detected joint
    return coords, conf


@settings(max_examples=200, deadline=None)
@given(gappy_chunks())
def test_detected_boxes_are_each_rows_min_and_max(chunk):
    coords, conf = chunk
    low, high = tracker.detected_boxes(coords, conf > 0)
    assert low.shape == high.shape == (3, len(coords))
    for row in range(len(coords)):
        seen = coords[row][conf[row] > 0]
        if len(seen):
            assert low[:, row].tolist() == seen.min(axis=0).tolist()
            assert high[:, row].tolist() == seen.max(axis=0).tolist()
        else:
            assert low[:, row].tolist() == [np.inf] * 3
            assert high[:, row].tolist() == [-np.inf] * 3


@settings(max_examples=200, deadline=None)
@given(gappy_chunks(), st.integers(0, 2**32 - 1))
def test_pair_distances_are_the_reference_bit_for_bit(chunk, seed):
    """The one distance rule, on any row pairs of a stack, a row with itself
    and rows without a shared joint among them, gives the bits of the
    independent reference_distance_matrix; NaN where a pair shares no
    detected joint."""
    coords, conf = chunk
    rng = np.random.default_rng(seed)
    rows_a, rows_b = rng.integers(0, max(len(coords), 1), (2, rng.integers(0, 60)))
    want = np.empty(0)
    if not len(coords):
        rows_a = rows_b = rows_a[:0]
    else:
        want = reference_distance_matrix(coords, conf, coords, conf)[rows_a, rows_b]
    got = tracker.pair_distances(coords, conf > 0, rows_a, rows_b)
    assert got.tobytes() == want.tobytes()


def crowd_session(n_persons=16, cycles=2, seed=4):
    exercises = ("push-up", "pull-up", "squat", "sit-up")
    spec = SyntheticSessionSpec(
        persons=tuple(PersonMotion(exercises[i % 4], full_cycles=cycles,
                                   noise_sigma=5.0, gap_rate=0.05)
                      for i in range(n_persons)),
        shuffle_order=True, seed=seed)
    return generate_session(spec)[0]


def test_crowd_frames_take_the_batched_paths(monkeypatch, trained_model):
    """On a 16-person stream the tracker never falls back to pairwise
    distances, and each chunk of frames makes one normalize call and one
    forward pass for all persons of its frames."""
    model, thresholds, _ = trained_model
    frames = crowd_session()
    chunk = 16  # 52 frames: three full chunks and a partial one
    calls = {"distance": 0, "normalize": 0, "forward": 0, "rows": 0}

    def counting_distance(a, b):
        calls["distance"] += 1
        return skeleton_distance(a, b)

    def counting_forward(m, features):
        calls["forward"] += 1
        calls["rows"] += len(np.atleast_2d(features))
        return forward(m, features)

    def counting_normalize(coords, confidence):
        calls["normalize"] += 1
        return normalize_frame(coords, confidence)

    forward = recognizer.forward
    normalize_frame = pipeline.normalize_frame
    monkeypatch.setattr(tracker, "skeleton_distance", counting_distance)
    monkeypatch.setattr(pipeline, "normalize_frame", counting_normalize)
    monkeypatch.setattr(recognizer, "forward", counting_forward)
    monkeypatch.setattr(keypoints, "CHUNK_ROWS", 16 * chunk)  # 16 rows a frame
    result = analyze_frames(frames, model=model, thresholds=thresholds)
    normalizable = [sum(normalize_skeleton(s) is not None for s in f.skeletons)
                    for f in frames]
    assert min(normalizable) >= 2
    assert calls["distance"] == 0
    assert calls["normalize"] == math.ceil(len(frames) / chunk) == 4
    assert calls["forward"] == math.ceil(len(frames) / chunk)
    assert calls["rows"] == sum(normalizable)
    assert len(result.summaries) == 16


# The tracker as it matched frame by frame before matching was planned per
# chunk, kept as the reference the planned tracker must equal.
def reference_row_distance(coords_a, confidence_a, coords_b, confidence_b):
    shared = (confidence_a > 0) & (confidence_b > 0)
    if not shared.any():
        return None
    diffs = coords_a[shared] - coords_b[shared]
    norms = np.sqrt((diffs * diffs).sum(axis=1))
    return float(norms.sum() / len(norms))


def reference_torso_gate(coords, confidence):
    seen = np.minimum(confidence[:, NECK], confidence[:, MID_HIP]).tolist()
    deltas = (coords[:, NECK] - coords[:, MID_HIP]).tolist()
    torsos = [math.sqrt(dx * dx + dy * dy + dz * dz)
              for (dx, dy, dz), c in zip(deltas, seen) if c > 0]
    if not torsos:
        return float("inf")
    return tracker.AUTO_GATE_TORSO_FRACTION * statistics.median(torsos)


# a torso end's coordinates: few values, so torsos tie, and some that
# overflow a torso to inf
TORSO_ENDS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 3.0, 4.0, -1e200, 1e200]))


@st.composite
def gate_frames(draw):
    """The stacked arrays of frames of 0-6 skeletons each, and the frames'
    row bounds. A skeleton's neck and mid-hip are seen or not, so a frame
    has 0, 1, 2, an odd or an even number of torsos, in any order."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    n = sum(sizes)
    coords = np.zeros((n, NUM_JOINTS, 3))
    confidence = np.ones((n, NUM_JOINTS))
    for row in range(n):
        for joint in (NECK, MID_HIP):
            coords[row, joint] = [draw(TORSO_ENDS) for _ in range(3)]
        unseen = draw(st.sampled_from([[], [], [NECK], [MID_HIP], [NECK, MID_HIP]]))
        confidence[row, unseen] = 0.0
    return list(itertools.accumulate(sizes, initial=0)), coords, confidence


@settings(max_examples=300, deadline=None)
@given(gate_frames())
def test_frame_gates_equal_the_median_rule(case):
    """The gates of all frames of a chunk, taken at once, are bit for bit
    those of statistics.median over each frame's torsos."""
    bounds, coords, confidence = case
    with np.errstate(over="ignore"):
        got = tracker._frame_gates(bounds, coords, confidence)
    want = [reference_torso_gate(coords[a:b], confidence[a:b])
            for a, b in zip(bounds, bounds[1:])]
    assert all(type(gate) is float for gate in got)
    assert np.array(got).tobytes() == np.array(want, dtype=np.float64).tobytes()


def reference_distance_matrix(track_coords, track_confidence, coords, confidence):
    shared = (track_confidence > 0)[:, None, :] & (confidence > 0)[None, :, :]
    n_tracks, n_skeletons = len(track_coords), len(coords)
    diffs = track_coords.reshape(n_tracks, 1, -1) - coords.reshape(1, n_skeletons, -1)
    sq = (diffs * diffs).reshape(n_tracks, n_skeletons, NUM_JOINTS, 3)
    norms = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    n_shared = shared.sum(axis=2)
    with np.errstate(invalid="ignore"):
        return np.where(shared, norms, 0.0).sum(axis=2) / n_shared


@dataclass
class TrackedPerson:
    id: int
    last_seen_frame: int
    frames_missing: int = 0


class ReferenceTracker:
    """PoseTracker.match_frame as it was, one frame at a time; it plans nothing."""

    def __init__(self, max_match_distance=None, retention_window=30):
        self.max_match_distance = max_match_distance
        self.retention_window = retention_window
        self.persons = {}
        self._next_id = 1
        self._last_frame_index = None
        self._row_ids = []
        self._coords = np.zeros((0, NUM_JOINTS, 3))
        self._confidence = np.zeros((0, NUM_JOINTS))

    def plan(self, chunk):
        return [None] * len(chunk.frames)

    def _candidates(self, coords, confidence, gate):
        n_pairs = len(self._row_ids) * len(coords)
        if n_pairs == 0:
            return []
        if n_pairs == 1:
            d = reference_row_distance(self._coords[0], self._confidence[0],
                                       coords[0], confidence[0])
            return [(0, 0)] if d is not None and d <= gate else []
        dist = reference_distance_matrix(self._coords, self._confidence, coords, confidence)
        rows, cols = np.nonzero(dist <= gate)
        order = np.argsort(dist[rows, cols], kind="stable")
        return list(zip(rows[order].tolist(), cols[order].tolist()))

    def match_frame(self, frame, plan=None):
        if self._last_frame_index is not None and frame.frame_index <= self._last_frame_index:
            raise SequencingError(frame.frame_index)
        self._last_frame_index = frame.frame_index
        coords, confidence = frame.coords, frame.confidence
        gate = self.max_match_distance
        if gate is None:
            gate = reference_torso_gate(coords, confidence)
        assignment = tracker.Assignment(frame_index=frame.frame_index)
        # a track missing for more than the window plus one frame would have
        # retired in a skipped frame: it retires before matching
        self._retire(assignment, self.retention_window + 1)
        used_rows, used_skeletons = set(), set()
        for row, sidx in self._candidates(coords, confidence, gate):
            if row in used_rows or sidx in used_skeletons:
                continue
            used_rows.add(row)
            used_skeletons.add(sidx)
            pid = self._row_ids[row]
            assignment.id_by_skeleton[sidx] = pid
            person = self.persons[pid]
            person.last_seen_frame = frame.frame_index
            person.frames_missing = 0
            self._coords[row] = coords[sidx]
            self._confidence[row] = confidence[sidx]
        fresh = []
        for sidx in range(len(coords)):
            if sidx in used_skeletons or not (confidence[sidx] > 0).any():
                continue
            pid = self._next_id
            self._next_id += 1
            self.persons[pid] = TrackedPerson(id=pid, last_seen_frame=frame.frame_index)
            self._row_ids.append(pid)
            fresh.append(sidx)
            assignment.new_ids.append(sidx)
            assignment.id_by_skeleton[sidx] = pid
        if fresh:
            self._coords = np.concatenate([self._coords, coords[fresh]])
            self._confidence = np.concatenate([self._confidence, confidence[fresh]])
        self._retire(assignment, self.retention_window)
        return assignment

    def _retire(self, assignment, window):
        """Retire the persons missing from the assignment's frame for more
        than window frames."""
        retired_rows = []
        for row, pid in enumerate(self._row_ids):
            person = self.persons[pid]
            if person.last_seen_frame != assignment.frame_index:
                person.frames_missing = assignment.frame_index - person.last_seen_frame
                if person.frames_missing > window:
                    assignment.retired.append(pid)
                    retired_rows.append(row)
                    del self.persons[pid]
        if retired_rows:
            self._row_ids = [pid for pid in self._row_ids if pid in self.persons]
            self._coords = np.delete(self._coords, retired_rows, axis=0)
            self._confidence = np.delete(self._confidence, retired_rows, axis=0)


@functools.cache
def close_persons_source():
    """Four persons closer together than a body, so that gates and pairs
    are often in doubt."""
    spec = SyntheticSessionSpec(
        persons=tuple(PersonMotion(ex, full_cycles=3, noise_sigma=5.0, gap_rate=0.05)
                      for ex in ("squat", "push-up", "squat", "pull-up")),
        spacing=40.0, shuffle_order=True, seed=31)
    return generate_session(spec)[0]


GRID_PATTERN = np.random.default_rng(5).integers(-20, 21, size=(NUM_JOINTS, 3)).astype(float)
GRID_PATTERN[:, 2] = 0.0
GRID_PATTERN[NECK] = (0.0, 10.0, 0.0)
GRID_PATTERN[MID_HIP] = (0.0, 0.0, 0.0)


def grid_skeleton(column, step):
    """GRID_PATTERN moved `step` times by (3, 4, 0) within its column, so
    that two copies in a column lie exactly 5 per step apart, and the
    automatic gate (half the torso of 10) is 5: distances meet gates and
    tie exactly."""
    return GRID_PATTERN + np.array([200.0 * column + 3.0 * step, 4.0 * step, 0.0])


@st.composite
def tracked_sessions(draw):
    """Frames of close persons or of exact grid copies. Frames may be empty,
    skip frame indices, lose persons for a while, lose joints or keep only
    a few, or hold a skeleton without any detected joint."""
    grid = draw(st.booleans())
    source = close_persons_source()
    start = draw(st.integers(0, len(source) - 45))
    away = draw(st.integers(0, 3))  # this person leaves for away_for frames
    away_from = draw(st.integers(0, 30))
    away_for = draw(st.integers(0, 35))
    frames, index = [], 0
    for k in range(draw(st.integers(1, 40))):
        index += draw(st.sampled_from([1] * 8 + [2, 3, 31, 40]))
        if grid:
            spots = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 2)),
                                  max_size=4, unique=True))
            coords = np.array([grid_skeleton(c, s) for c, s in spots])
            conf = np.ones((len(spots), NUM_JOINTS))
        else:
            f = source[start + k]
            keep = [p for p in range(len(f.coords))
                    if not (p == away and away_from <= k < away_from + away_for)]
            keep = [p for p in keep if draw(st.integers(0, 9)) > 0]
            order = draw(st.permutations(keep))
            coords, conf = f.coords[order].copy(), f.confidence[order].copy()
        coords = coords.reshape(-1, NUM_JOINTS, 3)
        conf = conf.reshape(-1, NUM_JOINTS)
        if draw(st.integers(0, 9)) == 0:
            coords, conf = coords[:0], conf[:0]
        for i in range(len(conf)):
            lost = draw(st.lists(st.integers(0, NUM_JOINTS - 1), max_size=4))
            conf[i, lost] = 0.0
            if draw(st.integers(0, 3)) == 0:  # a small box: its gap nears the distance
                kept = draw(st.lists(st.integers(0, NUM_JOINTS - 1), min_size=1, max_size=3))
                conf[i, [j for j in range(NUM_JOINTS) if j not in kept]] = 0.0
        if draw(st.integers(0, 5)) == 0:  # a skeleton without a detected joint
            at = draw(st.integers(0, len(conf)))
            coords = np.insert(coords, at, 0.0, axis=0)
            conf = np.insert(conf, at, 0.0, axis=0)
        coords[conf == 0] = 0.0
        frames.append(SkeletonFrame(index, coords, conf))
    return frames


@settings(max_examples=150, deadline=None)
@given(tracked_sessions(), CHUNK_ROWS_DRAWN,
       st.sampled_from([None, 0.0, 5.0, 20.0, 1e9]), st.sampled_from([0, 1, 3, 30]))
def test_planned_tracker_equals_per_frame_tracker(trained_model, frames, budget, gate, window):
    """Matching from chunk plans, of any budget, gives the
    assignments and the report of the per-frame tracker it replaced."""
    model, thresholds, _ = trained_model

    def run(pose_tracker):
        engine = SessionEngine(model=model, thresholds=thresholds)
        engine.tracker = pose_tracker
        match, seen = engine.tracker.match_frame, []

        def recording_match(frame, plan=None):
            seen.append(match(frame, plan))
            return seen[-1]

        engine.tracker.match_frame = recording_match
        engine.process_frames(frames)
        return [(a.frame_index, a.pairs, a.new_ids, a.retired, a.id_by_skeleton)
                for a in seen], render_json(engine.finalize())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keypoints, "CHUNK_ROWS", budget)
        mp.setattr(tracker, "RETENTION_WINDOW", window)
        planned = run(PoseTracker(gate))
    assert planned == run(ReferenceTracker(gate, retention_window=window))


@settings(max_examples=100, deadline=None)
@given(tracked_sessions(), CHUNK_ROWS_DRAWN, st.booleans())
def test_steady_frames_match_as_on_the_general_path(trained_model, frames, budget, keep_traces):
    """Steady frames forced onto match_frame's general path give the same
    assignment on every frame, the same reports and the same traces."""
    model, thresholds, _ = trained_model

    def run():
        engine = SessionEngine(model=model, thresholds=thresholds,
                               config=EngineConfig(keep_traces=keep_traces))
        match, seen = engine.tracker.match_frame, []

        def recording_match(frame, plan=None):
            seen.append(match(frame, plan))
            return seen[-1]

        engine.tracker.match_frame = recording_match
        engine.process_frames(frames)
        result = engine.finalize()
        return ([(a.frame_index, a.pairs, a.new_ids, a.retired, a.id_by_skeleton) for a in seen],
                render_json(result), render_text(result), engine.traces())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keypoints, "CHUNK_ROWS", budget)
        steady = run()
        plan = PoseTracker.plan
        mp.setattr(PoseTracker, "plan",
                   lambda self, c: dataclasses.replace(plan(self, c), steady=[False] * len(c.sizes)))
        assert run() == steady


def test_sixteen_persons_through_two_absences(trained_model):
    """In a 16-person session, one person is away for 30 frames and keeps
    their id, and another is away for 41, retires and comes back under a
    new id: the planned tracker gives the per-frame tracker's assignments
    and report."""
    model, thresholds, _ = trained_model
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=tuple(PersonMotion(ex, full_cycles=6, noise_sigma=5.0, gap_rate=0.05)
                      for ex in ("push-up", "pull-up", "squat", "sit-up") * 4),
        shuffle_order=True, seed=7))

    def without(f, x):  # the frame without the skeleton nearest x
        gaps = [abs(c[m > 0, 0].mean() - x) for c, m in zip(f.coords, f.confidence)]
        keep = np.arange(len(gaps)) != np.argmin(gaps)
        return SkeletonFrame(f.frame_index, f.coords[keep], f.confidence[keep])

    frames = [without(f, 0.0) if 20 <= f.frame_index < 50
              else without(f, 600.0) if 60 <= f.frame_index < 101 else f for f in frames]

    def run(pose_tracker):
        engine = SessionEngine(model=model, thresholds=thresholds)
        engine.tracker = pose_tracker
        match, seen = engine.tracker.match_frame, []

        def recording_match(frame, plan=None):
            seen.append(match(frame, plan))
            return seen[-1]

        engine.tracker.match_frame = recording_match
        engine.process_frames(frames)
        return [(a.frame_index, a.new_ids, a.retired, a.id_by_skeleton)
                for a in seen], render_json(engine.finalize())

    planned = run(PoseTracker())
    assert planned == run(ReferenceTracker())
    assignments, report = planned
    assert [i for i, _, retired, _ in assignments if retired] == [59 + RETENTION_WINDOW + 1]
    assert [(i, len(new)) for i, new, _, _ in assignments if new] == [(0, 16), (101, 1)]
    assert len(json.loads(report)["persons"]) == 17
