import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import pipeline, recognizer, tracker
from repcount.body25 import MID_HIP, NECK, NUM_JOINTS
from repcount.keypoints import RawSkeleton, SkeletonFrame, normalize_skeleton
from repcount.pipeline import analyze_frames
from repcount.synthetic import (PersonMotion, SyntheticSessionSpec,
                                generate_session)
from repcount.tracker import (PoseTracker, SequencingError, distance_matrix,
                              skeleton_distance)


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
        t = PoseTracker(retention_window=5)
        s = skeleton_at((0, 0))
        first = t.match_frame(frame(0, s)).id_by_skeleton[0]
        retired = []
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

    def test_frames_missing_tracks_gap(self):
        t = PoseTracker()
        s = skeleton_at((0, 0))
        pid = t.match_frame(frame(0, s)).id_by_skeleton[0]
        t.match_frame(frame(1))
        t.match_frame(frame(2))
        assert t.persons[pid].frames_missing == 2

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
                    assert dist[p, s] == pytest.approx(want, rel=1e-12, abs=0.0)

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
    monkeypatch.setattr(pipeline, "_LABEL_CHUNK_FRAMES", chunk)
    result = analyze_frames(frames, model=model, thresholds=thresholds)
    normalizable = [sum(normalize_skeleton(s) is not None for s in f.skeletons)
                    for f in frames]
    assert min(normalizable) >= 2
    assert calls["distance"] == 0
    assert calls["normalize"] == math.ceil(len(frames) / chunk) == 4
    assert calls["forward"] == math.ceil(len(frames) / chunk)
    assert calls["rows"] == sum(normalizable)
    assert len(result.summaries) == 16
