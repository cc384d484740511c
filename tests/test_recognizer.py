import dataclasses
import json
import math
from collections import Counter, deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import recognizer
from repcount.recognizer import (UNKNOWN, WARMUP, CalibrationError, LabelWindow,
                                 MlpModel, ModelFormatError, RejectThresholds,
                                 TrainConfig, TrainingError, calibrate_reject,
                                 classify_with_reject, forward, init_model,
                                 load_model, loss_and_grads, save_model,
                                 softmax, train)


def logit_model(n_classes=2, names=("a", "b")):
    """Single linear layer with identity weights: features pass through as
    logits, so output probabilities are softmax(feature)."""
    return MlpModel(layer_dims=[n_classes, n_classes],
                    weights=[np.eye(n_classes)],
                    biases=[np.zeros(n_classes)],
                    class_names=list(names[:n_classes]))


def logits_for(p0):
    """2-class logit pair whose softmax gives probability p0 for class 0."""
    return np.array([math.log(p0 / (1.0 - p0)), 0.0])


class TestSoftmax:
    def test_zeros_uniform(self):
        assert np.allclose(softmax(np.zeros(3)), 1.0 / 3.0)

    def test_large_logits_stable(self):
        p = softmax(np.array([1000.0, 1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(0.5)

    def test_sums_to_one_batch(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=(40, 5)) * 10)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.5])
        assert np.allclose(softmax(z), softmax(z + 7.0))


class TestForward:
    def test_known_two_layer_by_hand(self):
        model = MlpModel(
            layer_dims=[2, 2, 2],
            weights=[np.array([[1.0, 0.0], [0.0, -1.0]]),
                     np.array([[2.0, 0.0], [0.0, 1.0]])],
            biases=[np.array([0.0, 1.0]), np.array([0.5, 0.0])],
            class_names=["a", "b"],
        )
        x = np.array([1.0, 2.0])
        h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        logits = h @ model.weights[1] + model.biases[1]
        assert np.allclose(forward(model, x), softmax(logits))

    def test_batch_matches_per_row(self):
        model = init_model(6, ["a", "b", "c"], TrainConfig(hidden_dims=(8,)))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 6))
        batch = forward(model, x)
        rows = np.stack([forward(model, row) for row in x])
        assert np.max(np.abs(batch - rows)) < 1e-9

    def test_wrong_feature_length(self):
        model = logit_model()
        with pytest.raises(ValueError):
            forward(model, np.zeros(5))


class TestGradients:
    @pytest.mark.parametrize("hidden", [(), (7,), (6, 5)])
    def test_finite_difference(self, hidden):
        rng = np.random.default_rng(9)
        model = init_model(4, ["a", "b", "c"], TrainConfig(hidden_dims=hidden, seed=9))
        x = rng.normal(size=(12, 4))
        y = np.zeros((12, 3))
        y[np.arange(12), rng.integers(0, 3, 12)] = 1.0
        _, gw, gb = loss_and_grads(model, x, y)
        eps = 1e-6
        for layer in range(len(model.weights)):
            for params, grads in ((model.weights, gw), (model.biases, gb)):
                arr = params[layer]
                flat = arr.reshape(-1)
                probe = rng.choice(flat.size, size=min(8, flat.size), replace=False)
                for k in probe:
                    orig = flat[k]
                    flat[k] = orig + eps
                    lp, _, _ = loss_and_grads(model, x, y)
                    flat[k] = orig - eps
                    lm, _, _ = loss_and_grads(model, x, y)
                    flat[k] = orig
                    numeric = (lp - lm) / (2 * eps)
                    analytic = grads[layer].reshape(-1)[k]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / denom < 1e-4


class TestTrain:
    def blobs(self, seed=0, n=150):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        x = np.concatenate([c + rng.normal(scale=0.5, size=(n, 2)) for c in centers])
        y = np.repeat(np.arange(3), n)
        return x, y

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().epochs = 1
        assert TrainConfig().epochs == 50

    def test_separable_blobs_learned(self):
        x, y = self.blobs()
        model, history = train(x, y, ["a", "b", "c"],
                               TrainConfig(hidden_dims=(16,), epochs=20, seed=0))
        probs = forward(model, x)
        assert np.mean(np.argmax(probs, axis=1) == y) >= 0.99
        assert history[-1][1] < history[0][1]  # loss decreased

    def test_memorizes_tiny_set(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 5))
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0])
        model, _ = train(x, y, ["a", "b"], TrainConfig(hidden_dims=(32,), epochs=200, seed=4))
        assert np.all(np.argmax(forward(model, x), axis=1) == y)

    def test_deterministic_per_seed(self):
        x, y = self.blobs()
        cfg = TrainConfig(hidden_dims=(8,), epochs=5, seed=3)
        m1, h1 = train(x, y, ["a", "b", "c"], cfg)
        m2, h2 = train(x, y, ["a", "b", "c"], cfg)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        assert h1 == h2

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train(np.zeros((0, 4)), np.zeros(0, dtype=int), ["a", "b"])

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train(np.zeros((10, 4)), np.zeros(10, dtype=int), ["a", "b"])

    def test_history_shape(self):
        x, y = self.blobs(n=40)
        _, history = train(x, y, ["a", "b", "c"], TrainConfig(hidden_dims=(4,), epochs=7))
        assert len(history) == 7
        assert [row[0] for row in history] == list(range(7))


class TestCalibrateReject:
    def test_constant_probability_degenerate_interval(self):
        model = logit_model()
        feats = np.array([logits_for(0.9)] * 5 + [logits_for(0.2)] * 2)
        th = calibrate_reject(model, feats)
        lo, hi = th.bounds["a"]
        assert lo == pytest.approx(0.9, abs=1e-12)
        assert hi == pytest.approx(0.9, abs=1e-12)

    def test_interval_from_two_samples(self):
        model = logit_model()
        feats = np.array([logits_for(0.80), logits_for(0.95), logits_for(0.2)])
        th = calibrate_reject(model, feats)
        lo, hi = th.bounds["a"]
        mean, std = 0.875, 0.075  # population std over {0.80, 0.95}
        assert lo == pytest.approx(mean - 1.645 * std / math.sqrt(2), abs=1e-9)
        assert hi == pytest.approx(mean + 1.645 * std / math.sqrt(2), abs=1e-9)

    def test_upper_bound_clamped(self):
        model = logit_model()
        feats = np.array([logits_for(0.999), logits_for(0.5001), logits_for(0.2)])
        _, hi = calibrate_reject(model, feats).bounds["a"]
        assert hi <= 1.0

    def test_missing_class_named_in_error(self):
        model = logit_model()
        feats = np.array([logits_for(0.9)] * 4)  # nothing predicted as "b"
        with pytest.raises(CalibrationError, match="b"):
            calibrate_reject(model, feats)

    def test_bounds_validation(self):
        with pytest.raises(CalibrationError):
            RejectThresholds(bounds={"a": (0.9, 0.2)})
        with pytest.raises(CalibrationError):
            RejectThresholds(bounds={"a": (-0.1, 0.5)})


def classify_one(model, thresholds, features):
    """classify_with_reject of one feature vector, checked against row 0 of
    the (1, n) batch holding it."""
    label = classify_with_reject(model, thresholds, features)
    assert classify_with_reject(model, thresholds, features[None]) == [label]
    return label


class TestClassifyWithReject:
    def test_accept_above_bound(self):
        model = logit_model()
        th = RejectThresholds(bounds={"a": (0.7, 1.0), "b": (0.0, 1.0)})
        assert classify_one(model, th, logits_for(0.9)) == "a"

    def test_probability_equal_to_bound_accepted(self):
        model = logit_model()
        f = logits_for(0.85)
        p = float(forward(model, f)[0])
        th = RejectThresholds(bounds={"a": (p, 1.0), "b": (0.0, 1.0)})
        assert classify_one(model, th, f) == "a"

    def test_reject_below_bound(self):
        model = logit_model()
        th = RejectThresholds(bounds={"a": (0.9, 1.0), "b": (0.0, 1.0)})
        assert classify_one(model, th, logits_for(0.8)) == UNKNOWN

    def test_two_sided_rejects_above_upper(self):
        model = logit_model()
        th = RejectThresholds(bounds={"a": (0.6, 0.9), "b": (0.0, 1.0)})
        # only ci_low rejects: a probability above ci_high is accepted
        assert classify_one(model, th, logits_for(0.95)) == "a"

    def test_off_never_rejects(self):
        model = logit_model()
        # a model saved without calibrated thresholds never rejects
        assert classify_one(model, None, logits_for(0.6)) == "a"


class TestLabelWindow:
    def test_warmup_until_full(self):
        w = LabelWindow()
        for _ in range(9):
            w.push("a")
            assert w.current() == WARMUP
        w.push("a")
        assert w.current() == "a"

    def test_majority_vote(self):
        w = LabelWindow()
        for label in ["a"] * 6 + ["b"] * 4:
            w.push(label)
        assert w.current() == "a"

    def test_tie_breaks_most_recent(self):
        w = LabelWindow()
        for label in ["a"] * 5 + ["b"] * 5:
            w.push(label)
        assert w.current() == "b"
        for label in ["a"] * 5:
            w.push(label)  # window is now b*5 then a*5
        assert w.current() == "a"

    def test_sliding_forgets_old_labels(self):
        w = LabelWindow()
        for label in ["a"] * 10 + ["b"] * 6:
            w.push(label)
        assert w.current() == "b"


class CounterLabelWindow:
    """The vote as it was first written: a fresh Counter per call."""

    def __init__(self, size):
        self.size = size
        self._labels = deque(maxlen=size)

    def push(self, label):
        self._labels.append(label)

    def current(self):
        if len(self._labels) < self.size:
            return WARMUP
        counts = Counter(self._labels)
        best = max(counts.values())
        tied = {label for label, c in counts.items() if c == best}
        for label in reversed(self._labels):
            if label in tied:
                return label
        raise AssertionError("unreachable")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.lists(st.sampled_from(["a", "b", "c", UNKNOWN]), max_size=60))
def test_label_window_equals_counter_vote(size, labels):
    """Kept counts give the Counter vote through warm-up, ties and eviction,
    and push returns it."""
    with mock.patch.object(recognizer, "LABEL_WINDOW_SIZE", size):
        window, reference = LabelWindow(), CounterLabelWindow(size)
        for label in labels:
            voted = window.push(label)
            reference.push(label)
            assert voted == window.current() == reference.current()


def test_label_window_rescans_when_the_current_label_is_evicted():
    """Evicting the current label can hand the vote to a label other than
    the pushed one: here to unknown, not to squat."""
    assert recognizer.LABEL_WINDOW_SIZE == 10
    window = LabelWindow()
    for label in ["push-up", UNKNOWN, "pull-up", UNKNOWN, "push-up",
                  "pull-up", "pull-up", UNKNOWN, "push-up", "squat"]:
        window.push(label)
    assert window.current() == "push-up"  # 3 each of push-up, pull-up, unknown
    window.push("squat")  # evicts a push-up: unknown and pull-up lead with 3
    assert window.current() == UNKNOWN


class TestModelIO:
    def test_round_trip_exact(self, tmp_path):
        model = init_model(4, ["a", "b"], TrainConfig(hidden_dims=(5,), seed=2))
        th = RejectThresholds(bounds={"a": (0.5, 0.9), "b": (0.4, 1.0)})
        path = tmp_path / "model.json"
        save_model(path, model, th)
        loaded, loaded_th = load_model(path)
        assert loaded.layer_dims == model.layer_dims
        assert loaded.class_names == model.class_names
        for w1, w2 in zip(loaded.weights, model.weights):
            assert np.array_equal(w1, w2)  # JSON float repr round-trips exactly
        assert loaded_th.bounds == th.bounds

    def test_save_deterministic_bytes(self, tmp_path):
        model = init_model(4, ["a", "b"], TrainConfig(hidden_dims=(5,), seed=2))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format_version": 1, "class_names": ["\xff"]}')
        with pytest.raises(ModelFormatError, match="unreadable model file"):
            load_model(path)

    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_number_beyond_a_double_rejected(self, tmp_path, field):
        path = tmp_path / "model.json"
        save_model(path, init_model(4, ["a", "b"], TrainConfig(hidden_dims=(5,), seed=2)))
        doc = json.loads(path.read_text())
        row = doc[field][0]
        (row[0] if field == "weights" else row)[0] = 10 ** 400
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="corrupt model file"):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        model = init_model(4, ["a", "b"], TrainConfig(hidden_dims=(5,), seed=2))
        save_model(path, model)
        doc = path.read_text().replace('"layer_dims":[4,5,2]', '"layer_dims":[4,6,2]')
        path.write_text(doc)
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("thresholds", [
        pytest.param([[0.5, 0.9], [0.4, 1.0]], id="list"),
        pytest.param({"a": 0.5, "b": [0.4, 1.0]}, id="scalar-bound"),
        pytest.param({"a": [0.5], "b": [0.4, 1.0]}, id="one-number"),
        pytest.param({"a": ["0.5", 0.9], "b": [0.4, 1.0]}, id="string"),
        pytest.param({"a": [0.5, 1.5], "b": [0.4, 1.0]}, id="beyond-one"),
        pytest.param({"a": [0.5, float("inf")], "b": [0.4, 1.0]}, id="infinite"),
        pytest.param({"a": [0.5, 10 ** 400], "b": [0.4, 1.0]}, id="beyond-float"),
        pytest.param({"a": [0.9, 0.5], "b": [0.4, 1.0]}, id="reversed"),
        pytest.param({"a": [0.5, 0.9]}, id="class-without-bound"),
        pytest.param({"a": [0.5, 0.9], "b": [0.4, 1.0], "c": [0.1, 0.2]}, id="unknown-class"),
    ])
    def test_malformed_reject_thresholds_rejected(self, tmp_path, thresholds):
        path = tmp_path / "model.json"
        save_model(path, init_model(4, ["a", "b"], TrainConfig(hidden_dims=(5,), seed=2)))
        doc = json.loads(path.read_text())
        doc["reject_thresholds"] = thresholds
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="reject_thresholds: "):
            load_model(path)


def test_trained_model_fixture_quality(trained_model):
    model, thresholds, history = trained_model
    assert history[-1][2] > 0.95  # training accuracy after the final epoch
    assert set(thresholds.bounds) == {"push-up", "pull-up", "squat"}
