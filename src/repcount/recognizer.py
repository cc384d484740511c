"""Exercise recognition: a small feedforward softmax network with a reject
option, plus the 10-frame majority-vote label window.

The network maps the 50-value normalized skeleton feature to class
probabilities. Frames whose top probability falls below the calibrated
per-class confidence bound are labeled unknown instead of forcing a class.
"""
from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .jsoninput import decode_json


UNKNOWN = "unknown"
WARMUP = "warmup"

LABEL_WINDOW_SIZE = 10
MODEL_FORMAT_VERSION = 1

# z-score of the central 90% normal confidence interval
CI_Z = 1.645
# velocity decay of the momentum SGD that train runs
MOMENTUM = 0.9


class TrainingError(ValueError):
    pass


class CalibrationError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass
class MlpModel:
    layer_dims: list[int]  # first = feature dim, last = number of classes
    weights: list[np.ndarray]  # weights[i] has shape (layer_dims[i], layer_dims[i+1])
    biases: list[np.ndarray]
    class_names: list[str]

    def __post_init__(self):
        if len(self.weights) != len(self.layer_dims) - 1 or len(self.biases) != len(self.weights):
            raise ModelFormatError("layer count mismatch")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[i], self.layer_dims[i + 1])
            if w.shape != want or b.shape != (want[1],):
                raise ModelFormatError(f"layer {i}: shape {w.shape} does not chain {want}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ModelFormatError(f"layer {i}: non-finite parameters")
        if len(self.class_names) != self.layer_dims[-1]:
            raise ModelFormatError("class_names length must equal the output dimension")
        if not (all(isinstance(name, str) for name in self.class_names)
                and len(set(self.class_names)) == len(self.class_names)):
            raise ModelFormatError(f"class_names must be distinct strings, got {self.class_names!r}")


@dataclass
class RejectThresholds:
    """Per-class 90% confidence interval of the mean accepted softmax
    probability, estimated on held-out data."""

    bounds: dict[str, tuple[float, float]]  # class -> (ci_low, ci_high)

    def __post_init__(self):
        for name, (lo, hi) in self.bounds.items():
            if not 0.0 <= lo <= hi <= 1.0:
                raise CalibrationError(f"{name}: need 0 <= ci_low <= ci_high <= 1")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    exps = logits - np.max(logits, axis=-1, keepdims=True)
    np.exp(exps, out=exps)
    exps /= np.sum(exps, axis=-1, keepdims=True)
    return exps


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probability vector(s) for one feature vector or a batch."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape[-1] != model.layer_dims[0]:
        raise ValueError(f"feature length {x.shape[-1]} != input dim {model.layer_dims[0]}")
    return softmax(_layers(model, x)[-1])


def _layers(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Each layer's output for input x: the hidden ReLU activations, then the logits."""
    outputs = []
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)  # ReLU hidden activations
        outputs.append(h)
    return outputs


@dataclass(frozen=True)
class TrainConfig:
    hidden_dims: tuple[int, ...] = (64, 64)
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def loss_and_grads(model: MlpModel, x: np.ndarray, y_onehot: np.ndarray):
    """Mean cross-entropy over the batch and its analytic gradients.

    Returns (loss, grad_weights, grad_biases) with gradients in layer order.
    """
    activations = [x, *_layers(model, x)]  # the input of each layer, then the logits
    probs = softmax(activations[-1])
    n = x.shape[0]
    eps = 1e-12
    loss = float(-np.sum(y_onehot * np.log(probs + eps)) / n)

    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    delta = (probs - y_onehot) / n
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0)
    return loss, grad_w, grad_b


def init_model(feature_dim: int, class_names: list[str], config: TrainConfig) -> MlpModel:
    """He-initialized network, deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    dims = [feature_dim, *config.hidden_dims, len(class_names)]
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases, class_names=list(class_names))


def train(features: np.ndarray, labels: np.ndarray, class_names: list[str],
          config: TrainConfig = TrainConfig()):
    """Train the recognition network with momentum SGD.

    labels are integer class indices into class_names. Returns
    (model, history) where history is a list of (epoch, loss, accuracy)
    rows measured on the training set after each epoch. Raises TrainingError
    on a degenerate dataset or when the parameters become non-finite.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or len(x) == 0:
        raise TrainingError("dataset must be a non-empty 2D feature array")
    if len(np.unique(y)) < 2:
        raise TrainingError("dataset must contain at least 2 classes")
    model = init_model(x.shape[1], class_names, config)
    y_onehot = _one_hot(y, len(class_names))
    rng = np.random.default_rng(config.seed + 1)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    history = []
    n = len(x)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            _, gw, gb = loss_and_grads(model, x[idx], y_onehot[idx])
            for i in range(len(model.weights)):
                vel_w[i] = MOMENTUM * vel_w[i] - config.learning_rate * gw[i]
                vel_b[i] = MOMENTUM * vel_b[i] - config.learning_rate * gb[i]
                model.weights[i] += vel_w[i]
                model.biases[i] += vel_b[i]
        if not all(np.isfinite(p).all() for p in (*model.weights, *model.biases)):
            raise TrainingError(f"parameters became non-finite in epoch {epoch}; "
                                "lower the learning rate")
        probs = forward(model, x)
        loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-12)))
        acc = float(np.mean(np.argmax(probs, axis=1) == y))
        history.append((epoch, loss, acc))
    return model, history


def calibrate_reject(model: MlpModel, heldout_features: np.ndarray) -> RejectThresholds:
    """Estimate per-class reject bounds from held-out data.

    For each class c, over held-out samples the model predicts as c, the
    mean softmax probability of c and its 90% confidence interval
    (mean +/- 1.645 * std / sqrt(n)) are computed and clamped to [0, 1].
    """
    probs = forward(model, np.asarray(heldout_features, dtype=np.float64))
    preds = np.argmax(probs, axis=1)
    bounds = {}
    for ci, name in enumerate(model.class_names):
        mask = preds == ci
        if not mask.any():
            raise CalibrationError(f"no held-out samples predicted as class {name!r}")
        p = probs[mask, ci]
        mean = float(np.mean(p))
        stderr = float(np.std(p)) / np.sqrt(len(p))
        lo = max(0.0, mean - CI_Z * stderr)
        hi = min(1.0, mean + CI_Z * stderr)
        bounds[name] = (lo, hi)
    return RejectThresholds(bounds=bounds)


def classify_with_reject(model: MlpModel, thresholds: Optional[RejectThresholds],
                         features: np.ndarray) -> str | list[str]:
    """Classify one feature vector, or return UNKNOWN when the top-class
    probability falls below that class's calibrated ci_low.

    A (n, 50) batch goes through one forward pass and gives a list of n
    labels, each row judged on its own; one vector is judged as the (1, 50)
    batch holding it. A model without thresholds (thresholds=None) never
    rejects.
    """
    probs = forward(model, features)
    batch = np.atleast_2d(probs)
    top = batch.argmax(axis=1)
    names = [model.class_names[ci] for ci in top.tolist()]
    if thresholds is not None:
        ci_low = np.array([thresholds.bounds[name][0] for name in model.class_names])
        rejected = (batch.max(axis=1) < ci_low[top]).tolist()
        names = [UNKNOWN if r else name for name, r in zip(names, rejected)]
    return names if probs.ndim == 2 else names[0]


class LabelWindow:
    """Ring buffer of the last LABEL_WINDOW_SIZE per-frame labels with
    majority voting.

    The vote is kept, not recomputed per frame: the window is rescanned
    only when it first fills and when a push evicts the current label.
    Otherwise only the pushed label can overtake the current one, and it
    does once its count reaches the current label's, since ties go to the
    most recent label.
    """

    __slots__ = ("_labels", "_counts", "_current")

    def __init__(self):
        self._labels: deque[str] = deque(maxlen=LABEL_WINDOW_SIZE)
        self._counts: dict[str, int] = {}  # label -> occurrences in the window
        self._current = WARMUP

    def push(self, label: str) -> str:
        """Add a frame's label; return the vote, current() after it."""
        labels, counts = self._labels, self._counts
        if len(labels) < LABEL_WINDOW_SIZE:
            labels.append(label)
            counts[label] = counts.get(label, 0) + 1
            if len(labels) == LABEL_WINDOW_SIZE:
                self._current = self._vote()
            return self._current
        evicted = labels[0]
        labels.append(label)  # evicts labels[0]
        current = self._current
        if label == evicted == current:  # the counts and the vote hold
            return current
        n = counts[evicted]
        if n == 1:
            del counts[evicted]
        else:
            counts[evicted] = n - 1
        n = counts[label] = counts.get(label, 0) + 1
        if evicted == current and label != current:
            current = self._current = self._vote()
        elif n >= counts[current]:
            current = self._current = label
        return current

    def current(self) -> str:
        """Most frequent label in the window; WARMUP until the window is
        full; ties break toward the most recent label among the tied."""
        return self._current

    def _vote(self) -> str:
        counts = self._counts
        best = max(counts.values())
        for label in reversed(self._labels):
            if counts[label] == best:
                return label
        raise AssertionError("unreachable")


def save_model(path: str | Path, model: MlpModel,
               thresholds: Optional[RejectThresholds] = None) -> None:
    """Write the versioned model container (deterministic JSON). A file is
    replaced whole: the JSON goes to a temporary file beside it, which then
    takes its name, so a write that fails (a full disk) leaves the file as
    it was. What is not a file (a device, a pipe) is written in place."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": model.layer_dims,
        "class_names": model.class_names,
        "weights": [w.tolist() for w in model.weights],  # row-major
        "biases": [b.tolist() for b in model.biases],
        "reject_thresholds": (
            {name: list(bounds) for name, bounds in sorted(thresholds.bounds.items())}
            if thresholds is not None else None
        ),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    path = Path(path).resolve()  # through a symlink: its target is replaced
    if path.exists() and not path.is_file():
        path.write_text(text, encoding="utf-8")
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only by a write that failed


def load_model(path: str | Path):
    """Read a model container; returns (model, thresholds-or-None)."""
    try:
        doc = decode_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ModelFormatError(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format in {path}")
    try:
        model = MlpModel(
            layer_dims=list(doc["layer_dims"]),
            weights=[np.asarray(w, dtype=np.float64) for w in doc["weights"]],
            biases=[np.asarray(b, dtype=np.float64) for b in doc["biases"]],
            class_names=list(doc["class_names"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
    raw = doc.get("reject_thresholds")
    try:
        thresholds = None if raw is None else _reject_thresholds(raw, model.class_names)
    except (ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: reject_thresholds: {exc}") from exc
    return model, thresholds


def _reject_thresholds(raw, class_names: list[str]) -> RejectThresholds:
    """The reject_thresholds object of a model file, which maps each class
    and no other to a [ci_low, ci_high] pair of numbers."""
    if not (isinstance(raw, dict) and raw.keys() == set(class_names) and all(
            isinstance(bound, list) and len(bound) == 2
            and all(type(v) in (int, float) for v in bound) for bound in raw.values())):
        raise ValueError(f"must map each class of {class_names} to [ci_low, ci_high], got {raw!r}")
    return RejectThresholds(bounds={name: (float(lo), float(hi)) for name, (lo, hi) in raw.items()})
