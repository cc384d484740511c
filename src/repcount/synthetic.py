"""Synthetic keypoint sessions with ground-truth repetition counts.

Parametric skeletons are animated so the profile's major-joint angle follows
a known sinusoidal schedule: full cycles span [rom_low - 5, rom_high + 5]
(counted as correct reps) and partial cycles span [mid - 10, mid + 10]
(counted as incorrect reps). Limb positions are solved from the target angle
by planar two-segment geometry, so the measured angle reproduces the
schedule exactly; the remaining joints follow a rigid per-exercise template.

Angle noise is Gaussian with the requested stationary standard deviation but
temporally correlated (AR(1)), matching the frame-to-frame coherence of real
pose-estimator jitter; white noise of the same magnitude would be an
unrealistically hostile model.

Pose builders take an angle array and place every frame of a person at once;
a session is one read-only array pair whose frames are views of it. The order
of the RNG draws is the contract that keeps sessions byte-stable.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import body25 as b
from .body25 import NUM_JOINTS
from .keypoints import SkeletonFrame, normalize_frame
from .kinematics import builtin_profiles

DEFAULT_PERIOD = 20  # frames per cycle
DEFAULT_LEAD_IN = 12  # static frames before the first cycle (fills the label window)
DEFAULT_SPACING = 300.0  # horizontal offset between persons, px
FULL_CYCLE_OVERSHOOT = 5.0  # degrees past each ROM bound
PARTIAL_CYCLE_SPAN = 10.0  # degrees around the ROM midpoint
NOISE_AR_COEFF = 0.85  # AR(1) coefficient of the angle-noise process
BASE_CONFIDENCE = 0.9
# make_labeled_dataset: per-joint positional jitter (px) and angle noise
# (degrees) of its sessions, and the fraction of frames given a glitch of
# GLITCH_JITTER px std on every joint
DATASET_POS_JITTER = 4.0
DATASET_NOISE_SIGMA = 5.0
GLITCH_RATE = 0.08
GLITCH_JITTER = 35.0


class SpecError(ValueError):
    pass


def _check_integers(spec, fields: tuple[str, ...]) -> None:
    """Raise a SpecError naming the first of the fields that is not an
    integer (Python or NumPy; a bool is not one)."""
    for name in fields:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise SpecError(f"{name} must be an integer, got {value!r}")


def _rot(v: np.ndarray, theta_deg: np.ndarray) -> np.ndarray:
    """The vector v turned by each angle: (F, 2)."""
    t = np.radians(theta_deg)
    c, s = np.cos(t), np.sin(t)
    return np.stack([c * v[0] - s * v[1], s * v[0] + c * v[1]], axis=1)


def _solve_limb(xy: np.ndarray, a: int, vertex: int, c: int,
                length: float, theta_deg: np.ndarray, sign: float) -> None:
    """Place joint c so the angle at the vertex equals theta_deg exactly in
    every frame; a and the vertex are template joints, the same in all."""
    ba = xy[0, a] - xy[0, vertex]
    ba /= np.linalg.norm(ba)
    xy[:, c] = xy[:, vertex] + length * _rot(ba, sign * theta_deg)


def _face_and_feet(xy: np.ndarray, upright: bool) -> None:
    xy[:, [b.R_EYE, b.L_EYE, b.R_EAR, b.L_EAR]] = (
        xy[:, b.NOSE, None] + [(-3, 2), (3, 2), (-6, 0), (6, 0)])
    down = np.array([0.0, -4.0]) if upright else np.array([-2.0, -3.0])
    for ankle, toe, small, heel in ((b.R_ANKLE, b.R_BIG_TOE, b.R_SMALL_TOE, b.R_HEEL),
                                    (b.L_ANKLE, b.L_BIG_TOE, b.L_SMALL_TOE, b.L_HEEL)):
        xy[:, [toe, small, heel]] = (xy[:, ankle] + down)[:, None] + [(6, 0), (8, 1), (-3, 0)]


def _template(n: int, joints: dict[int, tuple[float, float]]) -> np.ndarray:
    """(n, 25, 2) coordinates holding the fixed joints in every frame, 0 elsewhere."""
    xy = np.zeros((n, NUM_JOINTS, 2))
    xy[:, list(joints)] = list(joints.values())
    return xy


# each motion's fixed joints: the rigid template its animated joints hang on
_SQUAT = {b.MID_HIP: (0, 60), b.NECK: (0, 120), b.NOSE: (0, 135),
          b.R_SHOULDER: (-12, 118), b.L_SHOULDER: (12, 118), b.R_ELBOW: (-16, 95),
          b.L_ELBOW: (16, 95), b.R_WRIST: (-18, 72), b.L_WRIST: (18, 72),
          b.R_HIP: (-8, 60), b.L_HIP: (8, 60), b.R_KNEE: (-8, 30), b.L_KNEE: (8, 30)}
_PUSHUP = {b.MID_HIP: (0, 30), b.NECK: (58, 36), b.NOSE: (70, 40),
           b.R_SHOULDER: (56, 30), b.L_SHOULDER: (60, 42), b.R_ELBOW: (56, 8),
           b.L_ELBOW: (60, 20), b.R_HIP: (0, 27), b.L_HIP: (0, 33), b.R_KNEE: (-30, 26),
           b.L_KNEE: (-30, 32), b.R_ANKLE: (-60, 25), b.L_ANKLE: (-60, 31)}
_PULLUP = {b.MID_HIP: (0, 0), b.NECK: (0, 60), b.NOSE: (0, 72),
           b.R_SHOULDER: (-14, 58), b.L_SHOULDER: (14, 58), b.R_ELBOW: (-16, 83),
           b.L_ELBOW: (16, 83), b.R_HIP: (-8, 0), b.L_HIP: (8, 0), b.R_KNEE: (-8, -30),
           b.L_KNEE: (8, -30), b.R_ANKLE: (-8, -58), b.L_ANKLE: (8, -58)}
_SITUP = {b.MID_HIP: (0, 12), b.R_HIP: (0, 10), b.L_HIP: (0, 14), b.R_KNEE: (28, 28),
          b.L_KNEE: (28, 32), b.R_ANKLE: (44, 8), b.L_ANKLE: (44, 12)}


def _pose_squat(theta: np.ndarray) -> np.ndarray:
    xy = _template(len(theta), _SQUAT)
    _solve_limb(xy, b.R_HIP, b.R_KNEE, b.R_ANKLE, 28, theta, -1)
    _solve_limb(xy, b.L_HIP, b.L_KNEE, b.L_ANKLE, 28, theta, +1)
    _face_and_feet(xy, upright=True)
    return xy


def _pose_pushup(theta: np.ndarray) -> np.ndarray:
    xy = _template(len(theta), _PUSHUP)
    _solve_limb(xy, b.R_SHOULDER, b.R_ELBOW, b.R_WRIST, 22, theta, +1)
    _solve_limb(xy, b.L_SHOULDER, b.L_ELBOW, b.L_WRIST, 22, theta, -1)
    _face_and_feet(xy, upright=False)
    return xy


def _pose_pullup(theta: np.ndarray) -> np.ndarray:
    xy = _template(len(theta), _PULLUP)
    _solve_limb(xy, b.R_SHOULDER, b.R_ELBOW, b.R_WRIST, 24, theta, +1)
    _solve_limb(xy, b.L_SHOULDER, b.L_ELBOW, b.L_WRIST, 24, theta, -1)
    _face_and_feet(xy, upright=True)
    return xy


def _pose_situp(theta: np.ndarray) -> np.ndarray:
    """Out-of-class motion: lying posture with the hip angle oscillating."""
    xy = _template(len(theta), _SITUP)
    # torso rotates about the mid-hip toward the knees
    _solve_limb(xy, b.R_KNEE, b.MID_HIP, b.NECK, 55, theta, -1)
    neck = xy[:, b.NECK]
    torso_dir = (neck - xy[:, b.MID_HIP]) / 55.0
    perp = np.stack([-torso_dir[:, 1], torso_dir[:, 0]], axis=1)
    xy[:, b.NOSE] = neck + 12 * torso_dir
    xy[:, b.R_SHOULDER] = neck - 4 * torso_dir - 5 * perp
    xy[:, b.L_SHOULDER] = neck - 4 * torso_dir + 5 * perp
    xy[:, b.R_ELBOW] = xy[:, b.R_SHOULDER] + 14 * torso_dir - 4 * perp
    xy[:, b.L_ELBOW] = xy[:, b.L_SHOULDER] + 14 * torso_dir + 4 * perp
    xy[:, b.R_WRIST] = xy[:, b.R_ELBOW] + 12 * torso_dir
    xy[:, b.L_WRIST] = xy[:, b.L_ELBOW] + 12 * torso_dir
    _face_and_feet(xy, upright=False)
    return xy


# motion name -> the pose builder: (F,) angles to (F, 25, 2) coordinates
POSE_BUILDERS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "squat": _pose_squat,
    "push-up": _pose_pushup,
    "pull-up": _pose_pullup,
    "sit-up": _pose_situp,
}

# the angle-triple joints, both sides: their geometry encodes the target
# angle, so positional jitter is withheld from them to keep the schedule exact
_ANIMATED = {
    "squat": (b.R_HIP, b.R_KNEE, b.R_ANKLE, b.L_HIP, b.L_KNEE, b.L_ANKLE),
    "push-up": (b.R_SHOULDER, b.R_ELBOW, b.R_WRIST, b.L_SHOULDER, b.L_ELBOW, b.L_WRIST),
    "pull-up": (b.R_SHOULDER, b.R_ELBOW, b.R_WRIST, b.L_SHOULDER, b.L_ELBOW, b.L_WRIST),
    "sit-up": (b.NECK, b.NOSE, b.MID_HIP, b.R_KNEE, b.L_KNEE, b.R_SHOULDER, b.L_SHOULDER,
               b.R_ELBOW, b.L_ELBOW, b.R_WRIST, b.L_WRIST),
}

# angle schedule parameters for motions without a counting profile
_OOC_RANGE = {"sit-up": (100.0, 160.0)}


@dataclass(frozen=True)
class PersonMotion:
    exercise: str
    full_cycles: int
    partial_cycles: int = 0
    period: int = DEFAULT_PERIOD
    noise_sigma: float = 0.0  # degrees, stationary std of the angle noise
    gap_rate: float = 0.0  # per-joint Bernoulli dropout probability
    pos_jitter: float = 0.0  # px std applied to non-animated joints

    def __post_init__(self):
        if self.exercise not in POSE_BUILDERS:
            raise SpecError(f"unknown motion {self.exercise!r}")
        _check_integers(self, ("full_cycles", "partial_cycles", "period"))
        if self.full_cycles < 0 or self.partial_cycles < 0:
            raise SpecError("cycle counts must be >= 0")
        if self.full_cycles + self.partial_cycles == 0:
            raise SpecError("need at least one cycle")
        if self.period < 8:
            raise SpecError("period must be >= 8 frames")
        if not 0 <= self.gap_rate < 1:
            raise SpecError("gap_rate must lie in [0, 1)")
        if not all(math.isfinite(v) and v >= 0 for v in (self.noise_sigma, self.pos_jitter)):
            raise SpecError("noise parameters must be finite numbers >= 0")

    @property
    def expected_counts(self) -> tuple[int, int, int]:
        """(total, correct, incorrect) ground truth by construction."""
        return (self.full_cycles + self.partial_cycles, self.full_cycles, self.partial_cycles)


@dataclass(frozen=True)
class SyntheticSessionSpec:
    persons: tuple[PersonMotion, ...]
    seed: int = 0
    lead_in: int = DEFAULT_LEAD_IN
    spacing: float = DEFAULT_SPACING
    shuffle_order: bool = False  # randomize skeleton order within each frame

    def __post_init__(self):
        if not self.persons:
            raise SpecError("spec needs at least one person")
        _check_integers(self, ("seed", "lead_in"))
        if not math.isfinite(self.spacing):
            raise SpecError(f"spacing must be finite, got {self.spacing!r}")
        if self.lead_in < 0:
            raise SpecError("lead_in must be >= 0")
        if self.seed < 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")


def _angle_range(motion: PersonMotion) -> tuple[float, float, int]:
    """(low, high, completion sign) of the motion's angle schedule."""
    profiles = builtin_profiles()
    if motion.exercise in profiles:
        p = profiles[motion.exercise]
        return p.rom_low, p.rom_high, +1 if p.motion_type == "push" else -1
    low, high = _OOC_RANGE[motion.exercise]
    return low, high, +1


def angle_schedule(motion: PersonMotion, lead_in: int) -> np.ndarray:
    """Noise-free target angle per frame for one person's motion, on the
    built-in profile of its exercise."""
    low, high, sign = _angle_range(motion)
    mid = 0.5 * (low + high)
    amp_full = 0.5 * (high - low) + FULL_CYCLE_OVERSHOOT
    t_full = np.arange(motion.full_cycles * motion.period)
    t_part = np.arange(motion.partial_cycles * motion.period)
    full = mid + sign * amp_full * np.cos(2 * np.pi * t_full / motion.period)
    part = mid + sign * PARTIAL_CYCLE_SPAN * np.cos(2 * np.pi * t_part / motion.period)
    lead = np.full(lead_in, mid + sign * amp_full)
    return np.concatenate([lead, full, part])


def _ar1_noise(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    if sigma == 0.0 or n == 0:
        return np.zeros(n)
    rho = NOISE_AR_COEFF
    out = np.empty(n)
    out[0] = rng.normal(0.0, sigma)
    innov = rng.normal(0.0, sigma * np.sqrt(1.0 - rho * rho), n)
    for i in range(1, n):
        out[i] = rho * out[i - 1] + innov[i]
    return out


def generate_session(spec: SyntheticSessionSpec) -> tuple[list[SkeletonFrame], list[dict]]:
    """Build the frame stream and the per-person ground-truth record.

    Deterministic per spec.seed. Truth entries hold the exercise name and
    the (total, correct, incorrect) counts recoverable from the spec.
    """
    rng = np.random.default_rng(spec.seed)

    schedules = []
    for motion in spec.persons:
        sched = angle_schedule(motion, spec.lead_in)
        noisy = np.clip(sched + _ar1_noise(rng, len(sched), motion.noise_sigma), 1.0, 179.0)
        schedules.append(noisy)
    n_frames, n_persons = max(len(s) for s in schedules), len(spec.persons)

    # every other draw, in the order that keeps sessions byte-stable: per
    # frame and person the jitter, then the gaps; then the frame's order
    jitter = [np.empty((n_frames, NUM_JOINTS, 2)) if m.pos_jitter > 0 else None
              for m in spec.persons]
    dropped = [np.empty((n_frames, NUM_JOINTS), bool) if m.gap_rate > 0 else None
               for m in spec.persons]
    slot = np.tile(np.arange(n_persons), (n_frames, 1))  # each person's row in each frame
    for f in range(n_frames):
        for pi, motion in enumerate(spec.persons):
            if motion.pos_jitter > 0:
                jitter[pi][f] = rng.normal(0.0, motion.pos_jitter, size=(NUM_JOINTS, 2))
            if motion.gap_rate > 0:
                dropped[pi][f] = rng.random(NUM_JOINTS) < motion.gap_rate
        if spec.shuffle_order and n_persons > 1:
            slot[f, rng.permutation(n_persons)] = np.arange(n_persons)

    coords = np.zeros((n_frames, n_persons, NUM_JOINTS, 3))
    confidence = np.full((n_frames, n_persons, NUM_JOINTS), BASE_CONFIDENCE)
    index = np.arange(n_frames)
    for pi, motion in enumerate(spec.persons):
        sched = schedules[pi]
        xy = POSE_BUILDERS[motion.exercise](sched[np.minimum(index, len(sched) - 1)])
        if jitter[pi] is not None:
            jitter[pi][:, list(_ANIMATED[motion.exercise])] = 0.0
            xy += jitter[pi]
        xy += (pi * spec.spacing, 0.0)
        if dropped[pi] is not None:
            xy[dropped[pi]] = 0.0
            confidence[index, slot[:, pi]] = np.where(dropped[pi], 0.0, BASE_CONFIDENCE)
        coords[index, slot[:, pi], :, :2] = xy
    # frames are views of one array pair: read-only buffers, so that no
    # holder of a frame can make them writeable and change the others
    coords, confidence = (np.asarray(memoryview(a).toreadonly()) for a in (coords, confidence))
    frames = [SkeletonFrame(f, coords[f], confidence[f]) for f in range(n_frames)]

    truth = [{"exercise": m.exercise, "full_cycles": m.full_cycles,
              "partial_cycles": m.partial_cycles, "expected_counts": m.expected_counts}
             for m in spec.persons]
    return frames, truth


def make_labeled_dataset(class_names: list[str], frames_per_class: int,
                         seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Labeled recognition features for training and evaluation.

    Generates one long session per class and normalizes every skeleton. A
    small fraction of frames (GLITCH_RATE) receives heavy positional noise
    on every joint, mimicking estimator glitches; these ambiguous frames
    give the softmax probability distribution the lower tail the reject
    calibration relies on. Returns (features, integer labels), shuffled,
    deterministic per seed. Raises SpecError, before generating anything,
    when frames_per_class < 1, a class has no synthetic motion or, from the
    first class's spec, the seed is negative.
    """
    if frames_per_class < 1:
        raise SpecError(f"need at least 1 frame per class, got {frames_per_class}")
    if unknown := [name for name in class_names if name not in POSE_BUILDERS]:
        raise SpecError(f"no synthetic motion for class(es) {unknown}")
    cycles = frames_per_class // DEFAULT_PERIOD + 2
    specs = [SyntheticSessionSpec(
        persons=(PersonMotion(name, full_cycles=cycles, noise_sigma=DATASET_NOISE_SIGMA,
                              pos_jitter=DATASET_POS_JITTER),),
        seed=seed + ci, lead_in=0,
    ) for ci, name in enumerate(class_names)]
    glitch_rng = np.random.default_rng(seed + 5000)
    feats, labels = [], []
    for ci, spec in enumerate(specs):
        frames, _ = generate_session(spec)
        count = 0
        for frame in frames:
            coords = frame.coords
            if glitch_rng.random() < GLITCH_RATE:
                coords = coords.copy()
                coords[0, :, :2] += glitch_rng.normal(0.0, GLITCH_JITTER, size=(NUM_JOINTS, 2))
            features, ok = normalize_frame(coords, frame.confidence)
            if not ok[0]:
                continue
            feats.append(features[0])
            labels.append(ci)
            count += 1
            if count >= frames_per_class:
                break
    x = np.asarray(feats)
    y = np.asarray(labels)
    order = np.random.default_rng(seed + 1000).permutation(len(x))
    return x[order], y[order]
