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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import body25 as b
from .body25 import NUM_JOINTS
from .keypoints import RawSkeleton, SkeletonFrame, normalize_frame
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


def _rot(v: np.ndarray, theta_deg: float) -> np.ndarray:
    t = np.radians(theta_deg)
    c, s = np.cos(t), np.sin(t)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _solve_limb(coords: np.ndarray, a: int, vertex: int, c: int,
                length: float, theta_deg: float, sign: float) -> None:
    """Place joint c so the angle at the vertex equals theta_deg exactly."""
    ba = coords[a] - coords[vertex]
    ba /= np.linalg.norm(ba)
    coords[c] = coords[vertex] + length * _rot(ba, sign * theta_deg)


def _face_and_feet(coords: np.ndarray, upright: bool) -> None:
    nose = coords[b.NOSE]
    coords[b.R_EYE] = nose + (-3, 2)
    coords[b.L_EYE] = nose + (3, 2)
    coords[b.R_EAR] = nose + (-6, 0)
    coords[b.L_EAR] = nose + (6, 0)
    down = np.array([0.0, -4.0]) if upright else np.array([-2.0, -3.0])
    for ankle, toe, small, heel in ((b.R_ANKLE, b.R_BIG_TOE, b.R_SMALL_TOE, b.R_HEEL),
                                    (b.L_ANKLE, b.L_BIG_TOE, b.L_SMALL_TOE, b.L_HEEL)):
        coords[toe] = coords[ankle] + down + (6, 0)
        coords[small] = coords[ankle] + down + (8, 1)
        coords[heel] = coords[ankle] + down + (-3, 0)


def _pose_squat(theta: float) -> np.ndarray:
    xy = np.zeros((NUM_JOINTS, 2))
    xy[b.MID_HIP] = (0, 60)
    xy[b.NECK] = (0, 120)
    xy[b.NOSE] = (0, 135)
    xy[b.R_SHOULDER] = (-12, 118)
    xy[b.L_SHOULDER] = (12, 118)
    xy[b.R_ELBOW] = (-16, 95)
    xy[b.L_ELBOW] = (16, 95)
    xy[b.R_WRIST] = (-18, 72)
    xy[b.L_WRIST] = (18, 72)
    xy[b.R_HIP] = (-8, 60)
    xy[b.L_HIP] = (8, 60)
    xy[b.R_KNEE] = (-8, 30)
    xy[b.L_KNEE] = (8, 30)
    _solve_limb(xy, b.R_HIP, b.R_KNEE, b.R_ANKLE, 28, theta, -1)
    _solve_limb(xy, b.L_HIP, b.L_KNEE, b.L_ANKLE, 28, theta, +1)
    _face_and_feet(xy, upright=True)
    return xy


def _pose_pushup(theta: float) -> np.ndarray:
    xy = np.zeros((NUM_JOINTS, 2))
    xy[b.MID_HIP] = (0, 30)
    xy[b.NECK] = (58, 36)
    xy[b.NOSE] = (70, 40)
    xy[b.R_SHOULDER] = (56, 30)
    xy[b.L_SHOULDER] = (60, 42)
    xy[b.R_ELBOW] = (56, 8)
    xy[b.L_ELBOW] = (60, 20)
    _solve_limb(xy, b.R_SHOULDER, b.R_ELBOW, b.R_WRIST, 22, theta, +1)
    _solve_limb(xy, b.L_SHOULDER, b.L_ELBOW, b.L_WRIST, 22, theta, -1)
    xy[b.R_HIP] = (0, 27)
    xy[b.L_HIP] = (0, 33)
    xy[b.R_KNEE] = (-30, 26)
    xy[b.L_KNEE] = (-30, 32)
    xy[b.R_ANKLE] = (-60, 25)
    xy[b.L_ANKLE] = (-60, 31)
    _face_and_feet(xy, upright=False)
    return xy


def _pose_pullup(theta: float) -> np.ndarray:
    xy = np.zeros((NUM_JOINTS, 2))
    xy[b.MID_HIP] = (0, 0)
    xy[b.NECK] = (0, 60)
    xy[b.NOSE] = (0, 72)
    xy[b.R_SHOULDER] = (-14, 58)
    xy[b.L_SHOULDER] = (14, 58)
    xy[b.R_ELBOW] = (-16, 83)
    xy[b.L_ELBOW] = (16, 83)
    _solve_limb(xy, b.R_SHOULDER, b.R_ELBOW, b.R_WRIST, 24, theta, +1)
    _solve_limb(xy, b.L_SHOULDER, b.L_ELBOW, b.L_WRIST, 24, theta, -1)
    xy[b.R_HIP] = (-8, 0)
    xy[b.L_HIP] = (8, 0)
    xy[b.R_KNEE] = (-8, -30)
    xy[b.L_KNEE] = (8, -30)
    xy[b.R_ANKLE] = (-8, -58)
    xy[b.L_ANKLE] = (8, -58)
    _face_and_feet(xy, upright=True)
    return xy


def _pose_situp(theta: float) -> np.ndarray:
    """Out-of-class motion: lying posture with the hip angle oscillating."""
    xy = np.zeros((NUM_JOINTS, 2))
    xy[b.MID_HIP] = (0, 12)
    xy[b.R_HIP] = (0, 10)
    xy[b.L_HIP] = (0, 14)
    xy[b.R_KNEE] = (28, 28)
    xy[b.L_KNEE] = (28, 32)
    xy[b.R_ANKLE] = (44, 8)
    xy[b.L_ANKLE] = (44, 12)
    # torso rotates about the mid-hip toward the knees
    _solve_limb(xy, b.R_KNEE, b.MID_HIP, b.NECK, 55, theta, -1)
    torso_dir = (xy[b.NECK] - xy[b.MID_HIP]) / 55.0
    perp = np.array([-torso_dir[1], torso_dir[0]])
    xy[b.NOSE] = xy[b.NECK] + 12 * torso_dir
    xy[b.R_SHOULDER] = xy[b.NECK] - 4 * torso_dir - 5 * perp
    xy[b.L_SHOULDER] = xy[b.NECK] - 4 * torso_dir + 5 * perp
    xy[b.R_ELBOW] = xy[b.R_SHOULDER] + 14 * torso_dir - 4 * perp
    xy[b.L_ELBOW] = xy[b.L_SHOULDER] + 14 * torso_dir + 4 * perp
    xy[b.R_WRIST] = xy[b.R_ELBOW] + 12 * torso_dir
    xy[b.L_WRIST] = xy[b.L_ELBOW] + 12 * torso_dir
    _face_and_feet(xy, upright=False)
    return xy


# motion name -> the pose builder that places its joints for one angle
POSE_BUILDERS: dict[str, Callable[[float], np.ndarray]] = {
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
    n_frames = max(len(s) for s in schedules)

    frames = []
    for f in range(n_frames):
        skeletons = []
        for pi, motion in enumerate(spec.persons):
            sched = schedules[pi]
            theta = float(sched[min(f, len(sched) - 1)])
            xy = POSE_BUILDERS[motion.exercise](theta)
            if motion.pos_jitter > 0:
                jitter = rng.normal(0.0, motion.pos_jitter, size=xy.shape)
                jitter[list(_ANIMATED[motion.exercise])] = 0.0
                xy = xy + jitter
            xy = xy + np.array([pi * spec.spacing, 0.0])
            conf = np.full(NUM_JOINTS, BASE_CONFIDENCE)
            if motion.gap_rate > 0:
                dropped = rng.random(NUM_JOINTS) < motion.gap_rate
                conf[dropped] = 0.0
                xy = np.where(dropped[:, None], 0.0, xy)
            coords = np.concatenate([xy, np.zeros((NUM_JOINTS, 1))], axis=1)
            skeletons.append(RawSkeleton(coords=coords, confidence=conf))
        if spec.shuffle_order and len(skeletons) > 1:
            order = rng.permutation(len(skeletons))
            skeletons = [skeletons[i] for i in order]
        frames.append(SkeletonFrame.of(f, skeletons))

    truth = [
        {
            "exercise": motion.exercise,
            "full_cycles": motion.full_cycles,
            "partial_cycles": motion.partial_cycles,
            "expected_counts": motion.expected_counts,
        }
        for motion in spec.persons
    ]
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
