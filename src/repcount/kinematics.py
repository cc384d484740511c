"""Joint-angle measurement and per-exercise parameter profiles.

Each exercise is characterized by a single major joint (the vertex of a
three-joint triple), a range of motion in degrees, and a motion type that
determines which mid-line crossing direction completes a repetition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional

import numpy as np

from . import body25
from .body25 import NUM_JOINTS, mirror_triple
from .jsoninput import decode_json
from .recognizer import UNKNOWN, WARMUP

LIMB_EPSILON = 1e-9  # input units; below this a limb vector is degenerate


class DegenerateGeometryError(ValueError):
    """A limb vector of the angle triple has (near-)zero length."""


class ProfileError(ValueError):
    """Exercise profile violates its invariants."""


@dataclass(frozen=True)
class ExerciseProfile:
    name: str
    joint_triple: tuple[int, int, int]  # (A, B, C); B is the vertex
    rom_low: float  # degrees
    rom_high: float  # degrees
    motion_type: str  # "push" or "pull"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ProfileError(f"profile name must be a string, got {self.name!r}")
        triple = self.joint_triple
        # bool is an int subclass, and NumPy reads it as a mask, not an index
        if not (isinstance(triple, tuple) and len(triple) == 3
                and all(type(j) is int and 0 <= j < NUM_JOINTS for j in triple)
                and len(set(triple)) == 3):
            raise ProfileError(f"{self.name}: joint triple must be 3 distinct BODY_25 indices")
        if not 0 <= self.rom_low < self.rom_high <= 180:
            raise ProfileError(f"{self.name}: need 0 <= rom_low < rom_high <= 180")
        if self.motion_type not in ("push", "pull"):
            raise ProfileError(f"{self.name}: motion_type must be 'push' or 'pull'")

    @property
    def rom_mid(self) -> float:
        return 0.5 * (self.rom_low + self.rom_high)


def joint_angle(a, b, c) -> float:
    """Angle at vertex B of the triple (A, B, C), in degrees.

    theta = arccos(BA . BC / (|BA| |BC|)), the cosine clamped to [-1, 1]
    so rounding near collinearity cannot push the result outside [0, 180].
    """
    # scalar math on 3-vectors; _triple_sides is its array form, with the
    # same operation order
    bax, bay, baz = a[0] - b[0], a[1] - b[1], (a[2] - b[2]) if len(a) > 2 else 0.0
    bcx, bcy, bcz = c[0] - b[0], c[1] - b[1], (c[2] - b[2]) if len(c) > 2 else 0.0
    nba = math.sqrt(bax * bax + bay * bay + baz * baz)
    nbc = math.sqrt(bcx * bcx + bcy * bcy + bcz * bcz)
    if nba <= LIMB_EPSILON or nbc <= LIMB_EPSILON:
        raise DegenerateGeometryError("zero-length limb vector")
    cosang = (bax * bcx + bay * bcy + baz * bcz) / (nba * nbc)
    cosang = min(1.0, max(-1.0, cosang))
    return math.degrees(math.acos(cosang))


def _triple_sides(triples: list[tuple[int, int, int]], coords: np.ndarray,
                  confidence: np.ndarray):
    """(T, N) arrays for T triples on the rows of the (N, 25, 3) coords and
    (N, 25) confidences: whether a triple's joints are all detected, their
    mean confidence, and the clamped cosine at its vertex (NaN for a
    degenerate limb), each with joint_angle's operation order."""
    a, b, c = np.array(triples).T
    conf = confidence.T  # joint-major views: a joint's values over the rows
    ca, cb, cc = conf[a], conf[b], conf[c]
    detected = (ca > 0) & (cb > 0) & (cc > 0)
    mean = (ca + cb + cc) / 3.0
    x, y, z = coords.transpose(2, 1, 0)
    bax, bay, baz = x[a] - x[b], y[a] - y[b], z[a] - z[b]
    bcx, bcy, bcz = x[c] - x[b], y[c] - y[b], z[c] - z[b]
    with np.errstate(all="ignore"):  # degenerate limbs are masked below
        nba = np.sqrt(bax * bax + bay * bay + baz * baz)
        nbc = np.sqrt(bcx * bcx + bcy * bcy + bcz * bcz)
        cosang = (bax * bcx + bay * bcy + baz * bcz) / (nba * nbc)
    # min(1.0, max(-1.0, cosang)), which also maps NaN to -1.0
    cosang = np.where(cosang > -1.0, cosang, -1.0)
    cosang = np.where(cosang < 1.0, cosang, 1.0)
    cosang[(nba <= LIMB_EPSILON) | (nbc <= LIMB_EPSILON)] = np.nan
    return detected, mean, cosang


def profile_cosines(profiles: Mapping[str, ExerciseProfile], coords: np.ndarray,
                    confidence: np.ndarray) -> dict[str, list[float]]:
    """By the profiles' keys, the clamped cosine of the angle angle_for
    measures on each row of the (N, 25, 3) coords and (N, 25) confidences;
    NaN where it measures none. Each distinct triple is computed once.

    The profile's triple names the primary (right) side; when any of its
    joints is undetected the mirrored left triple is used instead, and when
    both sides are fully detected the side with higher mean confidence wins
    (the primary on a tie). A degenerate limb on the chosen side is a gap.
    """
    index: dict[tuple[int, int, int], int] = {}  # distinct triple -> its position
    for profile in profiles.values():
        for triple in (profile.joint_triple, mirror_triple(profile.joint_triple)):
            index.setdefault(triple, len(index))
    have, mean, cosang = _triple_sides(list(index), coords, confidence)
    primary = [index[p.joint_triple] for p in profiles.values()]
    mirrored = [index[mirror_triple(p.joint_triple)] for p in profiles.values()]
    have_m = have[mirrored]
    use_p = have[primary] & (~have_m | (mean[primary] >= mean[mirrored]))
    use_m = have_m & ~use_p
    chosen = np.where(use_p, cosang[primary], np.where(use_m, cosang[mirrored], np.nan))
    return dict(zip(profiles, chosen.tolist()))


def check_profile_names(names: Iterable[str]) -> None:
    """Reject profiles named like the labels of frames that show no exercise."""
    if reserved := sorted({UNKNOWN, WARMUP}.intersection(names)):
        raise ProfileError(f"profile name {reserved[0]!r} is reserved: a label of the recognizer")


def angle_of_cosine(cosine: float) -> Optional[float]:
    """Degrees of a profile_cosines value; None for a NaN (a gap), the one
    value unequal to itself."""
    return None if cosine != cosine else math.degrees(math.acos(cosine))


def angle_for(profile: ExerciseProfile, coords, confidence) -> Optional[float]:
    """Measure the profile's major-joint angle on one person's (25, 3)
    coordinate row and (25,) confidence row: profile_cosines on one row.
    Returns None (a gap) when neither side is usable."""
    name = profile.name
    (cosine,) = profile_cosines({name: profile}, coords[None], confidence[None])[name]
    return angle_of_cosine(cosine)


# ROM bounds are artifact defaults chosen from standard exercise form; they
# are configuration, not measured values, and can be overridden per profile.
def builtin_profiles() -> dict[str, ExerciseProfile]:
    profiles = [
        ExerciseProfile("push-up", (body25.R_SHOULDER, body25.R_ELBOW, body25.R_WRIST), 75.0, 160.0, "push"),
        ExerciseProfile("pull-up", (body25.R_SHOULDER, body25.R_ELBOW, body25.R_WRIST), 60.0, 160.0, "pull"),
        ExerciseProfile("squat", (body25.R_HIP, body25.R_KNEE, body25.R_ANKLE), 80.0, 170.0, "push"),
    ]
    return {p.name: p for p in profiles}


def _degrees(value) -> float:
    """A JSON number of a profile as a float; a TypeError for anything else."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number of degrees, got {value!r}")
    return float(value)


def load_profiles(path: str | Path) -> dict[str, ExerciseProfile]:
    """Load a profile registry from a JSON config file.

    The file holds a non-empty list of objects with keys name, joint_triple
    (3 BODY_25 indices, vertex in the middle), rom_low, rom_high,
    motion_type.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = decode_json(fh.read())
    except UnicodeDecodeError as exc:
        raise ProfileError(f"profile config is not UTF-8: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ProfileError("profile config must be a non-empty JSON list")
    profiles = {}
    for entry in raw:
        try:
            profile = ExerciseProfile(
                name=entry["name"],
                joint_triple=tuple(entry["joint_triple"]),
                rom_low=_degrees(entry["rom_low"]),
                rom_high=_degrees(entry["rom_high"]),
                motion_type=entry["motion_type"],
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ProfileError(f"bad profile entry {entry!r}: {exc}") from exc
        if profile.name in profiles:
            raise ProfileError(f"profile {profile.name!r} is named twice")
        profiles[profile.name] = profile
    check_profile_names(profiles)
    return profiles
