"""Joint-angle measurement and per-exercise parameter profiles.

Each exercise is characterized by a single major joint (the vertex of a
three-joint triple), a range of motion in degrees, and a motion type that
determines which mid-line crossing direction completes a repetition.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import body25
from .body25 import NUM_JOINTS, mirror_triple

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
    # scalar math: this runs per frame per person on 3-vectors
    bax, bay, baz = a[0] - b[0], a[1] - b[1], (a[2] - b[2]) if len(a) > 2 else 0.0
    bcx, bcy, bcz = c[0] - b[0], c[1] - b[1], (c[2] - b[2]) if len(c) > 2 else 0.0
    nba = math.sqrt(bax * bax + bay * bay + baz * baz)
    nbc = math.sqrt(bcx * bcx + bcy * bcy + bcz * bcz)
    if nba <= LIMB_EPSILON or nbc <= LIMB_EPSILON:
        raise DegenerateGeometryError("zero-length limb vector")
    cosang = (bax * bcx + bay * bcy + baz * bcz) / (nba * nbc)
    cosang = min(1.0, max(-1.0, cosang))
    return math.degrees(math.acos(cosang))


def _detected(conf: list[float], triple) -> bool:
    a, b, c = triple
    return conf[a] > 0 and conf[b] > 0 and conf[c] > 0


def _triple_confidence(conf: list[float], triple) -> float:
    a, b, c = triple
    return (conf[a] + conf[b] + conf[c]) / 3.0


def angle_for(profile: ExerciseProfile, coords, confidence) -> Optional[float]:
    """Measure the profile's major-joint angle on one person's (25, 3)
    coordinate row and (25,) confidence row.

    The profile's triple names the primary (right) side; when any of its
    joints is undetected the mirrored left triple is used instead, and when
    both sides are fully detected the side with higher mean confidence wins.
    Returns None (a gap) when neither side is usable.
    """
    primary = profile.joint_triple
    mirrored = mirror_triple(primary)
    conf = confidence.tolist()  # one conversion, then plain float reads
    have_primary = _detected(conf, primary)
    have_mirror = _detected(conf, mirrored)
    if have_primary and have_mirror:
        triple = primary if _triple_confidence(conf, primary) >= _triple_confidence(conf, mirrored) else mirrored
    elif have_primary:
        triple = primary
    elif have_mirror:
        triple = mirrored
    else:
        return None
    a, b, c = triple
    try:
        return joint_angle(coords[a], coords[b], coords[c])
    except DegenerateGeometryError:
        return None


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
            raw = json.load(fh)
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
        profiles[profile.name] = profile
    return profiles
