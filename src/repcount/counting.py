"""Repetition counting state machine over a conditioned angle trace.

A repetition registers on each completing-direction crossing of the
range-of-motion mid-line (push: upward, pull: downward). The rep is correct
when the trace reached both ROM bounds (within tolerance) during the cycle
just closed; otherwise it is incorrect. A small debounce band around the
mid-line suppresses chatter from residual jitter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kinematics import ExerciseProfile

DEFAULT_TOLERANCE_DEG = 5.0  # slack on both ROM bounds for the correctness test
DEBOUNCE_DEG = 2.0  # movement past the mid-line needed to commit a crossing


@dataclass(frozen=True)
class RepEvent:
    person_id: int
    frame: int
    time_s: float  # seconds from session start
    verdict: str  # "correct" or "incorrect"


def tally(events: list[RepEvent]) -> tuple[int, int, int]:
    """(total, correct, incorrect) of a list of events."""
    correct = sum(e.verdict == "correct" for e in events)
    return (len(events), correct, len(events) - correct)


class RepCounter:
    """Counts repetitions for one (person, exercise set)."""

    __slots__ = ("person_id", "tolerance", "low", "high", "mid", "completing_up",
                 "phase", "cycle_min", "cycle_max", "events", "_finalized")

    def __init__(self, profile: ExerciseProfile, person_id: int = 0,
                 tolerance: float = DEFAULT_TOLERANCE_DEG):
        self.person_id = person_id
        self.tolerance = tolerance
        self.low = profile.rom_low
        self.high = profile.rom_high
        self.mid = profile.rom_mid
        # push completes on the upward (extension) crossing, pull on the
        # downward one
        self.completing_up = profile.motion_type == "push"
        self.phase = "unstarted"  # unstarted | above | below
        self.cycle_min: Optional[float] = None
        self.cycle_max: Optional[float] = None
        self.events: list[RepEvent] = []
        self._finalized = False

    def step(self, frame: int, time_s: float, angle: float) -> Optional[RepEvent]:
        """Advance one conditioned sample; return the RepEvent it completed,
        if any. Gap samples are a caller contract violation."""
        if angle is None:
            raise ValueError("counter fed a gap sample; condition the trace first")
        if self._finalized:
            raise RuntimeError("counter already finalized")

        cycle_min, cycle_max = self.cycle_min, self.cycle_max
        if cycle_min is None or angle < cycle_min:
            self.cycle_min = cycle_min = angle
        if cycle_max is None or angle > cycle_max:
            self.cycle_max = cycle_max = angle

        mid = self.mid
        if angle >= mid + DEBOUNCE_DEG:
            new_phase = "above"
        elif angle <= mid - DEBOUNCE_DEG:
            new_phase = "below"
        else:
            return None  # inside the debounce band: the phase holds
        phase = self.phase
        if new_phase == phase:
            return None
        self.phase = new_phase
        if phase == "unstarted":
            return None
        if (new_phase == "above") != self.completing_up:
            return None  # the crossing that starts a rep
        reached_low = cycle_min <= self.low + self.tolerance
        reached_high = cycle_max >= self.high - self.tolerance
        verdict = "correct" if (reached_low and reached_high) else "incorrect"
        event = RepEvent(person_id=self.person_id, frame=frame,
                         time_s=time_s, verdict=verdict)
        self.events.append(event)
        # extremes start over from the crossing sample
        self.cycle_min = angle
        self.cycle_max = angle
        return event

    def counts(self) -> tuple[int, int, int]:
        return tally(self.events)

    def finalize(self) -> tuple[int, int, int]:
        """Freeze counts; partial motion after the last crossing is discarded."""
        self._finalized = True
        return self.counts()
