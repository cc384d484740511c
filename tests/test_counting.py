import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import counting
from repcount.counting import RepCounter, RepEvent
from repcount.kinematics import ExerciseProfile, builtin_profiles


def sinusoid(mid, amp, period, cycles, start="high"):
    """Angle samples covering `cycles` full periods, starting at an extreme."""
    n = period * cycles + 1
    sign = 1.0 if start == "high" else -1.0
    return [mid + sign * amp * math.cos(2 * math.pi * t / period) for t in range(n)]


def run(counter, angles, fps=30.0):
    for f, a in enumerate(angles):
        counter.step(f, f / fps, a)
    return counter.finalize()


PUSH = builtin_profiles()["push-up"]  # ROM [75, 160], mid 117.5


class TestRepCounter:
    def test_fresh_counter_zero(self):
        c = RepCounter(PUSH)
        assert c.counts() == (0, 0, 0)

    def test_ten_full_cycles_all_correct(self):
        c = RepCounter(PUSH)
        angles = sinusoid(PUSH.rom_mid, (PUSH.rom_high - PUSH.rom_low) / 2, 20, 10)
        assert run(c, angles) == (10, 10, 0)

    def test_shallow_cycles_all_incorrect(self):
        # crosses the mid-line but stays 10 degrees short of both bounds
        c = RepCounter(PUSH)
        angles = sinusoid(PUSH.rom_mid, 12.0, 20, 5)
        total, correct, incorrect = run(c, angles)
        assert (total, correct, incorrect) == (5, 0, 5)

    def test_flat_near_mid_counts_nothing(self):
        c = RepCounter(PUSH)
        assert run(c, [PUSH.rom_mid + 1.0] * 100) == (0, 0, 0)

    def test_correct_then_shallow(self):
        c = RepCounter(PUSH)
        amp_full = (PUSH.rom_high - PUSH.rom_low) / 2
        angles = sinusoid(PUSH.rom_mid, amp_full, 20, 1)
        angles += sinusoid(PUSH.rom_mid, 12.0, 20, 1)[1:]
        total, correct, incorrect = run(c, angles)
        assert (total, correct, incorrect) == (2, 1, 1)
        assert [e.verdict for e in c.events] == ["correct", "incorrect"]

    def test_tolerance_slack_on_bounds(self):
        # reaches only rom_low + tolerance and rom_high - tolerance: still correct
        c = RepCounter(PUSH, tolerance=5.0)
        lo, hi = PUSH.rom_low + 5.0, PUSH.rom_high - 5.0
        angles = sinusoid((lo + hi) / 2, (hi - lo) / 2, 20, 3)
        total, correct, _ = run(c, angles)
        assert (total, correct) == (3, 3)

    def test_debounce_suppresses_midline_chatter(self):
        assert counting.DEBOUNCE_DEG == 2.0
        c = RepCounter(PUSH)
        mid = PUSH.rom_mid
        angles = [PUSH.rom_low, mid + 5.0]
        angles += [mid + 1.5, mid - 1.5] * 20  # oscillation inside the band
        total, _, _ = run(c, angles)
        assert total == 1

    def test_pull_completes_downward(self):
        prof = builtin_profiles()["pull-up"]  # pull: rep on the downward crossing
        amp = (prof.rom_high - prof.rom_low) / 2
        c = RepCounter(prof)
        assert run(c, sinusoid(prof.rom_mid, amp, 20, 4, start="low")) == (4, 4, 0)

    def test_partial_after_last_crossing_discarded(self):
        c = RepCounter(PUSH)
        amp = (PUSH.rom_high - PUSH.rom_low) / 2
        angles = sinusoid(PUSH.rom_mid, amp, 20, 2)
        angles += [PUSH.rom_mid - 10.0] * 5  # heads back down, never completes
        assert run(c, angles) == (2, 2, 0)

    def test_event_metadata(self):
        c = RepCounter(PUSH, person_id=3)
        amp = (PUSH.rom_high - PUSH.rom_low) / 2
        run(c, sinusoid(PUSH.rom_mid, amp, 20, 1), fps=10.0)
        (event,) = c.events
        assert event.person_id == 3
        # commits on the first sample past the debounce band after the trough
        assert event.frame == 16
        assert event.time_s == pytest.approx(1.6)

    def test_counts_consistent(self):
        c = RepCounter(PUSH)
        amp = (PUSH.rom_high - PUSH.rom_low) / 2
        angles = sinusoid(PUSH.rom_mid, amp, 16, 3) + sinusoid(PUSH.rom_mid, 12.0, 16, 2)[1:]
        total, correct, incorrect = run(c, angles)
        assert total == correct + incorrect == len(c.events)

    def test_gap_sample_rejected(self):
        c = RepCounter(PUSH)
        with pytest.raises(ValueError):
            c.step(0, 0.0, None)

    def test_step_after_finalize_rejected(self):
        c = RepCounter(PUSH)
        c.finalize()
        with pytest.raises(RuntimeError):
            c.step(0, 0.0, 100.0)

    def test_custom_profile(self):
        prof = ExerciseProfile("deep-squat", (9, 10, 11), 60.0, 170.0, "push")
        c = RepCounter(prof)
        assert run(c, sinusoid(prof.rom_mid, 55.0 + 2.0, 24, 6)) == (6, 6, 0)


class ReferenceCounter(RepCounter):
    """RepCounter.step as it was before it returned early inside the
    debounce band, with tallies of its own for counts() to be checked
    against."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.total = self.correct = self.incorrect = 0

    def counts(self):
        return (self.total, self.correct, self.incorrect)

    def step(self, frame, time_s, angle):
        if angle is None:
            raise ValueError("counter fed a gap sample; condition the trace first")
        if self._finalized:
            raise RuntimeError("counter already finalized")

        if self.cycle_min is None or angle < self.cycle_min:
            self.cycle_min = angle
        if self.cycle_max is None or angle > self.cycle_max:
            self.cycle_max = angle

        if angle >= self.mid + counting.DEBOUNCE_DEG:
            new_phase = "above"
        elif angle <= self.mid - counting.DEBOUNCE_DEG:
            new_phase = "below"
        else:
            new_phase = self.phase

        event = None
        if new_phase != self.phase and self.phase != "unstarted":
            completing = (new_phase == "above") if self.completing_up else (new_phase == "below")
            if completing:
                reached_low = self.cycle_min <= self.low + self.tolerance
                reached_high = self.cycle_max >= self.high - self.tolerance
                verdict = "correct" if (reached_low and reached_high) else "incorrect"
                event = RepEvent(person_id=self.person_id, frame=frame,
                                 time_s=time_s, verdict=verdict)
                self.events.append(event)
                self.total += 1
                if verdict == "correct":
                    self.correct += 1
                else:
                    self.incorrect += 1
                # extremes start over from the crossing sample
                self.cycle_min = angle
                self.cycle_max = angle
        self.phase = new_phase
        return event


def edge_angles(counter, debounce):
    """The values where step's comparisons flip, and their neighbors."""
    edges = [counter.mid + debounce, counter.mid - debounce,
             counter.low + counter.tolerance, counter.high - counter.tolerance,
             counter.mid, counter.low, counter.high]
    return [v for e in edges for v in (math.nextafter(e, -math.inf), e,
                                       math.nextafter(e, math.inf))]


PROFILES = [*builtin_profiles().values(),
            ExerciseProfile("narrow", (9, 10, 11), 100.0, 104.0, "pull")]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PROFILES), st.sampled_from([0.0, 2.5, 5.0, 30.0]),
       st.sampled_from([0.0, 0.5, 2.0, 5.0]), st.data())
def test_step_equals_reference(profile, tolerance, debounce, data):
    """Events, counts, phase and cycle extremes equal the reference after
    every step, also on the exact edges of the band and of both bounds."""
    counter = RepCounter(profile, person_id=4, tolerance=tolerance)
    reference = ReferenceCounter(profile, person_id=4, tolerance=tolerance)
    # a few edge values, so that a cycle's extreme is often exactly one of them
    palette = st.sampled_from(data.draw(st.lists(st.sampled_from(edge_angles(counter, debounce)),
                                                 min_size=1, max_size=5)))
    values = palette | st.floats(-10.0, 190.0) if data.draw(st.booleans()) else palette
    angles = data.draw(st.lists(values, max_size=80))
    with mock.patch.object(counting, "DEBOUNCE_DEG", debounce):
        for frame, angle in enumerate(angles):
            assert counter.step(frame, frame / 30.0, angle) == reference.step(
                frame, frame / 30.0, angle)
            assert counter.events == reference.events
            assert counter.counts() == reference.counts()
            assert counter.phase == reference.phase
            assert (counter.cycle_min, counter.cycle_max) == (reference.cycle_min,
                                                              reference.cycle_max)
        assert counter.finalize() == reference.finalize()
