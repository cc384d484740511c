"""Angle-trace conditioning: gap filling and outlier normalization.

Gaps (frames where the major joint could not be measured) are filled by
linear extrapolation from the two preceding samples, clamped to [0, 180];
outliers are pulled to the mean of their neighbors when they deviate toward
the range-of-motion mid-line against the local trend, in one left-to-right
sweep. Both steps run before the repetition counter sees the trace.

StreamingConditioner is the implementation the engine runs, with 1 frame of
latency. fill_gaps and normalize_outliers are the batch reference it equals:
normalize_outliers(fill_gaps(x), mid) == condition_trace(x, mid). Its state
is scalar slots (the pending sample's frame and filled value, the last
emitted sample's filled and conditioned values) plus the frames of leading
gaps; flush() ends a stream and leaves the conditioner as new.
"""
from __future__ import annotations

from typing import Optional


def _clamp(value: float) -> float:
    return min(180.0, max(0.0, value))


def is_usable(samples: list[Optional[float]]) -> bool:
    """A trace with fewer than 2 valid samples cannot be gap-filled."""
    return sum(1 for s in samples if s is not None) >= 2


def fill_gaps(samples: list[Optional[float]]) -> list[Optional[float]]:
    """Replace gap samples (None) with 2*a[f-1] - a[f-2] clamped to [0, 180].

    Leading gaps are back-filled with the first valid value. Traces with
    fewer than 2 valid samples pass through untouched (caller checks
    is_usable). Non-gap samples are never altered.
    """
    if not is_usable(samples):
        return list(samples)
    out: list[float] = []
    first_valid = next(s for s in samples if s is not None)
    for s in samples:
        if s is not None:
            out.append(s)
        elif len(out) < 2:
            out.append(first_valid if not out else out[-1])
        else:
            out.append(_clamp(2.0 * out[-1] - out[-2]))
    return out


def normalize_outliers(samples: list[float], mid: float, iterations: int = 1) -> list[float]:
    """Pull mid-line-ward spikes to their neighbor mean.

    Runs ``iterations`` in-place left-to-right sweeps over the gap-free
    trace; endpoints are never modified. With iterations=0 this is the
    identity. The default single sweep is what conditioning applies.
    """
    out = list(samples)
    for _ in range(iterations):
        for f in range(1, len(out) - 1):
            mean = 0.5 * (out[f - 1] + out[f + 1])
            if mid < out[f] < mean or mean < out[f] < mid:  # toward the mid-line
                out[f] = mean
    return out


def condition_trace(samples: list[Optional[float]], mid: float) -> list[float]:
    """Condition a whole trace by streaming it through StreamingConditioner."""
    if not is_usable(samples):
        raise ValueError("trace has fewer than 2 valid samples; cannot condition")
    conditioner = StreamingConditioner(mid)
    out: list[float] = []
    for frame, raw in enumerate(samples):
        out.extend(c for _, _, c in conditioner.feed(frame, raw))
    out.extend(c for _, _, c in conditioner.flush())
    return out


class StreamingConditioner:
    """Per-person streaming conditioner with a fixed 1-frame latency.

    Gap filling is causal and immediate; the outlier rule needs the next
    sample, so each sample is emitted once its successor arrives. flush()
    ends the stream: it releases the final sample unmodified (it is an
    endpoint) and leaves the conditioner as new, so a sample fed after it
    starts a new stream.
    """

    __slots__ = ("mid", "_pending_frame", "_pending_filled", "_last_filled",
                 "_last_conditioned", "_leading_gaps")

    def __init__(self, mid: float):
        self.mid = mid
        # the sample awaiting its right neighbor: frame and filled value;
        # no sample is pending while _pending_filled is None
        self._pending_frame = 0
        self._pending_filled: Optional[float] = None
        # the last emitted sample: filled and conditioned value; none has
        # been emitted while _last_filled is None
        self._last_filled: Optional[float] = None
        self._last_conditioned = 0.0
        self._leading_gaps: list[int] = []

    def feed(self, frame: int, raw: Optional[float]) -> list[tuple[int, float, float]]:
        """Feed one sample; return the (frame, filled, conditioned) samples
        finalized by this arrival (possibly empty)."""
        pfilled = self._pending_filled
        if pfilled is None:
            if raw is None:
                # leading gap: back-filled with the first valid value on arrival
                self._leading_gaps.append(frame)
                return []
            # the back-filled run is flat, so the outlier rule keeps each sample
            emitted = [(gap_frame, raw, raw) for gap_frame in self._leading_gaps]
            self._leading_gaps.clear()
            self._pending_frame, self._pending_filled = frame, raw
            if emitted:
                self._last_filled = self._last_conditioned = raw
            return emitted
        pframe, lfilled = self._pending_frame, self._last_filled
        if lfilled is None:
            # the first sample is an endpoint; a single valid one is repeated
            self._pending_frame = frame
            self._pending_filled = pfilled if raw is None else raw
            self._last_filled = self._last_conditioned = pfilled
            return [(pframe, pfilled, pfilled)]
        if raw is None:
            raw = _clamp(2.0 * pfilled - lfilled)
        self._pending_frame, self._pending_filled = frame, raw
        # normalize_outliers' rule, with the left neighbor already conditioned
        # and the right one only gap-filled: one in-place left-to-right sweep
        mean, mid = 0.5 * (self._last_conditioned + raw), self.mid
        pval = mean if mid < pfilled < mean or mean < pfilled < mid else pfilled
        self._last_filled, self._last_conditioned = pfilled, pval
        return [(pframe, pfilled, pval)]

    def flush(self) -> list[tuple[int, float, float]]:
        """End of stream: release the trailing sample (endpoint, unmodified)
        and forget the stream, leading gaps included."""
        pfilled = self._pending_filled
        out = [] if pfilled is None else [(self._pending_frame, pfilled, pfilled)]
        self._pending_filled = self._last_filled = None
        self._leading_gaps.clear()
        return out
