"""Absolute-threshold spike detection and peak/trough feature extraction.

The detector has two fixed settings: the threshold is DEFAULT_K = 4 noise
sigmas (sigma estimated from the median absolute deviation), and a window
opens DEFAULT_PRE = 4 samples before the crossing.
Everything downstream of threshold estimation is integer arithmetic on int8
samples: the detector compares |v| against the threshold, cuts a fixed
32-sample window around the crossing, and reduces it to its peak (max) and
trough (min), the two int8 features every sorter reads.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .synthdata import WINDOW_LEN, load_records, store_records

MAD_SCALE = 1.4826  # MAD -> sigma for Gaussian noise
DEFAULT_K = 4.0
DEFAULT_PRE = 4
MIN_SEGMENT = 1000
_INT8_VALUES = np.arange(-128.0, 128.0)   # every int8 value, ascending, as float64


class SegmentTooShort(ValueError):
    """Threshold estimation needs at least MIN_SEGMENT samples."""


@dataclass
class SpikeWindow:
    """One detected spike: window start sample, channel, 32 int8 samples."""

    t0: int
    channel: int
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.int8)
        if self.samples.shape != (WINDOW_LEN,):
            raise ValueError(f"window must hold exactly {WINDOW_LEN} samples")


@dataclass(frozen=True)
class SpikeToken:
    """Detected spike reduced to its peak (f1) and trough (f2)."""

    t: int
    channel: int
    f1: int
    f2: int


def estimate_threshold(segment: np.ndarray) -> float:
    """Noise-robust threshold: DEFAULT_K * 1.4826 * median(|v - median(v)|), floored at 1 LSB.

    The median absolute deviation ignores the sparse spike samples that would
    inflate a plain standard deviation estimate. An int8 segment takes both
    medians exactly from its 256-bin histogram; any other dtype goes through
    the float ``np.median`` expression, which the int8 path equals bit for bit.
    """
    segment = np.asarray(segment)
    if segment.size < MIN_SEGMENT:
        raise SegmentTooShort(
            f"need >= {MIN_SEGMENT} samples to estimate noise, got {segment.size}")
    if segment.dtype == np.int8:
        # bin b counts the value b - 128: flipping the sign bit of the
        # two's-complement byte adds 128
        counts = np.bincount(segment.reshape(-1).view(np.uint8) ^ 0x80, minlength=256)
        med = _histogram_median(_INT8_VALUES, counts)
        dev = np.abs(_INT8_VALUES - med)
        order = np.argsort(dev, kind="stable")
        mad = _histogram_median(dev[order], counts[order])
    else:
        v = segment.astype(np.float64)
        mad = np.median(np.abs(v - np.median(v)))
    return max(1.0, DEFAULT_K * MAD_SCALE * mad)


def _histogram_median(values: np.ndarray, counts: np.ndarray) -> np.float64:
    """Median of a sample given as *counts* of ascending float *values*.

    Averages the lower and upper middle order statistics, as ``np.median``
    does; both are integers or half-integers here, so the mean is exact.
    """
    cum = np.cumsum(counts)
    n = int(cum[-1])
    lo, hi = np.searchsorted(cum, [(n - 1) // 2, n // 2], side="right")
    return (values[lo] + values[hi]) / 2


def window_starts(channel_trace: np.ndarray, threshold: float) -> list:
    """Start samples of the windows the detector cuts from one channel.

    A window opens at the first sample t with |v| >= threshold while the
    detector is idle and spans [t - 4, t + 27]; the detector then stays busy
    for 32 samples, so window starts are always at least 32 samples apart. A
    crossing in the first 4 samples clamps the window start to sample 0; a
    window that cannot complete before the end of the trace is dropped. The
    next crossing past each re-arm point is found by bisection, so the scan
    costs one step per window, not per hot sample.
    """
    trace = np.asarray(channel_trace, dtype=np.int8)
    last = trace.size - WINDOW_LEN   # latest start whose window completes
    hot = np.flatnonzero(np.abs(trace.astype(np.int16)) >= threshold).tolist()
    starts = []
    i = 0
    while i < len(hot):
        t0 = max(0, hot[i] - DEFAULT_PRE)
        if t0 > last:
            break  # window cannot complete; drop and stop (detector stays busy past EOT)
        starts.append(t0)
        # busy until a new crossing could not produce an overlapping window;
        # equals t + 32 except when the window start was clamped to 0
        i = bisect_left(hot, t0 + WINDOW_LEN + DEFAULT_PRE, i + 1)
    return starts


def detect_spikes(channel_trace: np.ndarray, threshold: float,
                  channel: int = 0) -> list:
    """Scan one channel and return the list of SpikeWindow detections.

    Windows start where :func:`window_starts` says.
    """
    trace = np.asarray(channel_trace, dtype=np.int8)
    return [SpikeWindow(t0=t0, channel=channel,
                        samples=trace[t0:t0 + WINDOW_LEN].copy())
            for t0 in window_starts(trace, threshold)]


def gather_windows(channel_trace: np.ndarray, starts) -> np.ndarray:
    """The (len(starts), 32) int8 array of the windows starting at *starts*."""
    trace = np.asarray(channel_trace, dtype=np.int8)
    starts = np.asarray(starts, dtype=np.intp).reshape(-1, 1)
    return trace[starts + np.arange(WINDOW_LEN)]


def window_features(windows: np.ndarray) -> tuple:
    """Peak and trough of every row of a (n, 32) window array, as int8 arrays.

    Row by row this equals :func:`extract_features`.
    """
    return windows.max(axis=1), windows.min(axis=1)


def extract_features(window: SpikeWindow) -> SpikeToken:
    """Reduce a window to a SpikeToken carrying its peak and trough."""
    s = window.samples
    return SpikeToken(t=window.t0, channel=window.channel, f1=int(s.max()), f2=int(s.min()))


def detect_trace(trace, thresholds):
    """Run detection + feature extraction over all channels of a RawTrace.

    *thresholds* is a scalar or a per-channel sequence. Returns (windows,
    tokens) with both lists ordered by (channel, time). Each channel's windows
    are cut as one array and reduced with :func:`window_features`; per
    channel this equals :func:`detect_spikes` then :func:`extract_features`.
    """
    thr = np.broadcast_to(np.asarray(thresholds, dtype=np.float64),
                          (trace.n_channels,))
    windows, tokens = [], []
    for ch in range(trace.n_channels):
        row = trace.data[ch]
        starts = window_starts(row, float(thr[ch]))
        rows = gather_windows(row, starts)
        f1, f2 = window_features(rows)
        windows.extend(SpikeWindow(t0=t0, channel=ch, samples=w)
                       for t0, w in zip(starts, rows))
        tokens.extend(SpikeToken(t=t0, channel=ch, f1=a, f2=b)
                      for t0, a, b in zip(starts, f1.tolist(), f2.tolist()))
    return windows, tokens


# --- token / window stream files (JSONL) -----------------------------------


def store_tokens(tokens, path: str) -> None:
    store_records(({"t": tok.t, "ch": tok.channel, "f1": tok.f1, "f2": tok.f2}
                   for tok in tokens), path)


def load_tokens(path: str) -> list:
    return load_records(path, "token", {"t": int, "ch": int, "f1": int, "f2": int},
                        SpikeToken)


def store_windows(windows, path: str) -> None:
    store_records(({"t": w.t0, "ch": w.channel, "s": w.samples.tolist()}
                   for w in windows), path)


def _window_record(t: int, ch: int, samples: list) -> SpikeWindow:
    if not all(-128 <= x <= 127 for x in samples):
        raise ValueError("window samples must be int8")
    return SpikeWindow(t0=t, channel=ch, samples=np.array(samples, dtype=np.int8))


def load_windows(path: str) -> list:
    return load_records(path, "window", {"t": int, "ch": int, "s": list},
                        _window_record)
