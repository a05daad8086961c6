"""Absolute-threshold spike detection and peak/trough feature extraction.

The detector has two fixed settings: the threshold is DEFAULT_K = 4 noise
sigmas (sigma estimated from the median absolute deviation), and a window
opens DEFAULT_PRE = 4 samples before the crossing.
Everything downstream of threshold estimation is integer arithmetic on int8
samples: the detector compares |v| against the threshold, cuts a fixed
32-sample window around the crossing, and reduces it to its peak (max) and
trough (min), the two int8 features every sorter reads.

The stream from detector to fabric is columnar. :func:`detect_rows` finds
the windows of every channel at once, and each window becomes one row of a
:class:`Tokens`: int64 columns ``t``, ``channel``, ``f1`` and ``f2``, emitted
in the cycle ``t + WINDOW_LEN - 1`` when the window's last sample arrives.
The same columns feed the sorters, the token stream files and the fabric
simulator. :class:`Completion` is the row type, one token as a tuple.
A window itself is row i of an (n, 32) int8 array beside row i of its
Tokens; a windows file stores that pair, and :func:`load_windows` gives
it back.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .synthdata import (WINDOW_LEN, PayloadError, load_channel_records, load_records,
                        store_records)

MAD_SCALE = 1.4826  # MAD -> sigma for Gaussian noise
DEFAULT_K = 4.0
DEFAULT_PRE = 4
MIN_SEGMENT = 1000
_INT8_VALUES = np.arange(-128.0, 128.0)   # every int8 value, ascending, as float64


class SegmentTooShort(ValueError):
    """Threshold estimation needs at least MIN_SEGMENT samples."""


class Completion(NamedTuple):
    """A detector finishing its window: one spike reduced to peak and trough.

    *cycle* is when the window's last sample arrives, ``t + WINDOW_LEN - 1``
    for every detector token, and the cycle in which it may enter the fabric.
    """

    cycle: int
    channel: int
    t: int          # window start sample; travels with the token for binning
    f1: int
    f2: int


class Tokens:
    """Detector tokens as four int64 columns of equal length.

    Row i is one window: its start sample ``t[i]``, its ``channel[i]`` and
    its peak and trough ``f1[i]``, ``f2[i]``. Its cycle is
    ``t[i] + WINDOW_LEN - 1``. ``len()`` counts the tokens and iterating
    yields them as :class:`Completion` rows. A negative channel raises
    ValueError.
    """

    __slots__ = ("t", "channel", "f1", "f2")

    def __init__(self, t, channel, f1, f2):
        cols = [np.asarray(c, dtype=np.int64).reshape(-1) for c in (t, channel, f1, f2)]
        if len({c.size for c in cols}) != 1:
            raise ValueError("token columns differ in length")
        if cols[1].size and cols[1].min() < 0:
            raise ValueError(f"negative channel {int(cols[1].min())}")
        self.t, self.channel, self.f1, self.f2 = cols

    @classmethod
    def of(cls, tokens) -> "Tokens":
        """*tokens* as columns: a Tokens as it is, or stacked Completion rows.

        A row's cycle is not kept; a Tokens derives it from ``t``.
        """
        if isinstance(tokens, cls):
            return tokens
        rows = np.array(list(tokens), dtype=np.int64).reshape(-1, len(Completion._fields))
        return cls(rows[:, 2], rows[:, 1], rows[:, 3], rows[:, 4])

    @property
    def cycle(self) -> np.ndarray:
        return self.t + (WINDOW_LEN - 1)

    def __len__(self) -> int:
        return self.t.size

    def __iter__(self):
        return map(Completion, self.cycle.tolist(), self.channel.tolist(),
                   self.t.tolist(), self.f1.tolist(), self.f2.tolist())


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


def detect_rows(data: np.ndarray, thresholds) -> tuple:
    """Row index and start sample of every window cut from the rows of *data*.

    *data* is a (rows, samples) int8 array and *thresholds* holds one
    threshold per row. A window opens at the first sample t with
    |v| >= threshold while the detector is idle and spans [t - 4, t + 27];
    the detector then stays busy for 32 samples, so the window starts of one
    row are always at least 32 samples apart. A crossing in the first 4
    samples clamps the window start to sample 0; a window that cannot
    complete before the end of its row is dropped (so is every later one:
    their starts are later still).

    The hot samples of all rows come from one ``flatnonzero`` over the
    flattened array. A hot sample that no earlier crossing of its row could
    mask opens a cluster, and always fires. Most clusters end before their
    first window re-arms the detector; in the rest, one ``searchsorted``
    links each hot sample to the next crossing past the re-arm point it
    would set, and the only Python loop walks those links from window to
    window. Windows come out ordered by (row, start).
    """
    data = np.asarray(data, dtype=np.int8)
    n = data.shape[1]
    # |v| is an integer in 0..128, so |v| >= thr exactly when |v| >= ceil(thr)
    lim = np.ceil(np.asarray(thresholds, dtype=np.float64).reshape(-1, 1))
    lim = np.clip(np.nan_to_num(lim, nan=129.0), 0, 129).astype(np.int16)
    hot = np.flatnonzero(np.abs(data, dtype=np.int16) >= lim)
    row, col = np.divmod(hot, n)
    t0 = np.maximum(col - DEFAULT_PRE, 0)
    # where the detector re-arms after firing at each hot sample, as a flat
    # index: t + 32 unless the start was clamped to 0
    rearm = hot - col + t0 + WINDOW_LEN + DEFAULT_PRE
    fires = np.ones(hot.size, dtype=bool)
    fires[1:] = (row[1:] != row[:-1]) | (hot[1:] >= rearm[:-1])
    first = np.flatnonzero(fires)
    last = np.append(first[1:], hot.size)[:first.size] - 1
    crowded = hot[last] >= rearm[first]      # clusters that fire again
    if crowded.any():
        sizes = last[crowded] - first[crowded] + 1
        ends = np.cumsum(sizes)
        inside = np.arange(ends[-1]) + np.repeat(first[crowded] - (ends - sizes), sizes)
        following = np.searchsorted(hot[inside], rearm[inside]).tolist()
        again = []
        for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
            j = following[lo]
            while j < hi:
                again.append(j)
                j = following[j]
        fires[inside[again]] = True
    fired = np.flatnonzero(fires & (t0 <= n - WINDOW_LEN))
    return row[fired], t0[fired]


def window_features(windows: np.ndarray) -> tuple:
    """Peak and trough of every row of a (n, 32) window array, as int8 arrays."""
    return windows.max(axis=1), windows.min(axis=1)


def detect_trace(trace, thresholds) -> tuple:
    """Run detection + feature extraction over all channels of a RawTrace.

    *thresholds* is a scalar or a per-channel sequence. Returns (windows,
    tokens): the (n, 32) int8 array of the detected windows and their n
    :class:`Tokens`, both ordered by (channel, time).
    """
    thr = np.broadcast_to(np.asarray(thresholds, dtype=np.float64),
                          (trace.n_channels,))
    channel, t0 = detect_rows(trace.data, thr)
    windows = sliding_window_view(trace.data, WINDOW_LEN, axis=1)[channel, t0]
    f1, f2 = window_features(windows)
    return windows, Tokens(t0, channel, f1, f2)


# --- token / window stream files (JSONL) -----------------------------------


def store_tokens(tokens, path: str) -> None:
    """Write *tokens* (a Tokens or Completion rows) as ``{t, ch, f1, f2}`` records."""
    tok = Tokens.of(tokens)
    store_records(({"t": t, "ch": ch, "f1": f1, "f2": f2} for t, ch, f1, f2 in
                   zip(tok.t.tolist(), tok.channel.tolist(), tok.f1.tolist(),
                       tok.f2.tolist())), path)


def load_tokens(path: str) -> Tokens:
    """Read a token stream; a feature outside int8 raises ``PayloadError``."""
    rows = load_channel_records(path, "token", {"t": int, "ch": int, "f1": int, "f2": int})
    feats = rows[:, 2:]
    if feats.size and not -128 <= feats.min() <= feats.max() <= 127:
        raise PayloadError(f"{path}: token features span {feats.min()}..{feats.max()}, "
                           "outside int8")
    return Tokens(*rows.T)


def store_windows(tokens, windows: np.ndarray, path: str) -> None:
    """Write each token's window as a ``{t, ch, s}`` record.

    *windows* is the (len(tokens), 32) int8 array that :func:`detect_trace`
    returns beside *tokens*.
    """
    tok = Tokens.of(tokens)
    windows = np.asarray(windows).reshape(-1, WINDOW_LEN)
    if windows.shape[0] != len(tok):
        raise ValueError(f"{windows.shape[0]} windows for {len(tok)} tokens")
    store_records(({"t": t, "ch": ch, "s": s} for t, ch, s in
                   zip(tok.t.tolist(), tok.channel.tolist(), windows.tolist())), path)


def _window_record(t: int, ch: int, samples: list) -> tuple:
    if len(samples) != WINDOW_LEN:
        raise ValueError(f"window must hold exactly {WINDOW_LEN} samples")
    if not all(-128 <= x <= 127 for x in samples):
        raise ValueError("window samples must be int8")
    if ch < 0:
        raise ValueError(f"negative channel {ch}")
    return t, ch, samples


def load_windows(path: str) -> tuple:
    """Read a windows file back as the (windows, tokens) pair it was stored from.

    The inverse of :func:`store_windows`: row i of the (n, 32) int8 array is
    the window of token i, whose ``f1``/``f2`` are that window's
    :func:`window_features`. Rows keep the file's order.
    """
    rows = load_records(path, "window", {"t": int, "ch": int, "s": list},
                        _window_record)
    windows = np.array([s for _, _, s in rows], dtype=np.int8).reshape(-1, WINDOW_LEN)
    t, channel = np.array([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2).T
    return windows, Tokens(t, channel, *window_features(windows))
