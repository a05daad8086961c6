"""Absolute-threshold spike detection and peak/trough feature extraction.

The detector has two fixed settings: the threshold is DEFAULT_K = 4 noise
sigmas (sigma estimated from the median absolute deviation), and a window
opens DEFAULT_PRE = 4 samples before the crossing.
Everything downstream of threshold estimation is integer arithmetic on int8
samples: the detector fires where |v| reaches the threshold, cuts a fixed
32-sample window around the crossing, and reduces it to its peak (max) and
trough (min), the two int8 features every sorter reads. The comparison runs
on the sample bytes themselves. With w = v mod 256 and L the threshold
rounded up to an integer in 1..128, |v| >= L exactly when
(w + L - 1) mod 256 >= 2L - 1: adding L - 1 moves the values -L+1..L-1,
the ones inside the threshold, to the bottom of the byte range below 2L - 1
and leaves |v| >= L at 2L - 1..255. So the detector is one wrapping uint8
add and one compare per sample, with no widening.

After the compare, the detector reads its mask 8 samples at a time, as
little-endian uint64 words, and its bookkeeping scales with the hot words,
not the hot samples. A word's first and last hot samples come from the
exponents of its bits, and they group the words into clusters: a cluster
ends where the next hot sample lies at or past the point where the last
one would re-arm the detector. A cluster too short to re-arm the detector
fires once, at its first hot sample; only the few crowded clusters that
fire again are expanded into samples, and they are walked all at once, one
window per round (:func:`detect_rows`).

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

from .synthdata import (WINDOW_LEN, Int, List, PayloadError, load_channel_records, load_records,
                        store_records)

MAD_SCALE = 1.4826  # MAD -> sigma for Gaussian noise
DEFAULT_K = 4.0
DEFAULT_PRE = 4
MIN_SEGMENT = 1000
_INT8_VALUES = np.arange(-128.0, 128.0)   # every int8 value, ascending, as float64
_SCAN_ROWS = 8   # rows per detector scan block; its two buffers stay cache-sized


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
    threshold per row, or one for every row; any other count raises
    ValueError. A window opens at the first sample t with |v| >= threshold
    while the detector is idle and spans [t - 4, t + 27]; the detector then
    stays busy for 32 samples, so the window starts of one row are always at
    least 32 samples apart. After firing at sample c it re-arms at
    max(c - 4, 0) + 36. A crossing in the first 4 samples clamps the window
    start to sample 0; a window that cannot complete before the end of its
    row is dropped (so is every later one: their starts are later still).

    The byte scan runs in blocks of ``_SCAN_ROWS`` rows. With L the
    threshold rounded up, each block adds its rows' L - 1 to their bytes
    with wrapping uint8 arithmetic and compares the sums with 2L - 1 (see
    the module docstring), into buffers reused from block to block.
    L = 0 fires on every sample and L = 128 only on -128. A threshold above
    128, +inf or NaN is one no int8 sample reaches: such a row is masked to
    never fire.

    Everything after the scan works on 8-sample words. Each row of the
    compare buffer is padded with False bytes to whole words and read as
    little-endian uint64, so byte k of word w is sample 8w + k, and one
    ``nonzero`` lists the hot words. A word's first and last hot samples
    are the exponents of its lowest set bit and of its value (``frexp``).
    No sample can re-arm the detector within its own word, so a word opens
    a cluster when it starts a row or its first hot sample is at or past
    the re-arm point of the previous word's last. A cluster that ends
    before the re-arm point of its first hot sample fires once, there.

    Only the words of crowded clusters, the ones that fire again, are
    expanded to hot samples, and the clusters are walked together in
    rounds. Each round takes every cluster that is still firing from its
    latest window to the first hot sample at or past that window's re-arm
    point, with one ``searchsorted`` over just those clusters; a cluster
    whose next sample lies past its end stops. This is the test that marks
    a cluster crowded, repeated until nothing fires again, so the number of
    rounds is the most windows of one cluster: a few on spike traffic, and
    one per window on a railed row. Windows come out ordered by (row, start).
    """
    data = np.asarray(data, dtype=np.int8)
    rows, n = data.shape
    # |v| is an integer in 0..128, so |v| >= thr exactly when |v| >= ceil(thr)
    lim = np.ceil(np.asarray(thresholds, dtype=np.float64).reshape(-1))
    if lim.size not in (1, rows):
        raise ValueError(f"{lim.size} thresholds for {rows} rows")
    if lim.size != rows:
        lim = lim.repeat(rows)
    never = ~(lim <= 128)      # NaN too
    lim = np.fmin(np.fmax(lim, 0), 128).astype(np.int64)
    shift = ((lim - 1) % 256).astype(np.uint8)[:, None]
    # L = 0 compares with 0, so every sample fires
    floor = np.maximum(2 * lim - 1, 0).astype(np.uint8)[:, None]
    samples = data.view(np.uint8)
    n_words = -(-n // 8)
    shifted = np.empty((min(_SCAN_ROWS, rows), n), dtype=np.uint8)
    over = np.zeros((shifted.shape[0], 8 * n_words), dtype=bool)   # pads stay False
    words = over.view("<u8")
    lit = np.empty(words.shape, dtype=bool)
    index, value = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype="<u8")]
    for lo in range(0, rows, _SCAN_ROWS):
        hi = min(lo + _SCAN_ROWS, rows)
        s, o, w = shifted[:hi - lo], over[:hi - lo, :n], words[:hi - lo].reshape(-1)
        np.add(samples[lo:hi], shift[lo:hi], out=s)
        np.greater_equal(s, floor[lo:hi], out=o)
        o[never[lo:hi]] = False
        # nonzero lists the bool copy ~5x faster than the words themselves
        k = np.not_equal(w, 0, out=lit[:hi - lo].reshape(-1)).nonzero()[0]
        index.append(k + lo * n_words)
        value.append(w[k])
    word, value = np.concatenate(index), np.concatenate(value)
    row, col = np.divmod(word, n_words)
    col <<= 3
    # v & -v is the lowest set bit, a power of two, and v < 2^(8k + 1) for
    # the last hot byte k: both convert exactly, and bit 8k has exponent 8k + 1
    first = col + (np.frexp(value & -value)[1] >> 3)
    last = col + (np.frexp(value)[1] >> 3)
    fires = np.ones(word.size, dtype=bool)
    fires[1:] = (row[1:] != row[:-1]) | (first[1:] >= _rearm(last[:-1]))
    head = fires.nonzero()[0]
    size = np.diff(np.append(head, word.size))
    crowded = last[head + size - 1] >= _rearm(first[head])
    if crowded.any():
        crowd, span = head[crowded], size[crowded]
        end = np.cumsum(span)
        inside = np.arange(end[-1]) + (crowd - end + span).repeat(span)
        hot = value[inside].view(bool).nonzero()[0]
        owner, byte = inside[hot >> 3], hot & 7
        hot_col = col[owner] + byte
        key = (word[owner] << 3) + byte     # row-major, so ascending
        # one round per window: every cluster still firing moves from its
        # latest window to the first hot sample at or past that window's
        # re-arm point (keyed like the samples), and stops once that lies
        # past the cluster's end
        rearm = key - hot_col + _rearm(hot_col)
        cur = np.searchsorted(hot, (end - span) << 3)   # each cluster's first window
        hi = np.append(cur[1:], owner.size)
        again = []
        while cur.size:
            cur = np.searchsorted(key, rearm[cur])
            live = cur < hi
            cur, hi = cur[live], hi[live]
            again.append(cur)
        again = np.concatenate(again)
        # no two windows of a row start in one word: mark them on the words
        fires[owner[again]] = True
        first[owner[again]] = hot_col[again]
    t0 = np.maximum(first - DEFAULT_PRE, 0)
    fired = (fires & (t0 <= n - WINDOW_LEN)).nonzero()[0]
    return row[fired], t0[fired]


def _rearm(col):
    """Column where firing at column *col* re-arms the detector:
    max(col - 4, 0) + 36, which is col + 32 unless the window start clamps to 0."""
    return np.maximum(col, DEFAULT_PRE) + WINDOW_LEN


def window_features(windows: np.ndarray) -> tuple:
    """Peak and trough of every row of a (n, 32) window array, as int8 arrays.

    Both reduce a contiguous (32, n) copy along its first axis: 32 passes
    over n contiguous bytes are several times faster than n reductions of
    32 samples each.
    """
    columns = np.ascontiguousarray(windows.T)
    return columns.max(axis=0), columns.min(axis=0)


def detect_trace(trace, thresholds) -> tuple:
    """Run detection + feature extraction over all channels of a RawTrace.

    *thresholds* is a scalar or a per-channel sequence (NaN never fires);
    any other count raises ValueError.
    Returns (windows, tokens): the (n, 32) int8 array of the detected windows
    and their n :class:`Tokens`, both ordered by (channel, time).
    """
    channel, t0 = detect_rows(trace.data, thresholds)
    windows = sliding_window_view(trace.data, WINDOW_LEN, axis=1)[channel, t0]
    f1, f2 = window_features(windows)
    return windows, Tokens(t0, channel, f1, f2)


def channel_groups(channel) -> zip:
    """``(ch, positions of ch in *channel*, in order)`` for each ch, ascending.

    One stable sort, which costs little on input already grouped by channel,
    as the detector emits it; each group starts where the sorted channel
    changes."""
    order = np.argsort(channel, kind="stable")
    ch = np.asarray(channel)[order]
    opens = np.ones(ch.size, dtype=bool)
    opens[1:] = ch[1:] != ch[:-1]
    firsts = np.flatnonzero(opens)
    return zip(ch[firsts].tolist(), np.split(order, firsts[1:]))


# --- token / window stream files (JSONL) -----------------------------------


def store_tokens(tokens: Tokens, path: str) -> None:
    """Write *tokens* as ``{t, ch, f1, f2}`` records."""
    store_records(({"t": t, "ch": ch, "f1": f1, "f2": f2} for t, ch, f1, f2 in
                   zip(tokens.t.tolist(), tokens.channel.tolist(),
                       tokens.f1.tolist(), tokens.f2.tolist())), path)


TOKEN_FIELDS = dict.fromkeys(("t", "ch", "f1", "f2"), Int())
WINDOW_FIELDS = {"t": Int(), "ch": Int(), "s": List(Int(-128, 127), "samples")}


def load_tokens(path: str) -> Tokens:
    """Read a token stream, each record checked against ``TOKEN_FIELDS``; a
    feature outside int8 raises ``PayloadError``."""
    rows = load_channel_records(path, "token", TOKEN_FIELDS)
    feats = rows[:, 2:]
    if feats.size and not -128 <= feats.min() <= feats.max() <= 127:
        raise PayloadError(f"{path}: token features span {feats.min()}..{feats.max()}, "
                           "outside int8")
    return Tokens(*rows.T)


def store_windows(tokens: Tokens, windows: np.ndarray, path: str) -> None:
    """Write each token's window as a ``{t, ch, s}`` record.

    *windows* is the (len(tokens), 32) int8 array that :func:`detect_trace`
    returns beside *tokens*.
    """
    windows = np.asarray(windows).reshape(-1, WINDOW_LEN)
    if windows.shape[0] != len(tokens):
        raise ValueError(f"{windows.shape[0]} windows for {len(tokens)} tokens")
    store_records(({"t": t, "ch": ch, "s": s} for t, ch, s in
                   zip(tokens.t.tolist(), tokens.channel.tolist(), windows.tolist())), path)


def load_windows(path: str) -> tuple:
    """Read a windows file back as the (windows, tokens) pair it was stored from.

    The inverse of :func:`store_windows`: row i of the (n, 32) int8 array is
    the window of token i, whose ``f1``/``f2`` are that window's
    :func:`window_features`. Rows keep the file's order, and each record is
    checked against ``WINDOW_FIELDS``: ``s`` holds WINDOW_LEN int8 samples.
    """
    rows = load_records(path, "window", WINDOW_FIELDS)
    windows = np.array([s for _, _, s in rows], dtype=np.int8).reshape(-1, WINDOW_LEN)
    t, channel = np.array([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2).T
    return windows, Tokens(t, channel, *window_features(windows))
