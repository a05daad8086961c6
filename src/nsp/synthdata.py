"""Synthetic benchmark data for the spike-processing pipeline.

Two generator families:

* extracellular-style raw traces: int8 multi-channel recordings built from
  per-neuron spike templates, Poisson event times and additive white noise,
  together with ground-truth spike labels;
* center-out reach sessions: binned 2-D hand velocities with cosine-tuned
  Poisson unit counts, used to train and evaluate intention decoders.

The module also owns the on-disk formats and their one checker. The binary
trace and the CSV session have parsers of their own. Every JSON document
(model sets, decoder bundles, the session sidecar, the report's inputs) and
every record of a JSONL stream (``store_records``/``load_records``: labels
here; tokens, windows and sorted events elsewhere) is checked by ``check``
against its declared table of fields, with their JSON types, integer ranges,
finiteness and shapes; loaders build objects only from checked values.
Malformed files, undecodable bytes included, raise a ``DatasetFormatError``.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import struct
import sys
from collections import namedtuple
from dataclasses import dataclass, field, asdict
from functools import reduce

import numpy as np

from ._util import atomic_write_bytes, atomic_write_text, canonical_json

WINDOW_LEN = 32  # samples per spike waveform everywhere in the pipeline

TRACE_MAGIC = b"NSPT"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sHHIQ")  # magic, version, n_channels, sample_rate, n_samples
MAX_TRACE_CHANNELS = 2 ** 16 - 1    # the header's n_channels field is 16 bits


class DatasetFormatError(Exception):
    """Base class for malformed dataset files."""


class HeaderError(DatasetFormatError):
    """Magic bytes or header fields are not recognizable."""


class VersionError(DatasetFormatError):
    """File declares a format version this code does not speak."""


class PayloadError(DatasetFormatError, ValueError):
    """Header parsed fine but the payload is truncated or inconsistent."""


class ClippingError(ValueError):
    """Requested SNR cannot be realized inside the 8-bit sample range."""


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass
class RawTrace:
    """Multi-channel int8 recording, shape (n_channels, n_samples)."""

    data: np.ndarray
    sample_rate: int = 30000
    clipped_samples: int = 0  # samples that hit the int8 rails during synthesis

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int8)
        if self.data.ndim != 2:
            raise ValueError("trace data must be 2-D (channels x samples)")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass
class GroundTruthLabels:
    """Spike events as an (n, 3) int64 array of (sample index, channel, unit id).

    Events are sorted by time; events on one channel are at least WINDOW_LEN
    samples apart and use at most 4 distinct unit ids.
    """

    events: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=np.int64)
        if ev.size == 0:
            ev = ev.reshape(0, 3)
        if ev.ndim != 2 or ev.shape[1] != 3:
            raise ValueError("labels must be an (n, 3) array of (t, ch, nid)")
        self.events = ev[np.argsort(ev[:, 0], kind="stable")]

    @property
    def t(self) -> np.ndarray:
        return self.events[:, 0]

    @property
    def ch(self) -> np.ndarray:
        return self.events[:, 1]

    @property
    def nid(self) -> np.ndarray:
        return self.events[:, 2]

    def __len__(self) -> int:
        return self.events.shape[0]

    def for_channel(self, channel: int) -> np.ndarray:
        # compress, not a boolean index: on rows of an (n, 3) array it is ~3x faster
        return np.compress(self.events[:, 1] == channel, self.events, axis=0)

    def validate(self) -> None:
        """Raise ValueError for the lowest channel that breaks a rule: events
        closer than WINDOW_LEN samples (checked first), or more than 4 unit ids."""
        ev = self.events[np.lexsort((self.t, self.ch))]
        close = (ev[1:, 1] == ev[:-1, 1]) & (np.diff(ev[:, 0]) < WINDOW_LEN)
        crowded = ev[1:, 1][close]
        pairs = self.events[np.lexsort((self.nid, self.ch)), 1:]
        first = np.ones(len(pairs), dtype=bool)    # first of each (channel, unit)
        first[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
        channels, n_units = np.unique(pairs[first, 0], return_counts=True)
        many = channels[n_units > 4]
        if crowded.size and (not many.size or crowded[0] <= many[0]):
            raise ValueError(f"channel {crowded[0]}: events closer than {WINDOW_LEN} samples")
        if many.size:
            raise ValueError(f"channel {many[0]}: more than 4 unit ids")


@dataclass
class TuningCurve:
    """Cosine tuning: rate = baseline + gain * speed * cos(theta - preferred)."""

    baseline_hz: float
    gain_hz_per_mm_s: float
    preferred_rad: float


@dataclass
class TrialInfo:
    target_rad: float
    start_bin: int
    end_bin: int  # exclusive


@dataclass
class ReachSession:
    """Binned center-out session: per-bin velocity plus per-unit spike counts."""

    velocity: np.ndarray           # (n_bins, 2) float64, mm/s
    counts: np.ndarray             # (n_bins, n_units) int64
    bin_ms: int
    trials: list                   # list[TrialInfo]
    tuning: list                   # list[TuningCurve]
    unit_channels: list            # channel index per unit column
    meta: dict = field(default_factory=dict)

    @property
    def n_bins(self) -> int:
        return self.velocity.shape[0]

    @property
    def n_units(self) -> int:
        return self.counts.shape[1]

    def trial_bins(self, trial_index: int) -> np.ndarray:
        tr = self.trials[trial_index]
        return np.arange(tr.start_bin, tr.end_bin)


# ---------------------------------------------------------------------------
# spike templates and raw traces
# ---------------------------------------------------------------------------


@dataclass
class TraceConfig:
    n_channels: int = 96
    duration_s: float = 1.0
    sample_rate: int = 30000
    neurons_per_channel: int = 3       # 2..4
    firing_rate_hz: float = 30.0       # total event rate per channel
    snr_db: float = 15.0               # template extremum over noise sigma, in dB
    amp_spread: tuple = (0.55, 1.0)    # per-unit amplitude fractions of the budget
    shape_similarity: float = 0.0      # 0 = independent waveforms, 1 = amplitude-only

    def validate(self) -> None:
        if not (2 <= self.neurons_per_channel <= 4):
            raise ValueError("neurons_per_channel must be in 2..4")
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        if self.n_channels > MAX_TRACE_CHANNELS:
            raise ValueError(f"n_channels must be at most {MAX_TRACE_CHANNELS}, the trace "
                             f"header's limit, got {self.n_channels}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s}")
        if not (math.isfinite(self.firing_rate_hz) and self.firing_rate_hz >= 0):
            raise ValueError(f"firing_rate_hz must be finite and >= 0, got {self.firing_rate_hz}")
        if not (0.0 <= self.shape_similarity <= 1.0):
            raise ValueError("shape_similarity must be in [0, 1]")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must be a number; +inf means no noise")
        if not all(0.0 < f <= 1.0 for f in self.amp_spread):
            raise ValueError(f"amp_spread fractions must lie in (0, 1], got {self.amp_spread}")


def snr_amplitude_budget(snr_db: float) -> float:
    """Largest template extremum (LSB) such that signal + 4 sigma of noise fits int8.

    Noise sigma is derived from the extremum: sigma = amp / 10**(snr_db / 20).
    """
    if math.isinf(snr_db) and snr_db > 0:
        return 110.0
    atten = 10.0 ** (-snr_db / 20.0)
    return min(110.0, 127.0 / (1.0 + 4.0 * atten))


def _draw_shape_params(rng: np.random.Generator) -> np.ndarray:
    """Five waveform parameters: trough center/width, peak delay/width, peak ratio."""
    return np.array([
        rng.uniform(5.0, 8.0),      # trough center
        rng.uniform(1.2, 2.2),      # trough width
        rng.uniform(6.0, 11.0),     # trough-to-peak delay
        rng.uniform(2.5, 5.0),      # peak width
        rng.uniform(0.25, 0.6),     # peak/trough amplitude ratio
    ])


def make_template(amplitude: float, params: np.ndarray) -> np.ndarray:
    """One biphasic 32-sample waveform from the five parameters of
    :func:`_draw_shape_params`: depolarization trough, repolarization peak,
    slow relaxation tail. Returned as float64; rounding happens at render
    time so noise and signal are quantized together."""
    i = np.arange(WINDOW_LEN, dtype=np.float64)
    c_t, w_t, gap, w_p, ratio = params
    trough = -np.exp(-0.5 * ((i - c_t) / w_t) ** 2)
    peak = ratio * np.exp(-0.5 * ((i - c_t - gap) / w_p) ** 2)
    tail = -0.06 * ratio * np.exp(-0.5 * ((i - c_t - 2.2 * gap) / (1.8 * w_p)) ** 2)
    shape = trough + peak + tail
    return amplitude * shape / np.max(np.abs(shape))


def make_channel_templates(rng: np.random.Generator, n_units: int, snr_db: float,
                           amp_spread: tuple = (0.55, 1.0),
                           shape_similarity: float = 0.0) -> np.ndarray:
    """Distinct per-unit templates for one channel, (n_units, 32) float64.

    *shape_similarity* pulls every unit's waveform parameters toward a shared
    per-channel anchor: 0 leaves the draws independent, 1 makes the units
    amplitude-scaled copies of one waveform. Raises ClippingError when the SNR
    leaves no usable amplitude headroom.
    """
    budget = snr_amplitude_budget(snr_db)
    if budget < 16.0:
        raise ClippingError(
            f"snr_db={snr_db:g} leaves an amplitude budget of {budget:.1f} LSB; "
            "templates would clip or vanish inside the 8-bit range"
        )
    lo, hi = amp_spread
    fractions = np.linspace(lo, hi, n_units) if n_units > 1 else np.array([hi])
    fractions = fractions * rng.uniform(0.97, 1.03, size=n_units)
    anchor = _draw_shape_params(rng)
    out = []
    for f in fractions:
        params = anchor + (1.0 - shape_similarity) * (_draw_shape_params(rng) - anchor)
        out.append(make_template(budget * f, params))
    return np.stack(out)


def poisson_event_times(rng: np.random.Generator, rate_hz: float, n_samples: int,
                        sample_rate: int) -> np.ndarray:
    """Poisson arrival samples on [0, n_samples - WINDOW_LEN], thinned so that
    consecutive events are at least WINDOW_LEN samples apart.

    Exponential gaps are drawn in batches of ``n_draw`` until an arrival
    reaches ``n_samples - WINDOW_LEN``; arrivals are the running sum of the
    gaps, added one at a time, truncated to integer samples. Thinning is
    greedy: an arrival is kept when it lies WINDOW_LEN or more after the last
    kept one.
    """
    if rate_hz <= 0:
        return np.zeros(0, dtype=np.int64)
    mean_gap = sample_rate / rate_hz
    # draw enough exponential gaps to cover the trace with margin
    n_draw = max(16, int(1.5 * n_samples / mean_gap) + 16)
    limit = n_samples - WINDOW_LEN
    batches, t = [], 0.0
    while True:
        gaps = rng.exponential(mean_gap, size=n_draw)
        with np.errstate(over="ignore"):   # a huge mean gap runs to inf: past the end
            arrivals = np.cumsum(np.concatenate(([t], gaps)))[1:]
        end = int(np.searchsorted(arrivals, limit))   # first arrival >= limit
        batches.append(arrivals[:end])
        if end < n_draw:
            break
        t = arrivals[-1]
    times = np.concatenate(batches).astype(np.int64)
    return times[_thin(times)]


def _thin(times: np.ndarray) -> np.ndarray:
    """Keep-mask of the greedy WINDOW_LEN thinning of non-decreasing *times*.

    An arrival WINDOW_LEN or more after the one before it is always kept, and
    the first arrival after a kept one that is closer is always dropped. So
    the greedy loop runs only over the later arrivals of runs of close ones.
    """
    keep = np.diff(times, prepend=-WINDOW_LEN) >= WINDOW_LEN
    late = np.flatnonzero(~keep[1:] & ~keep[:-1]) + 1   # its predecessor is close too
    t, kept = times.tolist(), keep.tolist()
    for i in late.tolist():
        # i - 1 is close to i - 2, so at most one of them is kept
        if kept[i - 1]:
            last = t[i - 1]
        elif kept[i - 2]:
            last = t[i - 2]
        kept[i] = t[i] - last >= WINDOW_LEN
    return np.array(kept, dtype=bool)


BLOCK = 8  # channels rendered per float64 block


def render_trace(events: np.ndarray, templates: np.ndarray, n_samples: int,
                 noise_sigma: float, rng: np.random.Generator,
                 sample_rate: int) -> RawTrace:
    """Deposit templates at labeled event times, add white noise, quantize to int8.

    *events* is an (n, 3) array of (t, ch, nid) whose events on one channel
    are at least WINDOW_LEN samples apart; *templates* is the
    (n_channels, n_units, 32) template stack. Channels are rendered BLOCK at a
    time: the block's noise (the generator fills in C order, so the block
    draws equal one whole-array ``rng.normal(0.0, noise_sigma)``), then every
    event's template added with one fancy-indexed ``+=``, which is exact
    because no sample gets two.
    """
    n_channels = templates.shape[0]
    ev = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    if ((ev[:, 0] < 0) | (ev[:, 0] > n_samples - WINDOW_LEN)
            | (ev[:, 1] < 0) | (ev[:, 1] >= n_channels)).any():
        raise ValueError("every event's window must lie inside the trace")
    ev = ev[np.argsort(ev[:, 1], kind="stable")]
    bounds = np.searchsorted(ev[:, 1], np.arange(0, n_channels + BLOCK, BLOCK))
    offsets = np.arange(WINDOW_LEN)
    data = np.empty((n_channels, n_samples), dtype=np.int8)
    buffer = np.empty((min(BLOCK, n_channels), n_samples))
    clipped = 0
    for b, lo in enumerate(range(0, n_channels, BLOCK)):
        block = buffer[:n_channels - lo]
        if noise_sigma > 0:
            # rng.normal(0.0, sigma) gives 0.0 + sigma * z for these very z
            rng.standard_normal(out=block)
            block *= noise_sigma
        else:
            block.fill(0.0)
        t, ch, nid = ev[bounds[b]:bounds[b + 1]].T
        start = (ch - lo) * n_samples + t
        block.reshape(-1)[start[:, None] + offsets] += templates[ch, nid]
        np.round(block, out=block)
        clipped += np.count_nonzero(block > 127) + np.count_nonzero(block < -128)
        data[lo:lo + len(block)] = np.clip(block, -128, 127, out=block)
    return RawTrace(data=data, sample_rate=sample_rate, clipped_samples=int(clipped))


def gen_spike_trace(config: TraceConfig, seed: int):
    """Generate (RawTrace, GroundTruthLabels) for the given configuration.

    Event times per channel follow a Poisson process at the channel's total
    rate with a WINDOW_LEN-sample refractory gap; each event is assigned one
    of the channel's units uniformly at random.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n_samples = int(round(config.duration_s * config.sample_rate))

    templates = np.stack([
        make_channel_templates(rng, config.neurons_per_channel, config.snr_db,
                               config.amp_spread, config.shape_similarity)
        for _ in range(config.n_channels)
    ])
    per_channel = []
    for ch in range(config.n_channels):
        times = poisson_event_times(rng, config.firing_rate_hz, n_samples,
                                    config.sample_rate)
        units = rng.integers(0, config.neurons_per_channel, size=len(times))
        per_channel.append(np.column_stack([times, np.full(len(times), ch), units]))
    events = np.concatenate(per_channel)
    labels = GroundTruthLabels(events)
    labels.validate()   # render_trace relies on the WINDOW_LEN spacing

    if math.isinf(config.snr_db) and config.snr_db > 0:
        sigma = 0.0
    else:
        mean_extremum = float(np.mean(np.abs(templates).max(axis=(1, 2))))
        sigma = mean_extremum * 10.0 ** (-config.snr_db / 20.0)

    trace = render_trace(events, templates, n_samples, sigma, rng, config.sample_rate)
    return trace, labels


def tier_config(tier: str, n_channels: int = 1, duration_s: float = 10.0,
                firing_rate_hz: float = 30.0) -> TraceConfig:
    """Difficulty presets: unit count, SNR and template spacing per tier."""
    presets = {
        "easy": dict(neurons_per_channel=2, snr_db=25.0, amp_spread=(0.5, 1.0),
                     shape_similarity=0.0),
        "medium": dict(neurons_per_channel=3, snr_db=24.0, amp_spread=(0.5, 1.0),
                       shape_similarity=0.0),
        # hard for sorting, not for detection: four templates on a compressed
        # amplitude ladder with partially shared waveform shape. Amplitudes stay
        # far above the 4-sigma detection threshold so difficulty comes from
        # cluster proximity rather than missed events.
        "hard": dict(neurons_per_channel=4, snr_db=28.0, amp_spread=(0.35, 1.0),
                     shape_similarity=0.2),
    }
    if tier not in presets:
        raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(presets)}")
    return TraceConfig(n_channels=n_channels, duration_s=duration_s,
                       firing_rate_hz=firing_rate_hz, **presets[tier])


# ---------------------------------------------------------------------------
# reach sessions
# ---------------------------------------------------------------------------

N_TARGETS = 8
BINS_PER_PHASE = 10                # bins per movement, out and back each
REACH_DISTANCE_MM = 100.0
UNITS_PER_CHANNEL = 3              # consecutive unit columns share a channel
BASELINE_RANGE_HZ = (5.0, 15.0)
GAIN_RANGE_HZ_PER_MM_S = (0.04, 0.12)


@dataclass
class SessionConfig:
    n_units: int = 30
    trials_per_target: int = 5
    bin_ms: int = 100
    untuned_fraction: float = 0.0      # fraction of units firing at baseline only

    def validate(self) -> None:
        if self.n_units < 1 or self.trials_per_target < 1:
            raise ValueError("need at least one unit and one trial per target")
        if not (0.0 <= self.untuned_fraction <= 1.0):
            raise ValueError("untuned_fraction must be in [0, 1]")
        if self.bin_ms < 1:
            raise ValueError(f"bin_ms must be at least 1, got {self.bin_ms}")


def min_jerk_speed(tau: np.ndarray, distance: float, duration_s: float) -> np.ndarray:
    """Bell-shaped speed of a minimum-jerk point-to-point movement, mm/s."""
    tau = np.clip(tau, 0.0, 1.0)
    return distance * (30 * tau**2 - 60 * tau**3 + 30 * tau**4) / duration_s


def draw_tuning(rng: np.random.Generator, n_units: int, untuned_fraction: float) -> list:
    """Random cosine tuning with baselines in BASELINE_RANGE_HZ and gains in
    GAIN_RANGE_HZ_PER_MM_S; an *untuned_fraction* of units gets gain 0.

    Sorted populations always contain units that fire but carry no kinematic
    information; they still load the full-population observation model.
    """
    prefs = rng.uniform(0.0, 2.0 * math.pi, size=n_units)
    baselines = rng.uniform(*BASELINE_RANGE_HZ, size=n_units)
    gains = rng.uniform(*GAIN_RANGE_HZ_PER_MM_S, size=n_units)
    gains[rng.random(n_units) < untuned_fraction] = 0.0
    return [TuningCurve(float(b), float(g), float(p))
            for b, g, p in zip(baselines, gains, prefs)]


def gen_reach_session(config: SessionConfig, seed: int) -> ReachSession:
    """Simulate an 8-target center-out-reach-and-return session.

    Every trial is one outward reach followed by the return movement, each
    spanning BINS_PER_PHASE bins with a minimum-jerk speed profile. Unit
    counts are Poisson draws from cosine-tuned rates, clamped at zero before
    the draw.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    tuning = draw_tuning(rng, config.n_units, config.untuned_fraction)

    bin_s = config.bin_ms / 1000.0
    phase_s = BINS_PER_PHASE * bin_s
    # speed evaluated at bin centers of one movement phase
    centers = (np.arange(BINS_PER_PHASE) + 0.5) / BINS_PER_PHASE
    speed = min_jerk_speed(centers, REACH_DISTANCE_MM, phase_s)

    baselines = np.array([tc.baseline_hz for tc in tuning])
    gains = np.array([tc.gain_hz_per_mm_s for tc in tuning])
    prefs = np.array([tc.preferred_rad for tc in tuning])

    vel_rows, count_rows, trials = [], [], []
    bin_cursor = 0
    for _ in range(config.trials_per_target):
        for k in range(N_TARGETS):
            theta = 2.0 * math.pi * k / N_TARGETS
            start = bin_cursor
            for direction in (theta, theta + math.pi):
                vx = speed * math.cos(direction)
                vy = speed * math.sin(direction)
                rates = baselines[None, :] + gains[None, :] * speed[:, None] \
                    * np.cos(direction - prefs)[None, :]
                rates = np.clip(rates, 0.0, None)
                counts = rng.poisson(rates * bin_s)
                vel_rows.append(np.column_stack([vx, vy]))
                count_rows.append(counts)
            bin_cursor += 2 * BINS_PER_PHASE
            trials.append(TrialInfo(target_rad=theta, start_bin=start, end_bin=bin_cursor))

    velocity = np.concatenate(vel_rows, axis=0)
    counts = np.concatenate(count_rows, axis=0).astype(np.int64)
    unit_channels = [j // UNITS_PER_CHANNEL for j in range(config.n_units)]
    meta = {"seed": seed, "n_targets": N_TARGETS,
            "trials_per_target": config.trials_per_target,
            "bins_per_phase": BINS_PER_PHASE}
    return ReachSession(velocity=velocity, counts=counts, bin_ms=config.bin_ms,
                        trials=trials, tuning=tuning,
                        unit_channels=unit_channels, meta=meta)


def split_indices(n: int, train_frac: float, seed: int) -> tuple:
    """Seeded shuffle split with both sides non-empty whenever n >= 2."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(n * train_frac))
    n_train = min(max(n_train, 1), n - 1) if n >= 2 else n
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def split_trials(session: ReachSession, fraction: float, seed: int) -> tuple:
    """Random trial-level split by ``split_indices``; no bin is on both sides.

    Returns (train_trial_ids, test_trial_ids), each a sorted list of ints,
    together covering every trial exactly once. Both sides are non-empty.
    """
    n = len(session.trials)
    if n < 2:
        raise ValueError("need at least 2 trials to split")
    if not (0.0 < fraction < 1.0):
        raise ValueError("train fraction must be in (0, 1)")
    train, test = split_indices(n, fraction, seed)
    return train.tolist(), test.tolist()


def trials_to_bins(session: ReachSession, trial_ids) -> np.ndarray:
    """Sorted bin indices covered by the given trials."""
    if not len(trial_ids):
        return np.zeros(0, dtype=np.int64)
    return np.sort(np.concatenate([session.trial_bins(i) for i in trial_ids]))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
_FLOAT_MAX = sys.float_info.max
_DECIMAL = re.compile(r"-?[1-9][0-9]{0,17}|0")   # an int64 of at most 18 digits

# The rule kinds of a declared document table, besides a set of strings, which
# takes one of them. An Int bound or a List length may name a size, which binds
# to the first length it measures.
Int = namedtuple("Int", "lo hi", defaults=(_INT64_MIN, _INT64_MAX))   # not a bool
Num = namedtuple("Num", "")                     # a finite number, not a bool
# one rule per entry when *item* is a tuple of rules
List = namedtuple("List", "item length max_len", defaults=(None, None))
Obj = namedtuple("Obj", "required optional", defaults=({},))   # other keys ignored
# any object; with *int_keys* every key is a canonical decimal integer
Map = namedtuple("Map", "values int_keys", defaults=(None, False))


def Array(*sizes) -> List:
    """A finite number array of the given sizes."""
    return reduce(List, reversed(sizes), Num())


def check(v, rule, where: str, sizes: dict | None = None, field: str = "") -> dict:
    """Check the parsed JSON *v* against its declared *rule* and return the
    sizes bound; *sizes* pre-binds names. A mismatch raises
    ``PayloadError("<where>: <field> ...")``, naming the field."""
    sizes = {} if sizes is None else sizes
    kind = type(rule)
    if kind is Int:
        lo, hi = (sizes[b] if type(b) is str else b for b in rule)
        ok, want = type(v) is int and lo <= v <= hi, f"an integer in {lo}..{hi}"
    elif kind is Num:
        ok, want = type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX, "a finite number"
    elif kind is set:
        ok, want = type(v) is str and v in rule, f"one of {sorted(rule)}"
    else:
        ok = type(v) is (list if kind is List else dict)
        want = "a list" if kind is List else "an object"
    if not ok:
        raise PayloadError(f"{where}: {field or 'top level'} must be {want}, "
                           f"got {reprlib.repr(v)}")
    if kind is List:
        fixed = type(rule.item) is tuple
        want, unit = (len(rule.item) if fixed else rule.length), "entries"
        if type(want) is str:
            want, unit = sizes.setdefault(want, len(v)), want
        over = rule.max_len is not None and len(v) > rule.max_len
        if over or want is not None and len(v) != want:
            limit = f"at most {rule.max_len} entries" if over else f"exactly {want} {unit}"
            raise PayloadError(f"{where}: {field} must hold {limit}, got {len(v)}")
        for i, (x, r) in enumerate(zip(v, rule.item if fixed else [rule.item] * len(v))):
            check(x, r, where, sizes, f"{field}[{i}]")
    elif kind is Obj:
        for key, r in {**rule.required, **rule.optional}.items():
            at = f"{field}.{key}" if field else key
            if key in v:
                check(v[key], r, where, sizes, at)
            elif key in rule.required:
                raise PayloadError(f"{where}: {at} is missing")
    elif kind is Map:
        for key, x in v.items():
            at = f"{field}.{key}" if field else key
            if rule.int_keys and not _DECIMAL.fullmatch(key):
                raise PayloadError(f"{where}: {field} key {key!r} is not a canonical integer")
            if rule.values is not None:
                check(x, rule.values, where, dict(sizes), at)
    return sizes


def read_text(path: str) -> str:
    """The whole file as text; bytes that are not UTF-8 raise PayloadError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PayloadError(f"{path}: not UTF-8 text: {exc}") from exc


def load_document(path: str) -> dict:
    """A JSON document whose top level is an object."""
    text = read_text(path)
    try:
        obj = json.loads(text)
    except ValueError as exc:   # a JSONDecodeError, or an integer of too many digits
        raise PayloadError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise PayloadError(f"{path}: top level is not a JSON object")
    return obj


def store_records(rows, path: str) -> None:
    """JSONL stream: one compact JSON object per row, keys in the row's order."""
    lines = [json.dumps(row, separators=(",", ":")) for row in rows]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_records(path: str, what: str, fields: dict) -> list:
    """The *fields* of every non-blank line of a JSONL stream, one tuple per
    line in file order.

    Each line is an object checked against the declared table *fields*
    (field name -> rule; other keys are ignored; the size ``samples`` is
    WINDOW_LEN), whose channel ``ch`` must not be negative. A bad line
    raises ``PayloadError("path:line: bad <what> record: ...")``.
    """
    rule, out = Obj(fields), []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}: bad {what} record"
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise PayloadError(f"{where}: {exc}") from exc
        check(obj, rule, where, {"samples": WINDOW_LEN})
        if obj["ch"] < 0:
            raise PayloadError(f"{where}: negative channel {obj['ch']}")
        out.append(tuple(obj[name] for name in fields))
    return out


def load_channel_records(path: str, what: str, fields: dict) -> np.ndarray:
    """The integer *fields* of :func:`load_records` as an (n, len(fields)) int64 array."""
    return np.array(load_records(path, what, fields), dtype=np.int64).reshape(-1, len(fields))


def store_trace(trace: RawTrace, path: str) -> None:
    header = _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, trace.n_channels,
                          trace.sample_rate, trace.n_samples)
    # sample-major interleave: frame of all channels per sample tick
    payload = np.ascontiguousarray(trace.data.T).tobytes()
    atomic_write_bytes(path, header + payload)


def load_trace(path: str) -> RawTrace:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise HeaderError(f"{path}: file shorter than the trace header")
    magic, version, n_channels, sample_rate, n_samples = _HEADER.unpack_from(blob)
    if magic != TRACE_MAGIC:
        raise HeaderError(f"{path}: bad magic {magic!r}")
    if version != TRACE_VERSION:
        raise VersionError(f"{path}: version {version}, expected {TRACE_VERSION}")
    expected = n_channels * n_samples
    payload = blob[_HEADER.size:]
    if len(payload) != expected:
        raise PayloadError(f"{path}: payload has {len(payload)} bytes, header "
                           f"promises {expected}")
    data = np.frombuffer(payload, dtype=np.int8).reshape(n_samples, n_channels).T
    return RawTrace(data=data.copy(), sample_rate=sample_rate)


def store_labels(labels: GroundTruthLabels, path: str) -> None:
    store_records(({"t": t, "ch": c, "nid": n} for t, c, n in labels.events.tolist()),
                  path)


def load_labels(path: str) -> GroundTruthLabels:
    """A labels stream, each record checked against its declared fields."""
    return GroundTruthLabels(load_channel_records(path, "label",
                                                  dict.fromkeys(("t", "ch", "nid"), Int())))


# the session CSV's sidecar; "units" is the CSV's unit columns, "bins" its rows
SESSION_SIDECAR = Obj(
    {"bin_ms": Int(1), "unit_channels": List(Int(0), "units")},
    {"trials": List(Obj({"target_rad": Num(), "start_bin": Int(0, "bins"),
                         "end_bin": Int(0, "bins")})),
     "tuning": List(Obj(dict.fromkeys(("baseline_hz", "gain_hz_per_mm_s", "preferred_rad"),
                                      Num()))),
     "meta": Map()})


def store_session(session: ReachSession, path: str) -> None:
    n_units = session.n_units
    header = "bin,vx,vy," + ",".join(f"c{j}" for j in range(n_units))
    lines = [header]
    for i in range(session.n_bins):
        vx, vy = (float(v) for v in session.velocity[i])
        counts = ",".join(str(int(c)) for c in session.counts[i])
        lines.append(f"{i},{vx!r},{vy!r},{counts}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    sidecar = {
        "bin_ms": session.bin_ms,
        "trials": [asdict(tr) for tr in session.trials],
        "tuning": [asdict(tc) for tc in session.tuning],
        "unit_channels": list(session.unit_channels),
        "meta": session.meta,
    }
    atomic_write_text(path + ".json", canonical_json(sidecar) + "\n")


def load_session(path: str) -> ReachSession:
    """The session CSV and its sidecar, checked against ``SESSION_SIDECAR``."""
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("bin,vx,vy,"):
        raise HeaderError(f"{path}: missing 'bin,vx,vy,...' header row")
    n_units = len(lines[0].split(",")) - 3
    vel, counts = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3 + n_units:
            raise PayloadError(f"{path}:{lineno}: expected {3 + n_units} columns, "
                               f"got {len(parts)}")
        try:
            vel.append((float(parts[1]), float(parts[2])))
            counts.append([int(c) for c in parts[3:]])
        except ValueError as exc:
            raise PayloadError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, vel[-1])):
            raise PayloadError(f"{path}:{lineno}: non-finite velocity")
        if min(counts[-1]) < 0:
            raise PayloadError(f"{path}:{lineno}: negative unit count")
        if max(counts[-1]) > _INT64_MAX:
            raise PayloadError(f"{path}:{lineno}: unit count exceeds 64 bits")
    try:
        sidecar = load_document(path + ".json")
    except FileNotFoundError:
        raise PayloadError(f"{path}: sidecar {path}.json is missing")
    where = f"{path}.json: malformed session sidecar"
    check(sidecar, SESSION_SIDECAR, where, {"units": n_units, "bins": len(vel)})
    trials = [TrialInfo(tr["target_rad"], tr["start_bin"], tr["end_bin"])
              for tr in sidecar.get("trials", [])]
    for i, tr in enumerate(trials):
        if tr.start_bin >= tr.end_bin:
            raise PayloadError(f"{where}: trial {i} spans bins [{tr.start_bin}, "
                               f"{tr.end_bin}), not start < end")
    return ReachSession(
        velocity=np.array(vel, dtype=np.float64).reshape(-1, 2),
        counts=np.array(counts, dtype=np.int64).reshape(-1, n_units),
        bin_ms=sidecar["bin_ms"],
        trials=trials,
        tuning=[TuningCurve(tc["baseline_hz"], tc["gain_hz_per_mm_s"], tc["preferred_rad"])
                for tc in sidecar.get("tuning", [])],
        unit_channels=sidecar["unit_channels"],
        meta=dict(sidecar.get("meta", {})),
    )
