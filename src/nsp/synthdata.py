"""Synthetic benchmark data for the spike-processing pipeline.

Two generator families:

* extracellular-style raw traces: int8 multi-channel recordings built from
  per-neuron spike templates, Poisson event times and additive white noise,
  together with ground-truth spike labels;
* center-out reach sessions: binned 2-D hand velocities with cosine-tuned
  Poisson unit counts, used to train and evaluate intention decoders.

The module also owns the on-disk formats and their one codec. The binary
trace and the CSV session have loaders of their own. Every JSONL stream
(labels here; tokens, windows and sorted events elsewhere) goes through
``store_records``/``load_records``: one compact JSON object per line, every
field a 64-bit JSON integer or a list of them. Every JSON document (model
sets, decoder bundles, the session sidecar) is read by ``load_document``.
Malformed files, undecodable bytes included, raise a ``DatasetFormatError``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from ._util import atomic_write_bytes, atomic_write_text, canonical_json

WINDOW_LEN = 32  # samples per spike waveform everywhere in the pipeline

TRACE_MAGIC = b"NSPT"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sHHIQ")  # magic, version, n_channels, sample_rate, n_samples


class DatasetFormatError(Exception):
    """Base class for malformed dataset files."""


class HeaderError(DatasetFormatError):
    """Magic bytes or header fields are not recognizable."""


class VersionError(DatasetFormatError):
    """File declares a format version this code does not speak."""


class PayloadError(DatasetFormatError):
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
        return self.events[self.events[:, 1] == channel]

    def validate(self) -> None:
        for channel in np.unique(self.ch):
            sub = self.for_channel(int(channel))
            if len(sub) > 1 and np.diff(sub[:, 0]).min() < WINDOW_LEN:
                raise ValueError(f"channel {channel}: events closer than {WINDOW_LEN} samples")
            if len(np.unique(sub[:, 2])) > 4:
                raise ValueError(f"channel {channel}: more than 4 unit ids")


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
        if self.n_channels < 1 or self.duration_s <= 0:
            raise ValueError("need at least one channel and positive duration")
        if self.firing_rate_hz < 0:
            raise ValueError("firing_rate_hz must be >= 0")
        if not (0.0 <= self.shape_similarity <= 1.0):
            raise ValueError("shape_similarity must be in [0, 1]")


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
    consecutive events are at least WINDOW_LEN samples apart."""
    if rate_hz <= 0:
        return np.zeros(0, dtype=np.int64)
    mean_gap = sample_rate / rate_hz
    # draw enough exponential gaps to cover the trace with margin
    n_draw = max(16, int(1.5 * n_samples / mean_gap) + 16)
    times = []
    t = 0.0
    last = -WINDOW_LEN
    while True:
        gaps = rng.exponential(mean_gap, size=n_draw)
        for g in gaps:
            t += g
            if t >= n_samples - WINDOW_LEN:
                return np.array(times, dtype=np.int64)
            ti = int(t)
            if ti - last >= WINDOW_LEN:
                times.append(ti)
                last = ti


def render_trace(events: np.ndarray, templates_by_channel: dict, n_channels: int,
                 n_samples: int, noise_sigma: float, rng: np.random.Generator,
                 sample_rate: int) -> RawTrace:
    """Deposit templates at labeled event times, add white noise, quantize to int8.

    *events* is an (n, 3) array of (t, ch, nid); *templates_by_channel* maps a
    channel index to its (n_units, 32) template stack.
    """
    signal = np.zeros((n_channels, n_samples), dtype=np.float64)
    for t, ch, nid in np.asarray(events, dtype=np.int64).reshape(-1, 3):
        signal[ch, t:t + WINDOW_LEN] += templates_by_channel[int(ch)][int(nid)]
    if noise_sigma > 0:
        signal += rng.normal(0.0, noise_sigma, size=signal.shape)
    rounded = np.round(signal)
    clipped = int(np.count_nonzero((rounded > 127) | (rounded < -128)))
    data = np.clip(rounded, -128, 127).astype(np.int8)
    return RawTrace(data=data, sample_rate=sample_rate, clipped_samples=clipped)


def gen_spike_trace(config: TraceConfig, seed: int):
    """Generate (RawTrace, GroundTruthLabels) for the given configuration.

    Event times per channel follow a Poisson process at the channel's total
    rate with a WINDOW_LEN-sample refractory gap; each event is assigned one
    of the channel's units uniformly at random.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n_samples = int(round(config.duration_s * config.sample_rate))

    templates = {
        ch: make_channel_templates(rng, config.neurons_per_channel, config.snr_db,
                                   config.amp_spread, config.shape_similarity)
        for ch in range(config.n_channels)
    }
    rows = []
    for ch in range(config.n_channels):
        times = poisson_event_times(rng, config.firing_rate_hz, n_samples,
                                    config.sample_rate)
        units = rng.integers(0, config.neurons_per_channel, size=len(times))
        for t, u in zip(times, units):
            rows.append((t, ch, u))
    events = np.array(rows, dtype=np.int64).reshape(-1, 3)

    if math.isinf(config.snr_db) and config.snr_db > 0:
        sigma = 0.0
    else:
        mean_extremum = float(np.mean([np.max(np.abs(tpl)) for tpl in templates.values()]))
        sigma = mean_extremum * 10.0 ** (-config.snr_db / 20.0)

    trace = render_trace(events, templates, config.n_channels, n_samples, sigma, rng,
                         config.sample_rate)
    labels = GroundTruthLabels(events)
    labels.validate()
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


def _is_int64(x) -> bool:
    return type(x) is int and _INT64_MIN <= x <= _INT64_MAX


def _checked_int(value, name: str, lo=_INT64_MIN, hi=_INT64_MAX) -> int:
    """*value* if it is an integer (not a bool) in lo..hi, else ValueError."""
    if not (_is_int64(value) and lo <= value <= hi):
        raise ValueError(f"{name} must be an integer in {lo}..{hi}, got {value!r}")
    return value


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
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise PayloadError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise PayloadError(f"{path}: top level is not a JSON object")
    return obj


def store_records(rows, path: str) -> None:
    """JSONL stream: one compact JSON object per row, keys in the row's order."""
    lines = [json.dumps(row, separators=(",", ":")) for row in rows]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_records(path: str, what: str, fields: dict, make=lambda *values: values) -> list:
    """``make(*values)`` for every non-blank line of a JSONL stream, in order.

    *fields* maps each field name to ``int`` or ``list`` (a list of integers);
    integers must be JSON integers that fit in 64 bits. A missing or mistyped
    field, or an error from *make*, raises ``PayloadError("path:line: bad
    <what> record: ...")``.
    """
    out = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            values = [obj[name] for name in fields]
            for (name, kind), value in zip(fields.items(), values):
                if kind is list:
                    ok = type(value) is list and all(map(_is_int64, value))
                else:
                    ok = _is_int64(value)
                if not ok:
                    raise TypeError(f"field {name!r} must be an integer"
                                    f"{' list' if kind is list else ''}, got {value!r}")
            out.append(make(*values))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PayloadError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    return out


def load_channel_records(path: str, what: str, fields: dict) -> np.ndarray:
    """The integer *fields* of a JSONL stream as an (n, len(fields)) int64 array.

    Read by :func:`load_records`; a negative ``ch`` field raises
    ``PayloadError`` as well.
    """
    rows = np.array(load_records(path, what, fields), dtype=np.int64).reshape(-1, len(fields))
    channel = rows[:, list(fields).index("ch")]
    if (channel < 0).any():
        raise PayloadError(f"{path}: negative channel {channel.min()} in a {what} record")
    return rows


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
    return GroundTruthLabels(load_channel_records(path, "label",
                                                  {"t": int, "ch": int, "nid": int}))


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
        "trials": [{"target_rad": tr.target_rad, "start_bin": tr.start_bin,
                    "end_bin": tr.end_bin} for tr in session.trials],
        "tuning": [asdict(tc) for tc in session.tuning],
        "unit_channels": list(session.unit_channels),
        "meta": session.meta,
    }
    atomic_write_text(path + ".json", canonical_json(sidecar) + "\n")


def load_session(path: str) -> ReachSession:
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
        if min(counts[-1]) < 0:
            raise PayloadError(f"{path}:{lineno}: negative unit count")
        if max(counts[-1]) > _INT64_MAX:
            raise PayloadError(f"{path}:{lineno}: unit count exceeds 64 bits")
    try:
        sidecar = load_document(path + ".json")
    except FileNotFoundError:
        raise PayloadError(f"{path}: sidecar {path}.json is missing")
    try:
        trials = [TrialInfo(tr["target_rad"], tr["start_bin"], tr["end_bin"])
                  for tr in sidecar.get("trials", [])]
        for i, tr in enumerate(trials):
            if not (_is_int64(tr.start_bin) and _is_int64(tr.end_bin)
                    and 0 <= tr.start_bin < tr.end_bin <= len(vel)):
                raise ValueError(f"trial {i} spans bins [{tr.start_bin!r}, "
                                 f"{tr.end_bin!r}), not integers with "
                                 f"0 <= start < end <= {len(vel)}")
        unit_channels = sidecar.get("unit_channels", [])
        if not (type(unit_channels) is list and len(unit_channels) == n_units
                and all(map(_is_int64, unit_channels))):
            raise ValueError("unit_channels must hold one integer channel for "
                             f"each of the {n_units} unit columns")
        return ReachSession(
            velocity=np.array(vel, dtype=np.float64).reshape(-1, 2),
            counts=np.array(counts, dtype=np.int64).reshape(-1, n_units),
            bin_ms=_checked_int(sidecar["bin_ms"], "bin_ms", 1),
            trials=trials,
            tuning=[TuningCurve(**tc) for tc in sidecar.get("tuning", [])],
            unit_channels=unit_channels,
            meta=dict(sidecar.get("meta", {})),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PayloadError(f"{path}.json: malformed session sidecar: {exc!r}") from exc
