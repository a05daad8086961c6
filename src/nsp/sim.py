"""Cycle-accurate simulator of the 96-channel processing fabric.

Per-channel detectors complete one 32-sample window at a time and hand tokens
to a per-group conveyor ring; one sorter per group classifies at most one
token per cycle; sorted events contend for a single bounded decoder buffer
feeding the per-bin ensemble accumulator. Everything is a deterministic state
machine: identical inputs give identical counters and outputs.

``Simulator.step`` advances one clock cycle through every stage and is the
reference. ``Simulator.run`` reaches the same end state stage by stage, token
by token: ring insertion in cycle order, then one sort per token in exit
order, then the decoder buffer in arrival order, then the accumulator banks
in numpy. Each stage only feeds the next, so no stage loops over cycles.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .decode import EnsembleModel, _pair_columns, bin_spikes, ensemble_ez
from .detect import (DEFAULT_PRE, estimate_threshold, gather_windows,
                     window_features, window_starts)
from .synthdata import PayloadError, RawTrace, WINDOW_LEN

SAMPLE_BITS = 8


class ConfigMismatchError(ValueError):
    """Trace shape and simulator configuration disagree."""


@dataclass
class SimConfig:
    n_channels: int = 96
    group_size: int = 32
    conveyor_slots: int = 32
    decoder_buffer_depth: int = 4
    clock_hz: int = 30000
    bin_ms: int = 100
    output_width_bits: int = 16
    channel_gating: bool = True

    def validate(self) -> None:
        if self.n_channels < 1 or self.group_size < 1:
            raise ValueError("n_channels and group_size must be positive")
        if self.n_channels % self.group_size != 0:
            raise ValueError("n_channels must be divisible by group_size")
        if self.conveyor_slots < self.group_size:
            raise ValueError("conveyor_slots must be >= group_size (one tap per channel)")
        if self.decoder_buffer_depth < 1:
            raise ValueError("decoder_buffer_depth must be >= 1")
        if self.clock_hz < 1 or self.bin_ms < 1:
            raise ValueError("clock_hz and bin_ms must be positive")
        if self.output_width_bits < 1:
            raise ValueError("output_width_bits must be positive")
        if self.grace_cycles >= self.bin_len:
            raise ValueError(
                f"bin length {self.bin_len} cycles is shorter than the "
                f"pipeline grace window ({self.grace_cycles}); bins would "
                "close out of order")

    @property
    def n_groups(self) -> int:
        return self.n_channels // self.group_size

    @property
    def bin_len(self) -> int:
        """Samples (= cycles) per accumulator bin."""
        return int(round(self.clock_hz * self.bin_ms / 1000.0))

    @property
    def grace_cycles(self) -> int:
        """How long a bin's accumulator bank stays open past its edge.

        Upper bound on pipeline latency between a window's first sample and
        its arrival at the accumulator: window completion (31), worst-case
        insertion stall plus tap-to-head travel (covered by two conveyor
        lengths), decoder buffer wait, plus slack. Tokens are attributed to
        their detection-time bin, so the bank must outlive every in-flight
        token of that bin.
        """
        return (WINDOW_LEN - 1 + 2 * self.conveyor_slots
                + self.decoder_buffer_depth + 4)


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def parse_sim_config(text: str) -> SimConfig:
    """Parse the flat ``key = value`` simulator config format.

    Blank lines and ``#`` comments are ignored; unknown keys are rejected.
    Older files carry ``pre_samples = 4``, the detector's fixed pre-crossing
    offset; that line is accepted and any other value rejected.
    """
    known = {f.name: f.type for f in fields(SimConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PayloadError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "pre_samples":
            if val != str(DEFAULT_PRE):
                raise PayloadError(f"line {lineno}: the detector opens windows "
                                   f"{DEFAULT_PRE} samples before the crossing; "
                                   f"pre_samples = {val} cannot be honoured")
            continue
        if key not in known:
            raise PayloadError(f"line {lineno}: unknown config key {key!r}")
        if key == "channel_gating":
            if val.lower() not in _BOOL_WORDS:
                raise PayloadError(f"line {lineno}: expected a boolean, got {val!r}")
            values[key] = _BOOL_WORDS[val.lower()]
        else:
            try:
                values[key] = int(val)
            except ValueError as exc:
                raise PayloadError(f"line {lineno}: expected an integer, got {val!r}") from exc
    cfg = SimConfig(**values)
    cfg.validate()
    return cfg


def serialize_sim_config(config: SimConfig) -> str:
    lines = []
    for f in fields(SimConfig):
        v = getattr(config, f.name)
        lines.append(f"{f.name} = {str(v).lower() if isinstance(v, bool) else v}")
    return "\n".join(lines) + "\n"


@dataclass
class SimCounters:
    cycles: int = 0
    detections: int = 0
    gated_tokens: int = 0
    sorts: int = 0
    decoder_accepts: int = 0
    stall_cycles: int = 0
    decoder_collisions: int = 0
    tokens_lost: int = 0
    late_tokens: int = 0
    edge_crossings: int = 0
    bins_emitted: int = 0
    input_bits: int = 0
    output_bits: int = 0

    def as_dict(self) -> dict:
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}


class Completion(NamedTuple):
    """A detector finishing its window: ready for queue insertion this cycle."""

    cycle: int
    channel: int
    t: int          # window start sample; travels with the token for binning
    f1: int
    f2: int


class Simulator:
    """One fabric instance. Feed it a completion schedule, then step cycles.

    *classifiers* maps channel -> callable(f1, f2) -> cluster label;
    *ensemble* defines the accumulated (channel, cluster) columns. Channels
    absent from the ensemble selection are gated out after detection when
    ``config.channel_gating`` is set.

    Conveyor rings are indexed by absolute cycle: slot ``e % conveyor_slots``
    of a group's ring holds the token that reaches the group's sorter in
    cycle ``e``. A token inserted at tap ``tap`` in cycle ``c`` takes slot
    ``(c + tap) % conveyor_slots`` and the head in cycle ``c`` is slot
    ``c % conveyor_slots``, so advancing a conveyor moves no data. Because
    every tap lies less than ``group_size <= conveyor_slots`` slots from the
    head, two pending tokens of one ring never share a slot. The exit cycles
    of all ring tokens are kept in a min-heap, which tells :meth:`step` when
    a token reaches a sorter.
    """

    def __init__(self, config: SimConfig, ensemble: EnsembleModel,
                 classifiers: dict, schedule: list, n_bins: int):
        config.validate()
        self.config = config
        self.counters = SimCounters()
        self.ensemble = ensemble
        self.classifiers = classifiers
        self.schedule = sorted(schedule, key=attrgetter("cycle", "channel"))
        for comp in self.schedule:
            if not 0 <= comp.channel < config.n_channels:
                raise ConfigMismatchError(
                    f"completion on channel {comp.channel} outside the "
                    f"configured {config.n_channels} channels")
        self.n_bins = n_bins
        self.cycle = 0
        self._next_comp = 0
        self._rings = [[None] * config.conveyor_slots for _ in range(config.n_groups)]
        self._exits = []          # min-heap: exit cycle of every ring token
        self._held = {}
        self._fifo = deque()
        self._selected_channels = {ch for ch, _ in ensemble.selected}
        self._colmap = {pair: j for j, pair in enumerate(ensemble.selected)}
        d = ensemble.E.shape[0]
        self._banks = np.zeros((n_bins, len(ensemble.selected)), dtype=np.int64)
        self._ez = np.zeros((n_bins, d), dtype=np.float64)
        self._bin_len = config.bin_len
        self._next_emit = 0
        self._next_close = self._close_cycle(0)
        self.sorts_by_channel = np.zeros(config.n_channels, dtype=np.int64)
        self.accepted_events = []

    # -- state inspection ---------------------------------------------------

    @property
    def pipeline_empty(self) -> bool:
        return not self._held and not self._exits and not self._fifo

    @property
    def done(self) -> bool:
        return (self._next_comp >= len(self.schedule) and self.pipeline_empty
                and self._next_emit >= self.n_bins)

    def _close_cycle(self, k: int) -> float:
        """Cycle in which bank *k* closes; infinite past the last bank."""
        if k >= self.n_bins:
            return math.inf
        return (k + 1) * self._bin_len + self.config.grace_cycles

    def in_flight(self) -> int:
        return len(self._held) + len(self._exits) + len(self._fifo)

    def check_conservation(self) -> None:
        c = self.counters
        accounted = (c.gated_tokens + self.in_flight()
                     + c.decoder_accepts + c.tokens_lost)
        if c.detections != accounted:
            raise AssertionError(
                f"token conservation violated at cycle {self.cycle}: "
                f"{c.detections} generated vs {accounted} accounted")

    # -- the clock ----------------------------------------------------------

    def step(self) -> "Simulator":
        """Advance one clock cycle through all pipeline stages.

        This is the per-cycle oracle that :meth:`run` must match: every call
        advances exactly one cycle and checks token conservation at its end.
        """
        cfg = self.config
        cyc = self.cycle

        # (a) detector completions for this cycle
        fresh = []
        while (self._next_comp < len(self.schedule)
               and self.schedule[self._next_comp].cycle <= cyc):
            comp = self.schedule[self._next_comp]
            self._next_comp += 1
            self.counters.detections += 1
            if cfg.channel_gating and comp.channel not in self._selected_channels:
                self.counters.gated_tokens += 1
                continue
            if comp.channel in self._held:
                raise AssertionError(
                    f"channel {comp.channel} completed a window while a prior "
                    "token is still stalled; detector re-arm should prevent this")
            fresh.append(comp)

        # (b) queue insertion: stalled tokens retry first, then new completions;
        # taps are distinct per channel so same-cycle inserters never conflict
        waiting = sorted(self._held.values(), key=lambda c: c.channel) + fresh
        self._held = {}
        slots = cfg.conveyor_slots
        for comp in waiting:
            group, tap = divmod(comp.channel, cfg.group_size)
            ring = self._rings[group]
            slot = (cyc + tap) % slots
            if ring[slot] is None:
                ring[slot] = comp
                heapq.heappush(self._exits, cyc + tap)
            else:
                self._held[comp.channel] = comp
                self.counters.stall_cycles += 1

        # (c) each conveyor advances one slot: its head reaches the sorter
        heads = []
        exits = self._exits
        if exits and exits[0] == cyc:
            head = cyc % slots
            for ring in self._rings:
                out = ring[head]
                if out is not None:
                    ring[head] = None
                    heapq.heappop(exits)
                    heads.append(out)

        # (d) one sort per group per cycle
        arrivals = []
        for comp in heads:
            label = self.classifiers[comp.channel](comp.f1, comp.f2)
            self.counters.sorts += 1
            self.sorts_by_channel[comp.channel] += 1
            arrivals.append((comp, int(label)))

        # (e) decoder buffer: accept one queued event, then admit this cycle's
        # arrivals in group order; a full buffer drops the remainder
        if self._fifo:
            self._accept(*self._fifo.popleft())
        if len(arrivals) > 1:
            self.counters.decoder_collisions += len(arrivals) - 1
        for comp, label in arrivals:
            if len(self._fifo) < cfg.decoder_buffer_depth:
                self._fifo.append((comp, label))
            else:
                self.counters.tokens_lost += 1

        # (f) close any accumulator bank whose grace window ends this cycle
        while self._next_close <= cyc:
            self._emit_bank()

        self.cycle = cyc + 1
        self.counters.cycles = max(self.counters.cycles, self.cycle)
        self.check_conservation()
        return self

    def _accept(self, comp: Completion, label: int) -> None:
        self.counters.decoder_accepts += 1
        k = comp.t // self._bin_len
        if self.cycle > (k + 1) * self._bin_len:
            self.counters.edge_crossings += 1
        if k >= self.n_bins:
            k = self.n_bins - 1          # tail event of a truncated final bin
        if k < self._next_emit:
            # its bank is already emitted: flag it and spill into the oldest
            # bank still open, mirroring a single hardware accumulator
            self.counters.late_tokens += 1
            if self._next_emit >= self.n_bins:
                return
            k = self._next_emit
        col = self._colmap.get((comp.channel, label))
        if col is not None:
            self._banks[k, col] += 1
        self.accepted_events.append((comp.t, comp.channel, label))

    def _emit_bank(self) -> None:
        k = self._next_emit
        self._ez[k] = self.ensemble.E @ self._banks[k].astype(np.float64)
        self._next_emit = k + 1
        self._next_close = self._close_cycle(k + 1)
        self.counters.bins_emitted += 1
        self.counters.output_bits += self.ensemble.E.shape[0] * self.config.output_width_bits

    def run(self) -> "Simulator":
        """Drain the schedule and emit every bank, stage by stage.

        Starts from whatever state :meth:`step` left (held tokens, ring
        tokens, the decoder buffer, emitted banks) and ends in the state,
        counters and outputs of calling :meth:`step` once per cycle until
        :attr:`done`, without stepping:

        (A) Insertion. Slots are indexed by absolute cycle, so a token at tap
            ``t`` inserting in cycle ``c`` is blocked exactly when its group
            already holds a token leaving the ring in cycle ``c + t``. Tokens
            claim (group, exit cycle) pairs in cycle order; a blocked token
            retries the next cycle, and each retry is one stall cycle.
        (B) Sorter. One classifier call per token, in (exit cycle, group)
            order, as the sorters meet them.
        (C) Decoder buffer. Per arrival cycle: the buffer pops one item,
            then admits that cycle's arrivals up to its depth. An item is
            accepted one cycle after its arrival or after its predecessor,
            whichever is later.
        (D) Banks. A bank closes ``grace_cycles`` after its edge, so the
            accept cycle fixes which banks are still open; binning, edge
            crossings and late spills follow in numpy, and every bank is
            then emitted by :meth:`_emit_bank`.

        A schedule that breaks the detector re-arm rule (a channel completing
        while its previous token is held) makes stage A give up, and ``run``
        then steps from its entry state, so the error raised and the state
        left behind are exactly those of :meth:`step`.
        """
        if self.done:
            return self
        staged = self._insert_tokens()
        if staged is None:
            while not self.done:
                self.step()
            return self
        detections, gated, stalls, last, inserted = staged

        # (B) one sort per token, in the order tokens reach the sorters
        inserted.sort()
        classify = self.classifiers
        labels = [int(classify[comp.channel](comp.f1, comp.f2))
                  for _, comp in inserted]

        # (C) the decoder buffer, one arrival cycle at a time; the items left
        # in it by step() go first, popping one per cycle from now on
        n_groups = self.config.n_groups
        depth = self.config.decoder_buffer_depth
        accepts = list(range(self.cycle, self.cycle + len(self._fifo)))
        taken = [comp for comp, _ in self._fifo]
        taken_labels = [label for _, label in self._fifo]
        head = 0                 # accepts[head:] are still in the buffer
        acc = accepts[-1] if accepts else self.cycle - 1
        collisions = lost = 0
        arrival = None
        for (key, comp), label in zip(inserted, labels):
            cyc = key // n_groups
            if cyc == arrival:
                collisions += 1
            else:
                arrival = cyc
                while head < len(accepts) and accepts[head] <= cyc:
                    head += 1
            if len(accepts) - head < depth:
                acc = (acc if acc > cyc else cyc) + 1
                accepts.append(acc)
                taken.append(comp)
                taken_labels.append(label)
            else:
                lost += 1

        c = self.counters
        c.detections += detections
        c.gated_tokens += gated
        c.stall_cycles += stalls
        c.sorts += len(inserted)
        c.decoder_collisions += collisions
        c.tokens_lost += lost
        self.sorts_by_channel += np.bincount(
            np.array([comp.channel for _, comp in inserted], dtype=np.int64),
            minlength=self.config.n_channels)

        # (D) bin the accepted tokens, then close every remaining bank
        self._accept_all(accepts, taken, taken_labels)
        # step() would stop after the last cycle with a detection, insertion,
        # ring exit, accept or bank close
        if inserted:
            last = max(last, inserted[-1][0] // n_groups)
        last = max(last, acc)
        if self._next_emit < self.n_bins:
            last = max(last, self._close_cycle(self.n_bins - 1))
        while self._next_emit < self.n_bins:
            self._emit_bank()
        self._next_comp = len(self.schedule)
        self._held = {}
        self._rings = [[None] * self.config.conveyor_slots for _ in self._rings]
        self._exits = []
        self._fifo.clear()
        self.cycle = last + 1
        c.cycles = max(c.cycles, self.cycle)
        return self

    def _insert_tokens(self):
        """Stage A of :meth:`run`: gate and insert every pending token.

        Returns ``(detections, gated, stall cycles, last cycle, inserted)``,
        where *inserted* lists ``(exit cycle * n_groups + group, token)`` for
        every ring token, those already on a ring included, and *last cycle*
        is the last cycle in which a token was detected or inserted. Returns
        None when the schedule breaks the detector re-arm rule. Changes
        nothing on the simulator.
        """
        cfg = self.config
        n_groups, group_size = cfg.n_groups, cfg.group_size
        # a token of channel ch inserting in cycle c leaves the ring in cycle
        # c + tap: its (group, exit cycle) key is c * n_groups + offset[ch]
        offset = [(ch % group_size) * n_groups + ch // group_size
                  for ch in range(cfg.n_channels)]
        gated_out = [cfg.channel_gating and ch not in self._selected_channels
                     for ch in range(cfg.n_channels)]
        start = self.cycle
        inserted = [((start + (slot - start) % cfg.conveyor_slots) * n_groups + g, comp)
                    for g, ring in enumerate(self._rings)
                    for slot, comp in enumerate(ring) if comp is not None]
        claimed = {key for key, _ in inserted}
        schedule, i, n = self.schedule, self._next_comp, len(self.schedule)
        held = list(self._held.values())
        gated = stalls = 0
        cyc = start - 1
        while held or i < n:
            # one cycle: held tokens retry, then this cycle's completions
            # join them; distinct channels never contend for one key
            waiting, held = held, []
            if waiting:
                cyc += 1
                held_channels = {comp.channel for comp in waiting}
            else:
                cyc = max(schedule[i].cycle, start)
                held_channels = ()
            while i < n and schedule[i].cycle <= cyc:
                comp = schedule[i]
                i += 1
                if gated_out[comp.channel]:
                    gated += 1
                elif comp.channel in held_channels:
                    return None
                else:
                    waiting.append(comp)
            base = cyc * n_groups
            for comp in waiting:
                key = base + offset[comp.channel]
                if key in claimed:
                    held.append(comp)
                else:
                    claimed.add(key)
                    inserted.append((key, comp))
            if held:
                stalls += len(held)
                if len({comp.channel for comp in held}) < len(held):
                    return None      # two tokens of one channel blocked at once
        return i - self._next_comp, gated, stalls, cyc, inserted

    def _accept_all(self, accepts: list, comps: list, labels: list) -> None:
        """Stage D of :meth:`run`: :meth:`_accept` for every token in *comps*,
        sorted as *labels* and accepted in the cycles *accepts*.

        Bank ``j`` closes in cycle ``(j + 1) * bin_len + grace_cycles``, after
        that cycle's accept, so at accept cycle ``x`` the oldest open bank is
        the number of banks that closed before ``x``.
        """
        if not comps:
            return
        ts = [comp.t for comp in comps]
        channels = [comp.channel for comp in comps]
        cyc, t = np.array(accepts, dtype=np.int64), np.array(ts, dtype=np.int64)
        bin_len, n_bins = self._bin_len, self.n_bins
        k = t // bin_len
        edge = cyc > (k + 1) * bin_len
        k = np.minimum(k, n_bins - 1)
        oldest_open = np.clip((cyc - 1 - self.config.grace_cycles) // bin_len,
                              self._next_emit, n_bins)
        late = k < oldest_open
        k = np.where(late, oldest_open, k)
        kept = ~late | (oldest_open < n_bins)
        cols = _pair_columns(self.ensemble.selected, channels, labels)
        into = kept & (cols >= 0)
        np.add.at(self._banks, (k[into], cols[into]), 1)
        c = self.counters
        c.decoder_accepts += len(comps)
        c.edge_crossings += int(edge.sum())
        c.late_tokens += int(late.sum())
        events = zip(ts, channels, labels)
        self.accepted_events.extend(
            events if kept.all()
            else (ev for ev, keep in zip(events, kept.tolist()) if keep))


@dataclass
class SimResult:
    ez: np.ndarray                 # (n_bins, state_dim) per-bin reduced observation
    counts: np.ndarray             # (n_bins, n_selected) accumulated event counts
    counters: SimCounters
    sorts_by_channel: np.ndarray   # (n_channels,) int64
    accepted_events: np.ndarray    # (n, 3) rows (t, channel, label)
    config: SimConfig = field(repr=False, default=None)

    @property
    def n_bins(self) -> int:
        return self.ez.shape[0]


def build_schedule(trace: RawTrace, models: dict, config: SimConfig,
                   thresholds: dict | None = None) -> list:
    """Detect every modeled channel of *trace* into a completion schedule.

    A window spanning [t0, t0+31] completes (and may enter the queue) at
    cycle t0+31. Channels without a model are left silent. *config* is not
    read: the detector has no settings.
    """
    schedule = []
    for ch in sorted(models):
        row = trace.data[ch]
        thr = thresholds[ch] if thresholds is not None else estimate_threshold(row)
        starts = window_starts(row, thr)
        if not starts:
            continue
        f1, f2 = window_features(gather_windows(row, starts))
        cycles = [t0 + WINDOW_LEN - 1 for t0 in starts]
        schedule.extend(map(Completion, cycles, repeat(ch), starts,
                            f1.tolist(), f2.tolist()))
    return schedule


def run_simulation(trace: RawTrace, models: dict, ensemble: EnsembleModel,
                   config: SimConfig | None = None,
                   thresholds: dict | None = None) -> SimResult:
    """Drive the fabric over a full trace and return outputs plus counters.

    *models* maps channel -> sorter model (anything with ``classify(f1, f2)``)
    or a plain (f1, f2) -> label callable. The fabric takes one sample per
    channel per cycle, so ``trace.sample_rate`` must equal ``config.clock_hz``;
    a mismatch raises ConfigMismatchError instead of binning at the wrong rate.

    Whenever ``tokens_lost == 0`` and no token was flagged late, the per-bin
    ``ez`` equals the reference computed outside the simulator (count the
    sorted events into bins, multiply by the ensemble matrix once per bin).
    """
    config = config or SimConfig()
    config.validate()
    if trace.data.shape[0] != config.n_channels:
        raise ConfigMismatchError(
            f"trace has {trace.data.shape[0]} channels but the config "
            f"expects {config.n_channels}")
    if trace.sample_rate != config.clock_hz:
        raise ConfigMismatchError(
            f"trace is sampled at {trace.sample_rate} Hz but the fabric clock "
            f"is {config.clock_hz} Hz; one sample per cycle needs them equal")
    n_samples = trace.data.shape[1]
    n_bins = max(1, math.ceil(n_samples / config.bin_len))
    schedule = build_schedule(trace, models, config, thresholds)
    classifiers = {ch: getattr(m, "classify", m) for ch, m in models.items()}
    sim = Simulator(config, ensemble, classifiers, schedule, n_bins).run()
    sim.counters.input_bits = config.n_channels * n_samples * SAMPLE_BITS
    return SimResult(ez=sim._ez, counts=sim._banks, counters=sim.counters,
                     sorts_by_channel=sim.sorts_by_channel,
                     accepted_events=np.array(sim.accepted_events,
                                              dtype=np.int64).reshape(-1, 3),
                     config=config)


def reference_ez(events, ensemble: EnsembleModel, n_bins: int, bin_len: int) -> np.ndarray:
    """The order-free pipeline output the simulator must reproduce.

    Computed with the same per-bin matrix-vector product the simulator uses,
    so equality with a lossless run is bit-exact, not approximate.
    """
    return ensemble_ez(ensemble, bin_spikes(events, n_bins, bin_len,
                                            ensemble.selected))


def linear_fit_r2(x, y) -> float:
    """R-squared of an ordinary least-squares line through (x, y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or np.allclose(y, y[0]):
        return 1.0
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


SWEEP_STAGES = ("detections", "sorts", "decoder_accepts")


def sweep_spike_rate(rates, n_channels: int = 8, duration_s: float = 2.0,
                     seed: int = 0, config: SimConfig | None = None) -> dict:
    """Activity counters vs input spike rate at a fixed configuration.

    Sorter models are trained once on a reference-rate trace (ground-truth
    matched features); each rate then gets its own trace and simulator run.
    Returns per-rate counter rows and the per-stage linear-fit R².
    """
    from .evaluation import channel_feature_dataset
    from .sort_offline import train_channel_model
    from .synthdata import TraceConfig, gen_spike_trace

    rates = [float(r) for r in rates]
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    config = config or SimConfig(n_channels=n_channels, group_size=n_channels,
                                 conveyor_slots=max(n_channels, 8))
    config.validate()

    def cfg_for(rate: float) -> "TraceConfig":
        return TraceConfig(n_channels=n_channels, duration_s=duration_s,
                           neurons_per_channel=3, firing_rate_hz=rate,
                           snr_db=24.0, amp_spread=(0.5, 1.0))

    train_trace, train_labels = gen_spike_trace(cfg_for(30.0), seed=seed)
    models = {}
    for ch in range(n_channels):
        feats, labs, _, _ = channel_feature_dataset(train_trace, train_labels, ch)
        models[ch] = train_channel_model(feats, labs)

    selected = [(ch, u) for ch in range(n_channels) for u in range(3)]
    rng = np.random.default_rng(seed)
    E = rng.normal(0.0, 0.05, size=(2, len(selected)))
    ensemble = EnsembleModel(E=E, Qe=np.eye(2) * 0.1, selected=selected)

    rows = []
    for i, rate in enumerate(rates):
        trace, _ = gen_spike_trace(cfg_for(rate), seed=seed + 1 + i)
        res = run_simulation(trace, models, ensemble, config)
        row = {"rate_hz": rate}
        row.update(res.counters.as_dict())
        rows.append(row)
    r2 = {stage: linear_fit_r2([r["rate_hz"] for r in rows],
                               [r[stage] for r in rows])
          for stage in SWEEP_STAGES}
    return {"rows": rows, "r2": r2}
