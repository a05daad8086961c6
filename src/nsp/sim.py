"""Cycle-accurate simulator of the 96-channel processing fabric.

Per-channel detectors complete one 32-sample window at a time and hand tokens
to a per-group conveyor ring; one sorter per group classifies at most one
token per cycle; sorted events contend for a single bounded decoder buffer
feeding the per-bin ensemble accumulator. Everything is a deterministic state
machine: identical inputs give identical counters and outputs.

The schedule is the detector's token stream, a :class:`~nsp.detect.Tokens`
(int columns, as :func:`build_schedule` returns it) or a list of
:class:`~nsp.detect.Completion` rows, which may carry any completion cycle.
The simulator keeps it as int arrays sorted by (cycle, channel).

``Simulator.step`` advances one clock cycle through every stage and is the
reference; it reads the schedule one row at a time. ``Simulator.run`` takes
a fresh simulator to the same end state stage by stage on the arrays: ring
insertion, where only tokens that contend for a conveyor slot go through a
loop; one ``classify_many`` call per channel; the decoder buffer, a
single-server queue whose accept cycles are one cumulative max, with a loop
only over the busy periods in which the buffer fills; and the accumulator
banks in numpy. Each stage only feeds the next, so no stage loops over
cycles. A simulator that ``step`` has already advanced finishes by stepping.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .decode import EnsembleModel, _bin_counts, bin_spikes, ensemble_ez
from .detect import (DEFAULT_PRE, Completion, Tokens, detect_trace,
                     estimate_threshold)
from .evaluation import calibrate, train_channels
from .sort_offline import classify_by_channel, train_channel_model
from .synthdata import PayloadError, RawTrace, TraceConfig, WINDOW_LEN, gen_spike_trace

SAMPLE_BITS = 8
OUTPUT_WORD_BITS = 16      # width of one E z state word leaving the implant


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

    def validate(self) -> None:
        if self.n_channels < 1 or self.group_size < 1:
            raise ValueError("n_channels and group_size must be positive")
        if self.n_channels % self.group_size != 0:
            raise ValueError("n_channels must be divisible by group_size")
        if self.conveyor_slots < self.group_size:
            raise ValueError("conveyor_slots must be >= group_size (one tap per channel)")
        if self.group_size > WINDOW_LEN:
            # a tap waits up to group_size - 1 cycles for a slot; its detector
            # re-arms WINDOW_LEN samples after a window starts
            raise ValueError(f"group_size must be <= {WINDOW_LEN}, the detector re-arm period")
        if self.decoder_buffer_depth < 1:
            raise ValueError("decoder_buffer_depth must be >= 1")
        if self.clock_hz < 1 or self.bin_ms < 1:
            raise ValueError("clock_hz and bin_ms must be positive")
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


# Keys that older config files carry for settings the fabric fixes, with
# the values (compared case-insensitively) that name the fixed setting.
_FIXED_KEYS = {
    "pre_samples": (str(DEFAULT_PRE),),
    "channel_gating": ("true", "1", "yes"),
    "output_width_bits": (str(OUTPUT_WORD_BITS),),
}


def parse_sim_config(text: str) -> SimConfig:
    """Parse the flat ``key = value`` simulator config format.

    Blank lines and ``#`` comments are ignored; unknown and repeated keys are
    rejected. Older files also carry the fixed settings of ``_FIXED_KEYS``:
    the detector's pre-crossing offset, channel gating and the output word
    width. Such a line is accepted with its fixed value and rejected with
    any other.
    """
    known = {f.name for f in fields(SimConfig)}
    values, seen = {}, set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PayloadError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in seen:
            raise PayloadError(f"line {lineno}: key {key!r} given twice")
        seen.add(key)
        if key in _FIXED_KEYS:
            if val.lower() not in _FIXED_KEYS[key]:
                raise PayloadError(f"line {lineno}: {key} is fixed at "
                                   f"{_FIXED_KEYS[key][0]}; {key} = {val} "
                                   "cannot be honoured")
            continue
        if key not in known:
            raise PayloadError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = int(val)
        except ValueError as exc:
            raise PayloadError(f"line {lineno}: expected an integer, got {val!r}") from exc
    cfg = SimConfig(**values)
    cfg.validate()
    return cfg


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


class Simulator:
    """One fabric instance. Feed it a schedule of detector tokens, then either
    step cycles or :meth:`run` it from fresh.

    *classifiers* maps channel -> sorter model (anything with
    ``classify_many`` and ``classify``) or a plain (f1, f2) -> label
    callable; *ensemble* defines the accumulated (channel, cluster) columns.
    Channels absent from the ensemble selection are gated out after
    detection. *schedule* is a :class:`~nsp.detect.Tokens` or a list of
    ``Completion`` rows.

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
                 classifiers: dict, schedule, n_bins: int):
        config.validate()
        self.config = config
        self.counters = SimCounters()
        self.ensemble = ensemble
        self.classifiers = classifiers
        self._classify = {ch: getattr(m, "classify", m) for ch, m in classifiers.items()}
        if isinstance(schedule, Tokens):
            cols = (schedule.cycle, schedule.channel, schedule.t, schedule.f1,
                    schedule.f2)
        else:
            cols = np.array(schedule, dtype=np.int64).reshape(-1, len(Completion._fields)).T
        # the schedule as (cycle, channel, t, f1, f2) columns in (cycle, channel) order
        order = np.lexsort((cols[1], cols[0]))
        self._cols = tuple(c[order] for c in cols)
        channel = self._cols[1]
        foreign = channel[(channel < 0) | (channel >= config.n_channels)]
        if foreign.size:
            raise ConfigMismatchError(
                f"completion on channel {foreign[0]} outside the "
                f"configured {config.n_channels} channels")
        self.n_bins = n_bins
        self.cycle = 0
        self._next_comp = 0
        self._rings = [[None] * config.conveyor_slots for _ in range(config.n_groups)]
        self._exits = []          # min-heap: exit cycle of every ring token
        self._held = {}
        self._fifo = deque()
        d = ensemble.E.shape[0]
        self._banks = np.zeros((n_bins, len(ensemble.selected)), dtype=np.int64)
        self._ez = np.zeros((n_bins, d), dtype=np.float64)
        self._bin_len = config.bin_len
        self._next_emit = 0
        self._next_close = self._close_cycle(0)
        self.sorts_by_channel = np.zeros(config.n_channels, dtype=np.int64)
        self._accepted = []       # (t, channel, label) per accept

    # -- state inspection ---------------------------------------------------

    @property
    def accepted_events(self) -> np.ndarray:
        """(n, 3) int64 rows (t, channel, label) of the accepted events, in
        accept order."""
        return np.asarray(self._accepted, dtype=np.int64).reshape(-1, 3)

    @cached_property
    def _rows(self) -> list:
        """The sorted schedule as Completion rows, which :meth:`step` reads."""
        return list(map(Completion, *(c.tolist() for c in self._cols)))

    @property
    def pipeline_empty(self) -> bool:
        return not self._held and not self._exits and not self._fifo

    @property
    def done(self) -> bool:
        return (self._next_comp >= self._cols[0].size and self.pipeline_empty
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
        rows = self._rows

        # (a) detector completions for this cycle
        fresh = []
        while self._next_comp < len(rows) and rows[self._next_comp].cycle <= cyc:
            comp = rows[self._next_comp]
            self._next_comp += 1
            self.counters.detections += 1
            if comp.channel not in self.ensemble.selection.channels:
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
            label = self._classify[comp.channel](comp.f1, comp.f2)
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
        col = self.ensemble.selection.column.get((comp.channel, label))
        if col is not None:
            self._banks[k, col] += 1
        self._accepted.append((comp.t, comp.channel, label))

    def _emit_bank(self) -> None:
        k = self._next_emit
        self._ez[k] = self.ensemble.E @ self._banks[k].astype(np.float64)
        self._next_emit = k + 1
        self._next_close = self._close_cycle(k + 1)
        self.counters.bins_emitted += 1
        self.counters.output_bits += self.ensemble.E.shape[0] * OUTPUT_WORD_BITS

    def run(self) -> "Simulator":
        """Drain the schedule and emit every bank, stage by stage.

        Takes a fresh simulator to the state, counters and outputs of calling
        :meth:`step` once per cycle until :attr:`done`, without stepping:

        (A) Insertion. Slots are indexed by absolute cycle, so a token at tap
            ``t`` inserting in cycle ``c`` is blocked exactly when its group
            already holds a token leaving the ring in cycle ``c + t``. Tokens
            claim (group, exit cycle) pairs in cycle order; a blocked token
            retries the next cycle, and each retry is one stall cycle. So a
            group's ring acts as one server that hands out one exit per
            cycle, and each token queues for it from its first-choice exit
            ``max(cycle, 0) + tap``. Sorted by first-choice exit, a group's
            tokens fall into busy periods (one cumulative max finds them),
            and no exit is ever claimed by tokens of two periods. A token
            alone in its period takes its first-choice exit without a
            stall; only the tokens of longer periods go through the greedy
            claim loop, which also checks the detector re-arm rule.
        (B) Sorter. Every ring token is labelled by its channel's
            classifier, one ``classify_many`` call per channel; a plain
            callable is called once per token, in the order tokens reach
            that channel's sorter.
        (C) Decoder buffer. Per arrival cycle: the buffer pops one item,
            then admits that cycle's arrivals, in group order, up to its
            depth. An item is accepted one cycle after its arrival or after
            its predecessor, whichever is later. Without drops that is a
            Lindley recursion, so arrival ``i`` of the sorted cycles ``a``
            is accepted in cycle ``max over j <= i of (a[j] - j) + i + 1``,
            and it finds the items ``j < i`` accepted after ``a[i]`` still
            in the buffer. Only an arrival that finds ``depth`` of them can
            be dropped. A drop only lightens the load behind it, so every
            accept of the real run comes no later than in this no-drop
            schedule: wherever the no-drop buffer runs empty, the real one
            does too. Its busy periods are therefore independent; the
            no-drop accepts hold in every period without a full-buffer
            arrival, and the per-arrival rule runs over the others.
        (D) Banks. A bank closes ``grace_cycles`` after its edge, so the
            accept cycle fixes which banks are still open; binning, edge
            crossings and late spills follow in numpy, and every bank is
            then emitted by :meth:`_emit_bank`.

        A simulator that :meth:`step` has already advanced finishes by
        stepping. So does a schedule that breaks the detector re-arm rule (a
        channel completing while its previous token is held): stage A gives
        up, and the error raised and the state left behind are exactly those
        of :meth:`step`.
        """
        staged = None if self.cycle else self._insert_tokens()
        if staged is None:
            while not self.done:
                self.step()
            return self
        ring, key, stalls = staged
        cfg = self.config
        n_groups = cfg.n_groups
        cycle, channel, t, f1, f2 = self._cols

        # (B) the ring tokens in the order they reach the sorters
        by_key = np.argsort(key)
        ring = ring[by_key]
        arrival = key[by_key] // n_groups
        channel, t = channel[ring], t[ring]
        labels = classify_by_channel(self.classifiers, channel, f1[ring], f2[ring])

        # (C) the decoder buffer
        accepts, taken = _buffer_accepts(arrival, cfg.decoder_buffer_depth)

        c = self.counters
        c.detections += cycle.size
        c.gated_tokens += cycle.size - ring.size
        c.stall_cycles += stalls
        c.sorts += ring.size
        c.decoder_collisions += int(np.count_nonzero(np.diff(arrival) == 0))
        c.tokens_lost += ring.size - taken.size
        self.sorts_by_channel += np.bincount(channel, minlength=cfg.n_channels)

        # (D) bin the accepted tokens, then close every remaining bank
        self._accept_all(accepts, t[taken], channel[taken], labels[taken])
        # step() would stop after the last cycle with a detection, insertion,
        # ring exit, accept or bank close; a ring token leaves no earlier
        # than it is inserted
        last = max(max(int(cycle[-1]), 0) if cycle.size else -1,
                   int(arrival[-1]) if ring.size else -1,
                   int(accepts[-1]) if accepts.size else -1)
        if self.n_bins:
            last = max(last, self._close_cycle(self.n_bins - 1))
        while self._next_emit < self.n_bins:
            self._emit_bank()
        self._next_comp = cycle.size
        self.cycle = c.cycles = last + 1
        return self

    def _insert_tokens(self):
        """Stage A of :meth:`run`: gate and insert every token of the schedule.

        Returns ``(ring, key, stall cycles)``: *ring* holds the schedule
        positions of the tokens that enter a ring and *key* their
        ``exit cycle * n_groups + group``. Returns None when the schedule
        breaks the detector re-arm rule. Changes nothing on the simulator.
        """
        cfg = self.config
        n_groups = cfg.n_groups
        cycle, channel = self._cols[0], self._cols[1]
        ring = np.flatnonzero(np.isin(channel, [*self.ensemble.selection.channels]))
        start = np.maximum(cycle[ring], 0)          # the first insertion attempt
        group, tap = np.divmod(channel[ring], cfg.group_size)
        first = start + tap                          # the first-choice exit
        # busy periods: sorted by (group, first-choice exit), a group's first
        # k + 1 tokens fill the exits up to leave[k] = max over j <= k of
        # first[j] + (k - j), and a token whose first choice lies past its
        # predecessor's leave opens a new period; the offset per group
        # restarts the cumulative max at each group
        by_exit = np.lexsort((first, group))
        g, e = group[by_exit], first[by_exit]
        k = np.arange(ring.size)
        span = int(e.max()) + ring.size + 1 if ring.size else 0
        leave = np.maximum.accumulate(e - k + g * span) - g * span + k
        opens = np.ones(ring.size, dtype=bool)    # token opens a busy period
        opens[1:] = (g[1:] != g[:-1]) | (e[1:] > leave[:-1])
        alone = np.empty(ring.size, dtype=bool)
        alone[by_exit] = opens & np.append(opens[1:], True)

        key = first * n_groups + group
        busy = np.flatnonzero(~alone)
        claims = self._claim(n_groups, start[busy].tolist(), channel[ring[busy]].tolist(),
                             (tap[busy] * n_groups + group[busy]).tolist())
        if claims is None:
            return None
        key[busy] = claims
        stalls = int((key[busy] // n_groups - first[busy]).sum())
        return ring, key, stalls

    @staticmethod
    def _claim(n_groups: int, starts: list, channels: list, offsets: list):
        """The greedy claim loop of stage A over tokens in schedule order.

        A token of channel ``channels[i]`` first tries to insert in cycle
        ``starts[i]``; inserting in cycle ``c`` claims the key
        ``c * n_groups + offsets[i]``, and a claimed key blocks the token
        until the next cycle. Returns every token's claimed key, or None
        when a channel completes while its previous token is held or two of
        its tokens are held at once.
        """
        n = len(starts)
        keys = [0] * n
        claimed, held = set(), []
        i, cyc = 0, -1
        while held or i < n:
            # one cycle: held tokens retry, then this cycle's completions
            # join them; distinct channels never contend for one key
            waiting, held = held, []
            if waiting:
                cyc += 1
                held_channels = {channels[j] for j in waiting}
            else:
                cyc = starts[i]
                held_channels = ()
            while i < n and starts[i] <= cyc:
                if channels[i] in held_channels:
                    return None
                waiting.append(i)
                i += 1
            base = cyc * n_groups
            for j in waiting:
                key = base + offsets[j]
                if key in claimed:
                    held.append(j)
                else:
                    claimed.add(key)
                    keys[j] = key
            if held and len({channels[j] for j in held}) < len(held):
                return None          # two tokens of one channel blocked at once
        return keys

    def _accept_all(self, accepts, t, channel, labels) -> None:
        """Stage D of :meth:`run`: :meth:`_accept` for every token
        (t[i], channel[i]) sorted as labels[i] and accepted in cycle accepts[i].

        Bank ``j`` closes in cycle ``(j + 1) * bin_len + grace_cycles``, after
        that cycle's accept, so at accept cycle ``x`` the oldest open bank is
        the number of banks that closed before ``x``.
        """
        if not accepts.size:
            return
        bin_len, n_bins = self._bin_len, self.n_bins
        k = t // bin_len
        edge = accepts > (k + 1) * bin_len
        k = np.minimum(k, n_bins - 1)
        oldest_open = np.clip((accepts - 1 - self.config.grace_cycles) // bin_len,
                              self._next_emit, n_bins)
        late = k < oldest_open
        k = np.where(late, oldest_open, k)
        kept = ~late | (oldest_open < n_bins)
        cols = np.where(kept, self.ensemble.selection.columns(channel, labels), -1)
        self._banks += _bin_counts(k, cols, n_bins, self._banks.shape[1])
        c = self.counters
        c.decoder_accepts += accepts.size
        c.edge_crossings += int(edge.sum())
        c.late_tokens += int(late.sum())
        self._accepted = np.column_stack((t, channel, labels))[kept]


def _buffer_accepts(arrival, depth: int):
    """Stage C of :meth:`Simulator.run` on the sorted int64 *arrival* cycles.

    Returns ``(accepts, taken)``: the positions *taken* of the arrivals a
    depth-*depth* decoder buffer admits and the cycles *accepts* in which
    they are accepted. The closed form gives the no-drop schedule;
    :func:`_admit` runs only over the no-drop busy periods that hold an
    arrival finding the buffer full.
    """
    n = arrival.size
    k = np.arange(n)
    accepts = np.maximum.accumulate(arrival - k) + k + 1
    full = k - np.searchsorted(accepts, arrival, side="right") >= depth
    taken = np.ones(n, dtype=bool)
    if full.any():
        opens = np.ones(n, dtype=bool)         # arrival opens a busy period
        opens[1:] = accepts[:-1] <= arrival[1:]
        period = np.cumsum(opens) - 1
        overflows = np.zeros(period[-1] + 1, dtype=bool)
        overflows[period[full]] = True
        looped = np.flatnonzero(overflows[period])
        admitted, kept = _admit(arrival[looped].tolist(), depth)
        taken[looped] = False
        taken[looped[kept]] = True
        accepts[looped[kept]] = admitted
    return accepts[taken], np.flatnonzero(taken)


def _admit(arrival: list, depth: int):
    """The decoder buffer one arrival at a time, from empty: ``(accept
    cycles, positions)`` of the arrivals it admits.

    *arrival* may join several busy periods: every accept before a period
    comes no later than the period's first arrival, so the buffer is empty
    there and the latest accept does not hold it back.
    """
    accepts, taken = [], []
    queue, acc = deque(), -1      # accept cycles still in the buffer; latest
    for i, cyc in enumerate(arrival):
        while queue and queue[0] <= cyc:
            queue.popleft()
        if len(queue) < depth:
            acc = (acc if acc > cyc else cyc) + 1
            queue.append(acc)
            accepts.append(acc)
            taken.append(i)
    return accepts, taken


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
                   thresholds: dict | None = None) -> Tokens:
    """Detect every modeled channel of *trace* into a token schedule.

    A window spanning [t0, t0+31] completes (and may enter the queue) at
    cycle t0+31. The tokens are those of :func:`~nsp.detect.detect_trace`
    with a NaN threshold, which never fires, on each channel without a
    model; a model on a channel the trace lacks raises ConfigMismatchError.
    *config* is not read: the detector has no settings.
    """
    check_model_channels(models, trace.n_channels)
    thr = np.full(trace.n_channels, np.nan)
    for ch in models:
        thr[ch] = (thresholds[ch] if thresholds is not None
                   else estimate_threshold(trace.data[ch]))
    return detect_trace(trace, thr)[1]


def check_model_channels(models, n_channels: int) -> None:
    """Raise ConfigMismatchError unless every model names one of *n_channels* channels."""
    foreign = sorted(ch for ch in models if not 0 <= ch < n_channels)
    if foreign:
        raise ConfigMismatchError(f"sorter models name channels {foreign} but "
                                  f"the trace has {n_channels} channels")


def run_simulation(trace: RawTrace, models: dict, ensemble: EnsembleModel,
                   config: SimConfig | None = None,
                   thresholds: dict | None = None) -> SimResult:
    """Drive the fabric over a full trace and return outputs plus counters.

    *models* maps channel -> sorter model (anything with ``classify(f1, f2)``)
    or a plain (f1, f2) -> label callable; a model on a channel the trace
    lacks raises ConfigMismatchError. The fabric takes one sample per
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
    sim = Simulator(config, ensemble, models, schedule, n_bins).run()
    sim.counters.input_bits = config.n_channels * n_samples * SAMPLE_BITS
    return SimResult(ez=sim._ez, counts=sim._banks, counters=sim.counters,
                     sorts_by_channel=sim.sorts_by_channel,
                     accepted_events=sim.accepted_events, config=config)


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
                     seed: int = 0) -> dict:
    """Activity counters vs input spike rate at a fixed configuration.

    Sorter models are trained once, by :func:`~nsp.evaluation.train_channels`
    on one :func:`~nsp.evaluation.calibrate` pass over a reference-rate trace,
    so a channel too quiet to train stays unmodeled; each rate then gets its
    own trace and simulator run. Returns per-rate counter rows and the
    per-stage linear-fit R².
    """
    rates = [float(r) for r in rates]
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    config = SimConfig(n_channels=n_channels, group_size=n_channels,
                       conveyor_slots=max(n_channels, 8))

    def cfg_for(rate: float) -> TraceConfig:
        return TraceConfig(n_channels=n_channels, duration_s=duration_s,
                           neurons_per_channel=3, firing_rate_hz=rate,
                           snr_db=24.0, amp_spread=(0.5, 1.0))

    train_trace, train_labels = gen_spike_trace(cfg_for(30.0), seed=seed)
    models = train_channels(train_channel_model,
                            dict(enumerate(calibrate(train_trace, train_labels)[2])))

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
