"""Velocity decoding from sorted spike events.

Two Kalman-filter variants share one state-transition model
x_{k+1} = A x_k + w:

* the standard filter observes the raw binned rate vector through
  z_k = H x_k + q and must invert an n_neurons-sized innovation covariance
  every step;
* the ensemble-observation filter first reduces the rates to a state-space
  velocity estimate E z_k by multivariate regression, so every per-step
  matrix is state_dim-sized, and the reduction itself degenerates to one
  column-add per spike event — cheap enough to run on the implant while the
  filter runs on the prosthesis side.

All step arithmetic goes through the counted kernels in opcount, grouped into
named phases (state_predict, cov_predict, gain, state_update, cov_update,
plus the event-driven observe reduction), so complexity claims are measured,
not estimated. The explicit re-symmetrization of P after the covariance
update is numerical hygiene and is excluded from the counters.

Each observation model names its filter in ``kind`` ("kf" or "eokf"), so the
model alone picks the filter: every decode path feeds ``run_filter``, which
steps the filter the model names, and a ``DecoderBundle`` stores only the
model. Every per-bin E z reduction, float or fixed point, is ``ensemble_ez``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from ._util import atomic_write_text
from .opcount import OpCounts, inv_small, ldl_solve, mat_add, mat_mul, mat_sub
from .synthdata import PayloadError, _checked_int, load_document, read_text

RIDGE_EPS = 1e-6
DEFAULT_STATE_DIM = 2
MAX_UNITS_PER_CHANNEL = 3
TARGET_ENSEMBLE_RANGE = (20, 50)
MIN_INFORMATIVE_SCORE = 0.01
N_SECTORS = 8              # direction sectors of per_direction_stats
INT32_MAX = 2**31 - 1

PHASES = ("state_predict", "cov_predict", "gain", "state_update",
          "cov_update", "observe")


class StepOps:
    """Operation counters for one or more filter steps, split by phase.

    ``step_total`` covers the five phases of the filter step itself. The
    ``observe`` phase (reducing rates to E z) is tallied separately: the
    ensemble filter receives that reduction from the implant accumulator as
    already-computed input, one add per spike event, not per-step matrix
    work. ``total_with_observe`` folds it back in for reporting.
    """

    def __init__(self):
        self.phases = {p: OpCounts() for p in PHASES}

    def phase(self, name: str) -> OpCounts:
        return self.phases[name]

    def step_total(self) -> OpCounts:
        out = OpCounts()
        for name, c in self.phases.items():
            if name != "observe":
                out += c
        return out

    def total_with_observe(self) -> OpCounts:
        return self.step_total() + self.phases["observe"]

    def as_dict(self) -> dict:
        return {"phases": {p: c.as_dict() for p, c in self.phases.items()},
                "step_total": self.step_total().as_dict(),
                "total_with_observe": self.total_with_observe().as_dict()}


def _phase(ops: StepOps | None, name: str) -> OpCounts | None:
    return None if ops is None else ops.phase(name)


def _sym(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


# ---------------------------------------------------------------------------
# models and training
# ---------------------------------------------------------------------------


@dataclass
class StateTransitionModel:
    A: np.ndarray        # (d, d)
    W: np.ndarray        # (d, d) process covariance

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.W = np.asarray(self.W, dtype=np.float64)


@dataclass
class StandardObservationModel:
    kind = "kf"

    H: np.ndarray        # (n_neurons, d)
    Q: np.ndarray        # (n_neurons, n_neurons) observation covariance

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)


@dataclass
class EnsembleModel:
    kind = "eokf"

    E: np.ndarray        # (d, n_selected) regression weights
    Qe: np.ndarray       # (d, d) residual covariance
    selected: tuple      # ((channel, within-channel unit id), ...) per E column

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=np.float64)
        self.Qe = np.asarray(self.Qe, dtype=np.float64)
        self.selected = tuple((int(c), int(u)) for c, u in self.selected)
        if self.E.ndim != 2 or self.E.shape[1] != len(self.selected):
            raise ValueError("one selected (channel, unit) pair per E column")
        per_channel = {}
        for ch, _ in self.selected:
            per_channel[ch] = per_channel.get(ch, 0) + 1
        if per_channel and max(per_channel.values()) > MAX_UNITS_PER_CHANNEL:
            raise ValueError(f"more than {MAX_UNITS_PER_CHANNEL} units on one channel")


@dataclass
class FilterState:
    x: np.ndarray                 # (d,) velocity estimate
    P: np.ndarray                 # (d_obs-appropriate) error covariance
    K: np.ndarray | None = None   # gain from the last update

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.P = np.asarray(self.P, dtype=np.float64)


def _ridge(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Least-squares coefficient matrix (r, out) for Y ~ X @ coef."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    gram = X.T @ X + RIDGE_EPS * np.eye(X.shape[1])
    return np.linalg.solve(gram, X.T @ Y)


def _residual_cov(resid: np.ndarray) -> np.ndarray:
    cov = resid.T @ resid / max(1, resid.shape[0])
    return _sym(cov)


def train_transition(velocity: np.ndarray) -> StateTransitionModel:
    """Fit x_{k+1} = A x_k from consecutive velocity bins; W = residual cov."""
    v = np.asarray(velocity, dtype=np.float64)
    d = v.shape[1]
    if v.shape[0] < d + 1:
        raise ValueError(f"need at least {d + 1} consecutive bins")
    X, Y = v[:-1], v[1:]
    coef = _ridge(X, Y)
    return StateTransitionModel(A=coef.T, W=_residual_cov(Y - X @ coef))


def train_observation_standard(counts: np.ndarray,
                               velocity: np.ndarray) -> StandardObservationModel:
    """Fit z = H x per neuron; Q = residual covariance across neurons."""
    Z = np.asarray(counts, dtype=np.float64)
    X = np.asarray(velocity, dtype=np.float64)
    if Z.shape[0] != X.shape[0] or Z.shape[0] == 0:
        raise ValueError("counts and velocity must align bin-for-bin")
    coef = _ridge(X, Z)
    return StandardObservationModel(H=coef.T, Q=_residual_cov(Z - X @ coef))


def neuron_scores(counts: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Encoding score per unit: R^2 of its rate regressed on velocity.

    The regression includes an intercept (a baseline rate carries no
    kinematic information and must not inflate the score). Constant-rate
    units score 0.
    """
    Z = np.asarray(counts, dtype=np.float64)
    X = np.asarray(velocity, dtype=np.float64)
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    coef = _ridge(Xb, Z)
    sse = ((Z - Xb @ coef) ** 2).sum(axis=0)
    sst = ((Z - Z.mean(axis=0)) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(sst > 0, 1.0 - sse / np.where(sst > 0, sst, 1.0), 0.0)
    return np.clip(r2, 0.0, 1.0)


def within_channel_ranks(unit_channels) -> list:
    """(channel, within-channel id) for each session unit, in session order."""
    seen = {}
    out = []
    for ch in unit_channels:
        ch = int(ch)
        out.append((ch, seen.get(ch, 0)))
        seen[ch] = seen.get(ch, 0) + 1
    return out


def select_neurons(counts: np.ndarray, velocity: np.ndarray, unit_channels) -> list:
    """Pick ensemble units by encoding score.

    Units are ranked by neuron_scores (ties keep session order), capped at
    MAX_UNITS_PER_CHANNEL per channel, and truncated at the upper end of
    TARGET_ENSEMBLE_RANGE. Units scoring at or below MIN_INFORMATIVE_SCORE
    are taken only if needed to reach its lower end. Returns ascending
    session unit indices. Raises when fewer informative units exist than
    state dimensions.
    """
    scores = neuron_scores(counts, velocity)
    if int((scores > MIN_INFORMATIVE_SCORE).sum()) < np.asarray(velocity).shape[1]:
        raise ValueError("fewer informative units than state dimensions")
    order = np.argsort(-scores, kind="stable")
    channels = [int(c) for c in unit_channels]
    lo, hi = TARGET_ENSEMBLE_RANGE
    taken, per_channel = [], {}
    for j in map(int, order):
        if scores[j] <= MIN_INFORMATIVE_SCORE and len(taken) >= lo:
            break
        ch = channels[j]
        if per_channel.get(ch, 0) >= MAX_UNITS_PER_CHANNEL:
            continue
        taken.append(j)
        per_channel[ch] = per_channel.get(ch, 0) + 1
        if len(taken) >= hi:
            break
    return sorted(taken)


def train_ensemble(counts: np.ndarray, velocity: np.ndarray, unit_channels) -> EnsembleModel:
    """Multivariate regression of velocity on the rates of the units that
    :func:`select_neurons` picks.

    No intercept: the ensemble estimate must be exactly E z so the implant
    can produce it by column accumulation alone.
    """
    Z = np.asarray(counts, dtype=np.float64)
    X = np.asarray(velocity, dtype=np.float64)
    unit_indices = select_neurons(Z, X, unit_channels)
    Zs = Z[:, unit_indices]
    coef = _ridge(Zs, X)
    ranks = within_channel_ranks(unit_channels)
    return EnsembleModel(E=coef.T, Qe=_residual_cov(X - Zs @ coef),
                         selected=tuple(ranks[j] for j in unit_indices))


def selection_columns(selected, unit_channels) -> np.ndarray:
    """Session unit index for each (channel, within-channel id) pair."""
    lookup = {pair: j for j, pair in enumerate(within_channel_ranks(unit_channels))}
    try:
        return np.array([lookup[(int(c), int(u))] for c, u in selected], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"selected unit {exc.args[0]} not present in session") from exc


# ---------------------------------------------------------------------------
# filter steps
# ---------------------------------------------------------------------------


def _predict(fs: FilterState, trans: StateTransitionModel,
             ops: StepOps | None) -> tuple:
    x = mat_mul(trans.A, fs.x, _phase(ops, "state_predict"))
    cp = _phase(ops, "cov_predict")
    P = mat_mul(mat_mul(trans.A, fs.P, cp), trans.A.T, cp)
    P = _sym(mat_add(P, trans.W, cp))
    return x, P


def kf_step(fs: FilterState, trans: StateTransitionModel,
            obs: StandardObservationModel, z: np.ndarray,
            ops: StepOps | None = None) -> FilterState:
    """One predict/update cycle of the standard filter on a raw rate vector."""
    x, P = _predict(fs, trans, ops)
    g = _phase(ops, "gain")
    PHt = mat_mul(P, obs.H.T, g)
    S = mat_add(mat_mul(obs.H, PHt, g), obs.Q, g)
    K = ldl_solve(S, PHt.T, g, name="innovation covariance (H P H' + Q)").T
    su = _phase(ops, "state_update")
    z = np.asarray(z, dtype=np.float64)
    v = mat_sub(z, mat_mul(obs.H, x, su), su)
    x = mat_add(x, mat_mul(K, v, su), su)
    cu = _phase(ops, "cov_update")
    M = mat_sub(np.eye(P.shape[0]), mat_mul(K, obs.H, cu), cu)
    P = _sym(mat_mul(M, P, cu))
    return FilterState(x=x, P=P, K=K)


def eokf_step(fs: FilterState, trans: StateTransitionModel, ens: EnsembleModel,
              ez: np.ndarray, ops: StepOps | None = None) -> FilterState:
    """One cycle of the ensemble-observation filter.

    *ez* is the already-reduced observation (the implant accumulator's bin
    emission). Every matrix here is state_dim-sized; the gain needs only a
    closed-form small inverse.
    """
    x, P = _predict(fs, trans, ops)
    g = _phase(ops, "gain")
    S = mat_add(P, ens.Qe, g)
    Sinv = inv_small(S, g, name="innovation covariance (P + Qe)")
    K = mat_mul(P, Sinv, g)
    su = _phase(ops, "state_update")
    v = mat_sub(np.asarray(ez, dtype=np.float64), x, su)
    x = mat_add(x, mat_mul(K, v, su), su)
    cu = _phase(ops, "cov_update")
    M = mat_sub(np.eye(P.shape[0]), K, cu)
    P = _sym(mat_mul(M, P, cu))
    return FilterState(x=x, P=P, K=K)


def reduce_observation(ens: EnsembleModel, z: np.ndarray,
                       ops: OpCounts | None = None) -> np.ndarray:
    """Rate vector -> state-space estimate E z (the 'observe' reduction)."""
    return mat_mul(ens.E, np.asarray(z, dtype=np.float64), ops)


def ensemble_ez(ens: EnsembleModel, counts: np.ndarray,
                fmt: "FixedPointFormat | None" = None,
                ops: OpCounts | None = None) -> np.ndarray:
    """Per-bin E z of an (n_bins, n_selected) count stream.

    Float mode is ``E @ counts[k]`` bin by bin, the expression of ``emit_bin``
    (one product over all bins could sum in another order). With *fmt*, each
    bin is an exact integer sum of quantized columns scaled by the LSB, the
    fixed-point implant datapath. *ops* gets the ``mat_mul`` cost of every bin.
    """
    Z = np.asarray(counts, dtype=np.int64)
    (n, _), (d, s) = Z.shape, ens.E.shape
    if ops is not None:
        ops.mult += n * d * s
        ops.add += n * d * (s - 1)
    if fmt is not None:
        return fmt.dequantize(Z @ fmt.quantize(ens.E).T)
    ez = np.empty((n, d))
    for k in range(n):
        ez[k] = ens.E @ Z[k].astype(np.float64)
    return ez


def run_filter(trans: StateTransitionModel, model, stream: np.ndarray,
               x0=None, P0=None) -> tuple:
    """One filter step per row of *stream*; returns (states, StepOps).

    The observation model's ``kind`` picks the step: ``kf_step`` on raw rate
    vectors for a ``StandardObservationModel``, ``eokf_step`` on E z for an
    ``EnsembleModel``.
    """
    step = {"kf": kf_step, "eokf": eokf_step}.get(getattr(model, "kind", None))
    if step is None:
        raise TypeError(f"no filter step for a {type(model).__name__}")
    d = trans.A.shape[0]
    fs = FilterState(x=np.zeros(d) if x0 is None else np.array(x0, dtype=np.float64),
                     P=np.eye(d) if P0 is None else np.array(P0, dtype=np.float64))
    Z = np.asarray(stream, dtype=np.float64)
    ops = StepOps()
    out = np.empty((Z.shape[0], d))
    for k in range(Z.shape[0]):
        fs = step(fs, trans, model, Z[k], ops)
        out[k] = fs.x
    return out, ops


def run_kf(trans: StateTransitionModel, obs: StandardObservationModel,
           counts: np.ndarray, x0=None, P0=None) -> tuple:
    """Filter a whole session of raw rate vectors; returns (states, StepOps)."""
    return run_filter(trans, obs, counts, x0, P0)


def run_eokf(trans: StateTransitionModel, ens: EnsembleModel,
             counts_selected: np.ndarray, x0=None, P0=None,
             fmt: "FixedPointFormat | None" = None) -> tuple:
    """Monolithic ensemble filter over per-bin selected-unit counts.

    With *fmt* given, the reduction uses the quantized weights (integer
    column sums scaled back by the format's LSB), mirroring the fixed-point
    implant datapath. Both modes tally the reduction in the ``observe`` phase.
    """
    observe = OpCounts()
    ez = ensemble_ez(ens, counts_selected, fmt, observe)
    states, ops = run_filter(trans, ens, ez, x0, P0)
    ops.phases["observe"] += observe
    return states, ez, ops


# ---------------------------------------------------------------------------
# binning and the implant-side accumulator
# ---------------------------------------------------------------------------


def _pair_columns(selected, channel, unit) -> np.ndarray:
    """Column of each (channel, unit) pair in *selected*; -1 if unselected.

    The rule of a ``{pair: column}`` dict over *selected* (a repeated pair
    maps to its last column), for any integer channel and unit ids. Each
    pair inside the bounding box of the selected pairs is numbered row by
    row, and one ``searchsorted`` over the sorted numbers of the selected
    pairs finds it.
    """
    index = {(int(c), int(u)): j for j, (c, u) in enumerate(selected)}
    ch = np.asarray(channel, dtype=np.int64)
    un = np.asarray(unit, dtype=np.int64)
    col = np.full(ch.shape, -1, dtype=np.int64)
    if not index:
        return col
    pairs = sorted(index)
    c0, c1 = pairs[0][0], pairs[-1][0]
    u0, u1 = min(u for _, u in pairs), max(u for _, u in pairs)
    width = u1 - u0 + 1
    if (c1 - c0 + 1) * width >= 2 ** 63:   # the numbers would overflow int64
        col.flat[:] = [index.get(p, -1) for p in zip(ch.flat, un.flat)]
        return col
    inside = (ch >= c0) & (ch <= c1) & (un >= u0) & (un <= u1)
    number = (ch[inside] - c0) * width + (un[inside] - u0)
    numbers = np.array([(c - c0) * width + (u - u0) for c, u in pairs], dtype=np.int64)
    at = np.minimum(np.searchsorted(numbers, number), len(pairs) - 1)
    hit = numbers[at] == number
    cols = np.array([index[p] for p in pairs], dtype=np.int64)
    col[inside] = np.where(hit, cols[at], -1)
    return col


def _bin_columns(events, n_bins: int, bin_len: int, selected) -> tuple:
    """(bin, column) of every (t, channel, unit) event row.

    The column is -1 for an unselected pair and for a time outside the binned
    span [0, n_bins*bin_len).
    """
    if bin_len < 1:
        raise ValueError("bin_len must be positive")
    ev = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    b = ev[:, 0] // bin_len
    col = _pair_columns(selected, ev[:, 1], ev[:, 2])
    col[(b < 0) | (b >= n_bins)] = -1
    return b, col


def _bin_counts(b: np.ndarray, col: np.ndarray, n_bins: int, s: int) -> np.ndarray:
    """(n_bins, s) int64 event counts of the rows with a column."""
    keep = col >= 0
    flat = np.bincount(b[keep] * s + col[keep], minlength=n_bins * s)
    return flat.astype(np.int64, copy=False).reshape(n_bins, s)


def bin_spikes(events, n_bins: int, bin_len: int, selected) -> np.ndarray:
    """Count sorted events into half-open bins [k*bin_len, (k+1)*bin_len).

    *events* rows are (t, channel, unit); only (channel, unit) pairs in
    *selected* are counted, in the column order of *selected*. Event order is
    irrelevant. Events outside the binned span are dropped.
    """
    b, col = _bin_columns(events, n_bins, bin_len, selected)
    return _bin_counts(b, col, n_bins, len(selected))


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point layout: value = integer * 2**(-frac_bits)."""

    bits: int = 16
    frac_bits: int = 0

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def lsb(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @classmethod
    def for_matrix(cls, M: np.ndarray) -> "FixedPointFormat":
        """Largest power-of-two scale that keeps every entry of *M* in the
        default 16-bit word."""
        a = float(np.abs(np.asarray(M, dtype=np.float64)).max(initial=0.0))
        if a == 0.0:
            return cls()
        qmax = cls().qmax
        s = int(np.floor(np.log2(qmax / a)))
        while round(a * 2.0 ** s) > qmax:
            s -= 1
        return cls(frac_bits=s)

    def quantize(self, M: np.ndarray) -> np.ndarray:
        q = np.rint(np.asarray(M, dtype=np.float64) * 2.0 ** self.frac_bits)
        if np.any(q > self.qmax) or np.any(q < -self.qmax - 1):
            raise ValueError(f"values exceed the {self.bits}-bit range")
        return q.astype(np.int64)

    def dequantize(self, Q: np.ndarray) -> np.ndarray:
        return np.asarray(Q, dtype=np.float64) * self.lsb

    def to_json(self) -> dict:
        return {"bits": self.bits, "frac_bits": self.frac_bits}

    @classmethod
    def from_json(cls, obj: dict) -> "FixedPointFormat":
        # the implant accumulator that adds these words is 32-bit
        return cls(bits=_checked_int(obj["bits"], "bits", 2, 32),
                   frac_bits=_checked_int(obj["frac_bits"], "frac_bits"))


class ImplantAccumulator:
    """Implant-side half of the computation split: one add per spike event.

    Without a format the accumulator keeps exact integer per-unit counts and
    multiplies by E only at bin emission, so the emitted vector is
    bit-identical to E @ bin_counts no matter the event order. Given a
    format *fmt* it works in fixed point: it adds the quantized E column into
    a 32-bit accumulator on every event — the literal hardware datapath —
    and emission rescales by the format's LSB.

    ``accumulate`` and ``emit_bin`` model that datapath one event and one bin
    at a time; they are the oracle of ``accumulate_bins``, which takes a whole
    event stream at once and gives the same bits.
    """

    def __init__(self, ens: EnsembleModel, fmt: FixedPointFormat | None = None):
        self.ens = ens
        self.fmt = fmt
        self._index = {pair: j for j, pair in enumerate(ens.selected)}
        d, s = ens.E.shape
        if fmt is not None:
            self._eq = fmt.quantize(ens.E)
            self._acc = np.zeros(d, dtype=np.int64)
        else:
            self._counts = np.zeros(s, dtype=np.int64)
        self.events_accumulated = 0
        self.dropped = 0

    def accumulate(self, channel: int, unit: int) -> bool:
        """Add one spike event; returns False (and counts it) if unselected."""
        j = self._index.get((int(channel), int(unit)))
        if j is None:
            self.dropped += 1
            return False
        if self.fmt is not None:
            self._acc += self._eq[:, j]
            if np.any(np.abs(self._acc) > INT32_MAX):
                raise ArithmeticError("implant accumulator exceeded 32-bit range")
        else:
            self._counts[j] += 1
        self.events_accumulated += 1
        return True

    def emit_bin(self) -> np.ndarray:
        """Close the bin: return the reduced observation and reset."""
        if self.fmt is not None:
            ez = self.fmt.dequantize(self._acc)
            self._acc[:] = 0
        else:
            ez = self.ens.E @ self._counts.astype(np.float64)
            self._counts[:] = 0
        return ez

    def accumulate_bins(self, events, n_bins: int, bin_len: int) -> np.ndarray:
        """Accumulate a whole (t, channel, unit) stream; (n_bins, d) ez per bin.

        Gives the bits of ``accumulate`` on every event in bin order (stable:
        by bin, then input order) with ``emit_bin`` at each bin's end. An
        event whose pair is unselected or whose time lies outside
        [0, n_bins*bin_len) counts as dropped, as ``bin_spikes`` drops it.
        The emission is ``ensemble_ez`` of the bin counts. Fixed point also
        raises ``ArithmeticError`` if any per-event running sum inside a
        bin leaves the 32-bit range, even one that is back in range by the
        bin's end; the counters are then left unchanged. A bin in progress
        from ``accumulate`` is neither read nor reset.
        """
        b, col = _bin_columns(events, n_bins, bin_len, self.ens.selected)
        d, s = self.ens.E.shape
        counts = _bin_counts(b, col, n_bins, s)
        per_bin = counts.sum(axis=1)
        if self.fmt is not None:
            # running sums over the whole stream in accumulate order, less
            # the running sum at each bin's start: the accumulator in each bin
            keep = col >= 0
            run = self._eq.T[col[keep][np.argsort(b[keep], kind="stable")]]
            np.cumsum(run, axis=0, out=run)
            start = np.cumsum(per_bin) - per_bin
            run -= np.repeat(np.vstack([np.zeros((1, d), np.int64), run])[start],
                             per_bin, axis=0)
            if run.max(initial=0) > INT32_MAX or run.min(initial=0) < -INT32_MAX:
                raise ArithmeticError("implant accumulator exceeded 32-bit range")
        ez = ensemble_ez(self.ens, counts, self.fmt)
        n_kept = int(per_bin.sum())
        self.events_accumulated += n_kept
        self.dropped += b.size - n_kept
        return ez


def run_eokf_split(trans: StateTransitionModel, ens: EnsembleModel, events,
                   n_bins: int, bin_len: int, mode: str = "float",
                   fmt: FixedPointFormat | None = None,
                   x0=None, P0=None) -> tuple:
    """Implant accumulation of an event stream feeding the prosthesis filter.

    The accumulator bins the whole stream at once (``accumulate_bins``, bit
    for bit the per-event datapath), then one filter step runs per bin.
    Returns (states, emitted ez per bin, StepOps, accumulator). Functionally
    interchangeable with run_eokf over bin_spikes of the same events: both
    drop unselected pairs and times outside [0, n_bins*bin_len), and
    ``acc.events_accumulated + acc.dropped`` is the number of events. A
    format *fmt* makes the accumulator fixed point; ``mode="fixed"`` without
    one takes ``FixedPointFormat.for_matrix(ens.E)``.
    """
    if mode == "fixed":
        fmt = fmt if fmt is not None else FixedPointFormat.for_matrix(ens.E)
    elif mode != "float":
        raise ValueError(f"unknown accumulator mode {mode!r}")
    acc = ImplantAccumulator(ens, fmt)
    ez_stream = acc.accumulate_bins(events, n_bins, bin_len)
    states, ops = run_filter(trans, ens, ez_stream, x0, P0)
    return states, ez_stream, ops, acc


# ---------------------------------------------------------------------------
# op-count reporting
# ---------------------------------------------------------------------------


def count_ops(kind: str, n_neurons: int, state_dim: int = DEFAULT_STATE_DIM) -> dict:
    """Measured per-step operation counts for one filter at given sizes.

    Builds well-conditioned synthetic models, runs one bin through ``run_kf``
    or ``run_eokf``, and reports per-phase and total counts.
    """
    if kind not in ("kf", "eokf"):
        raise ValueError(f"unknown filter kind {kind!r}")
    rng = np.random.default_rng(12345)
    d, n = state_dim, n_neurons
    trans = StateTransitionModel(A=0.9 * np.eye(d), W=0.1 * np.eye(d))
    z = rng.poisson(3.0, size=(1, n))
    if kind == "kf":
        obs = StandardObservationModel(H=rng.standard_normal((n, d)), Q=np.eye(n))
        _, ops = run_kf(trans, obs, z)
    else:
        ranks = [(j // MAX_UNITS_PER_CHANNEL, j % MAX_UNITS_PER_CHANNEL)
                 for j in range(n)]
        ens = EnsembleModel(E=0.1 * rng.standard_normal((d, n)),
                            Qe=0.1 * np.eye(d), selected=tuple(ranks))
        _, _, ops = run_eokf(trans, ens, z)
    return {"kind": kind, "n_neurons": int(n), "state_dim": int(d),
            **ops.as_dict()}


# ---------------------------------------------------------------------------
# reconstruction evaluation
# ---------------------------------------------------------------------------


def evaluate_reconstruction(decoded: np.ndarray, truth: np.ndarray) -> dict:
    """Residual summary of a decoded velocity stream against ground truth.

    mse averages squared error over all bins and components. The residual
    norm per bin also comes back raw, keyed by the true movement direction
    and speed, for evenness analysis across reach directions.
    """
    D = np.asarray(decoded, dtype=np.float64)
    T = np.asarray(truth, dtype=np.float64)
    if D.shape != T.shape:
        raise ValueError("decoded and truth streams must align")
    res = D - T
    rnorm = np.linalg.norm(res, axis=1)
    return {"mse": float(np.mean(res ** 2)),
            "residual_std": float(rnorm.std()),
            "residual_kurtosis": float(stats.kurtosis(rnorm, fisher=False)),
            "residual_norm": rnorm,
            "direction": np.arctan2(T[:, 1], T[:, 0]),
            "speed": np.linalg.norm(T, axis=1)}


def per_direction_stats(decoded: np.ndarray, truth: np.ndarray) -> tuple:
    """Mean |residual| per direction sector, variance across sectors, occupancy.

    Sectors are centered on k * 2pi/N_SECTORS so movements along the canonical
    center-out target angles never straddle a sector edge.  Returns
    ``(means, variance, counts)`` where ``counts[s]`` is the number of bins
    that fell in sector ``s``; empty sectors contribute NaN means and are
    excluded from the variance.
    """
    ev = evaluate_reconstruction(decoded, truth)
    width = 2 * np.pi / N_SECTORS
    ang = np.mod(ev["direction"] + width / 2, 2 * np.pi)
    sector = np.minimum((ang / width).astype(int), N_SECTORS - 1)
    means = np.full(N_SECTORS, np.nan)
    counts = np.zeros(N_SECTORS, dtype=np.int64)
    for s in range(N_SECTORS):
        mask = sector == s
        counts[s] = int(mask.sum())
        if mask.any():
            means[s] = ev["residual_norm"][mask].mean()
    filled = means[~np.isnan(means)]
    return means, float(filled.var()), counts


def best_single_neuron_decoder(counts: np.ndarray, velocity: np.ndarray) -> tuple:
    """Strongest single-unit linear decoder on the training data.

    Fits velocity ~ rate + intercept per unit and returns
    (unit index, predictions) of the lowest-MSE unit; ties keep the lowest
    index.
    """
    Z = np.asarray(counts, dtype=np.float64)
    X = np.asarray(velocity, dtype=np.float64)
    best = None
    for j in range(Z.shape[1]):
        zj = Z[:, [j]]
        F = np.hstack([zj, np.ones_like(zj)])
        pred = F @ _ridge(F, X)
        mse = float(np.mean((pred - X) ** 2))
        if best is None or mse < best[0]:
            best = (mse, int(j), pred)
    if best is None:
        raise ValueError("no units to evaluate")
    return best[1], best[2]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@dataclass
class DecoderBundle:
    """Everything needed to decode: models, start state, optional fixed point.

    The observation model picks the filter, as in ``run_filter``, and ``kind``
    reads its name back: "kf" or "eokf"."""

    transition: StateTransitionModel
    observation: StandardObservationModel | EnsembleModel
    x0: np.ndarray | None = None
    P0: np.ndarray | None = None
    bin_ms: int = 100
    fixed: FixedPointFormat | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.transition.A.shape[0]
        if self.x0 is None:
            self.x0 = np.zeros(d)
        if self.P0 is None:
            self.P0 = np.eye(d)
        self.x0 = np.asarray(self.x0, dtype=np.float64)
        self.P0 = np.asarray(self.P0, dtype=np.float64)

    @property
    def kind(self) -> str:
        return self.observation.kind

    @property
    def state_dim(self) -> int:
        return self.transition.A.shape[0]

    def to_json(self) -> dict:
        obs = self.observation
        obj = {"kind": self.kind, "state_dim": self.state_dim,
               "bin_ms": int(self.bin_ms),
               "A": self.transition.A.tolist(), "W": self.transition.W.tolist(),
               "x0": self.x0.tolist(), "P0": self.P0.tolist(),
               "meta": dict(self.meta)}
        if self.kind == "kf":
            obj.update(H=obs.H.tolist(), Q=obs.Q.tolist())
        else:
            obj.update(E=obs.E.tolist(), Qe=obs.Qe.tolist(),
                       selected=[[c, u] for c, u in obs.selected])
        if self.fixed is not None:
            obj["fixed_point"] = self.fixed.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DecoderBundle":
        try:
            trans = StateTransitionModel(A=np.array(obj["A"]), W=np.array(obj["W"]))
            if obj["kind"] == "kf":
                obs = StandardObservationModel(H=np.array(obj["H"]), Q=np.array(obj["Q"]))
            elif obj["kind"] == "eokf":
                obs = EnsembleModel(E=np.array(obj["E"]), Qe=np.array(obj["Qe"]),
                                    selected=obj["selected"])
            else:
                raise ValueError(f"unknown decoder kind {obj['kind']!r}")
            fixed = None
            if obj.get("fixed_point") is not None:
                fixed = FixedPointFormat.from_json(obj["fixed_point"])
            return cls(transition=trans, observation=obs,
                       x0=np.array(obj["x0"]), P0=np.array(obj["P0"]),
                       bin_ms=_checked_int(obj.get("bin_ms", 100), "bin_ms", 1),
                       fixed=fixed, meta=dict(obj.get("meta", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise PayloadError(f"bad decoder model: {exc}") from exc


def store_decoder(bundle: DecoderBundle, path: str) -> None:
    atomic_write_text(path, json.dumps(bundle.to_json(), indent=1, sort_keys=True) + "\n")


def load_decoder(path: str) -> DecoderBundle:
    return DecoderBundle.from_json(load_document(path))


def store_decoded(path: str, states: np.ndarray) -> None:
    """Decoded kinematics CSV: bin,vx,vy[,vz]."""
    S = np.asarray(states, dtype=np.float64)
    names = ["vx", "vy", "vz"][: S.shape[1]]
    lines = ["bin," + ",".join(names)]
    for k, row in enumerate(S):
        lines.append(f"{k}," + ",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_decoded(path: str) -> np.ndarray:
    lines = [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("bin,"):
        raise PayloadError(f"{path}: not a decoded-kinematics CSV")
    width = len(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise PayloadError(f"{path}:{lineno}: expected {width} columns, "
                               f"got {len(parts)}")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise PayloadError(f"{path}:{lineno}: {exc}") from exc
    return np.array(rows, dtype=np.float64)
