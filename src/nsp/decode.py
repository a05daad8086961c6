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

Every op count is measured, not estimated: the counted kernels in opcount
tally each filter step by named phase (state_predict, cov_predict, gain,
state_update, cov_update, plus the event-driven observe reduction). The
explicit re-symmetrization of P after the covariance update is numerical
hygiene and is excluded from the counters. Per-step counts depend only on
the shapes, so a run counts one step and scales it by the bin count.

Each filter kind has one gain function, ``_kf_gain`` or ``_eokf_gain``,
mapping a posterior P to the next step's (P, K), with op counts or without;
it is the only covariance and gain code. The counted step calls it with
counts; the uncounted one, ``_gain_step``, calls it without and remembers
its gains: the covariance and gain recursion never reads the observation, so
the bytes of the posterior P the filter computed fix a step's (P, K). Once P
repeats, the memo holds the gain and the step updates only the state, with
the counted step's ``np.matmul`` calls, in ``run_filter`` and bin by bin
alike; the counted step is the oracle of that update.

Each observation model names its filter in ``kind`` ("kf" or "eokf"), so the
model alone picks the filter: every decode path feeds ``run_filter``, which
steps the filter the model names, and a ``DecoderBundle`` stores only the
model. Every per-bin E z reduction, float or fixed point, is ``ensemble_ez``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from ._util import atomic_write_text
from .opcount import OpCounts, inv_small, ldl_solve, mat_add, mat_mul, mat_sub
from .synthdata import (Array, Int, List, Obj, PayloadError, check,
                        load_document, read_text)

RIDGE_EPS = 1e-6
DEFAULT_STATE_DIM = 2
MAX_UNITS_PER_CHANNEL = 3
PAIR_ID_BITS = 31          # channel and unit ids of a selected pair lie in 0..2**31-1
TARGET_ENSEMBLE_RANGE = (20, 50)
MIN_INFORMATIVE_SCORE = 0.01
N_SECTORS = 8              # direction sectors of per_direction_stats
INT32_MAX = 2**31 - 1
GAIN_MEMO_CAP = 4096       # posteriors one gain memo records at most
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)   # 2**64 / golden ratio, odd: Selection's hash

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


class Selection:
    """The selected (channel, unit) pairs, one E column each: the one lookup
    between the sorters and the E z accumulator. ``column`` maps a pair to
    its column for the per-event paths, ``columns`` looks up whole id arrays
    for the batched ones, and ``channels`` holds the channels with a unit.
    Pairs must be distinct, at most MAX_UNITS_PER_CHANNEL per channel, with
    both ids in 0..2**PAIR_ID_BITS-1, so one int64 ``c << PAIR_ID_BITS | u``
    numbers each pair; a selection that breaks a rule is a malformed model, a
    PayloadError.

    ``columns`` reads an open-addressing table of the pair numbers: a power of
    two of at least 8 slots per pair, so the load is 1/8 or below, homed by
    Fibonacci hashing (the top bits of ``number * 0x9E3779B97F4A7C15`` mod
    2**64) and probed linearly. Every lookup makes as many gather-and-compare
    rounds as the longest probe chain of the build, one or two on the
    selections the benchmark trains. A decoder file picks its own ids, so a
    chain, and with it every lookup, can take as many probes as there are
    pairs; the table's memory follows the pair count, never the ids.
    """

    def __init__(self, selected):
        self.pairs = tuple((int(c), int(u)) for c, u in selected)
        self.column = {pair: j for j, pair in enumerate(self.pairs)}
        if len(self.column) < len(self.pairs):
            raise PayloadError("a selected (channel, unit) pair is repeated")
        for c, u in self.pairs:
            if (c | u) >> PAIR_ID_BITS:         # nonzero for a negative id too
                raise PayloadError(f"selected id outside 0..2**{PAIR_ID_BITS}-1: ({c}, {u})")
        per_channel = Counter(c for c, _ in self.pairs)
        if max(per_channel.values(), default=0) > MAX_UNITS_PER_CHANNEL:
            raise PayloadError(f"more than {MAX_UNITS_PER_CHANNEL} units on one channel")
        self.channels = frozenset(per_channel)
        number = np.array([c << PAIR_ID_BITS | u for c, u in self.pairs], dtype=np.int64)
        bits = max(3, (8 * len(number) - 1).bit_length())
        self._shift, self._mask = np.uint64(64 - bits), (1 << bits) - 1
        stored, self._probes = {}, 0         # slot -> column of the pair stored there
        for j, at in enumerate(self._home(number).tolist()):
            probes = 1
            while at in stored:
                at, probes = (at + 1) & self._mask, probes + 1
            stored[at] = j
            self._probes = max(self._probes, probes)
        slot, j = list(stored), list(stored.values())
        # an empty slot holds a key below -1, the number of any query out of range
        self._keys = np.full(1 << bits, -2, dtype=np.int64)
        self._keys[slot] = number[j]
        self._slots = np.full(1 << bits, -1, dtype=np.int64)
        self._slots[slot] = j

    def _home(self, number: np.ndarray) -> np.ndarray:
        """First table slot (intp) of each int64 pair number."""
        return ((number.view(np.uint64) * _FIBONACCI) >> self._shift).view(np.intp)

    def columns(self, channel, unit) -> np.ndarray:
        """int64 column of each (channel[i], unit[i]) pair; -1 if unselected."""
        ch, un = np.asarray(channel, dtype=np.int64), np.asarray(unit, dtype=np.int64)
        number = np.where((ch | un) >> PAIR_ID_BITS == 0, ch << PAIR_ID_BITS | un, -1)
        at, col = self._home(number), np.full(number.shape, -1, dtype=np.int64)
        for _ in range(self._probes):
            col = np.where(self._keys[at] == number, self._slots[at], col)
            at = (at + 1) & self._mask
        return col


@dataclass
class EnsembleModel:
    kind = "eokf"

    E: np.ndarray        # (d, n_selected) regression weights
    Qe: np.ndarray       # (d, d) residual covariance
    selected: tuple      # ((channel, within-channel unit id), ...) per E column
    selection: Selection = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=np.float64)
        self.Qe = np.asarray(self.Qe, dtype=np.float64)
        self.selection = Selection(self.selected)
        self.selected = self.selection.pairs
        if self.E.ndim != 2 or self.E.shape[1] != len(self.selected):
            raise ValueError("one selected (channel, unit) pair per E column")


@dataclass
class FilterState:
    """``memo`` is the gain memo that ``_gain_step`` passes on, for the one
    (trans, model) pair it was built under, which must not change in place;
    a state built by hand has none."""
    x: np.ndarray                 # (d,) velocity estimate
    P: np.ndarray                 # (d_obs-appropriate) error covariance
    K: np.ndarray | None = None   # gain from the last update
    memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


def _predict_cov(P: np.ndarray, trans: StateTransitionModel, ops: StepOps | None) -> np.ndarray:
    cp = _phase(ops, "cov_predict")
    return _sym(mat_add(mat_mul(mat_mul(trans.A, P, cp), trans.A.T, cp), trans.W, cp))


def _observations(z, kind: str, width: int, ndim: int = 1) -> np.ndarray:
    """*z* as float64: one observation (*ndim* 1) or a stream of them, one
    per row (*ndim* 2). ValueError unless each is *width* wide, for a filter
    step would broadcast a narrower one through its innovation."""
    Z = np.asarray(z, dtype=np.float64)
    if Z.ndim != ndim or Z.shape[-1] != width:
        what = "stream" if ndim == 2 else "observation"
        raise ValueError(f"{what} has shape {Z.shape}; the {kind} filter "
                         f"needs rows of width {width}")
    return Z


def kf_step(fs: FilterState, trans: StateTransitionModel,
            obs: StandardObservationModel, z: np.ndarray,
            ops: StepOps | None = None) -> FilterState:
    """One predict/update cycle of the standard filter on a raw rate vector,
    as wide as H has rows, or ValueError: ``_step`` with or without *ops*."""
    return _step(fs, trans, obs, _observations(z, "kf", obs.H.shape[0]), ops)


def eokf_step(fs: FilterState, trans: StateTransitionModel, ens: EnsembleModel,
              ez: np.ndarray, ops: StepOps | None = None) -> FilterState:
    """One cycle of the ensemble-observation filter: ``_step`` with or
    without *ops*.

    *ez* is the already-reduced observation (the implant accumulator's bin
    emission), d wide, or ValueError. Every matrix here is state_dim-sized;
    the gain needs only a closed-form small inverse.
    """
    return _step(fs, trans, ens, _observations(ez, "eokf", trans.A.shape[0]), ops)


def _kf_gain(trans: StateTransitionModel, obs: StandardObservationModel,
             P: np.ndarray, ops: StepOps | None = None) -> tuple:
    """(P, K) of the standard filter's step from posterior *P*."""
    P = _predict_cov(P, trans, ops)
    g = _phase(ops, "gain")
    PHt = mat_mul(P, obs.H.T, g)
    S = mat_add(mat_mul(obs.H, PHt, g), obs.Q, g)
    K = ldl_solve(S, PHt.T, g, name="innovation covariance (H P H' + Q)").T
    cu = _phase(ops, "cov_update")
    M = mat_sub(np.eye(P.shape[0]), mat_mul(K, obs.H, cu), cu)
    return _sym(mat_mul(M, P, cu)), K


def _eokf_gain(trans: StateTransitionModel, ens: EnsembleModel,
               P: np.ndarray, ops: StepOps | None = None) -> tuple:
    """(P, K) of the ensemble filter's step from posterior *P*: H is the
    identity, so the gain is P (P + Qe)^-1."""
    P = _predict_cov(P, trans, ops)
    g = _phase(ops, "gain")
    S = mat_add(P, ens.Qe, g)
    Sinv = inv_small(S, g, name="innovation covariance (P + Qe)")
    K = mat_mul(P, Sinv, g)
    cu = _phase(ops, "cov_update")
    M = mat_sub(np.eye(P.shape[0]), K, cu)
    return _sym(mat_mul(M, P, cu)), K


def _step(fs: FilterState, trans: StateTransitionModel, model, z: np.ndarray,
          ops: StepOps | None) -> FilterState:
    """The step of the model's ``kind`` from *fs* on a checked *z*.

    With *ops* this is the counted step, the source of every op count and
    the oracle of the uncounted one: predict x, take (P, K) from the kind's
    gain function, then update x. Without, it is ``_gain_step`` on the
    state's (x, P, memo), the memo carried to the state it returns.
    """
    if ops is None:
        x, P, K, memo = _gain_step(trans, model, fs.x, fs.P, z, fs.memo)
        out = FilterState(x=x, P=P, K=K)
        out.memo = memo
        return out
    x = mat_mul(trans.A, fs.x, _phase(ops, "state_predict"))
    P, K = (_kf_gain if model.kind == "kf" else _eokf_gain)(trans, model, fs.P, ops)
    su = _phase(ops, "state_update")
    v = mat_sub(z, x if model.kind == "eokf" else mat_mul(model.H, x, su), su)
    return FilterState(x=mat_add(x, mat_mul(K, v, su), su), P=P, K=K)


def _gain_step(trans: StateTransitionModel, model, x: np.ndarray, P: np.ndarray,
               z: np.ndarray, memo: tuple | None) -> tuple:
    """The uncounted step of the model's ``kind`` from (x, P) on *z*; returns
    (x, P, K, memo). *memo* is (trans, model, table), the table mapping a
    posterior P's bytes to the read-only (P, K) its step gave, up to
    GAIN_MEMO_CAP entries. A memo of another pair, or None, becomes an empty
    one, and *P*, perhaps a caller's in another layout, is not a key. A P
    the table lacks goes through the kind's gain function without counts.
    The state update is the counted step's, with the same ``np.matmul``
    calls."""
    own = memo is not None and memo[0] is trans and memo[1] is model
    key, memo = (P.tobytes(), memo) if own else (None, (trans, model, {}))
    gain = memo[2].get(key)
    if gain is None:
        gain = (_kf_gain if model.kind == "kf" else _eokf_gain)(trans, model, P)
        if key is not None and len(memo[2]) < GAIN_MEMO_CAP:
            gain[0].flags.writeable = gain[1].flags.writeable = False
            memo[2][key] = gain
    P, K = gain
    x = np.matmul(trans.A, x[:, None])[:, 0]
    v = z - (x if model.kind == "eokf" else np.matmul(model.H, x[:, None])[:, 0])
    return x + np.matmul(K, v[:, None])[:, 0], P, K, memo


def reduce_observation(ens: EnsembleModel, z: np.ndarray,
                       ops: OpCounts | None = None) -> np.ndarray:
    """Rate vector -> state-space estimate E z (the 'observe' reduction)."""
    return mat_mul(ens.E, np.asarray(z, dtype=np.float64), ops)


def ensemble_ez(ens: EnsembleModel, counts: np.ndarray,
                fmt: "FixedPointFormat | None" = None,
                ops: OpCounts | None = None) -> np.ndarray:
    """Per-bin E z of an (n_bins, n_selected) count stream.

    This is the per-bin path; the counted ``reduce_observation`` measures
    the cost, and ``emit_bin``'s ``E @ counts[k]`` is the oracle of its bits.
    Float mode is one stacked ``np.matmul`` of E with each bin's counts as a
    column (one product over all bins could sum in another order), read from
    a C-ordered float copy so that every bin is a BLAS matrix-vector product
    whatever the input's layout. With *fmt*, each bin is an exact integer
    sum of quantized columns scaled by the LSB, the fixed-point implant
    datapath. *ops* gets ``reduce_observation``'s count for every bin.
    """
    Z = np.asarray(counts, dtype=np.int64)
    (n, _), (d, s) = Z.shape, ens.E.shape
    if ops is not None:
        ops.mult += n * d * s
        ops.add += n * d * (s - 1)
    if fmt is not None:
        return fmt.dequantize(Z @ fmt.quantize(ens.E).T)
    columns = np.ascontiguousarray(Z, dtype=np.float64)[:, :, None]
    return np.matmul(ens.E, columns)[:, :, 0]


def run_filter(trans: StateTransitionModel, model, stream: np.ndarray,
               x0=None, P0=None) -> tuple:
    """One filter step per row of *stream*; returns (states, StepOps).

    The observation model's ``kind`` picks the step: ``kf_step`` on raw rate
    vectors for a ``StandardObservationModel``, ``eokf_step`` on E z for an
    ``EnsembleModel``. Each row must be as wide as the filter's observation,
    H's rows for kf and the state size d for eokf, or ValueError.

    The first row runs the counted step, whose counts times the row count
    are the StepOps. Later rows run ``_gain_step`` on local (x, P, memo), the
    step of ``kf_step`` and ``eokf_step`` without *ops*, with their bits. A P
    that never repeats, as under A = I and W = 0, runs the full step each row.
    """
    kind = getattr(model, "kind", None)
    if kind not in ("kf", "eokf"):
        raise TypeError(f"no filter step for a {type(model).__name__}")
    d = trans.A.shape[0]
    Z = _observations(stream, kind, d if kind == "eokf" else model.H.shape[0], ndim=2)
    fs = FilterState(x=np.zeros(d) if x0 is None else np.array(x0, dtype=np.float64),
                     P=np.eye(d) if P0 is None else np.array(P0, dtype=np.float64))
    ops = StepOps()
    n = Z.shape[0]
    out = np.empty((n, d))
    if n:
        fs = _step(fs, trans, model, Z[0], ops)
        out[0] = fs.x
    x, P, memo = fs.x, fs.P, None
    for k in range(1, n):
        x, P, _, memo = _gain_step(trans, model, x, P, Z[k], memo)
        out[k] = x
    ops.phases = {p: c * n for p, c in ops.phases.items()}
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


def _bin_columns(events, n_bins: int, bin_len: int, selection: Selection) -> tuple:
    """(bin, column) of every (t, channel, unit) event row.

    The column is -1 for a pair *selection* lacks and for a time outside the
    binned span [0, n_bins*bin_len).
    """
    if bin_len < 1:
        raise ValueError("bin_len must be positive")
    ev = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    b = ev[:, 0] // bin_len
    col = selection.columns(ev[:, 1], ev[:, 2])
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
    *selected*, a valid :class:`Selection`, are counted in its column order.
    Event order is irrelevant. Events outside the binned span are dropped.
    """
    selection = Selection(selected)
    b, col = _bin_columns(events, n_bins, bin_len, selection)
    return _bin_counts(b, col, n_bins, len(selection.pairs))


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point layout: value = integer * 2**(-frac_bits)."""

    # the declared document table: the implant accumulator that adds these
    # words is 32-bit, and 2.0 ** frac_bits overflows a float past 1023
    SCHEMA = Obj({"bits": Int(2, 32), "frac_bits": Int(-1023, 1023)})

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
        """The format of a document checked against ``SCHEMA``."""
        check(obj, cls.SCHEMA, "fixed-point format")
        return cls(bits=obj["bits"], frac_bits=obj["frac_bits"])


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
        j = self.ens.selection.column.get((int(channel), int(unit)))
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
        b, col = _bin_columns(events, n_bins, bin_len, self.ens.selection)
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
        if self.x0 is None:
            self.x0 = np.zeros(self.state_dim)
        if self.P0 is None:
            self.P0 = np.eye(self.state_dim)
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
        """The bundle of a document checked against its kind's table in
        ``DECODER_SCHEMAS``, whose every matrix is non-empty."""
        where = "bad decoder model"
        check(obj, Obj({"kind": set(DECODER_SCHEMAS)}), where)
        sizes = check(obj, DECODER_SCHEMAS[obj["kind"]], where)
        if 0 in sizes.values():
            raise PayloadError(f"{where}: every matrix must be non-empty, got sizes {sizes}")
        obs = (StandardObservationModel(H=obj["H"], Q=obj["Q"]) if obj["kind"] == "kf" else
               EnsembleModel(E=obj["E"], Qe=obj["Qe"], selected=obj["selected"]))
        fixed = obj.get("fixed_point")
        return cls(transition=StateTransitionModel(A=obj["A"], W=obj["W"]),
                   observation=obs, x0=obj["x0"], P0=obj["P0"],
                   bin_ms=obj.get("bin_ms", 100),
                   fixed=None if fixed is None else FixedPointFormat.from_json(fixed),
                   meta=dict(obj.get("meta", {})))


# The declared decoder table of each kind: "states" is the state size d, "neurons"
# a kf's observed units, "pairs" an eokf's selected (channel, unit) pairs.
_SQUARE = Array("states", "states")
_DECODER_FIELDS = {"A": _SQUARE, "W": _SQUARE, "x0": Array("states"), "P0": _SQUARE}
_DECODER_OPTIONAL = {"state_dim": Int("states", "states"), "bin_ms": Int(1),
                     "meta": Obj({}, {"train_trials": List(Int(0)), "test_trials": List(Int(0))}),
                     "fixed_point": FixedPointFormat.SCHEMA}
DECODER_SCHEMAS = {
    "kf": Obj({"kind": {"kf"}, **_DECODER_FIELDS, "H": Array("neurons", "states"),
               "Q": Array("neurons", "neurons")}, _DECODER_OPTIONAL),
    "eokf": Obj({"kind": {"eokf"}, **_DECODER_FIELDS, "E": Array("states", "pairs"),
                 "Qe": _SQUARE,
                 "selected": List(List(Int(0, 2 ** PAIR_ID_BITS - 1), 2), "pairs")},
                _DECODER_OPTIONAL),
}


def store_decoder(bundle: DecoderBundle, path: str) -> None:
    atomic_write_text(path, json.dumps(bundle.to_json(), indent=1, sort_keys=True) + "\n")


def load_decoder(path: str) -> DecoderBundle:
    """A decoder file, checked against its kind's table by ``from_json``."""
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
