"""Scoring sorters against ground truth: the calibration pass, event matching,
label assignment, confusion matrices, and the per-channel benchmark protocol."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .detect import Tokens, channel_groups, detect_trace, estimate_threshold
from .sort_offline import train_channel_model, train_l1
from .synthdata import GroundTruthLabels, RawTrace, WINDOW_LEN, split_indices

MATCH_TOLERANCE = WINDOW_LEN
SORTER_TRAIN_FRAC = 0.6    # matched events that train the tree and L1 sorters


def match_events(token_times, truth_times) -> np.ndarray:
    """Pair detections with ground-truth events by time proximity.

    Both inputs must be ascending. Each token, in order, takes the nearest
    unused truth event within MATCH_TOLERANCE samples among the three around
    its insertion point (ties: the earlier event). Returns (m, 2) rows
    (token_idx, truth_idx).

    Tokens whose candidate events overlap those of no earlier token form
    separate segments, which cannot take each other's events. In a segment
    whose tokens' nearest events strictly increase, each token gets its
    nearest event; only the other segments are paired one token at a time.
    """
    tok = np.asarray(token_times, dtype=np.int64)
    tru = np.asarray(truth_times, dtype=np.int64)
    if tok.size == 0 or tru.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    cand = np.searchsorted(tru, tok)[:, None] + np.arange(-1, 2)
    dist = np.abs(tru[np.clip(cand, 0, tru.size - 1)] - tok[:, None])
    ok = (cand >= 0) & (cand < tru.size) & (dist <= MATCH_TOLERANCE)
    rows = np.flatnonzero(ok.any(axis=1))
    cand, dist, ok = cand[rows], dist[rows], ok[rows]
    nearest = cand[np.arange(rows.size), np.where(ok, dist, MATCH_TOLERANCE + 1).argmin(axis=1)]
    lo = cand[np.arange(rows.size), ok.argmax(axis=1)]
    hi = cand[np.arange(rows.size), 2 - ok[:, ::-1].argmax(axis=1)]
    # hi never decreases along ascending tokens
    segment = np.cumsum(np.r_[True, lo[1:] > hi[:-1]])
    clash = np.unique(segment[1:][(nearest[1:] <= nearest[:-1])
                                  & (segment[1:] == segment[:-1])])
    match = nearest.copy()
    used = set()
    for r in np.flatnonzero(np.isin(segment, clash)).tolist():
        free = [(d, c) for c, d, good in zip(cand[r].tolist(), dist[r].tolist(),
                                             ok[r].tolist()) if good and c not in used]
        match[r] = min(free)[1] if free else -1
        used.add(match[r])
    kept = match >= 0
    return np.column_stack([rows[kept], match[kept]])


def _matched(tokens: Tokens, rows, truth) -> tuple:
    """Features (m, 2) and true unit ids (m,) of the token *rows*, in time
    order, that :func:`match_events` pairs with one channel's *truth* rows."""
    pairs = match_events(tokens.t[rows], truth[:, 0])
    rows = rows[pairs[:, 0]]
    return (np.column_stack([tokens.f1[rows], tokens.f2[rows]]),
            truth[pairs[:, 1], 2].astype(np.int64))


def matched_features(tokens: Tokens, labels: GroundTruthLabels) -> dict:
    """Features and true unit ids of the tokens matched to ground truth.

    Returns {channel: (features (m, 2) int64, unit ids (m,) int64)} for every
    channel that has tokens. Each channel's tokens are matched to its label
    rows in time order, whatever their order in *tokens*; unmatched tokens
    are left out.
    """
    return {ch: _matched(tokens, rows[np.argsort(tokens.t[rows], kind="stable")],
                         labels.for_channel(ch))
            for ch, rows in channel_groups(tokens.channel)}


def calibrate(trace: RawTrace, labels: GroundTruthLabels) -> tuple:
    """One calibration pass over *trace*: (thresholds, tokens, channels).

    Each row's threshold is estimated once, :func:`~nsp.detect.detect_trace`
    runs once at those thresholds, and each channel's tokens are matched to
    its label rows as :func:`matched_features` matches them. ``channels[ch]``
    is (features (m, 2) int64, unit ids (m,) int64, n_detected, n_truth) for
    every channel of the trace, quiet ones too; unmatched detections and
    label rows on other channels are left out.
    """
    truth = labels.events[np.argsort(labels.ch, kind="stable")]
    bounds = np.searchsorted(truth[:, 1], np.arange(trace.n_channels + 1)).tolist()
    return _calibrate(trace, [truth[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


def _calibrate(trace: RawTrace, truths: list) -> tuple:
    """:func:`calibrate` given each row's own label rows, in time order."""
    thresholds = np.array([estimate_threshold(row) for row in trace.data])
    _, tokens = detect_trace(trace, thresholds)
    bounds = np.searchsorted(tokens.channel, np.arange(trace.n_channels + 1)).tolist()
    return thresholds, tokens, [
        (*_matched(tokens, np.arange(lo, hi), truth), hi - lo, truth.shape[0])
        for lo, hi, truth in zip(bounds, bounds[1:], truths)]


def channel_feature_dataset(trace: RawTrace, labels: GroundTruthLabels,
                            channel: int) -> tuple:
    """Detected features with matched true unit ids for one channel: the
    one-row case of :func:`calibrate`, (features (m, 2) int64, unit ids (m,)
    int64, n_detected, n_truth). A channel the trace lacks raises ValueError.
    """
    if not 0 <= channel < trace.n_channels:
        raise ValueError(f"channel {channel}: the trace has channels 0..{trace.n_channels - 1}")
    row = RawTrace(trace.data[channel][np.newaxis], sample_rate=trace.sample_rate)
    return _calibrate(row, [labels.for_channel(channel)])[2][0]


def confusion_matrix(pred, truth) -> tuple:
    """Counts[c_pred, c_true] over the sorted distinct values of each side."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    pv, pi = np.unique(pred, return_inverse=True)
    tv, ti = np.unique(truth, return_inverse=True)
    mat = np.zeros((pv.size, tv.size), dtype=np.int64)
    np.add.at(mat, (pi, ti), 1)
    return mat, pv, tv


def permutation_accuracy(pred, truth) -> float:
    """Accuracy under the best one-to-one cluster-to-unit relabeling.

    The standard score for unsupervised sorters: assign each predicted
    cluster to at most one true unit (Hungarian algorithm on the confusion
    matrix) and count the matched events. Outlier predictions (< 0) can never
    count as correct.
    """
    pred = np.asarray(pred, dtype=np.int64)
    if pred.size == 0:
        return 0.0
    mat, pv, _ = confusion_matrix(pred, truth)
    mat = mat[pv >= 0]
    if mat.size == 0:
        return 0.0
    r, c = linear_sum_assignment(mat, maximize=True)
    return float(mat[r, c].sum()) / pred.size


def majority_leaf_labels(leaves, truth) -> dict:
    """Map each leaf/cluster index to its majority true unit (ties: smaller unit)."""
    mat, pv, tv = confusion_matrix(leaves, truth)
    if mat.size == 0:
        return {}
    return {leaf: unit for leaf, unit in zip(pv.tolist(), tv[mat.argmax(axis=1)].tolist())
            if leaf >= 0}


def mapped_accuracy(leaves, truth, leaf_map: dict) -> float:
    """Fraction of events whose mapped leaf label equals the true unit."""
    mat, pv, tv = confusion_matrix(leaves, truth)
    if mat.size == 0:
        return 0.0
    column = {unit: j for j, unit in enumerate(tv.tolist())}
    hits = sum(int(mat[i, column[leaf_map[leaf]]]) for i, leaf in enumerate(pv.tolist())
               if leaf >= 0 and leaf_map.get(leaf) in column)
    return hits / int(mat.sum())


def evaluate_channel_sorters(trace: RawTrace, labels: GroundTruthLabels, channel: int,
                             seed: int = 0) -> dict:
    """Train/test comparison of the tree sorter and the L1 baseline.

    Detections are matched to ground truth, split at the event level, and
    both models are trained on the SORTER_TRAIN_FRAC train side. The tree's
    leaves get their majority train labels; test accuracy counts exact unit
    matches.
    """
    feats, labs, n_det, n_truth = channel_feature_dataset(trace, labels, channel)
    if feats.shape[0] < 4:
        raise ValueError(f"channel {channel}: too few matched events ({feats.shape[0]})")
    tr, te = split_indices(feats.shape[0], SORTER_TRAIN_FRAC, seed)
    tree = train_channel_model(feats[tr], labs[tr])
    leaf_map = majority_leaf_labels(tree.classify_many(feats[tr, 0], feats[tr, 1]),
                                    labs[tr])
    tree_test_leaves = tree.classify_many(feats[te, 0], feats[te, 1])
    l1 = train_l1(feats[tr], labs[tr])
    l1_pred = l1.classify_many(feats[te, 0], feats[te, 1])
    return {"channel": channel,
            "n_detected": n_det,
            "n_truth": n_truth,
            "n_matched": int(feats.shape[0]),
            "n_train": int(tr.size),
            "n_test": int(te.size),
            "tree_accuracy": mapped_accuracy(tree_test_leaves, labs[te], leaf_map),
            "l1_accuracy": float(np.mean(l1_pred == labs[te])),
            "tree_model": tree,
            "l1_model": l1}


def parity_benchmark_configs(duration_s: float = 40.0) -> list:
    """Channel configurations for the tree-vs-L1 sorting benchmark.

    24 single-channel traces spanning 2-4 units and 22-28 dB: the three named
    tiers plus a noisier 3-unit leg. Returns (name, TraceConfig) pairs.
    """
    from dataclasses import replace

    from .synthdata import tier_config

    easy = tier_config("easy", duration_s=duration_s)
    medium = tier_config("medium", duration_s=duration_s)
    hard = tier_config("hard", duration_s=duration_s)
    noisy = replace(medium, snr_db=22.0, shape_similarity=0.3)
    return ([("easy", easy)] * 8 + [("medium", medium)] * 6 +
            [("hard", hard)] * 6 + [("noisy", noisy)] * 4)


def run_parity_benchmark(seed_base: int = 500, duration_s: float = 40.0) -> dict:
    """Run the sorting benchmark and aggregate tree-vs-L1 accuracies.

    Returns per-channel rows plus the mean absolute accuracy difference and
    per-tier mean accuracies.
    """
    from .synthdata import gen_spike_trace

    rows = []
    for i, (name, cfg) in enumerate(parity_benchmark_configs(duration_s)):
        trace, labels = gen_spike_trace(cfg, seed=seed_base + i)
        res = evaluate_channel_sorters(trace, labels, 0, seed=seed_base + i)
        rows.append({"tier": name, "seed": seed_base + i,
                     "tree_accuracy": res["tree_accuracy"],
                     "l1_accuracy": res["l1_accuracy"],
                     "n_test": res["n_test"]})
    diffs = [abs(r["tree_accuracy"] - r["l1_accuracy"]) for r in rows]
    tiers = {}
    for r in rows:
        tiers.setdefault(r["tier"], []).append(r)
    tier_means = {name: {"tree": float(np.mean([r["tree_accuracy"] for r in rs])),
                         "l1": float(np.mean([r["l1_accuracy"] for r in rs])),
                         "n_channels": len(rs)}
                  for name, rs in tiers.items()}
    return {"rows": rows,
            "mean_abs_diff": float(np.mean(diffs)),
            "max_abs_diff": float(np.max(diffs)),
            "tier_means": tier_means}


DECODER_BENCHMARK = dict(n_units=96, trials_per_target=2, untuned_fraction=0.5,
                         train_frac=0.8)


def run_decoder_benchmark(seed_base: int = 100, n_sessions: int = 10,
                          **overrides) -> dict:
    """Standard filter vs ensemble filter over seeded synthetic reach sessions.

    Models a short calibration block on a realistic population: 96 units of
    which about half carry no kinematic tuning, 16 center-out trials, 80/20
    trial split. The standard filter decodes from the full recorded
    population (its conventional operating point); the ensemble filter
    decodes from its selected 20-50 units — unit selection is part of that
    decoder, not of the dataset. Returns per-session rows plus mean MSEs.
    """
    from .decode import (evaluate_reconstruction, run_eokf, run_kf,
                         selection_columns, train_ensemble,
                         train_observation_standard, train_transition)
    from .synthdata import (SessionConfig, gen_reach_session, split_trials,
                            trials_to_bins)

    params = {**DECODER_BENCHMARK, **overrides}
    train_frac = params.pop("train_frac")
    rows = []
    for i in range(n_sessions):
        seed = seed_base + i
        session = gen_reach_session(SessionConfig(**params), seed=seed)
        train_ids, test_ids = split_trials(session, train_frac, seed)
        bt = trials_to_bins(session, train_ids)
        be = trials_to_bins(session, test_ids)
        vel_train = session.velocity[bt]
        trans = train_transition(vel_train)
        obs = train_observation_standard(session.counts[bt], vel_train)
        ens = train_ensemble(session.counts[bt], vel_train, session.unit_channels)
        cols = selection_columns(ens.selected, session.unit_channels)
        kf_states, _ = run_kf(trans, obs, session.counts[be])
        eokf_states, _, _ = run_eokf(trans, ens, session.counts[be][:, cols])
        truth = session.velocity[be]
        rows.append({"seed": seed,
                     "n_selected": len(ens.selected),
                     "kf_mse": evaluate_reconstruction(kf_states, truth)["mse"],
                     "eokf_mse": evaluate_reconstruction(eokf_states, truth)["mse"]})
    return {"rows": rows,
            "kf_mean_mse": float(np.mean([r["kf_mse"] for r in rows])),
            "eokf_mean_mse": float(np.mean([r["eokf_mse"] for r in rows]))}
