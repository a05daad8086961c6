"""Scoring sorters against ground truth: event matching, label assignment,
confusion matrices, and the per-channel train/test benchmark protocol."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import linear_sum_assignment

from .detect import Tokens, detect_rows, estimate_threshold, window_features
from .sort_offline import train_channel_model, train_l1
from .sort_online import fit_online
from .synthdata import GroundTruthLabels, RawTrace, WINDOW_LEN

MATCH_TOLERANCE = WINDOW_LEN


def match_events(token_times, truth_times) -> np.ndarray:
    """Pair detections with ground-truth events by time proximity.

    Both inputs must be ascending. Each token takes the nearest unused truth
    event within MATCH_TOLERANCE samples. Returns (m, 2) rows (token_idx,
    truth_idx).
    """
    tok = np.asarray(token_times, dtype=np.int64)
    tru = np.asarray(truth_times, dtype=np.int64)
    used = np.zeros(tru.size, dtype=bool)
    pairs = []
    for i, t in enumerate(tok):
        k = int(np.searchsorted(tru, t))
        best = None
        for c in (k - 1, k, k + 1):
            if 0 <= c < tru.size and not used[c]:
                d = abs(int(tru[c]) - int(t))
                if d <= MATCH_TOLERANCE and (best is None or d < best[0]):
                    best = (d, c)
        if best is not None:
            used[best[1]] = True
            pairs.append((i, best[1]))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def matched_features(tokens: Tokens, labels: GroundTruthLabels) -> dict:
    """Features and true unit ids of the tokens matched to ground truth.

    Returns {channel: (features (m, 2) int64, unit ids (m,) int64)} for every
    channel that has tokens. Each channel's tokens are matched to its label
    rows in time order, whatever their order in *tokens*; unmatched tokens
    are left out.
    """
    order = np.lexsort((tokens.t, tokens.channel))
    chans, firsts = np.unique(tokens.channel[order], return_index=True)
    out = {}
    for ch, lo, hi in zip(chans.tolist(), firsts.tolist(),
                          firsts[1:].tolist() + [len(tokens)]):
        rows = order[lo:hi]
        truth = labels.for_channel(ch)
        pairs = match_events(tokens.t[rows], truth[:, 0])
        rows = rows[pairs[:, 0]]
        out[ch] = (np.column_stack([tokens.f1[rows], tokens.f2[rows]]),
                   truth[pairs[:, 1], 2].astype(np.int64))
    return out


def channel_feature_dataset(trace: RawTrace, labels: GroundTruthLabels,
                            channel: int) -> tuple:
    """Detected features with matched true unit ids for one channel.

    Returns (features (m, 2) int64, unit ids (m,) int64, n_detected,
    n_truth). Unmatched detections (noise crossings) are excluded, and only
    the matched windows are cut from the trace.
    """
    ch_trace = trace.data[channel]
    _, starts = detect_rows(ch_trace.reshape(1, -1), [estimate_threshold(ch_trace)])
    truth = labels.for_channel(channel)
    pairs = match_events(starts, truth[:, 0])
    windows = sliding_window_view(ch_trace, WINDOW_LEN)[starts[pairs[:, 0]]]
    feats = np.column_stack(window_features(windows)).astype(np.int64)
    return feats, truth[pairs[:, 1], 2].astype(np.int64), starts.size, truth.shape[0]


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
    out = {}
    leaves = np.asarray(leaves, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    for leaf in np.unique(leaves):
        if leaf < 0:
            continue
        vals, counts = np.unique(truth[leaves == leaf], return_counts=True)
        out[int(leaf)] = int(vals[np.argmax(counts)])
    return out


def mapped_accuracy(leaves, truth, leaf_map: dict) -> float:
    """Fraction of events whose mapped leaf label equals the true unit."""
    leaves = np.asarray(leaves, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if leaves.size == 0:
        return 0.0
    hits = sum(1 for lf, tr in zip(leaves, truth)
               if lf >= 0 and leaf_map.get(int(lf)) == int(tr))
    return hits / leaves.size


def split_indices(n: int, train_frac: float, seed: int) -> tuple:
    """Seeded shuffle split with both sides non-empty whenever n >= 2."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(n * train_frac))
    n_train = min(max(n_train, 1), n - 1) if n >= 2 else n
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def evaluate_channel_sorters(trace: RawTrace, labels: GroundTruthLabels, channel: int,
                             train_frac: float = 0.6, seed: int = 0) -> dict:
    """Train/test comparison of the tree sorter and the L1 baseline.

    Detections are matched to ground truth, split at the event level, and
    both models are trained on the train side. The tree's leaves get their
    majority train labels; test accuracy counts exact unit matches.
    """
    feats, labs, n_det, n_truth = channel_feature_dataset(trace, labels, channel)
    if feats.shape[0] < 4:
        raise ValueError(f"channel {channel}: too few matched events ({feats.shape[0]})")
    tr, te = split_indices(feats.shape[0], train_frac, seed)
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


def run_parity_benchmark(seed_base: int = 500, duration_s: float = 40.0,
                         train_frac: float = 0.6) -> dict:
    """Run the sorting benchmark and aggregate tree-vs-L1 accuracies.

    Returns per-channel rows plus the mean absolute accuracy difference and
    per-tier mean accuracies.
    """
    from .synthdata import gen_spike_trace

    rows = []
    for i, (name, cfg) in enumerate(parity_benchmark_configs(duration_s)):
        trace, labels = gen_spike_trace(cfg, seed=seed_base + i)
        res = evaluate_channel_sorters(trace, labels, 0, train_frac=train_frac,
                                       seed=seed_base + i)
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


def evaluate_online_sorter(trace: RawTrace, labels: GroundTruthLabels, channel: int,
                           train_frac: float = 0.75) -> dict:
    """Stream a prefix of one channel's detections through the online
    trainer, freeze the model, and score it on the remaining events by
    permutation accuracy."""
    feats, labs, _, _ = channel_feature_dataset(trace, labels, channel)
    n = feats.shape[0]
    n_train = min(max(int(round(n * train_frac)), 1), max(n - 1, 1))
    model = fit_online(feats[:n_train, 0], feats[:n_train, 1])
    test_f, test_l = feats[n_train:], labs[n_train:]
    if test_f.shape[0] == 0:
        test_f, test_l = feats, labs
    pred = model.classify_many(test_f[:, 0], test_f[:, 1])
    return {"channel": channel,
            "n_scored": pred.size,
            "accuracy": permutation_accuracy(pred, test_l),
            "model": model}
