"""Supervised off-line spike sorter and its L1-template baseline.

Both read a spike's peak and trough as its two features (f1, f2). The
sorter fits, per channel, one of the eleven segmentation patterns plus three
int8 axis boundaries by exhaustively sweeping a candidate boundary set
(kernel-density valleys united with a uniform 8-LSB grid) and maximizing
training accuracy. Deployment classifies a spike with exactly three scalar
comparisons and one table lookup, and the whole model packs into 28 bits
(3 boundary bytes + a 4-bit pattern id).

The baseline assigns a spike to the nearest of up to four stored feature
templates in L1 distance, costing 3 add/sub per template and n-1 comparisons.

Every sorter model kind (this module's tree and L1 models and the online
model of ``sort_online``) carries a ``kind`` name, ``classify(f1, f2)``,
``footprint_bits()`` and a ``to_json``/``from_json`` pair. ``MODEL_KINDS``
maps each kind name to its class, and ``store_models``/``load_models`` read
and write per-channel model sets of any one kind through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._util import atomic_write_text
from .patterns import N_LEAVES, N_SPLITS, SegmentationPattern, enumerate_patterns, pattern_by_id
from .sort_online import OUTLIER, OnlineSorterModel, _valley_runs
from .synthdata import PayloadError, load_document

GRID_STEP = 8          # LSB pitch of the uniform boundary-candidate grid
KDE_BANDWIDTH = 5.0    # LSB
KDE_GRID = 256         # cells per axis, one per int8 value
TREE_MODEL_BITS = 3 * 8 + 4
L1_BITS_PER_TEMPLATE = 16


@dataclass
class SortOpCounts:
    """Per-spike classification cost: comparisons, add/sub, table lookups."""

    compares: int = 0
    addsubs: int = 0
    lookups: int = 0


@dataclass
class ChannelSorterModel:
    """Trained tree sorter for one channel."""

    kind = "tree"

    pattern_id: int
    boundaries: tuple          # (B0, B1, B2) int8 values, one per comparison slot
    valid_mask: int            # bit L set when leaf L received training spikes
    train_accuracy: float = 0.0

    def pattern(self) -> SegmentationPattern:
        return pattern_by_id(self.pattern_id)

    def classify(self, f1: int, f2: int) -> int:
        return classify_spike(self, f1, f2)

    def footprint_bits(self) -> int:
        """Deployed size in bits: three boundary bytes and a 4-bit pattern id."""
        return TREE_MODEL_BITS

    def to_json(self) -> dict:
        return {"kind": self.kind, "pattern_id": self.pattern_id,
                "boundaries": [int(b) for b in self.boundaries],
                "valid_mask": int(self.valid_mask),
                "train_accuracy": float(self.train_accuracy),
                "packed": pack_model(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "ChannelSorterModel":
        if obj.get("kind") != cls.kind:
            raise PayloadError(f"not a tree sorter model: kind={obj.get('kind')!r}")
        # older sets name their feature rule; peak-trough is the only one sorted
        spec = obj.get("feature_spec", {"mode": "peak-trough"})
        if not isinstance(spec, dict) or spec.get("mode") != "peak-trough":
            raise PayloadError(f"tree model trained on features {spec!r}; "
                               "only peak-trough features are sorted")
        return cls(pattern_id=int(obj["pattern_id"]),
                   boundaries=tuple(int(b) for b in obj["boundaries"]),
                   valid_mask=int(obj["valid_mask"]),
                   train_accuracy=float(obj.get("train_accuracy", 0.0)))


@dataclass
class L1TemplateModel:
    """Baseline: up to four stored (f1, f2) templates, nearest-in-L1 wins."""

    kind = "l1"

    templates: tuple           # ((t1, t2), ...) int8 pairs
    labels: tuple              # unit id emitted per template

    def __post_init__(self):
        if not (1 <= len(self.templates) <= N_LEAVES):
            raise ValueError("L1 model holds 1..4 templates")

    def classify(self, f1: int, f2: int) -> int:
        return l1_classify(self, f1, f2)

    def footprint_bits(self) -> int:
        """Deployed size in bits: one int8 (f1, f2) pair per template."""
        return L1_BITS_PER_TEMPLATE * len(self.templates)

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "templates": [[int(a), int(b)] for a, b in self.templates],
                "labels": [int(l) for l in self.labels]}

    @classmethod
    def from_json(cls, obj: dict) -> "L1TemplateModel":
        if obj.get("kind") != cls.kind:
            raise PayloadError(f"not an L1 sorter model: kind={obj.get('kind')!r}")
        return cls(templates=tuple((int(a), int(b)) for a, b in obj["templates"]),
                   labels=tuple(int(l) for l in obj["labels"]))


def model_footprint(model) -> int:
    """Deployed model size in bits, by the model kind's ``footprint_bits()``."""
    footprint = getattr(model, "footprint_bits", None)
    if footprint is None:
        raise TypeError(f"no footprint rule for {type(model).__name__}")
    return footprint()


def pack_model(model: ChannelSorterModel) -> str:
    """28-bit payload as 7 hex digits: three boundary bytes then the pattern id."""
    b0, b1, b2 = (int(b) & 0xFF for b in model.boundaries)
    value = (b0 << 20) | (b1 << 12) | (b2 << 4) | (model.pattern_id & 0xF)
    return f"{value:07x}"


def unpack_model(packed: str) -> tuple:
    """Inverse of pack_model: ((B0, B1, B2), pattern_id) with sign-extended bytes."""
    value = int(packed, 16)
    if not (0 <= value < (1 << 28)):
        raise ValueError("packed model must be 28 bits (7 hex digits)")

    def s8(u):
        return u - 256 if u >= 128 else u

    boundaries = (s8((value >> 20) & 0xFF), s8((value >> 12) & 0xFF),
                  s8((value >> 4) & 0xFF))
    return boundaries, value & 0xF


# ---------------------------------------------------------------------------
# kernel density estimate and boundary candidates
# ---------------------------------------------------------------------------


def kde_marginals(features: np.ndarray, bandwidth: float = KDE_BANDWIDTH) -> tuple:
    """Both marginals of a Gaussian KDE of an (n, 2) int8 feature cloud.

    Each is a length-256 float64 array indexed by feature value + 128, left
    unnormalised. The 2-D density on the 256x256 value grid is Ax^T @ Ay for
    the per-point Gaussian rows Ax, Ay (a separable kernel), so its row sums
    are Ax^T @ (Ay summed over the grid) and its column sums likewise; this
    costs O(n * 256) instead of the density's O(n * 256^2).
    """
    pts = np.asarray(features, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("need at least one point for a density estimate")
    grid = np.arange(KDE_GRID, dtype=np.float64) - 128.0
    ax = np.exp(-0.5 * ((grid[None, :] - pts[:, 0:1]) / bandwidth) ** 2)
    ay = np.exp(-0.5 * ((grid[None, :] - pts[:, 1:2]) / bandwidth) ** 2)
    return ax.T @ ay.sum(axis=1), ay.T @ ax.sum(axis=1)


def kde_valleys(marginal: np.ndarray) -> list:
    """Feature values at interior local minima of a 1-D marginal density."""
    runs = _valley_runs(np.asarray(marginal, dtype=np.float64))
    return [int((s + e) // 2) - 128 for s, e, _ in runs]


def boundary_candidates(features: np.ndarray, grid_step: int = GRID_STEP,
                        bandwidth: float = KDE_BANDWIDTH) -> tuple:
    """Per-axis sorted candidate boundary values: KDE valleys + uniform grid.

    The uniform grid is clipped to the observed feature range (a boundary
    outside the range can never beat an in-range one on training accuracy)
    and the range minimum itself is always included.
    """
    pts = np.asarray(features, dtype=np.int64).reshape(-1, 2)
    marginals = kde_marginals(pts, bandwidth)
    out = []
    for axis in (0, 1):
        lo, hi = int(pts[:, axis].min()), int(pts[:, axis].max())
        grid = [v for v in range(-128, 128, grid_step) if lo <= v <= hi]
        valleys = [v for v in kde_valleys(marginals[axis]) if lo <= v <= hi]
        out.append(sorted(set(grid) | set(valleys) | {lo}))
    return tuple(out)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _degenerate_model(accuracy: float) -> ChannelSorterModel:
    # group-0 pattern with all boundaries at +127: every feature below 127
    # compares low on all three slots, i.e. lands in leaf 0
    quad = next(p for p in enumerate_patterns() if p.group_id == 0)
    return ChannelSorterModel(pattern_id=quad.pattern_id, boundaries=(127, 127, 127),
                              valid_mask=0b0001, train_accuracy=accuracy)


def train_channel_model(features: np.ndarray, labels: np.ndarray,
                        grid_step: int = GRID_STEP,
                        bandwidth: float = KDE_BANDWIDTH) -> ChannelSorterModel:
    """Fit (pattern, boundaries) by exhaustive sweep of the candidate grid.

    *features* is (n, 2) int8-valued, *labels* holds 1..4 distinct unit ids.
    Training accuracy of a configuration counts each leaf's majority label as
    correct; the sweep keeps the first configuration reaching the maximum
    (patterns in id order, boundary combinations in ascending value order).
    """
    feats = np.asarray(features, dtype=np.int64).reshape(-1, 2)
    labs = np.asarray(labels, dtype=np.int64).reshape(-1)
    if feats.shape[0] != labs.shape[0] or feats.shape[0] == 0:
        raise ValueError("features and labels must be equal-length and non-empty")
    uniq = np.unique(labs)
    if len(uniq) > N_LEAVES:
        raise ValueError(f"more than {N_LEAVES} distinct unit labels")
    if len(uniq) == 1:
        return _degenerate_model(1.0)

    lab_idx = np.searchsorted(uniq, labs)
    n = feats.shape[0]
    cand_x, cand_y = boundary_candidates(feats, grid_step, bandwidth)
    mx, my = len(cand_x), len(cand_y)

    # label-count prefix table over the candidate-interval grid:
    # interval index of f = number of candidates <= f, so "f >= boundary b"
    # becomes "interval index >= pos(b) + 1"
    ix = np.searchsorted(cand_x, feats[:, 0], side="right")
    iy = np.searchsorted(cand_y, feats[:, 1], side="right")
    # prefix[i, j, l]: label-l spikes with x interval < i and y interval < j,
    # so one fancy index gathers a corner's counts for every label at once
    counts = np.zeros((mx + 1, my + 1, len(uniq)), dtype=np.int64)
    np.add.at(counts, (ix, iy, lab_idx), 1)
    prefix = np.zeros((mx + 2, my + 2, len(uniq)), dtype=np.int64)
    prefix[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1)

    def combo_array(m, k):
        if k == 0:
            return np.zeros((1, 0), dtype=np.int64)
        return np.array(list(combinations(range(m), k)), dtype=np.int64)

    def bound(cut, m, sel, ranks, upper):
        # interval-index bound of one leaf side: (nx, 1) over x combinations,
        # (1, ny) over y combinations, or a scalar for an open side
        if cut is None:
            return m + 1 if upper else 0
        return sel[..., ranks[cut]] + 1

    best = None  # (accuracy, pattern_id, boundaries)
    for pat in enumerate_patterns():
        kx, ky = pat.n_x, pat.n_y
        if kx > mx or ky > my:
            continue
        xcombos = combo_array(mx, kx)
        ycombos = combo_array(my, ky)
        XI = xcombos[:, None, :]   # (nx, 1, kx) candidate indices, ascending
        YI = ycombos[None, :, :]   # (1, ny, ky)
        shape = (xcombos.shape[0], ycombos.shape[0])
        for xord in pat.x_orderings:
            rank_x = {cid: r for r, cid in enumerate(xord)}
            for yord in pat.y_orderings:
                rank_y = {cid: r for r, cid in enumerate(yord)}

                correct = np.zeros(shape, dtype=np.int64)
                for leaf in range(N_LEAVES):
                    (xlo_c, xhi_c), (ylo_c, yhi_c) = pat.leaf_bounds[leaf]
                    xlo = bound(xlo_c, mx, XI, rank_x, False)
                    xhi = bound(xhi_c, mx, XI, rank_x, True)
                    ylo = bound(ylo_c, my, YI, rank_y, False)
                    yhi = bound(yhi_c, my, YI, rank_y, True)
                    leaf_counts = (prefix[xhi, yhi] - prefix[xlo, yhi]
                                   - prefix[xhi, ylo] + prefix[xlo, ylo])
                    correct += leaf_counts.max(axis=-1)
                flat = int(np.argmax(correct))
                acc = float(correct.flat[flat]) / n
                if best is None or acc > best[0] + 1e-12:
                    ci, cj = divmod(flat, shape[1])
                    slot_vals = [0] * N_SPLITS
                    for r, cid in enumerate(xord):
                        slot_vals[cid] = int(cand_x[xcombos[ci][r]])
                    for r, cid in enumerate(yord):
                        slot_vals[cid] = int(cand_y[ycombos[cj][r]])
                    best = (acc, pat.pattern_id, tuple(slot_vals))

    if best is None:
        majority = float(np.bincount(lab_idx).max()) / n
        return _degenerate_model(majority)

    acc, pattern_id, boundaries = best
    model = ChannelSorterModel(pattern_id=pattern_id, boundaries=boundaries,
                               valid_mask=0, train_accuracy=acc)
    pat = pattern_by_id(pattern_id)
    mask = 0
    for f1, f2 in feats:
        mask |= 1 << pat.leaf_map[pat.code_of(f1, f2, boundaries)]
    model.valid_mask = mask
    return model


def classify_spike(model: ChannelSorterModel, f1: int, f2: int,
                   ops: SortOpCounts | None = None) -> int:
    """Leaf index for a feature pair: three comparisons, one table lookup.

    A feature equal to a boundary compares to the upper side. Spikes landing
    in a leaf that saw no training data are reported as OUTLIER.
    """
    pat = model.pattern()
    features = (f1, f2)
    code = 0
    for s in range(N_SPLITS):
        bit = 1 if features[pat.axes[s]] >= model.boundaries[s] else 0
        code = (code << 1) | bit
        if ops is not None:
            ops.compares += 1
    leaf = pat.leaf_map[code]
    if ops is not None:
        ops.lookups += 1
    return leaf if (model.valid_mask >> leaf) & 1 else OUTLIER


def train_l1(features: np.ndarray, labels: np.ndarray) -> L1TemplateModel:
    """Per-label centroid templates, rounded to int8."""
    feats = np.asarray(features, dtype=np.float64).reshape(-1, 2)
    labs = np.asarray(labels, dtype=np.int64).reshape(-1)
    uniq = np.unique(labs)
    if not (1 <= len(uniq) <= N_LEAVES):
        raise ValueError(f"need 1..{N_LEAVES} distinct labels")
    templates = []
    for u in uniq:
        c = feats[labs == u].mean(axis=0)
        templates.append((int(np.clip(round(c[0]), -128, 127)),
                          int(np.clip(round(c[1]), -128, 127))))
    return L1TemplateModel(templates=tuple(templates), labels=tuple(int(u) for u in uniq))


def l1_classify(model: L1TemplateModel, f1: int, f2: int,
                ops: SortOpCounts | None = None) -> int:
    """Label of the nearest template in L1 distance; ties go to the lowest index.

    Costs 3 add/sub per template (two subtractions and one addition; absolute
    value is free in sign-magnitude hardware) plus n-1 running comparisons.
    """
    best_label, best_dist = None, None
    for k, (t1, t2) in enumerate(model.templates):
        dist = abs(int(f1) - t1) + abs(int(f2) - t2)
        if ops is not None:
            ops.addsubs += 3
        if k == 0:
            best_label, best_dist = model.labels[0], dist
            continue
        if ops is not None:
            ops.compares += 1
        if dist < best_dist:
            best_label, best_dist = model.labels[k], dist
    return best_label


# --- model set files --------------------------------------------------------


MODEL_KINDS = {cls.kind: cls for cls in
               (ChannelSorterModel, L1TemplateModel, OnlineSorterModel)}


def store_models(models: dict, path: str) -> None:
    """Write a channel -> model set; every model must be of the same kind."""
    kinds = {m.kind for m in models.values()}
    if len(kinds) != 1:
        raise ValueError("a model set holds models of exactly one kind, "
                         f"got {sorted(kinds)}")
    obj = {"kind": f"{kinds.pop()}-set",
           "channels": {str(ch): m.to_json() for ch, m in sorted(models.items())}}
    atomic_write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def load_models(path: str) -> dict:
    """Read a set written by store_models; malformed files raise PayloadError."""
    obj = load_document(path)
    if not isinstance(obj.get("channels"), dict):
        raise PayloadError(f"{path}: not a sorter model set")
    cls = next((c for c in MODEL_KINDS.values() if obj.get("kind") == f"{c.kind}-set"),
               None)
    if cls is None:
        raise PayloadError(f"{path}: unknown sorter model set kind {obj.get('kind')!r}")
    try:
        return {int(ch): cls.from_json(m) for ch, m in obj["channels"].items()}
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PayloadError(f"{path}: malformed {cls.kind} model: {exc!r}") from exc
