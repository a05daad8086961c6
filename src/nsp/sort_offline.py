"""Supervised off-line spike sorter and its L1-template baseline.

Both read a spike's peak and trough as its two features (f1, f2). The
sorter fits, per channel, one of the eleven segmentation patterns plus three
int8 axis boundaries by exhaustively sweeping a candidate boundary set
(kernel-density valleys united with a uniform 8-LSB grid) and maximizing
training accuracy. Deployment classifies a spike with exactly three scalar
comparisons and one table lookup, and the whole model packs into 28 bits
(3 boundary bytes + a 4-bit pattern id).

The sweep reads one rectangle table per channel: for every pair of
candidate-interval bounds lo < hi on each axis, the largest one-label count
in that rectangle (int32, built one label at a time). Every leaf of every
pattern is such a rectangle, and which entry a leaf reads depends only on the
channel's candidate shape (mx, my). So a cache keyed by that shape holds, per
leaf, one int32 index over every (pattern, slot ordering, boundary
combination) cell, and keeps the most recently used shapes within
``SWEEP_CACHE_BYTES``. A channel scores all its cells with four gathers and
three adds, and one ``argmax`` picks its configuration.

The baseline assigns a spike to the nearest of up to four stored feature
templates in L1 distance, costing 3 add/sub per template and n-1 comparisons.

Every sorter model kind (this module's tree and L1 models and the online
model of ``sort_online``) carries a ``kind`` name, ``classify(f1, f2)``,
``classify_many(f1, f2)`` over int arrays, ``footprint_bits()``, a declared
document table ``SCHEMA`` and a ``to_json``/``from_json`` pair.
``classify_by_channel`` labels tokens with one ``classify_many`` per channel. ``MODEL_KINDS``
maps each kind name to its class. ``store_models``/``load_models`` read and
write per-channel model sets of any one kind through it, and ``nsp report``
rebuilds each ``eval-sort`` row's model through it to check its footprint.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations
from math import comb, prod

import numpy as np

from ._util import atomic_write_text
from .detect import channel_groups
from .patterns import N_LEAVES, N_SPLITS, SegmentationPattern, enumerate_patterns, pattern_by_id
from .sort_online import OUTLIER, OnlineSorterModel, _valley_runs
from .synthdata import Int, List, Map, Num, Obj, PayloadError, check, load_document

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
    # the declared document table; older sets name peak-trough, the one feature rule
    SCHEMA = Obj({"kind": {kind}, "pattern_id": Int(0, len(enumerate_patterns()) - 1),
                  "boundaries": List(Int(-128, 127), N_SPLITS),
                  "valid_mask": Int(0, 2 ** N_LEAVES - 1)},
                 {"train_accuracy": Num(), "feature_spec": Obj({"mode": {"peak-trough"}})})

    pattern_id: int
    boundaries: tuple          # (B0, B1, B2) int8 values, one per comparison slot
    valid_mask: int            # bit L set when leaf L received training spikes
    train_accuracy: float = 0.0

    def pattern(self) -> SegmentationPattern:
        return pattern_by_id(self.pattern_id)

    def classify(self, f1: int, f2: int) -> int:
        return classify_spike(self, f1, f2)

    def classify_many(self, f1, f2) -> np.ndarray:
        """:func:`classify_spike` over int arrays: three vector compares build
        the 3-bit code, which one table read maps to its leaf or OUTLIER."""
        pat = self.pattern()
        features = (np.asarray(f1, dtype=np.int64), np.asarray(f2, dtype=np.int64))
        code = np.zeros(features[0].shape, dtype=np.int64)
        for s in range(N_SPLITS):
            code = (code << 1) | (features[pat.axes[s]] >= self.boundaries[s])
        leaves = np.array([leaf if (self.valid_mask >> leaf) & 1 else OUTLIER
                           for leaf in pat.leaf_map], dtype=np.int64)
        return leaves[code]

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
        """The model of a document checked against ``SCHEMA``."""
        check(obj, cls.SCHEMA, "tree model")
        return cls(pattern_id=obj["pattern_id"], boundaries=tuple(obj["boundaries"]),
                   valid_mask=obj["valid_mask"],
                   train_accuracy=float(obj.get("train_accuracy", 0.0)))


@dataclass
class L1TemplateModel:
    """Baseline: up to four stored (f1, f2) templates, nearest-in-L1 wins."""

    kind = "l1"
    SCHEMA = Obj({"kind": {kind}, "templates": List(List(Int(-128, 127), 2), "labels"),
                  "labels": List(Int(), "labels")})

    templates: tuple           # ((t1, t2), ...) int8 pairs
    labels: tuple              # unit id emitted per template

    def __post_init__(self):
        if not (1 <= len(self.templates) <= N_LEAVES):
            raise PayloadError(f"L1 model holds 1..4 templates, got {len(self.templates)}")

    def classify(self, f1: int, f2: int) -> int:
        return l1_classify(self, f1, f2)

    def classify_many(self, f1, f2) -> np.ndarray:
        """:func:`l1_classify` over int arrays: the first template of least
        L1 distance wins, as in the scalar scan."""
        t = np.asarray(self.templates, dtype=np.int64)
        dist = (np.abs(np.asarray(f1, dtype=np.int64)[..., None] - t[:, 0])
                + np.abs(np.asarray(f2, dtype=np.int64)[..., None] - t[:, 1]))
        return np.asarray(self.labels, dtype=np.int64)[dist.argmin(axis=-1)]

    def footprint_bits(self) -> int:
        """Deployed size in bits: one int8 (f1, f2) pair per template."""
        return L1_BITS_PER_TEMPLATE * len(self.templates)

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "templates": [[int(a), int(b)] for a, b in self.templates],
                "labels": [int(l) for l in self.labels]}

    @classmethod
    def from_json(cls, obj: dict) -> "L1TemplateModel":
        """The model of a document checked against ``SCHEMA``."""
        check(obj, cls.SCHEMA, "l1 model")
        return cls(templates=tuple(map(tuple, obj["templates"])), labels=tuple(obj["labels"]))


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


@lru_cache(maxsize=1)
def _kde_table() -> tuple:
    """Gaussian kernel rows of every int8 value over the value grid, and
    their sums: row v + 128 is the kernel of a point at v."""
    grid = np.arange(KDE_GRID, dtype=np.float64) - 128.0
    rows = np.exp(-0.5 * ((grid[None, :] - grid[:, None]) / KDE_BANDWIDTH) ** 2)
    return rows, rows.sum(axis=1)


def kde_marginals(features: np.ndarray) -> tuple:
    """Both marginals of a Gaussian KDE of an (n, 2) int8 feature cloud.

    Each is a length-256 float64 array indexed by feature value + 128, left
    unnormalised. The 2-D density on the 256x256 value grid is Ax^T @ Ay for
    the per-point Gaussian rows Ax, Ay (a separable kernel), so its row sums
    are Ax^T @ (Ay summed over the grid) and its column sums likewise; this
    costs O(n * 256) instead of the density's O(n * 256^2). Each point's row
    and its sum are read from one table of all 256 values.
    """
    pts = np.asarray(features).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("need at least one point for a density estimate")
    at = pts.astype(np.int64) + 128
    if not (np.array_equal(at - 128, pts) and 0 <= at.min() and at.max() < KDE_GRID):
        raise ValueError("density features must be int8 values")
    rows, sums = _kde_table()
    ax, ay = rows[at[:, 0]], rows[at[:, 1]]
    return ax.T @ sums[at[:, 1]], ay.T @ sums[at[:, 0]]


def kde_valleys(marginal: np.ndarray) -> list:
    """Feature values at interior local minima of a 1-D marginal density."""
    runs = _valley_runs(np.asarray(marginal, dtype=np.float64))
    return [int((s + e) // 2) - 128 for s, e, _ in runs]


def boundary_candidates(features: np.ndarray) -> tuple:
    """Per-axis sorted candidate boundary values: KDE valleys + uniform grid.

    The uniform grid is clipped to the observed feature range (a boundary
    outside the range can never beat an in-range one on training accuracy)
    and the range minimum itself is always included.
    """
    pts = np.asarray(features, dtype=np.int64).reshape(-1, 2)
    marginals = kde_marginals(pts)
    out = []
    for axis in (0, 1):
        lo, hi = int(pts[:, axis].min()), int(pts[:, axis].max())
        grid = [v for v in range(-128, 128, GRID_STEP) if lo <= v <= hi]
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


def _pair_index(lo, hi):
    """Position of the interval-index pair lo < hi on a rectangle-table axis.

    Pairs run hi-major with lo ascending, as ``np.tril_indices(m + 2, -1)``
    lists them, so an axis of m candidates holds (m + 2)(m + 1) / 2 pairs.
    """
    return hi * (hi - 1) // 2 + lo


def _rect_table(prefix: np.ndarray, pairs: tuple) -> np.ndarray:
    """rect[pair(xlo, xhi), pair(ylo, yhi)]: the largest one-label count of
    the spikes with x interval in [xlo, xhi) and y interval in [ylo, yhi).

    *prefix* is the (mx + 2, my + 2, L) label-count prefix table and *pairs*
    its axes' (xhi, xlo, yhi, ylo) pair lists. The table is int32 and built
    one label at a time, so its peak is a few copies of one
    (pairs_x, pairs_y) plane, not a plane per label.
    """
    xhi, xlo, yhi, ylo = pairs
    rect = np.zeros((xhi.size, yhi.size), dtype=np.int32)
    for label in range(prefix.shape[2]):
        plane = prefix[:, :, label].astype(np.int32)
        strip = plane[xhi] - plane[xlo]
        counts = np.take(strip, yhi, axis=1)
        counts -= np.take(strip, ylo, axis=1)
        np.maximum(rect, counts, out=rect)
    return rect


def _interval_bounds(m: int, k: int) -> np.ndarray:
    """bounds[:, i]: the interval-index bounds of the i-th ascending combination
    of k of m candidates: 0 (the open low side), each cut's candidate index + 1
    in ascending order, then m + 1 (the open high side)."""
    n = comb(m, k)
    cuts = np.fromiter(chain.from_iterable(combinations(range(m), k)), np.int64, n * k)
    return np.vstack([np.zeros(n, np.int64), cuts.reshape(n, k).T + 1, np.full(n, m + 1)])


@lru_cache(maxsize=None)
def _leaf_sides(pattern_id: int, axis: int) -> np.ndarray:
    """sides[0 | 1, leaf, o]: the :func:`_interval_bounds` row bounding the
    leaf below | above on *axis* under the pattern's o-th admissible slot
    ordering: 0 open below, k + 1 open above, r + 1 at the rank-r cut."""
    pat = pattern_by_id(pattern_id)
    orderings, k = ((pat.x_orderings, pat.n_x), (pat.y_orderings, pat.n_y))[axis]
    sides = [leaf[axis] for leaf in pat.leaf_bounds]
    rows = np.array([[[0 if lo is None else o.index(lo) + 1 for o in orderings]
                      for lo, _ in sides],
                     [[k + 1 if hi is None else o.index(hi) + 1 for o in orderings]
                      for _, hi in sides]])
    rows.flags.writeable = False   # the cache hands the one array to every caller
    return rows


# The sweep index of one candidate shape (mx, my). leaves[leaf] holds each
# sweep cell's flat rectangle-table index for the leaf: every admissible
# pattern's cells in id order, one block each, in its C order (x ordering,
# y ordering, x combination, y combination). Block b is pattern blocks[b] =
# (pattern_id, block shape), its cells from offsets[b] up to offsets[b + 1];
# bounds[axis, k] is the axis' _interval_bounds of k cuts; pairs the rectangle
# table's (xhi, xlo, yhi, ylo) pair lists; nbytes the bytes of all these arrays.
_SweepIndex = namedtuple("_SweepIndex", "leaves offsets blocks bounds pairs nbytes")
SWEEP_CACHE_BYTES = 16 * 2 ** 20   # the 51 x 49 lattice takes ~12 MB, chain's shapes ~2.5 MB
_SWEEP_CACHE = {}                  # (mx, my) -> _SweepIndex, least recently used first


def _build_sweep_index(mx: int, my: int) -> _SweepIndex:
    pats = [p for p in enumerate_patterns() if p.n_x <= mx and p.n_y <= my]
    keys = {(axis, k) for p in pats for axis, k in enumerate((p.n_x, p.n_y))}
    bounds = {(axis, k): _interval_bounds((mx, my)[axis], k) for axis, k in keys}
    shapes = [(len(p.x_orderings), len(p.y_orderings), comb(mx, p.n_x), comb(my, p.n_y))
              for p in pats]
    offsets = list(accumulate(map(prod, shapes), initial=0))
    leaves = np.empty((N_LEAVES, offsets[-1]), dtype=np.int32)
    row_len = (my + 2) * (my + 1) // 2
    for pat, shape, at, end in zip(pats, shapes, offsets, offsets[1:]):
        # per leaf, ordering and combination: the leaf's pair index on each axis
        xp, yp = (_pair_index(*bounds[axis, k][_leaf_sides(pat.pattern_id, axis)])
                  for axis, k in enumerate((pat.n_x, pat.n_y)))
        np.add(xp[:, :, None, :, None] * row_len, yp[:, None, :, None, :],
               out=leaves[:, at:end].reshape(N_LEAVES, *shape), casting="unsafe")
    pairs = (*np.tril_indices(mx + 2, -1), *np.tril_indices(my + 2, -1))
    arrays = (leaves, *pairs, *bounds.values())
    for a in arrays:
        a.flags.writeable = False   # every channel of this shape reads them
    nbytes = sum(a.nbytes for a in arrays)
    blocks = tuple((p.pattern_id, shape) for p, shape in zip(pats, shapes))
    return _SweepIndex(leaves, offsets, blocks, bounds, pairs, nbytes)


def _sweep_index(mx: int, my: int) -> _SweepIndex:
    """The sweep index of a candidate shape, from a cache that keeps the most
    recently used shapes within SWEEP_CACHE_BYTES (a larger one is not kept).
    It holds pattern ids and arrays only, so it outlives the pattern cache."""
    index = _SWEEP_CACHE.pop((mx, my), None) or _build_sweep_index(mx, my)
    _SWEEP_CACHE[(mx, my)] = index
    while sum(i.nbytes for i in _SWEEP_CACHE.values()) > SWEEP_CACHE_BYTES:
        del _SWEEP_CACHE[next(iter(_SWEEP_CACHE))]
    return index


def train_channel_model(features: np.ndarray, labels: np.ndarray) -> ChannelSorterModel:
    """Fit (pattern, boundaries) by exhaustive sweep of the candidate grid.

    *features* is (n, 2) int8-valued, *labels* holds 1..4 distinct unit ids.
    Training accuracy of a configuration counts each leaf's majority label as
    correct; the sweep keeps the first configuration reaching the maximum
    (patterns in id order, then slot orderings in the pattern's order, then
    boundary combinations in ascending value order).

    Every leaf is an axis-aligned rectangle of candidate intervals, so one
    table, built once per channel, holds each candidate rectangle's
    majority-label count. Which entry each leaf of each cell reads depends
    only on the candidate shape (mx, my), so it comes from a shape-keyed
    cache bounded by ``SWEEP_CACHE_BYTES``. The channel scores every cell
    with four gathers and three adds. The cells lie in sweep order, each
    pattern's block in its C order and the blocks in id order, so the first
    maximum of the one ``argmax`` is the first best cell of the first
    pattern reaching the overall maximum: no later pattern ties its way in.
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
    cand_x, cand_y = boundary_candidates(feats)
    mx, my = len(cand_x), len(cand_y)
    index = _sweep_index(mx, my)
    if not index.blocks:
        majority = float(np.bincount(lab_idx).max()) / n
        return _degenerate_model(majority)

    # label-count prefix table over the candidate-interval grid:
    # interval index of f = number of candidates <= f, so "f >= boundary b"
    # becomes "interval index >= pos(b) + 1"
    ix = np.searchsorted(cand_x, feats[:, 0], side="right")
    iy = np.searchsorted(cand_y, feats[:, 1], side="right")
    # prefix[i, j, l]: label-l spikes with x interval < i and y interval < j
    counts = np.zeros((mx + 1, my + 1, len(uniq)), dtype=np.int64)
    np.add.at(counts, (ix, iy, lab_idx), 1)
    prefix = np.zeros((mx + 2, my + 2, len(uniq)), dtype=np.int64)
    prefix[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1)
    flat_rect = _rect_table(prefix, index.pairs).ravel()

    correct = np.take(flat_rect, index.leaves[0])
    for leaf in index.leaves[1:]:
        correct += np.take(flat_rect, leaf)
    cell = int(np.argmax(correct))
    b = bisect_right(index.offsets, cell) - 1
    pattern_id, shape = index.blocks[b]
    ox, oy, ci, cj = np.unravel_index(cell - index.offsets[b], shape)
    pat = pattern_by_id(pattern_id)
    slot_vals = [0] * N_SPLITS
    # the rank-r cut of a combination bounds interval candidate index + 1
    for r, cid in enumerate(pat.x_orderings[ox]):
        slot_vals[cid] = int(cand_x[index.bounds[0, pat.n_x][r + 1, ci] - 1])
    for r, cid in enumerate(pat.y_orderings[oy]):
        slot_vals[cid] = int(cand_y[index.bounds[1, pat.n_y][r + 1, cj] - 1])

    # with every leaf valid, classify_many gives each spike's leaf
    model = ChannelSorterModel(pattern_id=pattern_id, boundaries=tuple(slot_vals),
                               valid_mask=(1 << N_LEAVES) - 1,
                               train_accuracy=float(correct[cell]) / n)
    model.valid_mask = int(np.bitwise_or.reduce(1 << model.classify_many(*feats.T)))
    return model


def classify_spike(model: ChannelSorterModel, f1: int, f2: int,
                   ops: SortOpCounts | None = None) -> int:
    """Leaf index for a feature pair: the three comparisons of the pattern's
    ``code_of``, one table lookup.

    A feature equal to a boundary compares to the upper side. Spikes landing
    in a leaf that saw no training data are reported as OUTLIER.
    """
    pat = model.pattern()
    leaf = pat.leaf_map[pat.code_of(f1, f2, model.boundaries)]
    if ops is not None:
        ops.compares += N_SPLITS
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


def classify_by_channel(classifiers: dict, channel, f1, f2) -> np.ndarray:
    """Label every token (channel[i], f1[i], f2[i]) with its channel's classifier.

    *classifiers* maps channel -> sorter model or plain (f1, f2) -> label
    callable. A model labels all of its channel's tokens in one
    ``classify_many`` call. A plain callable is called once per token, in
    token order within its channel. Returns int64 labels in token order.
    """
    channel = np.asarray(channel, dtype=np.int64)
    f1, f2 = np.asarray(f1, dtype=np.int64), np.asarray(f2, dtype=np.int64)
    labels = np.empty(channel.size, dtype=np.int64)
    for ch, at in channel_groups(channel):
        clf = classifiers[ch]
        many = getattr(clf, "classify_many", None)
        if many is not None:
            labels[at] = many(f1[at], f2[at])
        else:
            one = getattr(clf, "classify", clf)
            labels[at] = [int(one(a, b)) for a, b in zip(f1[at].tolist(), f2[at].tolist())]
    return labels


# --- model set files --------------------------------------------------------


MODEL_KINDS = {cls.kind: cls for cls in
               (ChannelSorterModel, L1TemplateModel, OnlineSorterModel)}
SET_KINDS = {f"{kind}-set": cls for kind, cls in MODEL_KINDS.items()}


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
    """Read a set written by store_models, checked against its kind's table:
    every channel key a canonical decimal integer, not negative, and every
    model its kind's ``SCHEMA``. Malformed files raise PayloadError."""
    obj = load_document(path)
    check(obj, Obj({"kind": set(SET_KINDS)}), path)
    cls = SET_KINDS[obj["kind"]]
    check(obj, Obj({"channels": Map(cls.SCHEMA, int_keys=True)}), path)
    models = {int(ch): cls.from_json(m) for ch, m in obj["channels"].items()}
    if any(ch < 0 for ch in models):
        raise PayloadError(f"{path}: negative channel in {sorted(models)}")
    return models
