"""Enumeration of 2-D feature-space segmentation patterns.

A pattern is the shape class of a decision tree that applies exactly three
axis-aligned threshold splits to a feature pair and yields four non-empty
rectangular leaves. Two trees belong to the same pattern when their leaf
layouts have the same slicing structure; layouts that differ only by swapping
the two feature axes (a diagonal flip) are also identified. Sliding a cut
without changing which cuts it is ordered against does not change the pattern.

Enumerating slicing structures directly gives eleven patterns, organized into
six layout families. Each pattern carries everything a trained channel model
needs: per-slot comparison axes, the admissible orderings of same-axis cuts,
the 3-bit-code -> leaf lookup table, and the rectangular bounds of each leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

N_SPLITS = 3
N_LEAVES = 4
LEAF = "L"

_GROUP_NAMES = (
    "quad-slabs",            # four parallel slabs
    "three-slabs-one-split", # three parallel slabs, one of them split crosswise
    "slab-of-three",         # two slabs, one divided into three crosswise strips
    "both-slabs-split",      # two slabs, each split once crosswise
    "nested-resplit-low",    # two slabs, lower/first one split and re-split
    "nested-resplit-high",   # two slabs, upper/second one split and re-split
)


# ---------------------------------------------------------------------------
# slicing-structure enumeration
# ---------------------------------------------------------------------------


def _compositions(n: int) -> list:
    """Ordered tuples of >= 2 positive integers summing to n."""
    out = []

    def rec(rem, acc):
        if rem == 0:
            if len(acc) >= 2:
                out.append(tuple(acc))
            return
        for k in range(1, rem + 1):
            rec(rem - k, acc + [k])

    rec(n, [])
    return out


def _structures(n_leaves: int, axis: int) -> list:
    """All normalized slicing chains on *axis* with exactly n_leaves leaves.

    A chain is (axis, parts); parts are ordered along the axis and are each
    either a leaf or a chain on the other axis (same-axis nesting always
    flattens into one chain, so it is excluded by construction).
    """
    result = []
    for comp in _compositions(n_leaves):
        options = []
        for m in comp:
            options.append([LEAF] if m == 1 else _structures(m, 1 - axis))
        for parts in product(*options):
            result.append((axis, tuple(parts)))
    return result


def _to_tree(structure, counters):
    """Binary decision tree with preorder cut ids and preorder leaf ids.

    The first cut of a chain separates part 0 from the rest of the chain.
    Nodes are ("node", axis, cut_id, left, right); leaves ("leaf", leaf_id).
    """
    if structure == LEAF:
        lid = counters[1]
        counters[1] += 1
        return ("leaf", lid)
    axis, parts = structure
    cid = counters[0]
    counters[0] += 1
    left = _to_tree(parts[0], counters)
    rest = parts[1:]
    right = _to_tree((axis, rest) if len(rest) > 1 else rest[0], counters)
    return ("node", axis, cid, left, right)


def _tree_cuts(tree, acc=None):
    if acc is None:
        acc = []
    if tree[0] == "node":
        _, axis, cid, left, right = tree
        acc.append((cid, axis))
        _tree_cuts(left, acc)
        _tree_cuts(right, acc)
    return acc


def _render(tree, box, values):
    """Leaf boxes for concrete cut values, or None when some leaf is empty.

    box is ((xlo, xhi), (ylo, yhi)); every cut value must fall strictly inside
    the box it splits.
    """
    if tree[0] == "leaf":
        return {tree[1]: box}
    _, axis, cid, left, right = tree
    lo, hi = box[axis]
    v = values[cid]
    if not (lo < v < hi):
        return None
    lbox = list(box)
    rbox = list(box)
    lbox[axis] = (lo, v)
    rbox[axis] = (v, hi)
    lres = _render(left, tuple(lbox), values)
    rres = _render(right, tuple(rbox), values)
    if lres is None or rres is None:
        return None
    lres.update(rres)
    return lres


def _descend(tree, point, values):
    while tree[0] == "node":
        _, axis, cid, left, right = tree
        tree = right if point[axis] >= values[cid] else left
    return tree[1]


def grid_key(classify, n_x: int, n_y: int):
    """Canonical cell-grid label key for a classifier over integer cut lines.

    *classify* maps an (x, y) point to a leaf label; cuts sit at 1..n on each
    axis, so cell centers are at k + 0.5. Labels are renumbered in row-major
    first-occurrence order; the diagonal flip of the grid is computed the same
    way and the lexicographically smaller of the two keys is returned.
    """
    cells = [[classify((ix + 0.5, iy + 0.5)) for ix in range(n_x + 1)]
             for iy in range(n_y + 1)]

    def normalize(rows, n_cols, n_rows):
        remap, flat = {}, []
        for row in rows:
            for label in row:
                if label not in remap:
                    remap[label] = len(remap)
                flat.append(remap[label])
        return (n_cols, n_rows, tuple(flat))

    key = normalize(cells, n_x + 1, n_y + 1)
    flipped = [[cells[iy][ix] for iy in range(n_y + 1)] for ix in range(n_x + 1)]
    key_t = normalize(flipped, n_y + 1, n_x + 1)
    return min(key, key_t)


def _leaf_bounds(tree, bounds=None, acc=None):
    """Per-leaf rectangular bounds expressed as cut ids (None = unbounded)."""
    if bounds is None:
        bounds = ((None, None), (None, None))
    if acc is None:
        acc = {}
    if tree[0] == "leaf":
        acc[tree[1]] = bounds
        return acc
    _, axis, cid, left, right = tree
    lb = list(bounds)
    rb = list(bounds)
    lb[axis] = (bounds[axis][0], cid)
    rb[axis] = (cid, bounds[axis][1])
    _leaf_bounds(left, tuple(lb), acc)
    _leaf_bounds(right, tuple(rb), acc)
    return acc


def _group_of(structure) -> int:
    """Layout family of a top-level (axis 0) chain with four leaves."""
    _, parts = structure
    if len(parts) == 4:
        return 0
    if len(parts) == 3:
        return 1
    first, second = parts
    def is_flat_pair(p):
        return p != LEAF and all(q == LEAF for q in p[1]) and len(p[1]) == 2
    if any(p != LEAF and len(p[1]) == 3 for p in parts):
        return 2
    if is_flat_pair(first) and is_flat_pair(second):
        return 3
    return 4 if first != LEAF else 5


@dataclass(frozen=True)
class SegmentationPattern:
    """One of the eleven split layouts, with its comparison machinery."""

    pattern_id: int
    group_id: int
    group_name: str
    structure: tuple
    axes: tuple          # comparison axis per boundary slot (0 = f1, 1 = f2)
    leaf_map: tuple      # 3-bit comparison code -> leaf index 0..3
    leaf_bounds: tuple   # per leaf: ((x_lo_slot, x_hi_slot), (y_lo_slot, y_hi_slot))
    x_cuts: tuple        # boundary slots that compare f1
    y_cuts: tuple
    x_orderings: tuple   # admissible slot orders by ascending boundary value
    y_orderings: tuple
    canonical_key: tuple

    @property
    def n_x(self) -> int:
        return len(self.x_cuts)

    @property
    def n_y(self) -> int:
        return len(self.y_cuts)

    def code_of(self, f1, f2, boundaries) -> int:
        """The 3-bit comparison code; bit s is (feature[axes[s]] >= boundaries[s])."""
        code = 0
        features = (f1, f2)
        for s in range(N_SPLITS):
            code = (code << 1) | (1 if features[self.axes[s]] >= boundaries[s] else 0)
        return code


def _build_pattern(structure) -> dict:
    tree = _to_tree(structure, [0, 0])
    cuts = _tree_cuts(tree)
    axes = tuple(axis for _, axis in sorted(cuts))
    x_ids = tuple(cid for cid, axis in cuts if axis == 0)
    y_ids = tuple(cid for cid, axis in cuts if axis == 1)

    # admissible ascending orderings per axis: a permutation is admissible when
    # rendering with those ranks leaves no leaf empty
    def admissible(ids_a, ids_b):
        good_a = set()
        good_b = set()
        keys = []
        for pa in permutations(ids_a):
            for pb in permutations(ids_b):
                values = {}
                for rank, cid in enumerate(pa):
                    values[cid] = rank + 1.0
                for rank, cid in enumerate(pb):
                    values[cid] = rank + 1.0
                if _render(tree, ((0.0, len(ids_a) + 1.0), (0.0, len(ids_b) + 1.0)),
                           values) is None:
                    continue
                good_a.add(pa)
                good_b.add(pb)
                keys.append(grid_key(lambda pt: _descend(tree, pt, values),
                                     len(ids_a), len(ids_b)))
        return sorted(good_a), sorted(good_b), min(keys)

    x_orderings, y_orderings, key = admissible(x_ids, y_ids)

    # leaf_map: follow the tree taking the branch named by each slot's code bit
    leaf_map = []
    for code in range(2 ** N_SPLITS):
        node = tree
        while node[0] == "node":
            _, _, cid, left, right = node
            bit = (code >> (N_SPLITS - 1 - cid)) & 1
            node = right if bit else left
        leaf_map.append(node[1])

    bounds = _leaf_bounds(tree)
    return dict(structure=structure, axes=axes,
                leaf_map=tuple(leaf_map),
                leaf_bounds=tuple(bounds[l] for l in range(N_LEAVES)),
                x_cuts=x_ids, y_cuts=y_ids,
                x_orderings=tuple(x_orderings), y_orderings=tuple(y_orderings),
                canonical_key=key,
                group_id=_group_of(structure))


@lru_cache(maxsize=1)
def enumerate_patterns() -> tuple:
    """The eleven segmentation patterns, ordered by canonical key.

    Generated constructively: every normalized slicing chain with four leaves
    and a vertical top-level cut is one axis-swap equivalence class (flipping
    the diagonal flips the top axis, so each class has exactly one such
    representative).
    """
    built = [_build_pattern(s) for s in _structures(N_LEAVES, 0)]
    keys = [b["canonical_key"] for b in built]
    if len(set(keys)) != len(built):
        raise AssertionError("slicing structures do not have distinct canonical keys")
    built.sort(key=lambda b: b["canonical_key"])
    return tuple(SegmentationPattern(pattern_id=i, group_name=_GROUP_NAMES[b["group_id"]], **b)
                 for i, b in enumerate(built))


def pattern_by_id(pattern_id: int) -> SegmentationPattern:
    pats = enumerate_patterns()
    if not (0 <= pattern_id < len(pats)):
        raise ValueError(f"pattern_id {pattern_id} outside 0..{len(pats) - 1}")
    return pats[pattern_id]


def n_groups() -> int:
    return len({p.group_id for p in enumerate_patterns()})
