"""From-scratch regression trees, Newton boosting, and random forests.

The boosted learner follows the second-order (g, h) formulation: leaf
weights are -G/(H + lambda) and split gains compare the one-split objective
against no split. One grower serves every learner. It grows a tree a
generation at a time and searches each node once, when the node is made;
without ``max_leaves`` a generation is a whole level (XGBoost), and with it
the waiting node of highest gain splits first until the tree has
``max_leaves`` leaves (LightGBM). The histogram splitter, that leaf budget
and GOSS row sampling give the lighter variant; the forest grows level-wise
with g = -2y, h = 2, under which the split gain reduces exactly to the
variance (SSE) reduction used for impurity importance.

One split search covers every node of a generation and every drawn feature
in a few numpy operations per chunk of rows. The exact splitter carries each
node's rows sorted per feature (the column block of Chen & Guestrin,
XGBoost, 2016), and one stable argsort of child labels partitions all of a
generation's parents into their children. The histogram splitter bins every
node of the generation with one bincount per sum (Ke et al., LightGBM).
Within each feature the left sums still accumulate in ascending row order,
so gains, trees and importances are bit-identical to a one-node,
one-feature-at-a-time search (``tests/oracles.py``).

A grown tree is a ``Tree`` of parallel node arrays in pre-order, so
prediction walks all rows down together and importance is one bincount.

All fits are deterministic under a fixed seed; parallel reductions are not
used, so results do not depend on thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFitError, ParameterError
from .seeding import derive_seed

MODEL_FORMAT_VERSION = 2


def gradients_squared_loss(
    y: np.ndarray, y_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of (y - y_hat)^2 w.r.t. y_hat."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ParameterError("y and y_hat must have equal length")
    return 2.0 * (y_hat - y), np.full_like(y, 2.0)


def leaf_weight(G: float, H: float, lam: float) -> float:
    """Optimal leaf weight -G/(H + lambda)."""
    denom = H + lam
    if denom <= 0:
        raise DegenerateFitError("H + lambda must be > 0")
    return -G / denom


@dataclass(frozen=True)
class Tree:
    """A regression tree stored as parallel node arrays in pre-order.

    Node 0 is the root and every child's index is greater than its parent's.
    A leaf has ``feature == -1`` (and ``left == right == -1``) and outputs
    ``value``; a split sends the rows with ``x[feature] <= threshold`` to
    ``left`` and the rest to ``right``, and records its ``gain``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def splits(self) -> np.ndarray:
        """Indices of the split nodes, in pre-order."""
        return np.flatnonzero(self.feature >= 0)

    def leaves(self) -> np.ndarray:
        """Indices of the leaves, in pre-order (left to right)."""
        return np.flatnonzero(self.feature < 0)


@dataclass(frozen=True)
class BoostParams:
    n_trees: int = 100
    learning_rate: float = 0.3
    lam: float = 1.0
    max_depth: int = 6
    max_leaves: int | None = None
    splitter: str = "exact"  # "exact" | "histogram"
    bins: int = 256
    goss: tuple[float, float] | None = None  # (top fraction a, sampled b)

    def __post_init__(self) -> None:
        if self.n_trees < 0:
            raise ParameterError("n_trees must be >= 0")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ParameterError("learning_rate must be in (0, 1]")
        if self.lam < 0:
            raise ParameterError("lambda must be >= 0")
        if self.max_depth < 0:
            raise ParameterError("max_depth must be >= 0")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ParameterError("max_leaves must be >= 1 (None = no limit)")
        if self.splitter not in ("exact", "histogram"):
            raise ParameterError(f"unknown splitter {self.splitter!r}")
        if self.splitter == "histogram" and self.bins < 2:
            raise ParameterError("histogram bins must be >= 2")
        if self.goss is not None:
            if self.splitter != "histogram":
                raise ParameterError("goss needs the histogram splitter")
            a, b = self.goss
            if not (a > 0 and b > 0 and a + b <= 1.0):
                raise ParameterError("goss requires a, b > 0 and a + b <= 1")


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 12
    m: int | None = None  # features drawn per split; None = all
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ParameterError("n_trees must be >= 1")
        if self.max_depth < 0:
            raise ParameterError("max_depth must be >= 0")
        if self.m is not None and self.m < 1:
            raise ParameterError("m must be >= 1")


@dataclass
class BoostedModel:
    """prediction = base_score + learning_rate * sum of tree outputs."""

    base_score: float
    learning_rate: float
    trees: list[Tree]
    feature_names: list[str]
    objective_history: list[float] = field(default_factory=list)


@dataclass
class ForestModel:
    """prediction = mean of per-tree outputs."""

    trees: list[Tree]
    tree_seeds: list[int]
    m: int | None
    feature_names: list[str]


# row entries searched at once by the exact splitter: a generation's
# (node, feature) rows are searched in chunks of about this many entries,
# so that the temporaries of a large node stay in cache
_CHUNK = 1 << 14


class _Candidate(NamedTuple):
    """A node to search: its rows in ascending order; for the exact splitter
    the same rows sorted by x per feature, (F, m); the features drawn for
    it, ascending; and its sums G and H."""

    idx: np.ndarray
    rows: np.ndarray | None
    features: np.ndarray
    G: float
    H: float


class _Splitter:
    """Per-fit split finder that grows a tree a generation at a time.

    The exact splitter sorts each feature's rows once per fit (by ``ranks``
    when given, which order the rows as ``X`` does) and hands every node
    its rows in ascending-x order as an (F, m) matrix. The histogram
    splitter keeps row-major bin codes (n, F) and per-feature cut points
    padded with NaN to (F, bins - 1).
    """

    def __init__(self, X: np.ndarray, params: BoostParams,
                 ranks: np.ndarray | None = None):
        self.X = X
        self.params = params
        self.n, self.F = X.shape
        if params.splitter == "exact":
            self.XT = np.ascontiguousarray(X.T)
            self.sorted_rows = np.argsort(
                self.XT if ranks is None else ranks, axis=1, kind="stable")
        else:
            cuts: list[np.ndarray] = []
            for f in range(self.F):
                col = X[:, f]
                uniq = np.unique(col)
                if len(uniq) - 1 <= params.bins - 1:
                    cuts.append((uniq[:-1] + uniq[1:]) / 2.0)
                else:
                    qs = np.quantile(
                        col, np.linspace(0.0, 1.0, params.bins + 1)[1:-1]
                    )
                    cuts.append(np.unique(qs))
            width = max((len(c) for c in cuts), default=0)
            self.cuts = np.full((self.F, width), np.nan)
            self.codes = np.empty((self.n, self.F), dtype=np.intp)
            for f, c in enumerate(cuts):
                self.cuts[f, :len(c)] = c
                self.codes[:, f] = np.searchsorted(c, X[:, f], side="left")

    def search(
        self,
        g: np.ndarray,
        h: np.ndarray,
        cands: list[_Candidate],
        h_prefix: np.ndarray | None = None,
    ) -> list[tuple[float, int, float] | None]:
        """Best (gain, feature, threshold) of each candidate, or None.

        All candidates are searched together, one row per (candidate, drawn
        feature); the exact splitter takes the rows in chunks of about
        ``_CHUNK`` entries. Each row's left sums accumulate in the same
        order as a one-feature-at-a-time search, so gains are bit-identical
        to it. ``h_prefix`` holds the prefix sums of the exact splitter's
        hessian, one value for every row. Ties break toward the lowest
        feature index, then lowest threshold; a feature whose best gain is
        not finite is skipped.
        """
        found: list[tuple[float, int, float] | None] = [None] * len(cands)
        live = [i for i, c in enumerate(cands) if len(c.idx) >= 2]
        if not live or (self.params.splitter != "exact"
                        and self.cuts.shape[1] == 0):
            return found
        if self.params.splitter == "exact":
            # widest first, so that a chunk's rows pad to similar widths
            live.sort(key=lambda i: -len(cands[i].idx))
            best, threshold = self._search_exact(
                g, [cands[i] for i in live], h_prefix)
        else:
            best, threshold = self._search_histogram(
                g, h, [cands[i] for i in live])
        # best[j, f]: the best finite gain of live candidate j on feature f,
        # -inf where there is none or f was not drawn; the first maximum
        # of a candidate is its lowest feature index
        at = np.argmax(best, axis=1)
        top = best[np.arange(len(live)), at]
        for j, (i, t, f) in enumerate(zip(live, top.tolist(), at.tolist())):
            if t > -np.inf:
                found[i] = (t, f, float(threshold[j, f]))
        return found

    def _search_exact(self, g, cands, h_prefix):
        """Best finite gain and its threshold of each candidate (J) on each
        feature (F), as (J, F) arrays; one row of the search per drawn
        feature, the widest candidates first. Left sums are prefix sums
        along the x-sorted rows. A chunk of rows of one width is read in
        place; a chunk of mixed widths pads its rows to the first (widest)
        one by repeating each row's last entry, whose x ties and so is
        never a valid split."""
        params = self.params
        k = np.array([len(c.features) for c in cands])
        m = np.array([len(c.idx) for c in cands])
        row_m = np.repeat(m, k)
        row_start = np.cumsum(row_m) - row_m
        feature = np.concatenate([c.features for c in cands])
        rows = np.concatenate([
            (c.rows if len(c.features) == self.F else c.rows[c.features])
            .ravel() for c in cands])
        xs = self.XT.ravel()[np.repeat(feature * self.n, row_m) + rows]
        G = np.repeat([c.G for c in cands], k)
        H = np.repeat([c.H for c in cands], k)
        parent = G * G / (H + params.lam)
        g_rows = g[rows]
        # a split after an entry is valid if the next entry's x is larger
        # and in the same row
        valid = np.empty(len(xs), dtype=bool)
        np.less(xs[:-1], xs[1:], out=valid[:-1])
        valid[row_start + row_m - 1] = False
        best = np.empty(len(row_m))
        pos = np.empty(len(row_m), dtype=np.intp)
        r0 = 0
        while r0 < len(row_m):
            width = int(row_m[r0])
            r1 = min(len(row_m), r0 + max(1, _CHUNK // width))
            # end the chunk at the rows narrower than it, or than half of
            # it, unless that leaves it small
            for narrowest in (width, width // 2 + 1):
                wide = int(np.count_nonzero(row_m[r0:r1] >= narrowest))
                if wide * width >= _CHUNK // 8:
                    r1 = r0 + wide
                    break
            if row_m[r1 - 1] == width:
                at = slice(row_start[r0], row_start[r0] + (r1 - r0) * width)
                shape = (r1 - r0, width)
            else:
                at = row_start[r0:r1, None] + np.minimum(
                    np.arange(width), row_m[r0:r1, None] - 1)
                shape = at.shape
            # 0.5 * (gl^2 / (hl + lam) + gr^2 / (hr + lam) - parent) in place
            gl = np.cumsum(g_rows[at].reshape(shape), axis=1)
            hl = h_prefix[:width]
            gr = np.subtract(G[r0:r1, None], gl)
            hr = np.subtract(H[r0:r1, None], hl)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                gains = np.multiply(gl, gl, out=gl)
                gains /= hl + params.lam
                gr *= gr
                hr += params.lam
                gr /= hr
                gains += gr
                gains -= parent[r0:r1, None]
                gains *= 0.5
            gains = np.where(valid[at].reshape(shape), gains, -np.inf)
            # first maximum = lowest threshold
            pos[r0:r1] = np.argmax(gains, axis=1)
            best[r0:r1] = gains[np.arange(r1 - r0), pos[r0:r1]]
            r0 = r1
        at = row_start + np.minimum(pos, row_m - 2)
        lo, hi = xs[at], xs[at + 1]
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        at = (np.repeat(np.arange(len(cands)), k), feature)
        full_best = np.full((len(cands), self.F), -np.inf)
        full_best[at] = np.where(np.isfinite(best), best, -np.inf)
        full_threshold = np.empty((len(cands), self.F))
        # adjacent floats: the midpoint rounds up
        full_threshold[at] = np.where(mid < hi, mid, lo)
        return full_best, full_threshold

    def _search_histogram(self, g, h, cands):
        """Best finite gain and its threshold of each candidate (J) on each
        feature (F), as (J, F) arrays. Every feature of every candidate is
        binned with one bincount per sum: candidate j's feature f owns the
        bins [(j * F + f) * nbins, (j * F + f + 1) * nbins), and each bin
        sums its rows in row order."""
        params, F = self.params, self.F
        nbins = self.cuts.shape[1] + 1
        m = [len(c.idx) for c in cands]
        idx = np.concatenate([c.idx for c in cands])
        first_bin = (np.repeat(np.arange(len(cands)) * F, m)[:, None]
                     + np.arange(F)) * nbins
        codes = (self.codes[idx] + first_bin).ravel()

        def left_sums(weights):
            hist = np.bincount(
                codes, minlength=len(cands) * F * nbins,
                weights=None if weights is None else weights[idx].repeat(F))
            return hist.reshape(-1, F, nbins).cumsum(axis=2)[..., :-1]

        gl, hl, left_n = left_sums(g), left_sums(h), left_sums(None)
        G = np.array([c.G for c in cands])[:, None, None]
        H = np.array([c.H for c in cands])[:, None, None]
        gr, hr = G - gl, H - hl
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (
                gl * gl / (hl + params.lam) + gr * gr / (hr + params.lam)
                - G * G / (H + params.lam)
            )
        valid = (left_n > 0) & (left_n < np.array(m)[:, None, None])
        gains = np.where(valid, gains, -np.inf)
        at = np.argmax(gains, axis=2)  # first maximum = lowest threshold
        best = np.max(gains, axis=2)
        return (np.where(np.isfinite(best), best, -np.inf),
                self.cuts[np.arange(F), at])

    def grow(
        self,
        idx: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        rng: np.random.Generator | None = None,
        m: int | None = None,
    ) -> Tree:
        """One tree over the rows ``idx``, drawing ``m`` features per node
        from ``rng`` (all of them when ``m`` is None). Only the exact
        splitter draws features, and it grows over all rows.

        The tree grows a generation at a time. Each generation's nodes are
        made in order: a node's leaf weight is stored and, if the node is
        shallower than ``max_depth`` and has two or more rows whose gradients
        are not all equal, its features are drawn. Then one :meth:`search`
        covers all the drawn nodes, and a node of positive best gain waits
        to split. Without ``max_leaves`` every waiting node splits next
        (level-wise); with it, the first one of highest gain (leaf-wise),
        until the tree has ``max_leaves`` leaves; the rest stay leaves. The
        children of the nodes that split are the next generation,
        partitioned from their parents' rows at once.
        """
        params = self.params
        budget = np.inf if params.max_leaves is None else params.max_leaves
        exact = params.splitter == "exact"
        if exact and len(idx) != self.n:
            raise ParameterError("the exact splitter grows over all rows")
        if not exact and m is not None:
            raise ParameterError("the histogram splitter draws no features")
        h_prefix = _constant_prefix(h) if exact else None
        # nodes in creation order: [feature, threshold, gain, value, left,
        # right]; renumbered into pre-order once the tree is grown
        nodes: list[list] = []
        # (gain, feature, threshold, node id, depth, candidate) of each node
        # that waits to split
        frontier: list[tuple] = []
        born = [(idx, self.sorted_rows if exact else None)]
        depth, n_leaves = 0, 1
        while True:
            cands, ids = [], []
            for node_idx, rows in born:
                g_node = g[node_idx]
                G, H = float(g_node.sum()), float(h[node_idx].sum())
                nodes.append([-1, 0.0, 0.0, leaf_weight(G, H, params.lam),
                              -1, -1])
                # equal gradients leave no split to find, only gains of a
                # few ulps from rounding in their prefix sums
                if (depth < params.max_depth and len(node_idx) >= 2
                        and g_node.min() < g_node.max()):
                    features = (
                        np.arange(self.F) if m is None or m >= self.F
                        else np.sort(rng.choice(self.F, size=m, replace=False)))
                    cands.append(_Candidate(node_idx, rows, features, G, H))
                    ids.append(len(nodes) - 1)
            for cand, node, found in zip(
                    cands, ids, self.search(g, h, cands, h_prefix)):
                if found is not None and found[0] > 0:
                    frontier.append((*found, node, depth, cand))
            if not frontier or n_leaves >= budget:
                return _preorder_tree(nodes)
            if params.max_leaves is None:
                popped, frontier = frontier, []
            else:  # the first maximum: ties go to the node made first
                popped = [frontier.pop(max(range(len(frontier)),
                                           key=lambda k: frontier[k][0]))]
            for k, (gain, f, threshold, node, _, _) in enumerate(popped):
                nodes[node] = [f, threshold, gain, 0.0,
                               len(nodes) + 2 * k, len(nodes) + 2 * k + 1]
            n_leaves += len(popped)
            depth = popped[0][4] + 1
            born = self._partition(
                popped, exact and depth < params.max_depth)

    def _partition(self, popped: list[tuple], sort: bool) -> list[tuple]:
        """(rows ascending, rows sorted per feature) of the children of the
        ``popped`` nodes, left then right of each, in order. One stable
        argsort of child labels partitions all parents' rows at once; the
        sorted rows are partitioned only when ``sort``."""
        cands = [p[5] for p in popped]
        sizes = np.array([len(c.idx) for c in cands])
        idx = np.concatenate([c.idx for c in cands])
        goes_right = ~(self.X[idx, np.repeat([p[1] for p in popped], sizes)]
                       <= np.repeat([p[2] for p in popped], sizes))
        # uint16 labels are radix-sorted
        first = np.arange(0, 2 * len(popped), 2,
                          dtype=np.uint16 if len(popped) <= 1 << 15
                          else np.intp)
        label = np.repeat(first, sizes) + goes_right
        ends = np.cumsum(np.bincount(label, minlength=2 * len(popped)))
        spans = list(zip([0, *ends[:-1].tolist()], ends.tolist()))
        children = idx[np.argsort(label, kind="stable")]
        if not sort:
            return [(children[a:b], None) for a, b in spans]
        side = np.zeros(self.n, dtype=bool)
        side[idx] = goes_right
        rows = np.concatenate([c.rows.ravel() for c in cands])
        rows = rows[np.argsort(np.repeat(first, sizes * self.F) + side[rows],
                               kind="stable")]
        F = self.F
        return [(children[a:b], rows[F * a:F * b].reshape(F, b - a))
                for a, b in spans]


def _constant_prefix(h: np.ndarray) -> np.ndarray:
    """cumsum(h), whose first entries are the hessian prefix sums of any rows
    of ``h``, the same for every feature and node. Every entry of ``h`` must
    be the same nonzero value, else :class:`ParameterError`."""
    if not (h.size and h[0] != 0 and np.all(h == h[0])):
        raise ParameterError("exact splitting needs one nonzero hessian value")
    return np.cumsum(h)


def _preorder_tree(nodes: list[list]) -> Tree:
    """The tree of ``nodes`` ([feature, threshold, gain, value, left, right]
    rows, root first), renumbered so that nodes are stored in pre-order."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if nodes[i][0] >= 0:
            stack += [nodes[i][5], nodes[i][4]]
    new_id = np.empty(len(nodes), dtype=np.intp)
    new_id[order] = np.arange(len(order))
    feature, threshold, gain, value, left, right = (
        np.array(col) for col in zip(*(nodes[i] for i in order)))
    split = feature >= 0
    return Tree(feature=feature, threshold=threshold, gain=gain,
                left=np.where(split, new_id[left], -1),
                right=np.where(split, new_id[right], -1), value=value)


def predict_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Per-row tree output: all rows descend one level per step together."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    node = np.zeros(X.shape[0], dtype=np.intp)
    active = np.flatnonzero(tree.feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = X[active, tree.feature[at]] <= tree.threshold[at]
        node[active] = np.where(goes_left, tree.left[at], tree.right[at])
        active = active[tree.feature[node[active]] >= 0]
    return tree.value[node]


def _goss_subset(
    g: np.ndarray, a: float, b: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Row subset and (g, h) amplification factors for one-side sampling."""
    n = len(g)
    n_top = int(a * n)
    n_rest = int(b * n)
    order = np.argsort(-np.abs(g), kind="stable")
    top = order[:n_top]
    rest = order[n_top:]
    sampled = rng.choice(rest, size=min(n_rest, len(rest)), replace=False)
    factors = np.concatenate([
        np.ones(len(top)),
        np.full(len(sampled), (1.0 - a) / b),
    ])
    subset = np.concatenate([top, sampled]).astype(int)
    order2 = np.argsort(subset, kind="stable")
    return subset[order2], factors[order2]


def newton_boost_fit(
    X: np.ndarray,
    y: np.ndarray,
    params: BoostParams,
    feature_names: list[str] | None = None,
    seed: int = 0,
) -> BoostedModel:
    """Boosted ensemble: start from mean(y), add learning_rate * tree per round.

    ``objective_history[t]`` records the squared-error training objective plus
    the 0.5*lambda*sum(w^2) penalty after round t+1.
    """
    X, y, feature_names = _fit_inputs(X, y, feature_names)
    n = len(y)
    base = float(y.mean())
    pred = np.full(n, base)
    model = BoostedModel(
        base_score=base,
        learning_rate=params.learning_rate,
        trees=[],
        feature_names=feature_names,
    )
    rng = np.random.default_rng(derive_seed(seed, "goss"))
    splitter = _Splitter(X, params)
    weight_penalty = 0.0
    for _ in range(params.n_trees):
        g, h = gradients_squared_loss(y, pred)
        if params.goss is not None:
            a, b = params.goss
            subset, factors = _goss_subset(g, a, b, rng)
            amplify = _scatter(factors, subset, n)
            tree = splitter.grow(subset, g * amplify, h * amplify)
        else:
            tree = splitter.grow(np.arange(n), g, h)
        model.trees.append(tree)
        pred = pred + params.learning_rate * predict_tree(tree, X)
        weight_penalty += sum(
            w**2 for w in tree.value[tree.leaves()].tolist())
        obj = float(np.sum((y - pred) ** 2)) + 0.5 * params.lam * weight_penalty
        model.objective_history.append(obj)
    return model


def _fit_inputs(
    X, y, feature_names: list[str] | None,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``X`` as a float matrix, ``y`` as one float per row of it, and one
    feature name per column (x0, x1, ... when None); a length that does not
    match raises :class:`ParameterError`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(X.shape[1])]
    if len(feature_names) != X.shape[1]:
        raise ParameterError("feature_names length mismatch")
    if y.shape != X.shape[:1]:
        raise ParameterError("y must hold one value per row of X")
    return X, y, list(feature_names)


def _scatter(factors: np.ndarray, subset: np.ndarray, n: int) -> np.ndarray:
    out = np.ones(n)
    out[subset] = factors
    return out


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    feature_names: list[str] | None = None,
) -> ForestModel:
    """Bagged variance-reduction trees; prediction is the mean over trees."""
    X, y, feature_names = _fit_inputs(X, y, feature_names)
    n = len(y)
    tree_params = BoostParams(
        n_trees=1, learning_rate=1.0, lam=0.0,
        max_depth=params.max_depth, splitter="exact",
    )
    ranks = _dense_ranks(X)
    trees = []
    seeds = []
    for i in range(params.n_trees):
        tree_seed = derive_seed(params.seed, "forest-tree", i)
        seeds.append(tree_seed)
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, n, size=n)
        Xb, yb = X[rows], y[rows]
        # g = -2y, h = 2 makes the Newton gain the SSE reduction and the
        # leaf weight the target mean
        g = -2.0 * yb
        h = np.full(n, 2.0)
        splitter = _Splitter(Xb, tree_params, ranks=ranks[:, rows])
        trees.append(
            splitter.grow(np.arange(n), g, h, rng=rng, m=params.m)
        )
    return ForestModel(trees=trees, tree_seeds=seeds, m=params.m,
                       feature_names=feature_names)


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Dense ranks of each column of ``X``, feature-major (F, n): equal
    values share a rank (-0.0 and 0.0 too), so a stable argsort of a
    column's ranks orders its rows as a stable argsort of its values does.
    The ranks are uint16 when n < 65536, which numpy radix-sorts."""
    n, F = X.shape
    ranks = np.empty((F, n), dtype=np.uint16 if n < 1 << 16 else np.intp)
    for f in range(F):
        ranks[f] = np.unique(X[:, f], return_inverse=True)[1]
    return ranks


def predict(model: BoostedModel | ForestModel, X: np.ndarray) -> np.ndarray:
    """Deterministic prediction for either model kind."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.feature_names):
        raise ParameterError(
            f"expected {len(model.feature_names)} features, got {X.shape[1]}"
        )
    if isinstance(model, BoostedModel):
        out = np.full(X.shape[0], model.base_score)
        for tree in model.trees:
            out = out + model.learning_rate * predict_tree(tree, X)
        return out
    out = np.zeros(X.shape[0])
    for tree in model.trees:
        out += predict_tree(tree, X)
    return out / len(model.trees)


def importance(model: BoostedModel | ForestModel, kind: str) -> np.ndarray:
    """Per-feature importance, a float array in ``model.feature_names`` order.

    Boosted models support ``gain`` (mean split gain per feature, 0 for a
    feature never split on) and ``split_count``. Forests support
    ``impurity_decrease`` (summed SSE reduction, normalized to sum 1) and
    ``split_count``.
    """
    boosted = isinstance(model, BoostedModel)
    allowed = {"gain", "split_count"} if boosted else {
        "impurity_decrease", "split_count"}
    if kind not in allowed:
        raise ParameterError(
            f"kind {kind!r} incompatible with "
            f"{'boosted' if boosted else 'forest'} model"
        )
    # every split of every tree, in pre-order: bincount adds each feature's
    # gains in that order
    feature = np.concatenate([t.feature for t in model.trees] or [[-1]])
    gain = np.concatenate([t.gain for t in model.trees] or [[0.0]])
    split = feature >= 0
    n_features = len(model.feature_names)
    counts = np.bincount(feature[split], minlength=n_features)
    totals = np.bincount(feature[split], weights=gain[split],
                         minlength=n_features)
    if kind == "split_count":
        return counts.astype(float)
    if kind == "gain":
        return np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    # impurity_decrease: summed SSE reduction over its total, taken with
    # Python's sum as always (np.sum adds pairwise and changes the last bits)
    total = sum(totals.tolist())
    return totals / total if total > 0 else totals


# --- serialization -----------------------------------------------------------

_TREE_ARRAYS = ("feature", "threshold", "gain", "left", "right", "value")
# payload keys of each model type, besides version, type, feature_names, trees
_MODEL_KEYS = {"boosted": ("base_score", "learning_rate"),
               "forest": ("tree_seeds", "m")}


def model_to_dict(model: BoostedModel | ForestModel) -> dict:
    trees = [{name: getattr(t, name).tolist() for name in _TREE_ARRAYS}
             for t in model.trees]
    if isinstance(model, BoostedModel):
        return {
            "version": MODEL_FORMAT_VERSION,
            "type": "boosted",
            "base_score": model.base_score,
            "learning_rate": model.learning_rate,
            "feature_names": model.feature_names,
            "trees": trees,
        }
    return {
        "version": MODEL_FORMAT_VERSION,
        "type": "forest",
        "feature_names": model.feature_names,
        "tree_seeds": model.tree_seeds,
        "m": model.m,
        "trees": trees,
    }


def _require(data: dict, keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in data]
    if missing:
        raise ParameterError(f"{what} payload lacks {', '.join(missing)}")


def _numbers(values, what: str, integer: bool = False,
             ndim: int = 1) -> np.ndarray:
    """``values``, ``ndim`` levels of nested lists of finite JSON numbers
    (integers when ``integer``), as a float or intp array; anything else,
    ragged lists included, raises :class:`ParameterError`."""
    kind = int if integer else (int, float)

    def valid(v, depth: int) -> bool:
        if depth:
            return isinstance(v, list) and all(valid(u, depth - 1) for u in v)
        return isinstance(v, kind) and not isinstance(v, bool)

    if not valid(values, ndim):
        raise ParameterError(f"{what} must be a list{' of lists' * (ndim - 1)}"
                             f" of {'integers' if integer else 'numbers'}")
    try:
        array = np.array(values, dtype=np.intp if integer else float)
    except (OverflowError, ValueError) as exc:
        raise ParameterError(
            f"{what} holds a number out of range or ragged lists") from exc
    if not np.isfinite(array).all():
        raise ParameterError(f"{what} must be finite")
    return array


def _tree_from_dict(data: dict, n_features: int) -> Tree:
    """A ``Tree`` from its arrays, checked so that every walk from the root
    ends on a leaf: each child's index is after its parent's and inside the
    tree."""
    if not isinstance(data, dict):
        raise ParameterError(
            f"tree entry must be an object, got {type(data).__name__}")
    _require(data, _TREE_ARRAYS, "tree")
    arrays = {name: _numbers(data[name], f"tree {name}",
                             integer=name in ("feature", "left", "right"))
              for name in _TREE_ARRAYS}
    n = arrays["feature"].size
    if n == 0 or any(a.shape != (n,) for a in arrays.values()):
        raise ParameterError("tree arrays must be nonempty and of equal length")
    tree = Tree(**arrays)
    parent = tree.splits()
    children = np.concatenate([tree.left[parent], tree.right[parent]])
    if (np.any(tree.feature < -1) or np.any(tree.feature >= n_features)
            or np.any(children <= np.tile(parent, 2))
            or np.any(children >= n)):
        raise ParameterError(
            "malformed tree: every feature must be in [-1, n_features) and "
            "every child index after its parent's and below the node count")
    return tree


def model_from_dict(data: dict) -> BoostedModel | ForestModel:
    """Rebuild a model from :func:`model_to_dict` output. A payload that is
    not an object, another version, an unknown ``type``, a missing key,
    ``feature_names`` that are not a list of strings, a value of the wrong
    type or range, or a malformed tree raises :class:`ParameterError`."""
    if not isinstance(data, dict):
        raise ParameterError(
            f"model payload must be an object, got {type(data).__name__}")
    if data.get("version") != MODEL_FORMAT_VERSION:
        raise ParameterError(f"unsupported model version {data.get('version')}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ParameterError(f"unknown model type {kind!r}")
    _require(data, ("feature_names", "trees", *_MODEL_KEYS[kind]),
             f"{kind} model")
    names = data["feature_names"]
    if not (isinstance(names, list)
            and all(isinstance(name, str) for name in names)):
        raise ParameterError("feature_names must be a list of strings")
    if not isinstance(data["trees"], list):
        raise ParameterError("trees must be a list")
    trees = [_tree_from_dict(t, len(names)) for t in data["trees"]]
    if kind == "boosted":
        base_score, learning_rate = _numbers(
            [data["base_score"], data["learning_rate"]],
            "base_score and learning_rate").tolist()
        if not 0.0 < learning_rate <= 1.0:
            raise ParameterError("learning_rate must be in (0, 1]")
        return BoostedModel(base_score=base_score, learning_rate=learning_rate,
                            trees=trees, feature_names=list(names))
    m = data["m"]
    if not trees or (m is not None and not (
            isinstance(m, int) and not isinstance(m, bool) and m >= 1)):
        raise ParameterError("a forest needs a tree and m None or >= 1")
    return ForestModel(
        trees=trees, m=m, feature_names=list(names),
        tree_seeds=_numbers(data["tree_seeds"], "tree_seeds", True).tolist())


def save_model(model: BoostedModel | ForestModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
