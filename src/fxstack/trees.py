"""From-scratch regression trees, Newton boosting, and random forests.

The boosted learner follows the second-order (g, h) formulation: leaf
weights are -G/(H + lambda) and split gains compare the one-split objective
against no split. One grower serves every learner. It searches each node
once, when the node is made; without ``max_leaves`` the tree grows level by
level (XGBoost), and with it the waiting node of highest gain splits first
until the tree has ``max_leaves`` leaves (LightGBM). The histogram splitter,
that leaf budget and GOSS row sampling give the lighter variant; the forest
grows level-wise with g = -2y, h = 2, under which the split gain reduces
exactly to the variance (SSE) reduction used for impurity importance.

A node's split search covers all candidate features in a few 2-D numpy
operations: the exact splitter carries each node's rows sorted per feature,
partitioned from its parent's (Chen & Guestrin, XGBoost, Alg. 1), and the
histogram splitter builds the whole (features x bins) grid with one
bincount (Ke et al., LightGBM). Within each feature the left sums still
accumulate in ascending row order, so gains, trees and importances are
bit-identical to a one-feature-at-a-time search (``tests/oracles.py``).

A grown tree is a ``Tree`` of parallel node arrays in pre-order, so
prediction walks all rows down together and importance is one bincount.

All fits are deterministic under a fixed seed; parallel reductions are not
used, so results do not depend on thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    gamma: float = 0.0
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
        if self.lam < 0 or self.gamma < 0:
            raise ParameterError("lambda and gamma must be >= 0")
        if self.max_depth < 0:
            raise ParameterError("max_depth must be >= 0")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ParameterError("max_leaves must be >= 1 (None = no limit)")
        if self.splitter not in ("exact", "histogram"):
            raise ParameterError(f"unknown splitter {self.splitter!r}")
        if self.splitter == "histogram" and self.bins < 2:
            raise ParameterError("histogram bins must be >= 2")
        if self.goss is not None:
            a, b = self.goss
            if not (a > 0 and b > 0 and a + b <= 1.0):
                raise ParameterError("goss requires a, b > 0 and a + b <= 1")


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 12
    m: int | None = None  # features drawn per split; None = all
    seed: int = 0
    bootstrap: bool = True

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


@dataclass(frozen=True)
class ImportanceVector:
    """Per-feature scores: gain, split_count, or impurity_decrease."""

    kind: str
    scores: dict[str, float]


class _Splitter:
    """Per-fit split finder that searches all candidate features at once.

    The exact splitter sorts each feature's rows once per fit and hands every
    node its rows in ascending-x order as an (F, m) matrix, partitioned from
    its parent's. The histogram splitter keeps feature-major bin codes (F, n)
    and per-feature cut points padded with NaN to (F, bins - 1).
    """

    def __init__(self, X: np.ndarray, params: BoostParams):
        self.X = X
        self.params = params
        self.n, self.F = X.shape
        if params.splitter == "exact":
            self.XT = np.ascontiguousarray(X.T)
            self.sorted_rows = np.argsort(self.XT, axis=1, kind="stable")
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
            self.codes = np.empty((self.F, self.n), dtype=np.intp)
            for f, c in enumerate(cuts):
                self.cuts[f, :len(c)] = c
                self.codes[f] = np.searchsorted(c, X[:, f], side="left")

    def sorted_rows_of(self, idx: np.ndarray) -> np.ndarray | None:
        """The rows ``idx`` in ascending-x order per feature, (F, m); None
        for the histogram splitter, which needs no sort order."""
        if self.params.splitter != "exact":
            return None
        in_node = np.zeros(self.n, dtype=bool)
        in_node[idx] = True
        return self.sorted_rows[in_node[self.sorted_rows]].reshape(
            self.F, int(in_node.sum()))

    def best_split(
        self,
        g: np.ndarray,
        h: np.ndarray,
        idx: np.ndarray,
        rows: np.ndarray | None,
        features: np.ndarray,
    ) -> tuple[float, int, float] | None:
        """Best (gain, feature, threshold) over node rows, or None.

        ``idx`` holds the node's rows, ``rows`` the same rows sorted per
        feature (exact splitter only). Each feature's left sums accumulate
        in the same row order as a one-feature-at-a-time search, so gains
        are bit-identical to it. Ties break toward the lowest feature index,
        then lowest threshold; a feature whose best gain is not finite is
        skipped.
        """
        lam, gamma = self.params.lam, self.params.gamma
        exact = rows is not None
        k = len(features)
        m = rows.shape[1] if exact else len(idx)
        if k == 0 or m < 2 or (not exact and self.cuts.shape[1] == 0):
            return None
        G, H = float(g[idx].sum()), float(h[idx].sum())
        if exact:
            sel = rows[features]  # (k, m) row ids, ascending x per feature
            xs = self.XT[features[:, None], sel]
            gl = np.cumsum(g[sel], axis=1)[:, :-1]
            hl = np.cumsum(h[sel], axis=1)[:, :-1]
            valid = xs[:, :-1] < xs[:, 1:]
        else:
            nbins = self.cuts.shape[1] + 1
            # one bincount over all features: feature r owns bins
            # [r * nbins, (r + 1) * nbins)
            codes = (self.codes[features[:, None], idx]
                     + (np.arange(k) * nbins)[:, None]).ravel()

            def left_sums(weights):
                hist = np.bincount(codes, weights=weights, minlength=k * nbins)
                return np.cumsum(hist.reshape(k, nbins), axis=1)[:, :-1]

            gl = left_sums(np.tile(g[idx], k))
            hl = left_sums(np.tile(h[idx], k))
            left_n = left_sums(None)
            valid = (left_n > 0) & (left_n < m)
        gr, hr = G - gl, H - hl
        parent = G * G / (H + lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (
                gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent
            ) - gamma
        gains = np.where(valid, gains, -np.inf)
        at = np.argmax(gains, axis=1)  # first maximum = lowest threshold
        row_best = gains[np.arange(k), at]
        finite = np.isfinite(row_best)
        if not finite.any():
            return None
        r = int(np.argmax(np.where(finite, row_best, -np.inf)))
        i = int(at[r])
        if exact:
            lo, hi = xs[r, i], xs[r, i + 1]
            threshold = (lo + hi) / 2.0
            if not threshold < hi:  # adjacent floats: the midpoint rounds up
                threshold = lo
        else:
            threshold = self.cuts[features[r], i]
        return float(row_best[r]), int(features[r]), float(threshold)

    def grow(
        self,
        idx: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        rng: np.random.Generator | None = None,
        m: int | None = None,
    ) -> Tree:
        """One tree over the rows ``idx``, drawing ``m`` features per node
        from ``rng`` (all of them when ``m`` is None).

        A node shallower than ``max_depth`` with two or more rows is searched
        once, when it is made, and waits to split if its best gain is
        positive. Without ``max_leaves`` the oldest waiting node splits next
        (level-wise); with it, the first one of highest gain (leaf-wise),
        until the tree has ``max_leaves`` leaves; the rest stay leaves.
        """
        params = self.params
        budget = np.inf if params.max_leaves is None else params.max_leaves
        # nodes in creation order: [feature, threshold, gain, value, left,
        # right]; renumbered into pre-order once the tree is grown
        nodes: list[list] = []
        # (gain, feature, threshold, node id, rows, rows sorted per feature
        # or None, depth) of each node that waits to split
        frontier: list[tuple] = []

        def make_node(node_idx, rows, depth):
            value = leaf_weight(float(g[node_idx].sum()),
                                float(h[node_idx].sum()), params.lam)
            nodes.append([-1, 0.0, 0.0, value, -1, -1])
            if depth >= params.max_depth or len(node_idx) < 2:
                return
            features = (np.arange(self.F) if m is None or m >= self.F
                        else np.sort(rng.choice(self.F, size=m, replace=False)))
            found = self.best_split(g, h, node_idx, rows, features)
            if found is not None and found[0] > 0:
                frontier.append((*found, len(nodes) - 1, node_idx, rows, depth))

        make_node(idx, self.sorted_rows_of(idx), 0)
        n_leaves = 1
        while frontier and n_leaves < budget:
            # the first maximum: ties go to the node made first
            i = 0 if params.max_leaves is None else max(
                range(len(frontier)), key=lambda k: frontier[k][0])
            gain, f, threshold, node, node_idx, rows, depth = frontier.pop(i)
            nodes[node] = [f, threshold, gain, 0.0, len(nodes), len(nodes) + 1]
            n_leaves += 1
            goes_left = self.X[:, f] <= threshold
            for side in (goes_left, ~goes_left):
                child_rows = (None if rows is None
                              else rows[side[rows]].reshape(self.F, -1))
                make_node(node_idx[side[node_idx]], child_rows, depth + 1)
        return _preorder_tree(nodes)


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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, F = X.shape
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(F)]
    if len(feature_names) != F:
        raise ParameterError("feature_names length mismatch")
    base = float(y.mean())
    pred = np.full(n, base)
    model = BoostedModel(
        base_score=base,
        learning_rate=params.learning_rate,
        trees=[],
        feature_names=list(feature_names),
    )
    rng = np.random.default_rng(derive_seed(seed, "goss"))
    splitter = _Splitter(X, params)
    weight_penalty = 0.0
    for _ in range(params.n_trees):
        g, h = gradients_squared_loss(y, pred)
        if params.goss is not None:
            a, b = params.goss
            subset, factors = _goss_subset(g, a, b, rng)
            tree = splitter.grow(subset, g * _scatter(factors, subset, n),
                                 h * _scatter(factors, subset, n))
        else:
            tree = splitter.grow(np.arange(n), g, h)
        model.trees.append(tree)
        pred = pred + params.learning_rate * predict_tree(tree, X)
        weight_penalty += sum(
            w**2 for w in tree.value[tree.leaves()].tolist())
        obj = float(np.sum((y - pred) ** 2)) + 0.5 * params.lam * weight_penalty
        model.objective_history.append(obj)
    return model


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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, F = X.shape
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(F)]
    tree_params = BoostParams(
        n_trees=1, learning_rate=1.0, lam=0.0, gamma=0.0,
        max_depth=params.max_depth, splitter="exact",
    )
    trees = []
    seeds = []
    for i in range(params.n_trees):
        tree_seed = derive_seed(params.seed, "forest-tree", i)
        seeds.append(tree_seed)
        rng = np.random.default_rng(tree_seed)
        if params.bootstrap:
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        Xb, yb = X[rows], y[rows]
        # g = -2y, h = 2 makes the Newton gain the SSE reduction and the
        # leaf weight the target mean
        g = -2.0 * yb
        h = np.full(n, 2.0)
        splitter = _Splitter(Xb, tree_params)
        trees.append(
            splitter.grow(np.arange(n), g, h, rng=rng, m=params.m)
        )
    return ForestModel(
        trees=trees, tree_seeds=seeds, m=params.m,
        feature_names=list(feature_names),
    )


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


def importance(model: BoostedModel | ForestModel, kind: str) -> ImportanceVector:
    """Per-feature importance.

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
        values = counts.astype(float)
    elif kind == "gain":
        values = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    else:  # impurity_decrease: summed SSE reduction
        values = totals
    scores = dict(zip(model.feature_names, values.tolist()))
    if kind == "impurity_decrease":
        total = sum(scores.values())
        if total > 0:
            scores = {k: v / total for k, v in scores.items()}
    return ImportanceVector(kind=kind, scores=scores)


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


def _tree_from_dict(data: dict, n_features: int) -> Tree:
    """A ``Tree`` from its arrays, checked so that every walk from the root
    ends on a leaf: each child's index is after its parent's and inside the
    tree."""
    _require(data, _TREE_ARRAYS, "tree")
    arrays = {
        name: np.asarray(data[name], dtype=float
                         if name in ("threshold", "gain", "value") else np.intp)
        for name in _TREE_ARRAYS
    }
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
    """Rebuild a model from :func:`model_to_dict` output. Another version,
    an unknown ``type``, a missing key or a malformed tree raises
    :class:`ParameterError`."""
    if data.get("version") != MODEL_FORMAT_VERSION:
        raise ParameterError(f"unsupported model version {data.get('version')}")
    kind = data.get("type")
    if kind not in _MODEL_KEYS:
        raise ParameterError(f"unknown model type {kind!r}")
    _require(data, ("feature_names", "trees", *_MODEL_KEYS[kind]),
             f"{kind} model")
    n_features = len(data["feature_names"])
    trees = [_tree_from_dict(t, n_features) for t in data["trees"]]
    if kind == "boosted":
        return BoostedModel(
            base_score=data["base_score"],
            learning_rate=data["learning_rate"],
            trees=trees,
            feature_names=list(data["feature_names"]),
        )
    return ForestModel(
        trees=trees,
        tree_seeds=list(data["tree_seeds"]),
        m=data["m"],
        feature_names=list(data["feature_names"]),
    )


def save_model(model: BoostedModel | ForestModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
