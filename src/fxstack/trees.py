"""From-scratch regression trees, Newton boosting, and random forests.

The boosted learner follows the second-order (g, h) formulation: leaf
weights are -G/(H + lambda) and split gains compare the one-split objective
against no split. The histogram splitter, leaf-wise growth, and GOSS row
sampling give the lighter gradient-boosting variant; the forest reuses the
same grower with g = -2y, h = 2, under which the split gain reduces exactly
to the variance (SSE) reduction used for impurity importance.

All fits are deterministic under a fixed seed; parallel reductions are not
used, so results do not depend on thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError, ParameterError
from .seeding import derive_seed

MODEL_FORMAT_VERSION = 1


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


def split_gain(
    G_L: float, H_L: float, G_R: float, H_R: float, lam: float, gamma: float
) -> float:
    """Objective reduction of one split versus keeping the parent leaf."""
    if H_L + lam <= 0 or H_R + lam <= 0:
        raise DegenerateFitError("H + lambda must be > 0 on both sides")
    return 0.5 * (
        G_L * G_L / (H_L + lam)
        + G_R * G_R / (H_R + lam)
        - (G_L + G_R) ** 2 / (H_L + H_R + lam)
    ) - gamma


@dataclass
class TreeNode:
    """Split node when ``feature`` is set, otherwise a leaf with ``weight``."""

    feature: int | None = None
    threshold: float = 0.0
    gain: float = 0.0
    weight: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def leaves(self) -> list["TreeNode"]:
        if self.is_leaf:
            return [self]
        return self.left.leaves() + self.right.leaves()

    def splits(self) -> list["TreeNode"]:
        if self.is_leaf:
            return []
        return [self] + self.left.splits() + self.right.splits()


@dataclass(frozen=True)
class BoostParams:
    n_trees: int = 100
    learning_rate: float = 0.3
    lam: float = 1.0
    gamma: float = 0.0
    max_depth: int = 6
    max_leaves: int | None = None
    growth: str = "level"  # "level" | "leaf"
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
        if self.growth not in ("level", "leaf"):
            raise ParameterError(f"unknown growth {self.growth!r}")
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
        if self.m is not None and self.m < 1:
            raise ParameterError("m must be >= 1")


@dataclass
class BoostedModel:
    """prediction = base_score + learning_rate * sum of tree outputs."""

    base_score: float
    learning_rate: float
    trees: list[TreeNode]
    feature_names: list[str]
    objective_history: list[float] = field(default_factory=list)


@dataclass
class ForestModel:
    """prediction = mean of per-tree outputs."""

    trees: list[TreeNode]
    tree_seeds: list[int]
    m: int | None
    feature_names: list[str]


@dataclass(frozen=True)
class ImportanceVector:
    """Per-feature scores: gain, split_count, or impurity_decrease."""

    kind: str
    scores: dict[str, float]


class _Splitter:
    """Per-fit split finder; caches global sort orders or bin codes."""

    def __init__(self, X: np.ndarray, params: BoostParams):
        self.X = X
        self.params = params
        self.n, self.F = X.shape
        if params.splitter == "exact":
            self.sorted_idx = np.argsort(X, axis=0, kind="stable")
        else:
            self.cuts: list[np.ndarray] = []
            codes = np.empty((self.n, self.F), dtype=np.int32)
            for f in range(self.F):
                col = X[:, f]
                uniq = np.unique(col)
                if len(uniq) - 1 <= params.bins - 1:
                    cuts = (uniq[:-1] + uniq[1:]) / 2.0
                else:
                    qs = np.quantile(
                        col, np.linspace(0.0, 1.0, params.bins + 1)[1:-1]
                    )
                    cuts = np.unique(qs)
                self.cuts.append(cuts)
                codes[:, f] = np.searchsorted(cuts, col, side="left")
            self.codes = codes

    def best_split(
        self, idx: np.ndarray, features: np.ndarray
    ) -> tuple[float, int, float] | None:
        """Best (gain, feature, threshold) over node rows, or None.

        Ties break toward the lowest feature index, then lowest threshold.
        """
        lam, gamma = self.params.lam, self.params.gamma
        g, h = self._g[idx], self._h[idx]
        G, H = float(g.sum()), float(h.sum())
        best: tuple[float, int, float] | None = None
        if self.params.splitter == "exact":
            in_node = np.zeros(self.n, dtype=bool)
            in_node[idx] = True
        parent = G * G / (H + lam)
        for f in features:
            if self.params.splitter == "exact":
                order = self.sorted_idx[:, f]
                sel = order[in_node[order]]
                xs = self.X[sel, f]
                gl = np.cumsum(self._g[sel])[:-1]
                hl = np.cumsum(self._h[sel])[:-1]
                valid = xs[:-1] < xs[1:]
                thresholds = (xs[:-1] + xs[1:]) / 2.0
            else:
                codes = self.codes[idx, f]
                nbins = len(self.cuts[f]) + 1
                if nbins < 2:
                    continue
                gl = np.cumsum(np.bincount(codes, weights=g, minlength=nbins))[:-1]
                hl = np.cumsum(np.bincount(codes, weights=h, minlength=nbins))[:-1]
                counts = np.bincount(codes, minlength=nbins)
                left_n = np.cumsum(counts)[:-1]
                valid = (left_n > 0) & (left_n < len(idx))
                thresholds = self.cuts[f]
            if not valid.any():
                continue
            gr, hr = G - gl, H - hl
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = 0.5 * (
                    gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent
                ) - gamma
            gains = np.where(valid, gains, -np.inf)
            i = int(np.argmax(gains))  # argmax takes the first = lowest threshold
            gain = float(gains[i])
            if np.isfinite(gain) and (best is None or gain > best[0]):
                best = (gain, int(f), float(thresholds[i]))
        return best

    def grow(
        self,
        idx: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        rng: np.random.Generator | None = None,
        m: int | None = None,
    ) -> TreeNode:
        self._g, self._h = g, h
        params = self.params
        max_leaves = params.max_leaves or np.inf

        def make_leaf(node_idx: np.ndarray) -> TreeNode:
            G = float(g[node_idx].sum())
            H = float(h[node_idx].sum())
            return TreeNode(weight=leaf_weight(G, H, params.lam))

        def draw_features() -> np.ndarray:
            if m is None or m >= self.F:
                return np.arange(self.F)
            return np.sort(rng.choice(self.F, size=m, replace=False))

        root = TreeNode()
        # frontier entries: (node, rows, depth, cached best split or None)
        frontier: list[list] = [[root, idx, 0, None]]
        n_leaves = 1
        order_counter = 0
        while frontier:
            if params.growth == "level":
                entry = frontier.pop(0)
            else:
                # leaf-wise: evaluate all pending candidates, split the best
                for entry in frontier:
                    if entry[3] is None:
                        entry[3] = ("eval", self.best_split(
                            entry[1], draw_features()
                        ))
                candidates = [
                    e for e in frontier
                    if e[3][1] is not None and e[3][1][0] > 0
                    and e[2] < params.max_depth
                ]
                if not candidates or n_leaves >= max_leaves:
                    break
                entry = max(candidates, key=lambda e: e[3][1][0])
                frontier = [e for e in frontier if e is not entry]
            node, node_idx, depth, cached = entry
            if (
                depth >= params.max_depth
                or n_leaves >= max_leaves
                or len(node_idx) < 2
            ):
                leaf = make_leaf(node_idx)
                node.weight = leaf.weight
                continue
            found = cached[1] if cached else self.best_split(
                node_idx, draw_features()
            )
            if found is None or found[0] <= 0:
                node.weight = make_leaf(node_idx).weight
                continue
            gain, f, threshold = found
            mask = self.X[node_idx, f] <= threshold
            node.feature = f
            node.threshold = threshold
            node.gain = gain
            node.left = TreeNode()
            node.right = TreeNode()
            n_leaves += 1
            order_counter += 1
            frontier.append([node.left, node_idx[mask], depth + 1, None])
            frontier.append([node.right, node_idx[~mask], depth + 1, None])
        for entry in frontier:  # unexpanded leaf-wise leftovers become leaves
            node, node_idx = entry[0], entry[1]
            if node.is_leaf and node.left is None:
                node.weight = make_leaf(node_idx).weight
        return root


def _predict_tree(node: TreeNode, X: np.ndarray, idx: np.ndarray,
                  out: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.weight
        return
    mask = X[idx, node.feature] <= node.threshold
    _predict_tree(node.left, X, idx[mask], out)
    _predict_tree(node.right, X, idx[~mask], out)


def predict_tree(node: TreeNode, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(X.shape[0])
    _predict_tree(node, X, np.arange(X.shape[0]), out)
    return out


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
        weight_penalty += sum(leaf.weight**2 for leaf in tree.leaves())
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
        max_depth=params.max_depth, growth="level", splitter="exact",
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


def importance(
    model: BoostedModel | ForestModel,
    kind: str,
    gain_mode: str = "average",
) -> ImportanceVector:
    """Per-feature importance.

    Boosted models support ``gain`` (mean split gain per feature; total with
    ``gain_mode='total'``) and ``split_count``. Forests support
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
    gains: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for tree in model.trees:
        for split in tree.splits():
            gains.setdefault(split.feature, []).append(split.gain)
            counts[split.feature] = counts.get(split.feature, 0) + 1
    scores: dict[str, float] = {}
    for f, name in enumerate(model.feature_names):
        if kind == "split_count":
            scores[name] = float(counts.get(f, 0))
        elif kind == "gain":
            values = gains.get(f, [])
            if not values:
                scores[name] = 0.0
            elif gain_mode == "total":
                scores[name] = float(sum(values))
            else:
                scores[name] = float(sum(values) / len(values))
        else:  # impurity_decrease
            scores[name] = float(sum(gains.get(f, [])))
    if kind == "impurity_decrease":
        total = sum(scores.values())
        if total > 0:
            scores = {k: v / total for k, v in scores.items()}
    return ImportanceVector(kind=kind, scores=scores)


# --- serialization -----------------------------------------------------------

def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "gain": node.gain,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(data: dict) -> TreeNode:
    if "feature" not in data:
        return TreeNode(weight=data["weight"])
    return TreeNode(
        feature=data["feature"],
        threshold=data["threshold"],
        gain=data["gain"],
        left=_node_from_dict(data["left"]),
        right=_node_from_dict(data["right"]),
    )


def model_to_dict(model: BoostedModel | ForestModel) -> dict:
    if isinstance(model, BoostedModel):
        return {
            "version": MODEL_FORMAT_VERSION,
            "type": "boosted",
            "base_score": model.base_score,
            "learning_rate": model.learning_rate,
            "feature_names": model.feature_names,
            "trees": [_node_to_dict(t) for t in model.trees],
        }
    return {
        "version": MODEL_FORMAT_VERSION,
        "type": "forest",
        "feature_names": model.feature_names,
        "tree_seeds": model.tree_seeds,
        "m": model.m,
        "trees": [_node_to_dict(t) for t in model.trees],
    }


def model_from_dict(data: dict) -> BoostedModel | ForestModel:
    if data.get("version") != MODEL_FORMAT_VERSION:
        raise ParameterError(f"unsupported model version {data.get('version')}")
    trees = [_node_from_dict(t) for t in data["trees"]]
    if data["type"] == "boosted":
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
