import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxstack import trees
from fxstack.errors import DegenerateFitError, ParameterError
from oracles import (best_split_oracle, grow_oracle, importance_oracle,
                     sorted_rows, split_gain)


def random_data(n=500, f=20, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, f)), rng.normal(size=n)


def test_leaf_weight_hand_value():
    assert trees.leaf_weight(4.0, 3.0, 1.0) == pytest.approx(-1.0)
    assert trees.leaf_weight(0.0, 5.0, 0.0) == 0.0


def test_split_gain_hand_values():
    # G_L=2,H_L=1 | G_R=-2,H_R=1, lambda=0:
    # 1/2 * (4/1 + 4/1 - 0/2) = 4
    assert split_gain(2.0, 1.0, -2.0, 1.0, 0.0) == pytest.approx(4.0)
    # G_L=1,H_L=1 | G_R=1,H_R=1, lambda=1:
    # 1/2 * (1/2 + 1/2 - 4/3) = -1/6
    assert split_gain(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(-1 / 6)


def test_gradients_squared_loss():
    y = np.array([1.0, 2.0])
    pred = np.array([1.5, 1.0])
    g, h = trees.gradients_squared_loss(y, pred)
    np.testing.assert_allclose(g, [1.0, -2.0])
    np.testing.assert_allclose(h, [2.0, 2.0])


def test_objective_history_non_increasing():
    X, y = random_data(500, 20, seed=1)
    model = trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=100, learning_rate=0.3), seed=0)
    hist = np.array(model.objective_history)
    assert len(hist) == 100
    assert np.all(np.diff(hist) <= 1e-9)


def test_single_unlimited_tree_interpolates():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = trees.newton_boost_fit(
        X, y,
        trees.BoostParams(n_trees=1, learning_rate=1.0, lam=0.0,
                          max_depth=64),
        seed=0)
    rmse = np.sqrt(np.mean((trees.predict(model, X) - y) ** 2))
    assert rmse < 1e-10


def test_exact_and_histogram_agree_on_small_cardinality():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 8, size=(300, 5)).astype(float)
    y = rng.normal(size=300)
    exact = trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=5, max_depth=4, splitter="exact"),
        seed=3)
    hist = trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=5, max_depth=4, splitter="histogram",
                                bins=64),
        seed=3)
    np.testing.assert_allclose(trees.predict(exact, X),
                               trees.predict(hist, X), atol=1e-12)


def test_histogram_thresholds_are_cut_points():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(400, 4))
    y = X[:, 1] * 2.0 + rng.normal(size=400) * 0.01
    model = trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=3, max_depth=3, splitter="histogram",
                                bins=16),
        seed=0)
    for tree in model.trees:
        for node in tree.splits():
            col = X[:, tree.feature[node]]
            assert col.min() <= tree.threshold[node] <= col.max()


def test_leaf_wise_growth_respects_max_leaves():
    X, y = random_data(400, 10, seed=9)
    model = trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=5, max_leaves=8, max_depth=32),
        seed=1)
    assert all(len(t.leaves()) <= 8 for t in model.trees)


def test_goss_subsampling_trains_and_is_deterministic():
    X, y = random_data(500, 10, seed=4)
    params = trees.BoostParams(n_trees=10, max_leaves=8, splitter="histogram",
                               bins=32, goss=(0.2, 0.1))
    a = trees.newton_boost_fit(X, y, params, seed=3)
    b = trees.newton_boost_fit(X, y, params, seed=3)
    np.testing.assert_array_equal(trees.predict(a, X), trees.predict(b, X))
    c = trees.newton_boost_fit(X, y, params, seed=4)
    assert not np.array_equal(trees.predict(a, X), trees.predict(c, X))


def test_boosting_importance_finds_planted_feature():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 50))
    y = 3.0 * X[:, 3] + rng.normal(size=2000) * 0.1
    model = trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=20, max_depth=4), seed=0)
    scores = trees.importance(model, "gain")
    assert model.feature_names[int(np.argmax(scores))] == "x3"


def test_forest_importance_finds_planted_feature():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 50))
    y = 3.0 * X[:, 3] + rng.normal(size=2000) * 0.1
    model = trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=10, max_depth=6), seed=0)
    scores = trees.importance(model, "impurity_decrease")
    assert model.feature_names[int(np.argmax(scores))] == "x3"
    assert sum(scores.tolist()) == pytest.approx(1.0)


def test_forest_prediction_is_mean_of_trees():
    X, y = random_data(200, 5, seed=8)
    model = trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=7, max_depth=4), seed=2)
    per_tree = np.mean(
        [trees.predict_tree(t, X) for t in model.trees], axis=0)
    np.testing.assert_allclose(trees.predict(model, X), per_tree, atol=1e-12)


def test_forest_variance_reduction_leaf_is_mean():
    """With g=-2y, h=2, lam=0 the leaf weight equals the leaf's mean label."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 1))
    y = rng.normal(size=100)
    model = trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=1, max_depth=1), seed=0)
    # the tree's bootstrap sample: the first draw of its generator
    rows = np.random.default_rng(model.tree_seeds[0]).integers(0, 100, 100)
    X, y = X[rows], y[rows]
    tree = model.trees[0]
    assert list(tree.leaves()) == [tree.left[0], tree.right[0]]
    goes_left = X[:, tree.feature[0]] <= tree.threshold[0]
    assert tree.value[tree.left[0]] == pytest.approx(y[goes_left].mean())
    assert tree.value[tree.right[0]] == pytest.approx(y[~goes_left].mean())


def test_importance_kind_compatibility():
    X, y = random_data(100, 3, seed=0)
    boosted = trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=2, max_depth=2), seed=0)
    forest = trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=2, max_depth=2), seed=0)
    with pytest.raises(ParameterError):
        trees.importance(boosted, "impurity_decrease")
    with pytest.raises(ParameterError):
        trees.importance(forest, "gain")
    assert trees.importance(boosted, "split_count").shape == (3,)
    assert trees.importance(forest, "split_count").shape == (3,)


IMPORTANCE_FITS = {
    "exact": (("gain", "split_count"), lambda X, y: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=6, max_depth=3), seed=1)),
    "histogram-goss": (("gain", "split_count"),
                       lambda X, y: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=6, max_depth=4, max_leaves=7,
                                splitter="histogram", bins=16,
                                goss=(0.2, 0.1)), seed=2)),
    "forest": (("impurity_decrease", "split_count"),
               lambda X, y: trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=5, max_depth=4, m=4), seed=3)),
}


@pytest.mark.parametrize("case", IMPORTANCE_FITS)
def test_importance_matches_per_split_oracle(case):
    """Every kind equals the pre-order per-split sums bit for bit, also on
    features never split on; a constant label grows no split, and every
    kind then gives zeros without a warning."""
    kinds, fit = IMPORTANCE_FITS[case]
    # seed 4: the forest's impurity total by Python's sum differs in its
    # last bits from np.sum's pairwise one
    X, y = random_data(300, 12, seed=4)
    X[:, 9:] = 1.5  # constant columns, which no split can use
    model = fit(X, y)
    counts = trees.importance(model, "split_count")
    assert counts.max() > 0 and counts.min() == 0
    for kind in kinds:
        got = trees.importance(model, kind)
        assert got.dtype == float and got.shape == (12,)
        assert got.tolist() == importance_oracle(model, kind)
    # 0.5 keeps every gradient sum exact; see the next test for 0.7
    flat = fit(X, np.full(300, 0.5))
    assert all(len(t.splits()) == 0 for t in flat.trees)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in kinds:
            assert trees.importance(flat, kind).tolist() == [0.0] * 12
            assert importance_oracle(flat, kind) == [0.0] * 12


@pytest.mark.parametrize("label", [0.7, 0.1])
def test_forest_does_not_split_a_constant_label(label):
    """A constant label that no float holds exactly leaves the prefix sums
    of its gradients a few ulps apart, and so split gains of about 1e-14:
    the forest grows no split on them, and its impurity importance is all
    zeros without a warning."""
    X, _ = random_data(300, 12, seed=3)
    model = trees.fit_random_forest(
        X, np.full(300, label),
        trees.ForestParams(n_trees=5, max_depth=4, m=4), seed=3)
    assert [len(t.splits()) for t in model.trees] == [0] * 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (trees.importance(model, "impurity_decrease").tolist()
                == [0.0] * 12)


def test_serialization_roundtrip():
    X, y = random_data(300, 6, seed=6)
    for model in (
        trees.newton_boost_fit(
            X, y, trees.BoostParams(n_trees=4, max_depth=3), seed=1),
        trees.fit_random_forest(
            X, y, trees.ForestParams(n_trees=3, max_depth=3), seed=1),
    ):
        payload = json.loads(json.dumps(trees.model_to_dict(model)))
        restored = trees.model_from_dict(payload)
        np.testing.assert_allclose(trees.predict(restored, X),
                                   trees.predict(model, X), atol=1e-15)


@pytest.mark.parametrize("fit", [
    lambda X, y: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=1, max_depth=1), seed=0),
    lambda X, y: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=1, max_depth=1, splitter="histogram"),
        seed=0),
    lambda X, y: trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=1, max_depth=1, m=None), seed=0),
], ids=["exact", "histogram", "forest"])
def test_split_tie_break_lowest_feature_index(fit):
    # duplicated feature columns produce identical candidate gains; the split
    # must land on the lowest feature index with the lowest threshold
    rng = np.random.default_rng(0)
    col = rng.normal(size=200)
    X = np.column_stack([col, col, col])
    y = (col > 0).astype(float)
    assert fit(X, y).trees[0].feature[0] == 0


def test_adjacent_float_split_separates_rows():
    # (a + b) / 2 rounds up to b for adjacent floats, which would send every
    # row left; the threshold must fall back to a
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    X = np.array([[a], [a], [b], [b]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    boosted = trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=1, max_depth=1, lam=0.0,
                                learning_rate=1.0), seed=0)
    tree = boosted.trees[0]
    assert tree.threshold[0] == a
    np.testing.assert_array_equal(tree.value[tree.leaves()], [-0.5, 0.5])
    np.testing.assert_array_equal(trees.predict(boosted, X), y)
    # ten copies of each row, so that the bootstrap sample holds a and b
    X, y = np.repeat(X, 10, axis=0), np.repeat(y, 10)
    forest = trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=1, max_depth=2))
    np.testing.assert_array_equal(trees.predict(forest, X), y)


def split_search_data(n=240, seed=11):
    """Columns that stress the split search: a duplicate, a constant
    column (a single bin), tied values and a few-valued integer column."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 10))
    X[:, 3] = X[:, 1]
    X[:, 5] = 0.7
    X[:, 7] = rng.integers(0, 4, size=n)
    X[:, 8] = np.round(X[:, 8], 1)
    y = X[:, 1] - 0.5 * X[:, 7] + rng.normal(size=n) * 0.3
    return X, y


@pytest.mark.parametrize("splitter", ["exact", "histogram"])
def test_best_split_matches_per_feature_oracle(monkeypatch, splitter):
    X, y = split_search_data()
    n, F = X.shape
    rng = np.random.default_rng(5)
    g, h = trees.gradients_squared_loss(y, np.full(n, y.mean()))
    subset, factors = trees._goss_subset(g, 0.2, 0.3, rng)
    goss_g = g * trees._scatter(factors, subset, n)
    goss_h = h * trees._scatter(factors, subset, n)
    # zero hessians at lam = 0 give 0/0 and x/0 gains: such a feature's
    # best gain is NaN or inf, and it must be skipped
    flat_g, flat_h = g.copy(), h.copy()
    flat_g[::7] = 0.0
    flat_h[::7] = 0.0
    flat_h[3::11] = 0.0
    # the exact splitter takes a hessian of one value over all rows and
    # draws features; the histogram splitter takes any hessian (GOSS's
    # over a row subset) and searches every feature
    exact = splitter == "exact"
    cases = [
        (trees.BoostParams(splitter=splitter, bins=16), g, h, None),
        (trees.BoostParams(splitter=splitter, lam=0.0, bins=16),
         flat_g, h if exact else flat_h, None),
        (trees.BoostParams(splitter=splitter, bins=256), g, h, None),
        (trees.BoostParams(splitter=splitter, lam=0.0, bins=8), g, h, None),
    ] + ([] if exact else [
        (trees.BoostParams(splitter=splitter, bins=16), goss_g, goss_h,
         subset),
    ])
    found = 0
    chunks = (trees._CHUNK, 7, 600)
    for params, gg, hh, rows in cases:
        finder = trees._Splitter(X, params)
        pool = np.arange(n) if rows is None else rows
        # the prefix sums of a constant h; a hessian that varies has none
        if hh is h:
            h_prefix = trees._constant_prefix(hh[pool])
        else:
            h_prefix = None
            with pytest.raises(ParameterError):
                trees._constant_prefix(hh[pool])
        cands, wants = [], []
        for trial in range(25):
            size = int(rng.integers(0, len(pool) + 1))
            idx = np.sort(rng.choice(pool, size=size, replace=False))
            features = np.sort(rng.choice(
                F, size=int(rng.integers(1, F + 1)), replace=False))
            if not exact:
                features = np.arange(F)
            elif trial == 0:
                features = np.array([5])  # constant column alone: no split
            cands.append(trees._Candidate(
                idx, sorted_rows(X, idx) if exact else None, features,
                float(gg[idx].sum()), float(hh[idx].sum())))
            wants.append(best_split_oracle(X, gg, hh, idx, features, params))
            # one node alone
            got, = finder.search(gg, hh, cands[-1:], h_prefix)
            assert got == wants[-1], (params, trial)
            found += got is not None
        # all nodes in one search, and with chunks that split a node's
        # features and hold many nodes
        for chunk in chunks:
            monkeypatch.setattr(trees, "_CHUNK", chunk)
            assert finder.search(gg, hh, cands, h_prefix) == wants, (
                params, chunk)
    assert found > 50


def test_grown_trees_match_per_feature_oracle(monkeypatch):
    """Whole fits, with each child's sorted rows partitioned from its
    parent's, equal fits whose every split comes from the oracle."""
    X, y = split_search_data(n=300, seed=12)
    fits = [
        lambda: trees.newton_boost_fit(
            X, y, trees.BoostParams(n_trees=3, max_depth=5), seed=0),
        lambda: trees.newton_boost_fit(
            X, y, trees.BoostParams(
                n_trees=3, max_depth=8, max_leaves=12,
                splitter="histogram", bins=16, goss=(0.2, 0.3)), seed=1),
        lambda: trees.newton_boost_fit(
            X, y, trees.BoostParams(
                n_trees=2, max_depth=6, lam=0.0, splitter="histogram",
                goss=(0.3, 0.3)), seed=2),
        lambda: trees.fit_random_forest(
            X, y, trees.ForestParams(n_trees=3, max_depth=6, m=4), seed=3),
    ]
    vectorised = [trees.model_to_dict(fit()) for fit in fits]

    def oracle_search(self, g, h, cands, h_prefix=None):
        return [best_split_oracle(self.X, g, h, c.idx, c.features,
                                  self.params) for c in cands]

    monkeypatch.setattr(trees._Splitter, "search", oracle_search)
    for fit, got in zip(fits, vectorised):
        want = trees.model_to_dict(fit())
        assert json.dumps(got) == json.dumps(want)


GROWER_CASES = [  # (the growth mode of the oracle, fit)
    ("level", lambda X, y, s: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=3, max_depth=5), seed=s)),
    ("leaf", lambda X, y, s: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=3, max_depth=8, max_leaves=12,
                                splitter="histogram", bins=16,
                                goss=(0.2, 0.3)), seed=s)),
    ("leaf", lambda X, y, s: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=3, max_depth=6, max_leaves=10),
        seed=s)),
    # leaf-wise growth without a budget splits the nodes level-wise does
    ("leaf", lambda X, y, s: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=2, max_depth=6, lam=0.0), seed=s)),
    ("level", lambda X, y, s: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=2, max_depth=6, lam=0.0,
                                splitter="histogram", goss=(0.3, 0.3)),
        seed=s)),
    ("leaf", lambda X, y, s: trees.newton_boost_fit(
        X, y, trees.BoostParams(n_trees=2, max_depth=4, max_leaves=1),
        seed=s)),
    ("level", lambda X, y, s: trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=3, max_depth=6, m=4), seed=s)),
    ("level", lambda X, y, s: trees.fit_random_forest(
        X, y, trees.ForestParams(n_trees=2, max_depth=4), seed=s)),
]


@pytest.mark.parametrize("seed", range(3))
def test_grower_matches_two_mode_oracle(monkeypatch, seed):
    """The grower builds the trees of the two-mode grower it replaced:
    level-wise without max_leaves, leaf-wise with it, on tied and duplicate
    columns and with per-node feature draws (forest m < F)."""
    X, y = split_search_data(n=300, seed=20 + seed)
    X[:, 9] = np.round(X[:, 9])  # a column of many ties
    got = [trees.model_to_dict(fit(X, y, seed)) for _, fit in GROWER_CASES]
    for (growth, fit), new in zip(GROWER_CASES, got):
        def grow(self, idx, g, h, rng=None, m=None, growth=growth):
            return grow_oracle(self, idx, g, h, growth, rng, m)

        monkeypatch.setattr(trees._Splitter, "grow", grow)
        want = trees.model_to_dict(fit(X, y, seed))
        assert json.dumps(new) == json.dumps(want), growth


def _outcome(fit):
    """The fit's trees as bytes, or the type of error it raised."""
    try:
        got = fit()
    except DegenerateFitError as err:
        return type(err)
    return [[getattr(t, name).tobytes() for name in trees._TREE_ARRAYS]
            for t in (got.trees if hasattr(got, "trees") else [got])]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 70), F=st.integers(1, 6), seed=st.integers(0, 9999),
       kind=st.sampled_from(["boost", "goss", "forest", "hessians"]),
       splitter=st.sampled_from(["exact", "histogram"]),
       max_depth=st.integers(0, 6), max_leaves=st.none() | st.integers(1, 12),
       lam=st.sampled_from([0.0, 1.0]), oracle_leaf=st.booleans())
def test_grower_matches_oracle_property(n, F, seed, kind, splitter, max_depth,
                                        max_leaves, lam, oracle_leaf):
    """On random data with ties, a constant column and both signs of zero,
    the grower builds the trees of the one-node-at-a-time oracle: boosting,
    forests drawing m < F features, and a bare grow over a row subset with
    zero hessians at lam = 0. GOSS and the bare grow take hessians that are
    not constant, which only the histogram splitter takes."""
    if kind in ("goss", "hessians"):
        splitter = "histogram"
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, F)), 1)
    X[:, rng.integers(F)] = 0.25
    X[rng.random((n, F)) < 0.15] = 0.0
    X[rng.random((n, F)) < 0.15] = -0.0
    y = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
    params = trees.BoostParams(
        n_trees=2, max_depth=max_depth, max_leaves=max_leaves, lam=lam,
        splitter=splitter, bins=int(rng.integers(2, 10)),
        goss=(0.3, 0.4) if kind == "goss" else None)
    if kind == "forest":
        # forests grow level-wise, and the leaf-wise oracle would draw
        # each node's features in another order
        max_leaves, oracle_leaf = None, False
        m = int(rng.integers(1, F + 1))

        def fit():
            return trees.fit_random_forest(X, y, trees.ForestParams(
                n_trees=2, max_depth=max_depth, m=m), seed=seed)
    elif kind == "hessians":
        g = rng.normal(size=n)
        h = rng.random(n)
        h[rng.random(n) < 0.4] = 0.0
        idx = np.flatnonzero(rng.random(n) < 0.8)
        params = trees.BoostParams(
            max_depth=max_depth, max_leaves=max_leaves, lam=0.0,
            splitter=splitter, bins=params.bins)

        def fit():
            return trees._Splitter(X, params).grow(idx, g, h)
    else:
        def fit():
            return trees.newton_boost_fit(X, y, params, seed=seed)
    growth = "leaf" if max_leaves is not None or oracle_leaf else "level"
    got = _outcome(fit)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees._Splitter, "grow",
                      lambda self, idx, g, h, rng=None, m=None: grow_oracle(
                          self, idx, g, h, growth, rng, m))
        want = _outcome(fit)
    assert got == want


def test_each_node_is_searched_once(monkeypatch):
    """At max_depth=1 leaf-wise growth searches the root alone: its two
    children can never split. The two-mode grower searched them too.
    Level-wise growth searches the nodes it searched before."""
    X, y = random_data(400, 10, seed=3)
    real = trees._Splitter.search
    calls = []

    def counting(self, g, h, cands, h_prefix=None):
        calls.extend(len(c.idx) for c in cands)
        return real(self, g, h, cands, h_prefix)

    def searches(params, growth=None):
        with monkeypatch.context() as patch:
            patch.setattr(trees._Splitter, "search", counting)
            if growth is not None:
                patch.setattr(trees._Splitter, "grow",
                              lambda self, idx, g, h: grow_oracle(
                                  self, idx, g, h, growth))
            calls.clear()
            trees.newton_boost_fit(X, y, params, seed=0)
        return len(calls)

    leaf = trees.BoostParams(n_trees=4, max_depth=1, max_leaves=31)
    level = trees.BoostParams(n_trees=4, max_depth=3)
    assert searches(leaf) == 4
    assert searches(leaf, growth="leaf") == 12
    # one node at depth 2 has a single row
    assert searches(level) == searches(level, growth="level") == 27


def flat_format_fits():
    X, y = split_search_data(n=300, seed=13)
    return [
        trees.newton_boost_fit(
            X, y, trees.BoostParams(n_trees=3, max_depth=4), seed=0),
        trees.newton_boost_fit(
            X, y, trees.BoostParams(
                n_trees=3, max_depth=8, max_leaves=10,
                splitter="histogram", bins=16, goss=(0.2, 0.3)), seed=1),
        trees.fit_random_forest(
            X, y, trees.ForestParams(n_trees=3, max_depth=5, m=4), seed=2),
        trees.newton_boost_fit(  # a single-leaf tree
            X, y, trees.BoostParams(n_trees=1, max_depth=0), seed=0),
    ]


def test_flat_trees_are_binary_and_preorder():
    for model in flat_format_fits():
        for tree in model.trees:
            splits, leaves = tree.splits(), tree.leaves()
            assert len(leaves) == len(splits) + 1
            assert np.all(tree.feature[leaves] == -1)
            assert np.all(tree.left[leaves] == -1)
            assert np.all(tree.right[leaves] == -1)
            # pre-order: the left child follows its parent directly, and
            # every child's index is greater than its parent's
            assert np.all(tree.left[splits] == splits + 1)
            assert np.all(tree.right[splits] > tree.left[splits])
            children = np.concatenate([tree.left[splits],
                                       tree.right[splits]])
            assert sorted(children) == list(range(1, len(tree.feature)))


def test_flat_tree_predict_matches_node_walk():
    X, _ = split_search_data(n=300, seed=13)
    X = X + np.random.default_rng(0).normal(size=X.shape) * 0.05
    X[::17, 1] = np.nan  # NaN compares false, so it goes right
    for model in flat_format_fits():
        for tree in model.trees:
            want = []
            for row in X:
                node = 0
                while tree.feature[node] >= 0:
                    node = (tree.left[node]
                            if row[tree.feature[node]] <= tree.threshold[node]
                            else tree.right[node])
                want.append(tree.value[node])
            np.testing.assert_array_equal(trees.predict_tree(tree, X), want)


def test_model_from_dict_rejects_malformed_payloads():
    fits = flat_format_fits()
    good = json.loads(json.dumps(trees.model_to_dict(fits[0])))
    assert good["version"] == trees.MODEL_FORMAT_VERSION == 2
    trees.model_from_dict(good)

    def broken(change):
        payload = json.loads(json.dumps(good))
        change(payload, payload["trees"][0])
        with pytest.raises(ParameterError):
            trees.model_from_dict(payload)

    def version_1(payload, tree):
        payload["version"] = 1
        payload["trees"] = [{"weight": 0.5}]

    broken(version_1)
    broken(lambda p, t: t["gain"].pop())
    broken(lambda p, t: t["value"].append(0.0))
    broken(lambda p, t: t.update(left=[], right=[]))
    broken(lambda p, t: t["left"].__setitem__(0, 0))  # root's own child

    def child_before_parent(payload, tree):  # a walk could cycle forever
        inner = [i for i, f in enumerate(tree["feature"]) if i and f >= 0]
        tree["right"][inner[0]] = inner[0] - 1

    broken(child_before_parent)
    broken(lambda p, t: t["right"].__setitem__(0, len(t["feature"])))
    broken(lambda p, t: t["feature"].__setitem__(0, len(p["feature_names"])))
    broken(lambda p, t: t.update({k: [] for k in t}))
    # a missing key or an unknown type is a ParameterError, not a KeyError
    for key in ("type", "feature_names", "trees", "base_score"):
        broken(lambda p, t, key=key: p.pop(key))
    broken(lambda p, t: t.pop("value"))
    broken(lambda p, t: p.update(type="gbm"))
    good = json.loads(json.dumps(trees.model_to_dict(fits[2])))  # a forest
    trees.model_from_dict(good)
    broken(lambda p, t: p.pop("tree_seeds"))


def test_model_from_dict_rejects_payloads_of_the_wrong_shape():
    """A payload that is a list, a tree entry that is a number, or numeric
    feature_names raise ParameterError, not AttributeError or TypeError."""
    good = json.loads(json.dumps(trees.model_to_dict(flat_format_fits()[0])))
    with pytest.raises(ParameterError):
        trees.model_from_dict([good])
    for change in ({"trees": [5]}, {"feature_names": 3},
                   {"feature_names": [1, 2]}, {"trees": 5}):
        with pytest.raises(ParameterError):
            trees.model_from_dict({**good, **change})


def test_model_from_dict_rejects_values_of_the_wrong_type():
    """Each of these used to raise ValueError, TypeError or OverflowError, or
    to load and then fail inside predict."""
    fits = flat_format_fits()
    boosted, forest = (json.loads(json.dumps(trees.model_to_dict(fits[i])))
                       for i in (0, 2))
    for good, change in (
            (boosted, {"base_score": "x"}), (boosted, {"learning_rate": None}),
            (boosted, {"learning_rate": True}),
            (boosted, {"learning_rate": 2.0}),
            (boosted, {"base_score": float("nan")}),
            (forest, {"tree_seeds": 5}), (forest, {"m": "x"}),
            (forest, {"trees": []})):
        with pytest.raises(ParameterError):
            trees.model_from_dict({**good, **change})
    for field, value in (("threshold", ["a"]), ("feature", [None]),
                         ("left", [10**30]), ("value", [10**400]),
                         ("feature", [0.5]), ("gain", [True])):
        tree = {**boosted["trees"][0], field: value}
        with pytest.raises(ParameterError):
            trees.model_from_dict({**boosted, "trees": [tree]})


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_model_from_dict_property(data):
    """A good payload with one random JSON value put at a random key, tree,
    tree field or entry of a tree field either raises ParameterError or
    loads into a model that predicts on a fixed X without an error."""
    fits = _property_payloads()
    payload = json.loads(data.draw(st.sampled_from(fits)))
    value = data.draw(_JSON_VALUES)
    tree = data.draw(st.sampled_from(payload["trees"]))
    field = data.draw(st.sampled_from(trees._TREE_ARRAYS))
    where = data.draw(st.sampled_from(["key", "tree", "field", "entry"]))
    if where == "key":
        payload[data.draw(st.sampled_from(sorted(payload)))] = value
    elif where == "tree":
        payload["trees"][data.draw(
            st.integers(0, len(payload["trees"]) - 1))] = value
    elif where == "field":
        tree[field] = value
    else:
        tree[field][data.draw(st.integers(0, len(tree[field]) - 1))] = value
    try:
        model = trees.model_from_dict(payload)
    except ParameterError:
        return
    X = np.resize(np.linspace(-3.0, 3.0, 11), (9, len(model.feature_names)))
    trees.predict(model, X)


@functools.cache
def _property_payloads() -> tuple[str, ...]:
    """The JSON of a boosted and of a forest model."""
    fits = flat_format_fits()
    return tuple(json.dumps(trees.model_to_dict(fits[i])) for i in (0, 2))


def test_bad_params_rejected():
    with pytest.raises(ParameterError):
        trees.BoostParams(learning_rate=0.0)
    with pytest.raises(ParameterError):
        trees.ForestParams(n_trees=0)
    with pytest.raises(ParameterError):
        trees.BoostParams(max_leaves=0)  # 0 used to mean "no limit"
    with pytest.raises(ParameterError):
        trees.BoostParams(max_depth=-1)
    with pytest.raises(ParameterError):
        trees.ForestParams(max_depth=-1)
    with pytest.raises(ParameterError):  # GOSS needs the histogram splitter
        trees.BoostParams(splitter="exact", goss=(0.2, 0.1))
    X, y = random_data(50, 3, seed=0)
    forest = trees.ForestParams(n_trees=2, max_depth=2)
    with pytest.raises(ParameterError):  # it used to drop the third column
        trees.fit_random_forest(X, y, forest, feature_names=["a", "b"])
    for bad_y in (y[:40], np.append(y, y[:10])):
        with pytest.raises(ParameterError):
            trees.fit_random_forest(X, bad_y, forest)
        with pytest.raises(ParameterError):
            trees.newton_boost_fit(X, bad_y, trees.BoostParams(n_trees=2))


def test_grow_rejects_what_its_splitter_does_not_take():
    """The exact splitter grows over all rows with one hessian value, and
    the histogram splitter draws no features; anything else would grow a
    wrong tree, so it raises."""
    X, y = random_data(60, 4, seed=2)
    g, h = trees.gradients_squared_loss(y, np.zeros(60))
    exact = trees._Splitter(X, trees.BoostParams())
    histogram = trees._Splitter(X, trees.BoostParams(splitter="histogram"))
    rng = np.random.default_rng(0)
    assert exact.grow(np.arange(60), g, h, rng=rng, m=2).splits().size
    assert histogram.grow(np.arange(30), g, h * np.linspace(1, 2, 60)
                          ).splits().size
    with pytest.raises(ParameterError):
        exact.grow(np.arange(30), g, h)
    with pytest.raises(ParameterError):
        exact.grow(np.arange(60), g, h * np.linspace(1, 2, 60))
    with pytest.raises(ParameterError):
        histogram.grow(np.arange(60), g, h, rng=rng, m=2)
