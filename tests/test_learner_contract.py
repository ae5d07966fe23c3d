"""Every learner takes a budget with no seed in it and its seed as an
argument: the budget dataclasses carry no ``seed`` field, each fit takes a
``seed`` parameter, and the meta-nets train under the recurrent nets'
``TrainConfig``."""

import dataclasses
import inspect

from fxstack import recurrent, stacking, trees


def test_each_fit_takes_its_seed_as_an_argument():
    for fit in (trees.newton_boost_fit, trees.fit_random_forest,
                recurrent.train_rnn):
        assert "seed" in inspect.signature(fit).parameters, fit.__name__
    # the benchmark's tracer reads the boost budget as the third argument
    assert list(inspect.signature(trees.newton_boost_fit).parameters)[2] == \
        "params"


def test_no_budget_carries_a_seed():
    for budget in (trees.BoostParams, trees.ForestParams, recurrent.RnnArch,
                   recurrent.TrainConfig):
        names = {f.name for f in dataclasses.fields(budget)}
        assert "seed" not in names, budget.__name__


def test_meta_nets_share_the_recurrent_budget():
    assert not hasattr(stacking, "MetaTrainConfig")
    assert isinstance(stacking.META_TRAIN, recurrent.TrainConfig)
    for fn in (stacking.train_meta_nn, stacking.run_stacking_search):
        params = inspect.signature(fn).parameters
        assert {"hidden", "cfg"} <= set(params), fn.__name__
