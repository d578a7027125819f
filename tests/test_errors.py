import pickle

import pytest

import marketradar.cli  # noqa: F401  (imports every module that defines an error)
from marketradar.errors import MarketRadarError
from marketradar.learners import TrainingDiverged


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


ERROR_CLASSES = sorted(set(all_subclasses(MarketRadarError)), key=lambda c: c.__qualname__)
# constructor arguments for classes that do not take one message string
ARGS = {TrainingDiverged: (3,)}


def test_every_module_error_is_collected():
    names = {c.__name__ for c in ERROR_CLASSES}
    assert {"ConfigError", "RadarError", "TrainingDiverged", "WindowTooSmall"} <= names
    assert len(names) >= 11


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_survives_pickle(cls):
    exc = cls(*ARGS.get(cls, ("underdetermined: 252 rows for 280 features",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_training_diverged_message_round_trips():
    back = pickle.loads(pickle.dumps(TrainingDiverged(3)))
    assert str(back) == "non-finite loss at training step 3"
    assert back.step == 3
