"""The package's public names are the union of its modules' ``__all__``."""

import swapsim
from swapsim import config, experiment, loss, metrics, protocol, states

MODULES = (states, loss, protocol, metrics, experiment, config)


def test_no_duplicate_names():
    assert len(swapsim.__all__) == len(set(swapsim.__all__))


def test_every_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(swapsim, name) is getattr(module, name), name


def test_names_are_the_union_of_the_module_lists():
    expected = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(swapsim.__all__) == expected
    assert swapsim.__all__[0] == "__version__"
