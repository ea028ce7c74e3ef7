"""The `cityregions` package: `__all__` is its one list of public names, and
each name is imported from the module that defines it on first use."""

import importlib

import pytest

import cityregions

from .test_cli import _python

PUBLIC = [name for name in cityregions.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_a_public_name_is_the_object_its_module_defines(name):
    value = getattr(cityregions, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("cityregions.") and getattr(module, name) is value


def test_import_loads_no_stage_module_and_dir_lists_every_name():
    out = _python("import sys, cityregions\n"
                  "print(sorted(m for m in sys.modules if m.startswith('cityregions')))\n"
                  "print(sorted(set(cityregions.__all__) - set(dir(cityregions))))")
    assert out == "['cityregions']\n[]\n"


def test_star_import_binds_every_name():
    names = {}
    exec("from cityregions import *", names)
    assert [getattr(cityregions, name) is names[name] for name in cityregions.__all__] \
        == [True] * len(cityregions.__all__)


@pytest.mark.parametrize("name", ["nonesuch", "fit_all", "ConfigError"])
def test_a_name_outside_all_is_no_attribute(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cityregions, name)


def test_from_import_still_loads_a_submodule():
    out = _python("from cityregions import dtn, presets\nprint(dtn.__name__, presets.__name__)")
    assert out == "cityregions.dtn cityregions.presets\n"
