"""The package's lazy export table (PEP 562 ``__getattr__`` and ``__dir__``)."""

import importlib

import pytest

import mgslab


def test_every_export_resolves_to_its_module_and_is_listed():
    listed = dir(mgslab)
    assert mgslab.__all__ == sorted(mgslab._MODULE_OF)
    for name in mgslab.__all__:
        module = importlib.import_module(f"mgslab.{mgslab._MODULE_OF[name]}")
        assert getattr(mgslab, name) is getattr(module, name), name
        assert name in listed, name


def test_a_name_outside_the_table_raises():
    assert "no_such_name" not in dir(mgslab)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mgslab.no_such_name
