import types

import pytest

import lplc


def test_public_names_are_not_modules():
    modules = [name for name in lplc.__all__ if isinstance(getattr(lplc, name), types.ModuleType)]
    assert modules == []
    assert len(set(lplc.__all__)) == len(lplc.__all__)


def test_layer_entry_points_stay_module_attributes():
    # the benchmark's traced run wraps these by module attribute
    import lplc.classify
    import lplc.odeint

    for module, attr in (
        (lplc.classify, "integrate_grid"),
        (lplc.classify, "concatenate_traces"),
        (lplc.classify, "log_trapezoid"),
        (lplc.odeint, "evaluate"),
    ):
        assert callable(getattr(module, attr)), attr


def test_dir_lists_every_public_name():
    assert set(lplc.__all__) <= set(dir(lplc))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lplc import *", namespace)
    for name in lplc.__all__:
        assert namespace[name] is getattr(lplc, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lplc.no_such_name  # noqa: B018
    assert not hasattr(lplc, "numpy")
