import types

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
