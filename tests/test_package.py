import types

import lplc


def test_public_names_are_not_modules():
    modules = [name for name in lplc.__all__ if isinstance(getattr(lplc, name), types.ModuleType)]
    assert modules == []
    assert len(set(lplc.__all__)) == len(lplc.__all__)
