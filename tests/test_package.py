import re
import types
from pathlib import Path

import pytest

import lplc

ROOT = Path(__file__).resolve().parent.parent

# public names that nothing but their own tests calls, each with its reason
TEST_ONLY_NAMES = {
    "sequence_f": "the paper's demonstration sequence, kept beside sequence_g",
}


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


def test_every_public_name_has_a_caller():
    # a caller is a word match in the library (outside __init__.py and the
    # name's own def or class line), the acceptance suite or the benchmark
    sources = [p for p in (ROOT / "src" / "lplc").glob("*.py") if p.name != "__init__.py"]
    sources += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    uncalled = []
    for name in lplc.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(?:def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            uncalled.append(name)
    assert sorted(uncalled) == sorted(TEST_ONLY_NAMES)
