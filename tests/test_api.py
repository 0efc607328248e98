import importlib
import pkgutil

import pytest

import stateful_agg

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(stateful_agg.__path__, "stateful_agg.")
)


def test_package_exports_resolve():
    missing = [name for name in stateful_agg.__all__ if not hasattr(stateful_agg, name)]
    assert missing == []
    assert len(set(stateful_agg.__all__)) == len(stateful_agg.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)
