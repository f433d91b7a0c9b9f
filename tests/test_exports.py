import importlib

import pytest


@pytest.mark.parametrize("module", ["weylgrowth", "weylgrowth.algebra", "weylgrowth.series", "weylgrowth.weyl"])
def test_every_name_in_all_resolves(module):
    # A stale __all__ entry breaks `from <module> import *` in user code.
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
