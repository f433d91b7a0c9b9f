import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylgrowth


@pytest.mark.parametrize("module", ["weylgrowth", "weylgrowth.algebra", "weylgrowth.series", "weylgrowth.weyl"])
def test_every_name_in_all_resolves(module):
    # A stale __all__ entry breaks `from <module> import *` in user code.
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(weylgrowth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


def test_the_pure_python_modules_import_without_numpy():
    # Only the walk imports numpy; the package loads it on first use.
    done = _fresh_python("import sys, weylgrowth.series, weylgrowth.algebra, weylgrowth.coxeter; "
                         "sys.exit('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    done = _fresh_python("import sys, weylgrowth; assert 'numpy' not in sys.modules; "
                         "from weylgrowth import weyl, enumerate_levels; "
                         "assert 'numpy' in sys.modules and enumerate_levels is weyl.enumerate_levels")
    assert done.returncode == 0, done.stderr


def test_the_package_lists_weyl_names_that_resolve():
    from weylgrowth import algebra, series, weyl

    assert list(weylgrowth._WEYL_NAMES) == weyl.__all__
    assert weylgrowth.__all__ == [*algebra.__all__, *series.__all__, *weyl.__all__]
    namespace = {}
    exec("from weylgrowth import *", namespace)
    assert set(weylgrowth.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no attribute 'walk'"):
        weylgrowth.walk
