"""The package's export map: each public name resolves, once, to its module's object,
and a module is imported only when one of its names is first read."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bairecf

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(bairecf.__file__).resolve().parent.parent  # where the package under test lives


def _python(code: str) -> str:
    """Run code in a fresh interpreter that imports the package this test imported."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_is_its_modules_object_once():
    assert bairecf.__all__[0] == "__version__"
    assert len(set(bairecf.__all__)) == len(bairecf.__all__) == 59
    for name in bairecf.__all__[1:]:
        module = importlib.import_module(f"bairecf.{bairecf._MODULE_OF[name]}")
        obj = getattr(bairecf, name)
        assert obj is getattr(module, name), name
        if name != "Rational":  # an alias of fractions.Fraction
            assert obj.__module__ == module.__name__, name
    assert set(bairecf.__all__) <= set(dir(bairecf))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'bairecf' has no attribute 'nope'$"):
        bairecf.nope
    assert not hasattr(bairecf, "_fold")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from bairecf import *", namespace)
    assert {name: namespace[name] for name in bairecf.__all__} == {
        name: getattr(bairecf, name) for name in bairecf.__all__}


def test_modules_load_on_first_use():
    out = _python(
        "import sys, bairecf\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('bairecf.'))\n"
        "print(loaded())\n"
        "from bairecf import evaluate\n"
        "print('bairecf.cf' in loaded(), 'bairecf.ultra' in loaded())\n"
        "print(bairecf.ultra.__name__, 'bairecf.ultra' in loaded())\n"
    )
    assert out.splitlines() == ["[]", "True False", "bairecf.ultra True"]


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library quick tour\n.*?```python\n(.*?)```", readme, re.S).group(1)
    assert "from bairecf import" in tour
    _python(tour)
