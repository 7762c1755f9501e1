"""The benchmark's span hooks name callables that exist.

``bench/spans.py`` wraps each ``(module, attribute)`` of its ``TRACED`` list
at run time, so a renamed or deleted function only shows up when the traced
benchmark runs.  This reads the list without installing anything and looks
each name up the way ``install`` does: functions on their module, methods in
their class ``__dict__``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_resolves():
    spans = _spans_module()
    assert spans.TRACED
    for modname, attr, span, hook in spans.TRACED:
        module = importlib.import_module(f"bairecf.{modname}")
        if "." in attr:
            cls_name, method = attr.split(".")
            target = vars(getattr(module, cls_name)).get(method)
        else:
            target = getattr(module, attr, None)
        assert callable(target), (modname, attr)
        assert hook is None or callable(hook), span
    assert len(set(spans.NAMES)) == len(spans.NAMES)
