"""Every span target of the traced benchmark resolves in cycrep.

The traced pass of ``perfbench/run.py`` wraps each (module, attribute path)
of ``perfbench/spans.SPANS``: a function of the module, or a method defined
on a class of it.  Deleting or renaming one of them breaks that pass, so it
fails here too.  ``spans.py`` is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPANS


@pytest.mark.parametrize("name,modname,path", _span_targets())
def test_span_target_resolves(name, modname, path):
    owner = importlib.import_module(modname)
    head, _, attr = path.rpartition(".")
    # the traced pass replaces a method in its class's own namespace
    target = getattr(owner, head).__dict__.get(attr) if head else getattr(owner, attr, None)
    assert callable(target), f"span {name}: {modname}.{path} does not resolve"
