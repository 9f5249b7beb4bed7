"""Every function the benchmark tracer wraps must exist under the name it
binds, so a rename or deletion fails here and not only under
``pytest perfbench``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMES = sorted({(span[0], span[1]) for span in tracer.SPANS}
               | {(count[0], count[1]) for count in tracer.COUNTED})


@pytest.mark.parametrize("module, attr", NAMES, ids=["%s:%s" % name for name in NAMES])
def test_traced_name_resolves(module, attr):
    importlib.import_module(module)
    assert callable(tracer._lookup(module, attr))
