"""The benchmark's span targets name callables that exist.

``bench/spans.py`` wraps each (module, attribute) of ``TARGETS`` and reports
a target it cannot find as missing instead of failing, so a renamed
callable would silently drop out of the per-layer metrics.
"""

import importlib
import importlib.util
import os
import sys

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # leave no bytecode cache in bench/
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = dont_write
    return mod.TARGETS


@pytest.mark.parametrize("layer,module,attr", _targets())
def test_span_target_resolves(layer, module, attr):
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:
        owner = getattr(owner, owner_name)
    # spans.install looks the attribute up the same way
    assert vars(owner).get(name) is not None, f"{module}.{attr}"
