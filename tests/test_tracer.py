"""The benchmark tracer's layer table still names live package attributes.

`perfbench/tracer.py` wraps the functions and methods listed in `LAYERS`
by name; deleting or renaming one of them would break only traced
benchmark runs.  The tracer module is loaded from its file and never
modified here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _key(owner, attr):
    return (owner if isinstance(owner, type) else owner.__name__, attr)


def _bindings(tracer):
    """Every name bound in a package module, and every traced class attribute."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "ellsqueeze" or name.startswith("ellsqueeze."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for _, owner, attr, _ in tracer.LAYERS:
        if isinstance(owner, type):
            out[_key(owner, attr)] = owner.__dict__[attr]
    return out


def test_every_layer_resolves(tracer):
    for layer, owner, attr, _ in tracer.LAYERS:
        assert attr in owner.__dict__, f"{layer}: {owner.__name__} has no {attr!r}"


def test_install_then_restore_leaves_attributes_as_they_were(tracer):
    before = _bindings(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        for layer, owner, attr, _ in tracer.LAYERS:
            assert owner.__dict__[attr] is not before[_key(owner, attr)], layer
    finally:
        t.restore()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
