"""The benchmark's traced run wraps named call sites in frontsteer modules
(``perfbench/tracing.py``).  A refactor that drops or renames one of those
names should fail here, not in the traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_calls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._calls()


@pytest.mark.parametrize("owner,attr", [
    pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
    for owner, attr, _layer, _hook in _traced_calls()])
def test_traced_name_resolves(owner, attr):
    assert callable(getattr(owner, attr))
