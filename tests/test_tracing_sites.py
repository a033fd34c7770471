"""Every lookup site the traced benchmark wraps must exist in dpvfl.

``perfbench/tracing.py`` notes a missing site instead of failing, so a
deletion that orphans one would otherwise show only in the benchmark's own
self-test. The module is imported from its checkout without writing
bytecode next to it.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_every_layer_site_resolves(tracing):
    missing = []
    for _, sites in tracing.LAYERS:
        for module, attr in sites:
            owner, key = tracing._resolve(module, attr)
            if not callable(getattr(owner, key, None)):
                missing.append(f"{module}.{attr}")
    assert missing == []
