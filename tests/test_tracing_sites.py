"""Every lookup site the traced benchmark wraps must exist in dpvfl.

``perfbench/tracing.py`` notes a missing site instead of failing, so a
deletion that orphans one would otherwise show only in the benchmark's own
self-test. The module is imported from its checkout without writing
bytecode next to it. The benchmark's self-test also needs some spans to
see calls on every workload; the calls that only evaluation and victim
queries make are checked here in seconds.
"""

import sys
from pathlib import Path

import pytest

from dpvfl.config import parse_config
from dpvfl.experiment import VflVictim, build_dataset, build_parties
from dpvfl.neural import DenseNet
from dpvfl.numerics import Rng
from dpvfl.protocol import PassiveParty, evaluate

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


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of DenseNet.copy and PassiveParty.compute_release."""
    counts = {"copy": 0, "compute_release": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(DenseNet, "copy")
    counting(PassiveParty, "compute_release")
    return counts


def small_run():
    cfg = parse_config({
        "seed": 1,
        "dataset": {"kind": "synthetic", "classes": 2, "per_class": 12, "dim": 4},
        "model": {"embedding_dim": 3, "extractor_hidden": [4]},
        "training": {"batch_size": 8, "epochs": 1},
    })
    data = build_dataset(cfg)
    return data, build_parties(cfg, data)


def test_evaluate_copies_the_head_and_releases_through_the_parties(call_counts):
    data, parties = small_run()
    evaluate(parties, data.test, Rng(0))
    assert call_counts["copy"] >= 1
    assert call_counts["compute_release"] >= len(parties.passives)


def test_predict_proba_releases_through_the_parties(call_counts):
    data, parties = small_run()
    xs = [features[:3] for features in data.test.party_features]
    VflVictim(parties).predict_proba(xs, Rng(0))
    assert call_counts["compute_release"] == len(parties.passives)
    assert call_counts["copy"] >= 1
