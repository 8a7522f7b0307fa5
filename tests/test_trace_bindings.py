"""The benchmark tracer's bindings exist in the package.

perfbench/layers.py wraps module attributes by name (``certify._pmap``,
``circle._tau_pairs``, ``cli.gelfond_exponent`` and others).  Installing and
removing its wrappers here makes a renamed or deleted binding fail the test
suite, not only a traced benchmark run.
"""

import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("potential", "circle", "sturmian", "certify", "series", "checks",
           "cli")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    g = types.SimpleNamespace(**{m: importlib.import_module(f"gelfond.{m}")
                                 for m in MODULES})
    return spans, layers, g


@pytest.mark.parametrize("install", ["install_item_wrappers",
                                     "install_pool_wrappers"])
def test_wrappers_install_and_uninstall(bench, install):
    spans, layers, g = bench

    def bindings():
        return {(m, name): value for m in MODULES
                for name, value in vars(getattr(g, m)).items()}

    before = bindings()
    tr = spans.Tracer()
    getattr(layers, install)(tr, g)  # AttributeError on a missing binding
    try:
        during = bindings()
    finally:
        tr.uninstall()
    assert during.keys() == before.keys()
    assert any(during[k] is not before[k] for k in before)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_certificate_records_spans(bench):
    spans, layers, g = bench
    tr = spans.Tracer()
    layers.install_item_wrappers(tr, g)
    try:
        with tr.item("probe"):
            cert = g.certify.gelfond_exponent(
                g.potential.PotentialParams(2, 0.5))
    finally:
        tr.uninstall()
    names = [rec[spans.NAME] for rec in tr.spans]
    assert tr.leaf_calls["circle.tau_pairs"] > 0
    assert cert.cycle.period == 2
    # one cycle selection, between the bracket and the two endpoint checks
    assert names.count(layers.ROTATION) == 1
    i = names.index(layers.ROTATION)
    assert names[i + 1:] == [layers.BALANCE, layers.BALANCE]
    assert layers.BALANCE in names[:i]
