"""Self-tests of the benchmark: the gate catches bad output, the trace
accounts for every item's time, and the work counters repeat exactly.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

g = run.import_program()


def _certificate(q=2, c=0.3):
    return g.certify.gelfond_exponent(g.potential.PotentialParams(q, c), 13)


def test_gate_accepts_a_real_certificate():
    assert gate.check_certificate(_certificate()) is None


def test_gate_flags_corrupted_beta():
    cert = _certificate()
    bad = dataclasses.replace(cert, beta=cert.beta + 1e-9)
    assert "replay" in gate.check_certificate(bad)


def test_gate_flags_uncertified_sign_and_broken_gamma():
    cert = _certificate()
    v1 = dataclasses.replace(cert.v1, err_bound=abs(cert.v1.value) * 2)
    assert "v1" in gate.check_certificate(dataclasses.replace(cert, v1=v1))
    bad = dataclasses.replace(cert, gamma=cert.gamma * (1 + 1e-15))
    assert "gamma" in gate.check_certificate(bad)


def test_gate_flags_mirror_mismatch():
    a = _certificate(2, 0.3)
    b = _certificate(2, 0.7)
    assert gate.check_mirror(a, b) is None
    assert gate.check_mirror(a, dataclasses.replace(b, beta=b.beta + 1e-9))


def test_gate_flags_shifted_validity_endpoint():
    baseline = gate.load_validity_baseline(run.ROOT)
    cy = next(c for c in g.sturmian.enumerate_cycles(2, 2) if c.period == 2)
    vi = g.certify.validity_interval(2, cy)
    args = (baseline, cy.period, cy.rotation,
            cy.s_max - Fraction(1, cy.q), cy.s_min)
    assert gate.check_validity_row(*args, vi.c_lo, vi.c_hi) is None
    assert gate.check_validity_row(*args, vi.c_lo + 1e-9, vi.c_hi)
    assert gate.check_validity_row(*args, vi.c_lo, vi.c_hi - 1e-9)


def _traced(workload, seed, n):
    plan = workloads.build(workload, g, seed, run.ROOT)
    tr = Tracer()
    layers.install_item_wrappers(tr, g)
    try:
        records = [run.run_one(item, tr, i)
                   for i, item in zip(range(n), plan.items())]
    finally:
        tr.uninstall()
    return tr, records


def test_wrappers_are_removed():
    original = g.circle._f
    tr, _ = _traced("curve-q2", 3, 2)
    assert g.circle._f is original
    assert tr.leaf_calls["potential.f"] > 0


def test_self_times_account_for_each_item():
    tr, records = _traced("curve-q2", 5, 4)
    rows = layers.item_accounting(tr)
    assert len(rows) == len(records) == 4
    for _, wall, accounted in rows:
        assert abs(wall - accounted) <= 1e-9 * max(1.0, wall)
    # the traced item time is what run_one measured, up to the item span's
    # own entry and exit
    for (_, wall, _), (_, dt, _, _) in zip(rows, records):
        assert 0 <= wall - dt < 1e-3


def test_work_counters_repeat_exactly():
    def counters():
        tr, _ = _traced("validity-q2", 7, 3)
        ids = {rec[4] for rec in tr.spans if rec[0] == "bench.item"}
        m = layers.span_metrics(tr, ids, dict(tr.leaf_calls))
        tr2, _ = _traced("curve-q2", 7, 2)
        ids2 = {rec[4] for rec in tr2.spans if rec[0] == "bench.item"}
        m2 = layers.span_metrics(tr2, ids2, dict(tr2.leaf_calls))
        keys = ("potential.f.calls", "circle.pieces",
                "circle.sturmian_balance.calls",
                "certify.c_root.balance_calls_per_row")
        keys2 = ("potential.f.calls", "circle.pieces",
                 "certify.balance_calls_per_item",
                 "sturmian.enumerate_cycles.calls")
        return [m[k] for k in keys] + [m2[k] for k in keys2]

    first = counters()
    assert first == counters()
    # every integrated arc costs exactly two potential evaluations
    assert first[0] == 2 * first[1]
    assert first[4] == 2 * first[5]


def test_known_failures_match_in_full():
    fixed = workloads._fixed_item(g)
    st, reason = workloads._judge_verify(fixed.call(NullTracer()))
    assert st == workloads.FAIL and fixed.known(reason)
    assert not fixed.known(reason + "; mirror symmetry: worst rel err "
                                    "2e-10 [FAIL]")
    plan = workloads.build("curve-q2", g, 1, run.ROOT)
    (depth_item,) = plan.defects
    _, _, st, reason = run.run_one(depth_item, NullTracer(), None)
    assert st == workloads.FAIL and depth_item.known(reason)
    cert_item = next(iter(plan.items()))
    depth = "target_err=1e-13 unreachable at depth cap 60 (achieved 2.5e-13)"
    assert cert_item.known(f"DepthError: {depth}")
    assert cert_item.known("DepthError: depth 70 exceeds cap 60")
    assert not cert_item.known(f"GuardError: {depth}")
    cross = next(iter(workloads.build("crosscheck", g, 1, run.ROOT).items()))
    assert cross.known(f"verify --q 2 --c 0.5 --n-max 5: exit 1: error: "
                       f"{depth}")
    assert not cross.known("verify --q 2 --c 0.5 --n-max 5: exit 1: "
                           "product identity: worst rel err 1e-9 [FAIL]")


def test_known_failures_are_reported_but_not_counted():
    plan = workloads.build("crosscheck", g, 1, run.ROOT)
    records = [run.run_one(it, NullTracer(), None)
               for it in plan.defects + list(itertools.islice(
                   plan.items(), 4))]
    correct, counted, failed, lines = run.verdict(records, None, 0)
    assert correct and failed == 0 and len(counted) == 4
    assert "[known:" in "\n".join(lines)
    fixed, dt, _, reason = records[0]
    new = (fixed, dt, workloads.FAIL, reason + "; mirror symmetry [FAIL]")
    correct, counted, failed, _ = run.verdict([new] + records[1:], None, 0)
    assert not correct and failed == 1 and len(counted) == 5


def test_pool_check_expects_depth_error_rows(tmp_path, monkeypatch):
    plan = workloads.build("curve-q2", g, 11, run.ROOT)
    bad_c = next(iter(plan.items())).id.split("c=")[1]
    real = g.certify.gelfond_exponent

    def flaky(params, *args, **kwargs):
        if repr(params.c) == bad_c:
            raise g.circle.DepthError("depth 70 exceeds cap 60")
        return real(params, *args, **kwargs)

    monkeypatch.setattr(g.certify, "gelfond_exponent", flaky)
    # one worker, so the table runs in this process and meets the patch
    calls, check = plan.pool_pass(str(tmp_path), NullTracer(), 1)
    assert check() == (None, 1)
    with open(tmp_path / "table2_q2.csv", encoding="utf-8") as fh:
        assert "ERROR: depth 70 exceeds cap 60" in fh.read()


def test_crosscheck_traces_the_verify_command():
    original = g.cli.polynomial_sum
    tr, records = _traced("crosscheck", 1, 4)
    assert g.cli.polynomial_sum is original
    assert [r[0].id.split(":")[0] for r in records] == [
        "verify", "verify", "grids", "probe"]
    for _, _, status, reason in records:
        assert status != workloads.FAIL, reason
    names = {rec[0] for rec in tr.spans}
    for name in ("cli.main", "series.polynomial_sum",
                 "series.sup_exponent_fit", "certify.gelfond_exponent",
                 "checks.outer_shift_negativity_grid",
                 "checks.sturmian_condition_probe"):
        assert name in names

