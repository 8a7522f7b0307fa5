"""The four workloads: inputs from a seed, the program calls, the checks.

A workload is a stream of items.  An item is one call the program's users
make (one certificate, one validity row, one verification round), timed on
its own and then judged by the output gate:

* OK: a certificate, validity row or check that passed;
* UNCERTIFIED: a legitimate non-answer (NonPeriodicReport, or a fit line
  skipped because there is no certificate); not a failure, but it lowers
  certified_ratio;
* FAIL: the call raised, or its output failed the gate.

The program only ever receives the generated (q, c) values and the cycles
it enumerates itself.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import gate

MAX_PERIOD = 13

OK, UNCERTIFIED, FAIL = "OK", "UNCERTIFIED", "FAIL"

# Known defects of the program at the parent commit.  The first is fixed
# input and fails every time; it runs as a reproducer in every crosscheck
# run.  The second strikes at rare c, such as DEPTH_ERROR_C at q=2, which
# runs as a reproducer in every curve-q2 run; it also shows whenever uniform
# c hits one.  A failure is known when its item names the defect and its
# reason matches the pattern in full; the run reports it but does not count
# it as an attempted or failed operation (run.verdict).
KNOWN_PRODUCT_FAILURE = ("crosscheck fixed item q=3 c=1/4 n_max=10 verify "
                         "seed 0: product identity worst rel err 1.059e-10 "
                         "> 1e-10")
PRODUCT_FAILURE_RE = re.escape(
    "verify --q 3 --c 1/4 --n-max 10: exit 1: "
    "product identity: worst rel err 1.059e-10 [FAIL]")
KNOWN_DEPTH_ERROR = "DepthError in gelfond_exponent at rare c"
# between the period-9 and period-8 windows of q=2: the balance sum cannot
# reach its target error within the depth cap
DEPTH_ERROR_C = 0.18208128
# the messages circle.py raises DepthError with, as run_one reports a raised
# one and as `gelfond verify` prints a caught one
DEPTH_ERROR_RE = (r"(DepthError: |verify .*: exit 1: error: )"
                  r"(target_err=\S+ unreachable at depth cap \d+ "
                  r"\(achieved \S+\)|depth \d+ exceeds cap \d+)")


@dataclass
class Item:
    id: str
    call: Callable          # call(tracer) -> value, the timed program work
    judge: Callable         # judge(value) -> (status, reason or None)
    boundary: bool = True   # a run may stop after this item
    known_failure: str | None = None
    known_re: str = ""

    def known(self, reason: str) -> bool:
        return (self.known_failure is not None
                and re.fullmatch(self.known_re, reason) is not None)


@dataclass
class Plan:
    """Everything a run needs, built from the seed before the first item."""

    qs: tuple
    items: Callable[[], Iterator[Item]]
    traced_items: int
    # pool_pass(tmpdir, tracer, threads) -> ([(rows, seconds) per CLI call],
    # check), check() -> (problem or None, known DepthError rows)
    pool_pass: Callable
    # reproducers of known defects, run once before the stream, outside the
    # item timings
    defects: list = field(default_factory=list)


def is_depth_error(exc) -> bool:
    return type(exc).__name__ == "DepthError"


# -- certificates --------------------------------------------------------

def _judge_certificate(res) -> tuple[str, str | None]:
    if not hasattr(res, "cycle"):
        return UNCERTIFIED, None
    reason = gate.check_certificate(res)
    return (FAIL, reason) if reason else (OK, None)


def _certificate(g, tr, q: int, c: float, results: dict):
    """gelfond_exponent at (q, c); the result, or the exception it raised,
    is kept for the CLI pass's check."""
    try:
        res = tr.call("certify.gelfond_exponent", g.certify.gelfond_exponent,
                      g.potential.PotentialParams(q, c), MAX_PERIOD)
    except Exception as exc:
        results[(q, c)] = exc
        raise
    results[(q, c)] = res
    return res


def _cert_items(g, q: int, c: float, results: dict) -> list[Item]:
    """A mirror pair: gelfond_exponent at c and at 1 - c."""
    items = []
    for side, cv in (("a", c), ("b", 1.0 - c)):
        def call(tr, cv=cv):
            return _certificate(g, tr, q, cv, results)

        if side == "a":
            judge = _judge_certificate
        else:
            def judge(res, c=c):
                status, reason = _judge_certificate(res)
                mirror = results.get((q, c))
                if status != FAIL and not isinstance(mirror, Exception):
                    bad = gate.check_mirror(mirror, res)
                    if bad:
                        return FAIL, bad
                return status, reason
        items.append(Item(f"q{q}:c={cv!r}", call, judge, boundary=side == "b",
                          known_failure=KNOWN_DEPTH_ERROR,
                          known_re=DEPTH_ERROR_RE))
    return items


def _depth_error_item(g) -> Item:
    """gelfond_exponent at q=2, c=DEPTH_ERROR_C, which raises DepthError."""
    params = g.potential.PotentialParams(2, DEPTH_ERROR_C)
    return Item(f"defect:q2:c={DEPTH_ERROR_C!r}",
                lambda tr: tr.call("certify.gelfond_exponent",
                                   g.certify.gelfond_exponent, params,
                                   MAX_PERIOD),
                _judge_certificate, known_failure=KNOWN_DEPTH_ERROR,
                known_re=DEPTH_ERROR_RE)


def _uniform_c(rng: random.Random) -> float:
    c = rng.random()
    while c == 0.0:  # 1 - c must stay in [0, 1)
        c = rng.random()
    return c


def _table2_pool_pass(g, groups: dict, rows_per_q: int, results: dict):
    """CLI table2 over the first c's of each q's stream."""

    def pool_pass(tmpdir, tr, threads):
        calls = []
        checks = []
        for q, cs in groups.items():
            cs = cs[:rows_per_q]
            clist = f"{tmpdir}/c_list_q{q}.txt"
            out = f"{tmpdir}/table2_q{q}.csv"
            with open(clist, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{c!r}\n" for c in cs))
            t0 = time.perf_counter()
            code = tr.call("cli.main", g.cli.main,
                           ["table2", "--q", str(q), "--c-list", clist,
                            "--threads", str(threads), "-o", out])
            calls.append((len(cs), time.perf_counter() - t0))
            checks.append((q, cs, out, code))

        def check():
            known = 0
            for q, cs, out, code in checks:
                expected = []
                for c in cs:
                    if (q, c) not in results:  # not reached by the items
                        try:
                            results[(q, c)] = g.certify.gelfond_exponent(
                                g.potential.PotentialParams(q, c), MAX_PERIOD)
                        except Exception as exc:
                            results[(q, c)] = exc
                    expected.append((c, results[(q, c)]))
                errors = [r for _, r in expected if isinstance(r, Exception)]
                if not all(is_depth_error(e) for e in errors):
                    return (f"table2 --q {q}: a serial certificate raised "
                            "other than DepthError"), known
                if code != (1 if errors else 0):
                    return f"table2 --q {q} exited {code}", known
                with open(out, "rb") as fh:
                    if fh.read() != gate.table2_csv(expected):
                        return (f"table2 --q {q} CSV differs from serial "
                                "results"), known
                known += len(errors)
            return None, known

        return calls, check

    return pool_pass


def curve_plan(g, seed: int, qs: tuple, block_pairs: int,
               traced_pairs_per_q: int, pool_rows_per_q: int) -> Plan:
    """Mirror pairs (c, 1-c) of uniform seeded c, in blocks of one q."""
    rng = random.Random(seed)
    streams = {q: [_uniform_c(rng) for _ in range(4000)] for q in qs}
    results: dict = {}

    def items():
        pos = {q: 0 for q in qs}
        for q in itertools.cycle(qs):
            for _ in range(block_pairs):
                c = streams[q][pos[q] % len(streams[q])]
                pos[q] += 1
                yield from _cert_items(g, q, c, results)

    return Plan(qs, items, traced_items=2 * traced_pairs_per_q * len(qs),
                pool_pass=_table2_pool_pass(g, streams, pool_rows_per_q,
                                            results),
                defects=[_depth_error_item(g)] if 2 in qs else [])


# -- validity rows ---------------------------------------------------------

def validity_plan(g, seed: int, baseline: dict) -> Plan:
    """One validity_interval per q=2 cycle of period 2..13, seeded order."""
    cycles = [cy for cy in g.sturmian.enumerate_cycles(2, MAX_PERIOD)
              if cy.period >= 2]
    results: dict = {}

    def make(cy):
        def call(tr):
            vi = tr.call("certify.validity_interval",
                         g.certify.validity_interval, 2, cy)
            results[cy.points] = vi
            return vi

        def judge(vi):
            reason = gate.check_validity_row(
                baseline, cy.period, cy.rotation,
                cy.s_max - Fraction(1, cy.q), cy.s_min, vi.c_lo, vi.c_hi)
            return (FAIL, reason) if reason else (OK, None)

        return Item(f"validity:{cy.period}:{cy.rotation}", call, judge)

    def items():
        rng = random.Random(seed)
        while True:
            order = list(cycles)
            rng.shuffle(order)
            for cy in order:
                yield make(cy)

    def pool_pass(tmpdir, tr, threads):
        out = f"{tmpdir}/validity.csv"
        t0 = time.perf_counter()
        code = tr.call("cli.main", g.cli.main,
                       ["validity", "--q", "2", "--threads", str(threads),
                        "-o", out])
        calls = [(len(cycles), time.perf_counter() - t0)]

        def check():
            if code != 0:
                return f"validity exited {code}", 0
            rows = []
            for cy in cycles:
                vi = results.get(cy.points)
                if vi is None:  # not reached by the timed items
                    vi = g.certify.validity_interval(2, cy)
                rows.append((cy, vi.c_lo, vi.c_hi))
            with open(out, "rb") as fh:
                data = fh.read()
            if data != gate.validity_csv(rows):
                return "validity CSV differs from the serial rows", 0
            for line in data.decode().splitlines()[1:]:
                period, rot, wlo, whi, clo, chi, _ = line.split(",")
                reason = gate.check_validity_row(
                    baseline, int(period), Fraction(rot), Fraction(wlo),
                    Fraction(whi), float(clo), float(chi))
                if reason:
                    return "validity CSV: " + reason, 0
            return None, 0

        return calls, check

    return Plan((2,), items, traced_items=len(cycles), pool_pass=pool_pass)


# -- crosscheck ------------------------------------------------------------

def _verify(g, tr, q: int, c: str, seed: int, n_max: int, *options: str):
    """``gelfond verify`` through the program's own CLI entry point.

    Returns (command, exit code, stdout lines, stderr lines)."""
    argv = ["verify", "--q", str(q), "--c", c, "--seed", str(seed),
            "--n-max", str(n_max), *options]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call("cli.main", g.cli.main, argv)
    cmd = f"verify --q {q} --c {c} --n-max {n_max}"
    return cmd, code, out.getvalue().splitlines(), err.getvalue().splitlines()


def _judge_verify(run) -> tuple[str, str | None]:
    """A verify run passes when it exits 0, ends with ``verify: PASS`` and
    has no FAIL line; a skipped exponent fit leaves it uncertified."""
    cmd, code, out, err = run
    bad = [ln for ln in out if ln.endswith("[FAIL]")]
    if code != 0 or bad or out[-1:] != ["verify: PASS"]:
        return FAIL, f"{cmd}: exit {code}: " + "; ".join(bad + err)
    if any(ln.startswith("exponent fit skipped") for ln in out):
        return UNCERTIFIED, None
    return OK, None


def _fixed_item(g) -> Item:
    """``gelfond verify --q 3 --c 1/4 --n-max 10`` with the command's other
    defaults; its product-identity line is a known failure of the
    program."""
    return Item("fixed:verify:q3:c=1/4:n_max=10",
                lambda tr: _verify(g, tr, 3, "1/4", 0, 10), _judge_verify,
                known_failure=KNOWN_PRODUCT_FAILURE,
                known_re=PRODUCT_FAILURE_RE)


def _judge_report(name, rep):
    return (OK, None) if rep.passed else (
        FAIL, f"{name}: worst {rep.worst_value!r} at {rep.worst_point}")


def _crosscheck_round(g, rng: random.Random) -> list[Item]:
    """One item of each kind, each on its own seeded input.  The sizes make
    the four kinds cost about the same (60 ms each on a 2-core x86-64
    container), so the item times have one mode."""
    checks = g.checks
    items = []
    for q, samples in ((2, "40"), (3, "20")):
        c, seed = repr(_uniform_c(rng)), rng.randrange(2 ** 31)
        items.append(Item(
            f"verify:q{q}:c={c}:seed={seed}",
            lambda tr, q=q, c=c, seed=seed, samples=samples: _verify(
                g, tr, q, c, seed, 5, "--samples", samples, "--grid", "256"),
            _judge_verify, known_failure=KNOWN_DEPTH_ERROR, known_re=DEPTH_ERROR_RE))

    c_grid = [0.05 + 0.9 * rng.random() for _ in range(6)]
    t_steps, s_steps = rng.randint(110, 130), rng.randint(110, 130)

    def grids(tr):
        return [
            ("centering", tr.call("checks.centering_bound_check",
                                  checks.centering_bound_check, 3, c_grid)),
            ("inner_shift", tr.call("checks.inner_shift_negativity_grid",
                                    checks.inner_shift_negativity_grid, 3,
                                    t_steps, s_steps)),
            ("outer_shift", tr.call("checks.outer_shift_negativity_grid",
                                    checks.outer_shift_negativity_grid, 4,
                                    t_steps, s_steps)),
        ]

    def judge_grids(reports):
        for name, rep in reports:
            status, reason = _judge_report(name, rep)
            if reason:
                return status, reason
        return OK, None

    items.append(Item(f"grids:{t_steps}x{s_steps}:c={c_grid[0]!r}..", grids,
                      judge_grids, known_failure=KNOWN_DEPTH_ERROR,
                      known_re=DEPTH_ERROR_RE))

    c_probe = 0.05 + 0.9 * rng.random()

    def probe(tr):
        params = g.potential.PotentialParams(3, c_probe)
        cert = tr.call("certify.gelfond_exponent",
                       g.certify.gelfond_exponent, params, MAX_PERIOD)
        if not hasattr(cert, "cycle"):
            return cert, None
        return cert, tr.call("checks.sturmian_condition_probe",
                             checks.sturmian_condition_probe, params, cert,
                             4, 12)

    def judge_probe(value):
        cert, rep = value
        if rep is None:
            return UNCERTIFIED, None
        reason = gate.check_certificate(cert)
        return (FAIL, reason) if reason else _judge_report("probe", rep)

    items.append(Item(f"probe:q3:c={c_probe!r}", probe, judge_probe,
                      known_failure=KNOWN_DEPTH_ERROR,
                      known_re=DEPTH_ERROR_RE))
    return items


def crosscheck_plan(g, seed: int) -> Plan:
    """Polynomial-side checks and inequality grids.

    The fixed item reproduces a known defect: it runs once, first, outside
    the item timings.  The stream
    then cycles through four kinds of item: ``gelfond verify`` at q=2 and at
    q=3, the three inequality grids, and a condition probe, so every four
    consecutive items hold one of each.
    """
    rng = random.Random(seed)
    stream = [it for _ in range(500) for it in _crosscheck_round(g, rng)]
    pool_cs = [_uniform_c(rng) for _ in range(32)]
    results: dict = {}

    return Plan((2, 3), lambda: iter(stream), traced_items=8,
                pool_pass=_table2_pool_pass(g, {2: pool_cs, 3: pool_cs}, 32,
                                            results),
                defects=[_fixed_item(g)])


def build(name: str, g, seed: int, root: str) -> Plan:
    if name == "curve-q2":
        return curve_plan(g, seed, (2,), 8, traced_pairs_per_q=24,
                          pool_rows_per_q=96)
    if name == "curve-hiq":
        return curve_plan(g, seed, (3, 5, 8), 4, traced_pairs_per_q=6,
                          pool_rows_per_q=12)
    if name == "validity-q2":
        return validity_plan(g, seed, gate.load_validity_baseline(root))
    if name == "crosscheck":
        return crosscheck_plan(g, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("curve-q2", "curve-hiq", "validity-q2", "crosscheck")
