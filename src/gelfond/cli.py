"""Command-line surface: certificates, tables, curves, verification suites.

Output is deterministic: fixed column orders, 15-significant-digit reals,
rationals as num/den, no timestamps.  Worker processes (``--threads``) feed
an order-preserving map, so parallel runs emit identical bytes.

Flags alone set a run; the certifier's tolerances are module constants.

Exit codes: 0 success, 1 partial/other failure, bad input (printed as
``error: ...``) or a usage error, 2 nonperiodic report, 3 guard violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

from .certify import (DEFAULT_MAX_PERIOD, DEFAULT_TABLE2_FRACTIONS,
                      GelfondCertificate, NonPeriodicReport, exponent_table,
                      gelfond_exponent, validity_table)
from .checks import (centering_bound_check, inner_shift_negativity_grid,
                     outer_shift_negativity_grid, sturmian_condition_probe)
from .circle import DEPTH_CAP, exit_time_profile
from .errors import DepthError, GelfondError, GuardError
from .potential import PotentialParams, reduce_phase
from .series import (DIRECT_SUM_CAP, modulus_product, multiplicativity_check,
                     polynomial_sum, sup_exponent_fit)
from .sturmian import (IrrationalRotation, RationalRotation, enumerate_cycles,
                       lambda_window, rotation_number)

def fmt(x: float) -> str:
    """Reals as 15 significant digits, matching the reference tables."""
    return f"{x:.15g}"


def frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_fraction(text: str) -> Fraction:
    """A phase written as num/den (or a decimal); ValueError if it names
    no number or one too large for a float."""
    try:
        value = Fraction(text)
        float(value)
    except ZeroDivisionError:
        raise ValueError(f"phase {text!r} has a zero denominator") from None
    except OverflowError:
        raise ValueError(f"phase {text!r} overflows a float") from None
    return value


def parse_c(text: str) -> float:
    """Accept a float or a num/den fraction for the phase parameter.

    Raises ValueError for text that names no finite number.
    """
    value = float(_parse_fraction(text)) if "/" in text else float(text)
    if not math.isfinite(value):
        raise ValueError(f"phase must be a finite number, got {text!r}")
    return reduce_phase(value)


@contextlib.contextmanager
def _writer(path: str):
    """The output file, or stdout for an empty path."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        yield fh


def _emit_rows(path: str, header: list[str], rows) -> None:
    with _writer(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _emit_answers(path: str, header: list[str], answers, key, cells,
                  gap: str = "") -> int:
    """A table of (input, answer) pairs whose last column is the status:
    key(input) leads every line; an exception is ERROR: <message>, a
    NonPeriodicReport is gap, and any other answer is OK and prints
    cells(answer), which the other rows leave blank.  Returns the exit code,
    1 if any answer is an exception."""
    out = []
    for x, a in answers:
        if isinstance(a, Exception):
            status = f"ERROR: {a}"
        elif isinstance(a, NonPeriodicReport):
            status = gap
        else:
            status = "OK"
        lead = key(x)
        out.append([*lead, *(cells(a) if status == "OK" else
                             [""] * (len(header) - len(lead) - 1)), status])
    _emit_rows(path, header, out)
    return 1 if any(isinstance(a, Exception) for _, a in answers) else 0


def _exponent_cells(cert: GelfondCertificate) -> list:
    return [fmt(cert.beta), fmt(cert.gamma), cert.cycle.period]


def _validity_key(cycle) -> list:
    win = lambda_window(cycle)
    return [cycle.period, frac(cycle.rotation), frac(win.lo), frac(win.hi)]


def _require(args, **least) -> None:
    """Reject a size argument below its least value, before any output."""
    for name, low in least.items():
        if getattr(args, name) < low:
            raise ValueError(f"{name} must be >= {low}")


def _threads(args) -> int:
    _require(args, threads=0)
    return args.threads or os.cpu_count() or 1


def cmd_gelfond(args) -> int:
    params = PotentialParams(args.q, parse_c(args.c))
    try:
        res = gelfond_exponent(params, args.max_period)
    except GuardError as exc:
        if not args.json:
            raise  # main prints it and exits 3
        res = exc
    with _writer(args.output) as fh, contextlib.redirect_stdout(fh):
        return _print_gelfond(res, args.json)


def _print_gelfond(res, as_json: bool) -> int:
    if isinstance(res, GuardError):
        print(json.dumps({"schema_version": 1, "status": "guard_error",
                          "reason": str(res)}, sort_keys=True))
        return 3
    if isinstance(res, NonPeriodicReport):
        if as_json:
            print(json.dumps(res.to_json_dict(), sort_keys=True))
        else:
            print(f"nonperiodic: {res.reason}")
            print(f"lambda_star = {fmt(res.lambda_star % 1.0)}")
            rot = res.rotation
            if isinstance(rot, IrrationalRotation):
                print(f"rotation estimate = {fmt(rot.value)} "
                      f"+- {fmt(rot.uncertainty)}")
            else:
                print(f"rotation = {rot.value}")
        return 2
    assert isinstance(res, GelfondCertificate)
    if as_json:
        print(json.dumps(res.to_json_dict(), sort_keys=True))
        return 0
    cyc = res.cycle
    print(f"beta  = {fmt(res.beta)}")
    print(f"gamma = {fmt(res.gamma)}")
    print(f"cycle = period {cyc.period}, rotation {cyc.rotation}, "
          f"points {{{', '.join(frac(p) for p in cyc.points)}}}")
    print(f"lambda_star = {fmt(res.lambda_star % 1.0)}")
    print(f"v({fmt(res.lambda1 % 1.0)}) = {fmt(res.v1.value)} "
          f"+- {fmt(res.v1.err_bound)}")
    print(f"v({fmt(res.lambda2 % 1.0)}) = {fmt(res.v2.value)} "
          f"+- {fmt(res.v2.err_bound)}")
    return 0


def cmd_cycles(args) -> int:
    rows = []
    for cy in enumerate_cycles(args.q, args.max_period):
        if cy.period < args.min_period:
            continue
        win = lambda_window(cy)
        rows.append([args.q, cy.period, cy.rotation.numerator,
                     cy.rotation.denominator, cy.base_digit,
                     frac(cy.s_min), frac(cy.s_max),
                     frac(win.lo), frac(win.hi)])
    _emit_rows(args.output, ["q", "period", "rotation_num", "rotation_den",
                             "base_digit", "s_min", "s_max", "window_lo",
                             "window_hi"], rows)
    return 0


def cmd_validity(args) -> int:
    answers = validity_table(args.q, args.max_period, threads=_threads(args),
                             period=args.period)
    return _emit_answers(
        args.output, ["period", "rotation", "window_lo", "window_hi", "c_lo",
                      "c_hi", "status"], answers, _validity_key,
        lambda vi: [fmt(vi.c_lo), fmt(vi.c_hi)])


def cmd_table2(args) -> int:
    c_list = DEFAULT_TABLE2_FRACTIONS
    if args.c_list:
        with open(args.c_list, encoding="utf-8") as fh:
            c_list = [_parse_fraction(line.strip()) for line in fh
                      if line.strip()]
    elif args.q != 2:
        raise ValueError(f"q={args.q} has no reference c list; give --c-list")
    answers = exponent_table(args.q, args.max_period, c_list=c_list,
                             threads=_threads(args))
    return _emit_answers(args.output,
                         ["c", "beta", "gamma", "period", "status"], answers,
                         lambda c: [str(c)], _exponent_cells, "SKIPPED")


def _svg_curve(answers, path: str) -> None:
    """Self-contained SVG of gamma(c): axes plus one polyline per run of
    certificates."""
    width, height = 840, 560
    mx, my = 60, 40
    pw, ph = width - 2 * mx, height - 2 * my
    y_lo, y_hi = 0.5, 1.0

    def sx(c):
        return mx + pw * c

    def sy(g):
        return my + ph * (y_hi - g) / (y_hi - y_lo)

    segs: list[list[tuple[float, float]]] = [[]]
    for c, a in answers:
        if isinstance(a, GelfondCertificate):
            segs[-1].append((sx(c), sy(min(max(a.gamma, y_lo), y_hi))))
        elif segs[-1]:
            segs.append([])
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{mx}" y1="{my + ph}" x2="{mx + pw}" y2="{my + ph}" '
        'stroke="black"/>',
        f'<line x1="{mx}" y1="{my}" x2="{mx}" y2="{my + ph}" stroke="black"/>',
    ]
    for i in range(6):
        c = i / 5
        lines.append(f'<text x="{sx(c):.1f}" y="{my + ph + 20}" '
                     f'font-size="12" text-anchor="middle">{c:.1f}</text>')
    for i in range(6):
        gv = y_lo + (y_hi - y_lo) * i / 5
        lines.append(f'<text x="{mx - 8}" y="{sy(gv):.1f}" font-size="12" '
                     f'text-anchor="end">{gv:.1f}</text>')
    for seg in segs:
        if len(seg) < 2:
            continue
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
        lines.append(f'<polyline points="{pts}" fill="none" stroke="navy" '
                     'stroke-width="1"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_beta_curve(args) -> int:
    threads = _threads(args)
    _require(args, resolution=2)
    answers = exponent_table(
        args.q, args.max_period,
        c_list=[i / args.resolution for i in range(args.resolution)],
        threads=threads)
    code = _emit_answers(args.output,
                         ["c", "beta", "gamma", "period", "status"], answers,
                         lambda c: [fmt(c)], _exponent_cells, "GAP")
    if args.svg:
        _svg_curve(answers, args.svg)
    return code


def cmd_staircase(args) -> int:
    """rotation_number on the grid lam = i/points; the estimate is the exact
    rotation as a float, or the midpoint of its enclosure."""
    _require(args, points=1, max_period=1)
    out = []
    for i in range(args.points):
        lam = i / args.points
        rot = rotation_number(args.q, lam, args.max_period)
        exact = ([rot.value.numerator, rot.value.denominator]
                 if isinstance(rot, RationalRotation) else ["", ""])
        out.append([fmt(lam), fmt(float(rot.value)), *exact])
    _emit_rows(args.output, ["lambda", "rho_estimate", "rho_num", "rho_den"],
               out)
    return 0


def cmd_profile(args) -> int:
    prof = exit_time_profile(args.q, parse_c(args.lam), args.depth,
                             args.grid_size)
    _emit_rows(args.output, ["x", "e"], [[fmt(x), e] for x, e in prof])
    return 0


def cmd_verify(args) -> int:
    _require(args, n_max=2, grid_size=1, samples=1)
    # q >= 2, so q^n_max exceeds the cap once n_max reaches its bit length
    if args.q ** min(args.n_max, DIRECT_SUM_CAP.bit_length()) > DIRECT_SUM_CAP:
        raise ValueError(f"q^n_max = {args.q}^{args.n_max} exceeds the "
                         f"direct-sum cap {DIRECT_SUM_CAP}")
    params = PotentialParams(args.q, parse_c(args.c))
    with _writer(args.output) as fh, contextlib.redirect_stdout(fh):
        return _print_verify(args, params)


def _print_verify(args, params: PotentialParams) -> int:
    rng = random.Random(args.seed)
    q, c = params.q, params.c
    ok = True

    worst = 0.0
    for _ in range(args.samples):
        x = rng.random()
        n = rng.randint(1, args.n_max)
        direct = abs(polynomial_sum(params, q ** n, x))
        prod = modulus_product(params, n, x)
        err = abs(direct - prod) / max(1.0, direct, prod)
        worst = max(worst, err)
    line_ok = worst <= 1e-10
    ok &= line_ok
    print(f"product identity: worst rel err {worst:.3e} "
          f"[{'PASS' if line_ok else 'FAIL'}]")

    bad = 0
    for _ in range(args.samples):
        t = rng.randint(1, 6)
        a = rng.randint(1, 50)
        b = rng.randint(0, q ** t - 1)
        if not multiplicativity_check(params, a, t, b, x=rng.random()):
            bad += 1
    line_ok = bad == 0
    ok &= line_ok
    print(f"multiplicativity: {bad} failures / {args.samples} "
          f"[{'PASS' if line_ok else 'FAIL'}]")

    worst = 0.0
    for _ in range(args.samples):
        x = rng.random()
        n = rng.randint(1, args.n_max)
        p1 = modulus_product(params, n, x)
        p2 = modulus_product(PotentialParams(q, (1.0 - c) % 1.0), n,
                             1 - Fraction(x))
        worst = max(worst, abs(p1 - p2) / max(1.0, p1, p2))
    line_ok = worst <= 1e-10
    ok &= line_ok
    print(f"mirror symmetry: worst rel err {worst:.3e} "
          f"[{'PASS' if line_ok else 'FAIL'}]")

    res = gelfond_exponent(params, args.max_period)
    if isinstance(res, GelfondCertificate):
        fit = sup_exponent_fit(params, args.n_max, args.grid_size, res.beta)
        if args.fit_csv:
            _emit_rows(args.fit_csv,
                       ["n", "gamma_n", "excess_n", "argmax_x", "excess_hi"],
                       [[r.n, fmt(r.gamma_n), fmt(r.excess_n), fmt(r.argmax_x),
                         fmt(r.excess_hi)] for r in fit])
        floor_ok = all(r.gamma_n >= res.gamma - 0.02 for r in fit)
        ok &= floor_ok
        print(f"exponent floor gamma_n >= gamma - 0.02: "
              f"[{'PASS' if floor_ok else 'FAIL'}]")
    else:
        print("exponent fit skipped: no certificate at this c")

    if args.sigma_csv:
        xs = [i / args.grid_size for i in range(args.grid_size)]
        _emit_rows(args.sigma_csv, ["x", "abs_sigma"],
                   [[fmt(x), fmt(modulus_product(params, args.n_max, x))]
                    for x in xs])

    print("verify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_checks(args) -> int:
    _require(args, c_points=2, grid_size=1, samples=1, depth=1)
    if args.q < 3 and args.probe_c is None:
        raise ValueError(f"q={args.q} has no inequality grid; give --probe-c")
    probe = (None if args.probe_c is None
             else PotentialParams(args.q, parse_c(args.probe_c)))
    # the probe runs after the grids, so its depth is refused here
    if probe is not None and args.depth > DEPTH_CAP:
        raise DepthError(f"depth {args.depth} exceeds cap {DEPTH_CAP}")
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
    with _writer(args.output) as fh, contextlib.redirect_stdout(fh):
        return _print_checks(args, probe)


def _print_checks(args, probe: PotentialParams | None) -> int:
    """Each report is printed, and its JSON written, as soon as it is
    computed, so a guard error in a later one keeps the earlier ones."""
    ok = True

    def report(name, rep) -> None:
        nonlocal ok
        ok &= rep.passed
        print(f"{name}: worst {fmt(rep.worst_value)} at {rep.worst_point} "
              f"[{'PASS' if rep.passed else 'FAIL'}]")
        if args.json_dir:
            with open(os.path.join(args.json_dir, f"{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(rep.to_json_dict(), fh, sort_keys=True, indent=2)

    # the probe's certificate comes first, so that a skipped probe is
    # reported above the grids
    cert = None if probe is None else gelfond_exponent(probe, args.max_period)
    if cert is not None and not isinstance(cert, GelfondCertificate):
        print(f"probe skipped: no certificate at c={args.probe_c}")
    if args.q >= 3:
        grid = [0.05 + 0.9 * i / (args.c_points - 1)
                for i in range(args.c_points)]
        report("centering", centering_bound_check(args.q, grid))
        report("inner_shift", inner_shift_negativity_grid(
            args.q, args.grid_size, args.grid_size))
    if args.q >= 4:
        report("outer_shift", outer_shift_negativity_grid(
            args.q, args.grid_size, args.grid_size))
    if isinstance(cert, GelfondCertificate):
        report("condition_probe", sturmian_condition_probe(
            probe, cert, samples=args.samples, depth=args.depth))
    return 0 if ok else 1


@functools.cache  # parse_args keeps no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelfond",
        description="Certified Gelfond exponents of generalized Thue-Morse "
                    "polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False):
        p.add_argument("--q", type=int, default=2)
        p.add_argument("--max-period", type=int, dest="max_period",
                       default=DEFAULT_MAX_PERIOD)
        p.add_argument("-o", "--output", default="",
                       help="output file (default stdout)")
        if threads:
            p.add_argument("--threads", type=int, default=0,
                           help="worker processes, 0 = all cores; at most "
                           "one per row and one per core")

    p = sub.add_parser("gelfond", help="certify beta(c) and gamma(c)")
    common(p)
    p.add_argument("--c", required=True, help="phase in [0,1) or num/den")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_gelfond)

    p = sub.add_parser("cycles", help="enumerate Sturmian cycles as CSV")
    common(p)
    p.add_argument("--min-period", type=int, dest="min_period", default=2,
                   help="2 matches the reference cycle table; 1 adds the "
                        "fixed points")
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("validity", help="validity intervals per cycle as CSV")
    common(p, threads=True)
    p.add_argument("--period", type=int, default=None,
                   help="restrict to one period")
    p.set_defaults(fn=cmd_validity)

    p = sub.add_parser("table2", help="beta/gamma per c as CSV")
    common(p, threads=True)
    p.add_argument("--c-list", dest="c_list",
                   help="file with one c (num/den) per line; default is the "
                        "reference list")
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("beta-curve", help="certified curve over a c grid")
    common(p, threads=True)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--svg", help="also write a vector plot of gamma(c)")
    p.set_defaults(fn=cmd_beta_curve)

    p = sub.add_parser("staircase", help="rotation-number staircase as CSV")
    common(p)
    p.add_argument("--points", type=int, default=2048)
    p.set_defaults(fn=cmd_staircase)

    p = sub.add_parser("profile", help="first-exit time profile as CSV")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("-o", "--output", default="",
                   help="output file (default stdout)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--grid", type=int, dest="grid_size", default=1024)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("verify", help="polynomial-side verification suite")
    common(p)
    p.add_argument("--c", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--n-max", type=int, dest="n_max", default=8)
    p.add_argument("--grid", type=int, dest="grid_size", default=1024)
    p.add_argument("--fit-csv", dest="fit_csv",
                   help="write the exponent-fit rows here")
    p.add_argument("--sigma-csv", dest="sigma_csv",
                   help="write the |partial sum| profile here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("checks", help="inequality grids and condition probe")
    common(p)
    p.add_argument("--grid", type=int, dest="grid_size", default=200)
    p.add_argument("--c-points", type=int, dest="c_points", default=8)
    p.add_argument("--probe-c", dest="probe_c", default=None)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--json-dir", dest="json_dir",
                   help="write GridReport JSON files here")
    p.set_defaults(fn=cmd_checks)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or a usage error (code 2,
        # which would read as a nonperiodic report)
        return 1 if exc.code else 0
    try:
        PotentialParams(args.q, 0.0)  # rejects q < 2 before any command runs
        return args.fn(args)
    except GuardError as exc:
        print(f"guard error: {exc}", file=sys.stderr)
        return 3
    except (GelfondError, ValueError, OSError) as exc:
        # ValueError is how the package rejects out-of-range arguments;
        # OSError is an unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
