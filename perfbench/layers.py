"""Per-layer metrics: where the traced run installs its wrappers, how the
spans are summed, and the kernel timings on fixed inputs.

Layers are the package modules.  The bindings wrapped are the names through
which one module calls another (``certify.sturmian_balance`` is circle as
certify sees it), plus two hot helpers inside a module that the metrics
name (``circle._tau_pairs``, ``sturmian.build_cycle``).
"""

from __future__ import annotations

import statistics
import time

from spans import AUX, END, ITEM, LEAF_S, NAME, START, layer_of

BALANCE = "circle.sturmian_balance"
GELFOND = "certify.gelfond_exponent"
C_ROOT = "certify.c_root"
ENUMERATE = "sturmian.enumerate_cycles"
ROTATION = "sturmian.rotation_number"
POOL = "certify.pool"
COARSE_SCAN = 64  # balance calls of the bracket's coarse scan per certificate


def _balance_aux():
    return {"tau": 0, "pieces_in": 0, "last_out": 1}


def _balance_exit(rec, out):
    aux = rec[AUX]
    aux["depth"] = out.depth
    aux["uncertain"] = abs(out.value) <= out.err_bound
    # levels integrated: every input of _tau_pairs, plus its last output
    # unless the loop ran out at the depth cap (one call per level then)
    aux["pieces"] = aux["pieces_in"] + (
        aux["last_out"] if out.depth == aux["tau"] + 1 else 0)


def install_item_wrappers(tr, g) -> None:
    """Wrappers for the timed items: every cross-module binding on the
    certificate, validity and verification paths, including the names
    through which the CLI's verify command calls series and certify."""
    def tau_exit(args, out):
        if not tr.stack:
            return
        rec = tr.spans[tr.stack[-1]]
        if rec[NAME] == BALANCE:
            aux = rec[AUX]
            aux["tau"] += 1
            aux["pieces_in"] += len(args[0])
            aux["last_out"] = len(out[0])

    span, leaf = tr.span_wrapper, tr.leaf_wrapper
    tr.patch(g.certify, "sturmian_balance", span, BALANCE,
             on_exit=_balance_exit, aux=_balance_aux)
    tr.patch(g.certify, "_c_root", span, C_ROOT)
    tr.patch(g.certify, "enumerate_cycles", span, ENUMERATE)
    tr.patch(g.certify, "rotation_number", span, ROTATION)
    tr.patch(g.checks, "find_balance_point", span,
             "certify.find_balance_point")
    # the verify command's calls into series and certify
    for name in ("polynomial_sum", "modulus_product", "multiplicativity_check",
                 "sup_exponent_fit"):
        tr.patch(g.cli, name, span, f"series.{name}")
    tr.patch(g.cli, "gelfond_exponent", span, GELFOND)
    tr.patch(g.certify, "lambda_window", leaf, "sturmian.lambda_window")
    tr.patch(g.sturmian, "build_cycle", leaf, "sturmian.build_cycle")
    tr.patch(g.circle, "_tau_pairs", leaf, "circle.tau_pairs",
             on_exit=tau_exit)
    tr.patch(g.circle, "_f", leaf, "potential.f")
    tr.patch(g.circle, "_fp", leaf, "potential.fp")
    tr.patch(g.certify, "_f", leaf, "potential.f@certify")
    tr.patch(g.checks, "_f", leaf, "potential.f@checks")
    tr.patch(g.checks, "_fp", leaf, "potential.fp@checks")
    tr.patch(g.checks, "potential_derivative_array", leaf,
             "potential.derivative_array@checks")
    tr.patch(g.series, "_amp", leaf, "potential.amp@series")
    tr.patch(g.series, "potential_array", leaf, "potential.array@series")


def install_pool_wrappers(tr, g) -> None:
    """Wrappers for the CLI pass: only the parent's side of the pool, so
    the worker processes run untraced."""
    span = tr.span_wrapper
    tr.patch(g.cli, "validity_table", span, "certify.validity_table")
    tr.patch(g.cli, "exponent_table", span, "certify.exponent_table")
    tr.patch(g.certify, "_pmap", span, POOL)


def coverage_pass(tr, g) -> None:
    """Small fixed calls into series, checks and rotation_number, traced in
    every workload, so their span times are measured everywhere and the
    crosscheck numbers differ from the others by the workload's own calls."""
    p2 = g.potential.PotentialParams(2, 0.3)
    p3 = g.potential.PotentialParams(3, 0.3)
    with tr.item("coverage"):
        tr.call("series.polynomial_sum", g.series.polynomial_sum, p2, 2 ** 10,
                0.123)
        tr.call("series.modulus_product", g.series.modulus_product, p2, 10,
                0.123)
        tr.call("series.sup_exponent_fit", g.series.sup_exponent_fit, p2, 6,
                256, 0.5)
        tr.call("sturmian.rotation_number", g.sturmian.rotation_number, 2,
                -0.3 - 0.25)
        tr.call("checks.inner_shift_negativity_grid",
                g.checks.inner_shift_negativity_grid, 3, 40, 40)
        tr.call("checks.outer_shift_negativity_grid",
                g.checks.outer_shift_negativity_grid, 4, 40, 40)
        cert = tr.call(GELFOND, g.certify.gelfond_exponent, p3, 13)
        tr.call("checks.centering_bound_check",
                g.checks.centering_bound_check, 3, [0.3])
        tr.call("checks.sturmian_condition_probe",
                g.checks.sturmian_condition_probe, p3, cert, 8, 12)


def _per_call(fn, min_s: float = 0.05, batches: int = 5) -> float:
    """Median seconds per call over batches that each run >= min_s."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_s:
            break
        reps *= 2
    times = [dt / reps]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def kernel_metrics(g, qs) -> dict:
    """Per-layer costs on fixed inputs, untraced, averaged over the
    workload's bases q."""
    amp, bal, enum = [], [], []
    for q in qs:
        params = g.potential.PotentialParams(q, 0.3)
        xs = [(i + 0.5) / 1000 for i in range(1000)]
        amplitude = g.potential.amplitude

        def amp_batch():
            for x in xs:
                amplitude(params, x)

        amp.append(_per_call(amp_batch) / len(xs) * 1e9)
        lam = -0.3 - 0.5 / q  # middle of the admissible window
        bal.append(_per_call(lambda: g.circle.sturmian_balance(
            params, lam, depth=20)) * 1e6)
        enum.append(_per_call(lambda: g.sturmian.enumerate_cycles(q, 13),
                              batches=3) * 1e3)
    p2 = g.potential.PotentialParams(2, 0.3)
    n_terms = 2 ** 12
    poly = _per_call(lambda: g.series.polynomial_sum(p2, n_terms, 0.123),
                     batches=3)
    return {
        "potential.amplitude.ns": statistics.fmean(amp),
        "circle.balance_fixed_depth.us": statistics.fmean(bal),
        "sturmian.enumerate_cycles.ms": statistics.fmean(enum),
        "series.polynomial_sum.terms_per_s": n_terms / poly,
    }


def span_metrics(tr, item_ids: set, leaf_counts: dict) -> dict:
    """Metrics from the spans of a traced run.

    Work counters cover only the workload's items (leaf_counts is the leaf
    call count when the items ended), so they repeat exactly for a seed.
    Times cover the whole traced run: items, the CLI pass and the coverage
    calls.
    """
    spans = tr.spans
    self_s = tr.self_times()
    dur = [rec[END] - rec[START] for rec in spans]
    in_items = [rec[ITEM] in item_ids for rec in spans]

    def total(name):
        return sum(d for rec, d in zip(spans, dur) if rec[NAME] == name)

    def count(name):
        return sum(1 for rec, it in zip(spans, in_items)
                   if rec[NAME] == name and it)

    balance = [i for i, rec in enumerate(spans)
               if rec[NAME] == BALANCE and in_items[i] and "depth" in rec[AUX]]
    depths = [spans[i][AUX]["depth"] for i in balance]

    # certificate phases: balance calls before the first enumeration are the
    # bracket (coarse scan, then bisection), those after it the endpoints;
    # phase times include the coverage certificate, the counts do not
    bracket = select = endpoints = 0.0
    cert_balance = uncertain = 0
    kids = tr.children()
    certs = [i for i, rec in enumerate(spans) if rec[NAME] == GELFOND]
    n_item_certs = sum(1 for i in certs if in_items[i])
    for i in certs:
        seen_select = False
        n_bal = 0
        for k in kids.get(i, ()):
            name = spans[k][NAME]
            if name in (ENUMERATE, ROTATION):
                seen_select = True
                select += dur[k]
            elif name == BALANCE:
                if in_items[i]:
                    cert_balance += 1
                if seen_select:
                    endpoints += dur[k]
                else:
                    bracket += dur[k]
                    n_bal += 1
                    aux = spans[k][AUX]
                    if (n_bal > COARSE_SCAN and in_items[i]
                            and aux.get("uncertain")):
                        uncertain += 1
    roots = [i for i, rec in enumerate(spans)
             if rec[NAME] == C_ROOT and in_items[i]]
    root_balance = 0
    for i in roots:
        for n, k in enumerate(kids.get(i, ())):
            if spans[k][NAME] == BALANCE:
                root_balance += 1
                # the first two calls bracket c; the rest bisect it
                if n >= 2 and spans[k][AUX].get("uncertain"):
                    uncertain += 1
    rows = count("certify.validity_interval")

    layer_self: dict[str, float] = {}
    for rec, s in zip(spans, self_s):
        # the pool's wall time is the workers' work, not certify's own
        layer = POOL if rec[NAME] == POOL else layer_of(rec[NAME])
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    for name, s in tr.leaf_s.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    out = {
        "potential.f.calls": leaf_counts.get("potential.f", 0),
        "potential.fp.calls": leaf_counts.get("potential.fp", 0),
        "circle.sturmian_balance.calls": len(balance),
        "circle.sturmian_balance.self_s": sum(self_s[i] for i in balance),
        "circle.sturmian_balance.depth_mean":
            sum(depths) / len(depths) if depths else 0.0,
        "circle.sturmian_balance.depth_max": max(depths, default=0),
        "circle.tau_pairs.calls": leaf_counts.get("circle.tau_pairs", 0),
        "circle.tau_pairs.s": tr.leaf_s.get("circle.tau_pairs", 0.0),
        "circle.pieces": sum(spans[i][AUX]["pieces"] for i in balance),
        "sturmian.enumerate_cycles.calls": count(ENUMERATE),
        "sturmian.enumerate_cycles.s": total(ENUMERATE),
        "sturmian.build_cycle.calls":
            leaf_counts.get("sturmian.build_cycle", 0),
        "sturmian.rotation_number.calls": count(ROTATION),
        "sturmian.rotation_number.s": total(ROTATION),
        "certify.balance_calls_per_item":
            cert_balance / n_item_certs if n_item_certs else 0.0,
        "certify.bracket.s": bracket,
        "certify.select.s": select,
        "certify.endpoints.s": endpoints,
        "certify.uncertain_sign_steps": uncertain,
        "certify.c_root.balance_calls_per_row":
            root_balance / rows if rows else 0.0,
        "series.polynomial_sum.s": total("series.polynomial_sum"),
        "series.modulus_product.s": total("series.modulus_product"),
        "series.sup_exponent_fit.s": total("series.sup_exponent_fit"),
        "checks.centering_bound_check.s": total("checks.centering_bound_check"),
        "checks.inner_shift_negativity_grid.s":
            total("checks.inner_shift_negativity_grid"),
        "checks.outer_shift_negativity_grid.s":
            total("checks.outer_shift_negativity_grid"),
        "checks.sturmian_condition_probe.s":
            total("checks.sturmian_condition_probe"),
        "certify.pool.s": layer_self.get(POOL, 0.0),
    }
    for layer in ("potential", "circle", "sturmian", "certify", "series",
                  "checks", "cli", "bench"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return out


def item_accounting(tr) -> list[tuple[str, float, float]]:
    """(item, item span duration, sum of self and leaf times inside it)."""
    self_s = tr.self_times()
    sums: dict = {}
    durs: dict = {}
    for rec, s in zip(tr.spans, self_s):
        sums[rec[ITEM]] = sums.get(rec[ITEM], 0.0) + s + rec[LEAF_S]
        if rec[NAME] == "bench.item":
            durs[rec[ITEM]] = rec[END] - rec[START]
    return [(k, durs[k], sums[k]) for k in durs]
