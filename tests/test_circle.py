import math
import sys
import threading

import numpy as np
import pytest

from gelfond import (DepthError, GelfondError, GuardError, PotentialParams,
                     circle, exit_sets, exit_time_profile, find_balance_point,
                     sturmian_balance)
from gelfond.circle import WINDOW_GUARD, _exit_levels, _tau_pairs
from gelfond.potential import _f, _fp

from conftest import (balance_quadrature_oracle, f_round_form,
                      forward_exit_times, full_bisection)


def covers(pairs, x):
    """Whether x lies in one of the half-open (lo, len) arcs."""
    return any((x - lo) % 1.0 < ln for lo, ln in pairs)


def total(pairs):
    return math.fsum(ln for _, ln in pairs)


def assert_disjoint_arcs(pairs):
    """Arcs have lo in [0,1), length in [0,1], and do not overlap on the
    circle, the wrap-around from the last arc into the first included."""
    for lo, ln in pairs:
        assert 0.0 <= lo < 1.0
        assert 0.0 <= ln <= 1.0
    arcs = sorted(pairs)
    for (lo1, ln1), (lo2, _) in zip(arcs, arcs[1:]):
        assert lo1 + ln1 <= lo2 + 1e-15
    if len(arcs) >= 2:
        lo1, ln1 = arcs[-1]
        assert lo1 + ln1 - 1.0 <= arcs[0][0] + 1e-15


class TestInverseBranch:
    """_tau_pairs, the inverse branch into [lam, lam+1/q) on (lo, len) arcs."""

    def test_full_circle_contracts_to_base_arc(self):
        assert _tau_pairs([(0.0, 1.0)], 2, 0.0) == [(0.0, 0.5)]

    def test_split_at_discontinuity_hand_computed(self):
        # base arc [1/4, 3/4), input [1/4, 3/4): pieces split at T(1/4)=1/2,
        # images [1/4, 3/8) and [5/8, 3/4), each of length 1/8
        out = _tau_pairs([(0.25, 0.5)], 2, 0.25)
        assert len(out) == 2
        assert sorted(out) == [pytest.approx((0.25, 0.125), abs=1e-15),
                               pytest.approx((0.625, 0.125), abs=1e-15)]

    @pytest.mark.parametrize("q,lam", [(2, 0.17), (3, 0.71), (5, 0.03)])
    def test_measure_contraction_exact(self, q, lam, rng):
        pairs = []
        lo = 0.0
        for _ in range(4):
            gap = rng.random() * 0.2 + 0.02
            pairs.append(((lo + gap) % 1.0, gap * 0.4))
            lo += gap + gap * 0.4
        out = _tau_pairs(pairs, q, lam)
        assert total(out) == pytest.approx(total(pairs) / q, abs=1e-14)

    def test_at_most_two_pieces_per_input(self, rng):
        for q in (2, 3, 5):
            for lam in (0.0, 0.123, 0.77):
                for arc in [(0.4, 0.59)] + [(rng.random(), rng.random())
                                            for _ in range(50)]:
                    out = _tau_pairs([arc], q, lam)
                    assert 1 <= len(out) <= 2

    @pytest.mark.parametrize("q,lam", [(2, 0.17), (3, 0.71), (5, 0.03)])
    def test_dropped_mass_accounted(self, q, lam, rng):
        # nothing is dropped, slivers included: the images add up to the
        # whole image, len/q
        pairs = [(rng.random(), rng.random() * 0.1) for _ in range(40)]
        pairs.append(((q * lam) % 1.0 - 1e-15, 0.5))  # splits off a sliver
        out = _tau_pairs(pairs, q, lam)
        assert min(ln for _, ln in out) < 1e-15
        assert total(out) == pytest.approx(total(pairs) / q, abs=1e-15)


class TestExitSets:
    def test_first_set_is_base_arc(self):
        sets = exit_sets(2, 0.25, 3)
        assert sets[0] == [(0.25, 0.5)]

    def test_nesting(self):
        sets = exit_sets(2, 0.3, 6)
        xs = np.linspace(0, 1, 701, endpoint=False)
        for a, b in zip(sets, sets[1:]):
            for x in xs:
                if covers(b, float(x)):
                    assert covers(a, float(x))

    @pytest.mark.parametrize("q,lam", [(2, 0.26), (3, 0.55), (6, 0.9)])
    def test_geometric_masses(self, q, lam):
        depth = 60
        sets = exit_sets(q, lam, depth)
        mass = math.fsum(total(pairs) for pairs in sets)
        expected = (1.0 - q ** -depth) / (q - 1)
        assert mass == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("q,lam,depth", [
        (2, 0.3, 30), (2, 0.25, 22), (2, 0.999, 40), (3, 0.71, 25),
        (3, 0.0, 20), (5, 0.03, 15), (6, 0.9, 15), (8, 0.5, 10)])
    def test_levels_pairwise_disjoint(self, q, lam, depth):
        sets = exit_sets(q, lam, depth)
        assert len(sets) == depth
        for pairs in sets:
            assert_disjoint_arcs(pairs)

    def test_levels_disjoint_random(self, rng):
        for _ in range(40):
            q = rng.choice([2, 3, 4, 5, 8])
            for pairs in exit_sets(q, rng.random(), 30):
                assert_disjoint_arcs(pairs)

    def test_matches_forward_orbit_exit_times(self, rng):
        # membership counts across levels equal the first-exit time
        q, lam = 2, 0.31
        sets = exit_sets(q, lam, 25)
        xs = np.array([rng.random() for _ in range(400)])
        e_fwd = forward_exit_times(q, lam, xs, cap=25)
        for x, ef in zip(xs, e_fwd):
            count = sum(1 for pairs in sets if covers(pairs, float(x)))
            assert count == ef

    def test_depth_cap(self):
        with pytest.raises(DepthError):
            exit_sets(2, 0.2, 401)

    def test_base_in_unit_interval_just_below_zero(self):
        # -1e-20 % 1.0 rounds up to 1.0; the base arc starts at 0.0 instead
        assert exit_sets(2, -1e-20, 2) == exit_sets(2, 0.0, 2)


class TestExitTimeProfile:
    def test_zero_off_base_arc(self):
        prof = exit_time_profile(2, 0.25, 20, 512)
        for x, e in prof:
            if not (0.25 <= x < 0.75):
                assert e == 0

    def test_breakpoint_integral_is_geometric_sum(self):
        # the exact integral of the truncated profile equals the mass sum
        q, lam, depth = 2, 0.25, 30
        mass = math.fsum(total(pairs) for pairs in exit_sets(q, lam, depth))
        assert mass == pytest.approx((1 - 2.0 ** -depth) / 1.0, abs=1e-12)

    def test_symmetric_profile_at_quarter(self, rng):
        # e_{1/4} is symmetric under x -> 1-x for q=2
        sets = exit_sets(2, 0.25, 22)

        def e_of(x):
            return sum(1 for pairs in sets if covers(pairs, x))

        for _ in range(200):
            x = rng.random()
            assert e_of(x) == e_of(1.0 - x)

    def test_values_nonnegative_ints(self):
        prof = exit_time_profile(3, 0.1, 15, 64)
        assert all(isinstance(e, int) and e >= 0 for _, e in prof)


class TestBalance:
    def test_symmetric_zero(self):
        v = sturmian_balance(PotentialParams(2, 0.5), 0.25)
        assert abs(v.value) <= v.err_bound
        assert v.err_bound <= 1e-13

    def test_certified_sign_flip_vs_oracle(self):
        params = PotentialParams(2, 0.5)
        v_lo = sturmian_balance(params, 1.0 / 6.0 + 1e-9, depth=60)
        v_hi = sturmian_balance(params, 1.0 / 3.0 - 1e-9, depth=60)
        assert max(v_lo.err_bound, v_hi.err_bound) <= 1e-13
        assert v_lo.value > v_lo.err_bound
        assert v_hi.value < -v_hi.err_bound
        o_lo = balance_quadrature_oracle(2, 0.5, 1.0 / 6.0 + 1e-9, depth=60)
        o_hi = balance_quadrature_oracle(2, 0.5, 1.0 / 3.0 - 1e-9, depth=60)
        assert o_lo > 0 > o_hi
        assert v_lo.value == pytest.approx(o_lo, abs=1e-4)
        assert v_hi.value == pytest.approx(o_hi, abs=1e-4)

    def test_strictly_decreasing_in_c(self):
        lam = 0.3
        v1 = sturmian_balance(PotentialParams(2, 0.45), lam)
        v2 = sturmian_balance(PotentialParams(2, 0.46), lam)
        assert v2.value < v1.value - (v1.err_bound + v2.err_bound)

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_mirror_phase_negates_the_balance(self, q, rng):
        # the amplitude is even, so B_{1-c}(-1/q - lam) = -B_c(lam); each
        # adaptive call errs by at most 1.31 err_bound (certify._root's
        # docstring), so the two values agree within 1.31 times the sum
        # of their bounds: loosely far from the root, to about 3e-13 at
        # the points just beside it that a full bisection reaches
        for _ in range(4):
            c = rng.random()  # so that 1.0 - c is exact
            params = PotentialParams(q, c)
            glo, ghi = -1.0 / q - c + 2e-6, -c - 2e-6
            a, b, _ = full_bisection(
                lambda lam: sturmian_balance(params, lam), glo, ghi, 1e-12)
            lams = [rng.uniform(glo, ghi) for _ in range(3)]
            lams += [a - 10.0 ** -k for k in (9, 11)] + [a, b]
            lams += [b + 10.0 ** -k for k in (9, 11)]
            for lam in lams:
                v = sturmian_balance(params, lam)
                w = sturmian_balance(PotentialParams(q, 1.0 - c),
                                     -1.0 / q - lam)
                assert abs(w.value + v.value) <= 1.31 * (
                    v.err_bound + w.err_bound), (q, c, lam)

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_certified_values_decrease_in_c(self, q, rng):
        # at a fixed lambda the balance falls as c sweeps its window: each
        # certified interval value +- 1.31 err_bound lies below the last
        depth = {2: 64, 3: 40, 5: 27, 8: 21}[q]  # err_bound below 1e-17
        for _ in range(3):
            lam = rng.uniform(-1.0, 0.0)
            last = math.inf
            for j in range(16):
                # lam + c runs over (1 - 1/q, 1), the window's lift
                c = (1.0 - (16 - j - 0.5) / (16 * q) - lam) % 1.0
                v = sturmian_balance(PotentialParams(q, c), lam, depth=depth)
                assert v.value + 1.31 * v.err_bound < last, (q, lam, c)
                last = v.value - 1.31 * v.err_bound

    def test_depth_consistency(self):
        params = PotentialParams(2, 0.4)
        v_shallow = sturmian_balance(params, 0.28, depth=12)
        v_deep = sturmian_balance(params, 0.28, depth=40)
        assert abs(v_shallow.value - v_deep.value) <= v_shallow.err_bound
        assert v_deep.err_bound < v_shallow.err_bound / 100

    def test_err_bound_shrinks_geometrically(self):
        params = PotentialParams(2, 0.4)
        errs = [sturmian_balance(params, 0.28, depth=d).err_bound
                for d in (10, 14, 18)]
        assert errs[1] <= errs[0] / 2 ** 3.9
        assert errs[2] <= errs[1] / 2 ** 3.9

    def test_window_limit_signs(self):
        # positive limit at the left window edge, negative at the right
        for q, c in [(2, 0.4), (3, 0.25)]:
            params = PotentialParams(q, c)
            wlo, whi = -1.0 / q - c, -c
            v_lo = sturmian_balance(params, wlo + 1e-4)
            v_hi = sturmian_balance(params, whi - 1e-4)
            assert v_lo.value > v_lo.err_bound
            assert v_hi.value < -v_hi.err_bound

    def test_oracle_agreement_random_pairs(self, rng):
        quad_tol = 1e-4
        for _ in range(20):
            q = rng.choice([2, 3])
            c = 0.05 + 0.9 * rng.random()
            t = 0.05 + 0.9 * rng.random()
            lam = -1.0 / q - c + t / q  # inside the admissible window
            v = sturmian_balance(PotentialParams(q, c), lam, depth=60)
            assert v.err_bound <= 1e-13
            oracle = balance_quadrature_oracle(q, c, lam, n=400_000)
            assert v.value == pytest.approx(oracle,
                                            abs=v.err_bound + quad_tol)

    @pytest.mark.parametrize("q, target_depth",
                             [(2, 64), (3, 40), (5, 27), (8, 21)])
    def test_adaptive_stop_far_inside_depth_cap(self, q, target_depth):
        # next to the window guard f_c' is largest (m_edge about 1e6), and
        # still the bound meets the 1e-13 target by target_depth, so an
        # adaptive call never runs on to DEPTH_CAP
        for c in (0.0, 0.1, 1.0 / 3.0, 0.5, 0.9, 0.999):
            params = PotentialParams(q, c)
            wlo, whi = -1.0 / q - c, -c
            for g in (1.001 * WINDOW_GUARD, 2.0 * WINDOW_GUARD):
                for lam in (wlo + g, whi - g):
                    v = sturmian_balance(params, lam)
                    assert abs(v.value) > v.err_bound or v.err_bound <= 1e-13
                    assert v.depth <= target_depth
                    fixed = sturmian_balance(params, lam, depth=target_depth)
                    assert fixed.err_bound <= 1e-13, (c, lam)

    def test_guard_errors(self):
        params = PotentialParams(2, 0.4)
        with pytest.raises(GuardError):
            sturmian_balance(params, -0.4 - 1e-9)  # inside the guard margin
        with pytest.raises(GuardError):
            sturmian_balance(params, 0.7)  # outside the window entirely

    @pytest.mark.parametrize("q, depth", [(8, 340), (8, 358), (8, 400),
                                          (2, 401), (2, 1100)])
    def test_fixed_depth_refuses_underflowing_bound(self, q, depth):
        # past the cap, or once q^-depth/(q-1) is subnormal, err_bound would
        # round down (to 0.0 at q=8 from depth 358) and claim an exact value
        params = PotentialParams(q, 0.35)
        with pytest.raises(DepthError):
            sturmian_balance(params, find_balance_point(params), depth=depth)

    def test_deepest_fixed_depth_has_positive_bound(self):
        params = PotentialParams(8, 0.35)
        v = sturmian_balance(params, find_balance_point(params), depth=339)
        assert v.err_bound >= sys.float_info.min

    def test_lifted_and_mod1_inputs_agree(self):
        params = PotentialParams(2, 0.5)
        a = sturmian_balance(params, 0.25)
        b = sturmian_balance(params, 0.25 - 1.0)
        assert a.value == pytest.approx(b.value, abs=1e-15)


# a lambda where the adaptive balance at q=2, c=0.18208128 met the depth
# cap while image arcs shorter than 1e-15 were dropped (their mass kept the
# bound above 1e-13); with every arc kept it converges at depth 46
SLIVER_CALL = (2, 0.18208128, -0.5019579854163931)


def balance_outcome(q, c, lam, kwargs):
    """Bits of the BalanceValue, or the error's type and text."""
    try:
        v = sturmian_balance(PotentialParams(q, c), lam, **kwargs)
    except GelfondError as e:
        return type(e).__name__, str(e)
    return v.value.hex(), v.err_bound.hex(), v.depth


def in_window_c(q, lam, t):
    """The c that puts lam at relative position t in its window."""
    return (1.0 - t / q - lam) % 1.0


def interleaved_calls(rng):
    """Balance calls that switch q, lambda and c, with runs at one lambda
    as the c-root bisection makes them."""
    q, c, lam = SLIVER_CALL
    calls = [(q, c, lam, {"depth": 10}),  # shallow first,
             (q, c, lam, {"depth": 50}),  # then a deeper fixed depth,
             (q, c, lam, {})]             # then the sliver call
    lam = 0.3
    for _ in range(120):
        if rng.random() < 0.3:
            q = rng.choice([2, 3, 5])
            lam = rng.uniform(-2.0, 2.0)
        kwargs = {"depth": rng.randint(1, 45)} if rng.random() < 0.3 else {}
        calls.append((q, in_window_c(q, lam, rng.uniform(0.01, 0.99)), lam,
                      kwargs))
    return calls


def balance_per_level(q, c, lam, kwargs):
    """balance_outcome of the loop that recomputes every level with
    _tau_pairs and sums f_round_form: the balance before the exit-level
    cache, the math.remainder potential and the per-call memo of f, as the
    reference for its bits.  A fixed depth stops at its last level with
    the bound computed there; no call here meets the depth cap."""
    depth = kwargs.get("depth")
    r = (lam + c) % 1.0
    m_edge = max(abs(_fp(q, r)), abs(_fp(q, r + 1.0 / q)))
    lam_mod = lam % 1.0
    pairs = [(lam_mod, 1.0 / q)]
    terms = []
    running = comp = 0.0
    tail_mass = 1.0 / (q - 1)
    for n in range(1, (400 if depth is None else depth) + 1):
        for lo, ln in pairs:
            t = f_round_form(q, lo + ln + c) - f_round_form(q, lo + c)
            terms.append(t)
            y = t - comp
            s = running + y
            comp = (s - running) - y
            running = s
        tail_mass /= q
        err = m_edge * tail_mass
        if n == depth or depth is None and (
                err <= 1e-13 or n >= 3 and abs(running) > 2.0 * err):
            return math.fsum(terms).hex(), err.hex(), n
        pairs = _tau_pairs(pairs, q, lam_mod)
    return "depth cap"


class TestExitLevelCache:
    """sturmian_balance keeps the last lambda's exit levels and their
    endpoint table, and every call reads that table; a value read through
    them is the value computed without them, bit for bit."""

    def test_warm_equals_cold(self, rng, monkeypatch):
        tau_calls = []

        def counting_tau_pairs(*args):
            tau_calls.append(1)
            return _tau_pairs(*args)

        monkeypatch.setattr(circle, "_tau_pairs", counting_tau_pairs)
        calls = interleaved_calls(rng)
        _exit_levels.cache_clear()
        warm = [balance_outcome(*call) for call in calls]
        n_warm = len(tau_calls)
        assert _exit_levels.cache_info().hits > 0
        cold = []
        for call in calls:
            _exit_levels.cache_clear()
            cold.append(balance_outcome(*call))
        assert warm == cold
        assert n_warm < len(tau_calls) - n_warm
        assert warm[1][2] == 50
        assert warm[2][2] == 46
        assert float.fromhex(warm[2][1]) <= 1e-13

    def test_matches_per_level_loop(self, rng):
        _exit_levels.cache_clear()
        for call in interleaved_calls(rng):
            assert balance_outcome(*call) == balance_per_level(*call), call

    def test_fixed_depth_equals_adaptive_stop(self, rng):
        # a fixed depth=n call integrates levels 1..n and reports the bound
        # an adaptive call that stops at n reports
        calls = [call for call in interleaved_calls(rng)
                 if "depth" not in call[3]]
        calls += [(2, in_window_c(2, lam, t), lam, {})
                  for lam in (0.3, 0.77) for t in (0.2, 0.5)]
        for q, c, lam, kwargs in calls:
            out = balance_outcome(q, c, lam, kwargs)
            fixed = {"depth": out[2]}
            assert balance_outcome(q, c, lam, fixed) == out, (q, c, lam)

    @pytest.mark.parametrize("q, lam", [(2, 0.3), (2, -1.23), (3, 0.61),
                                        (3, 0.05), (5, 0.77), (8, -0.4)])
    def test_c_sweep_on_one_entry(self, q, lam, rng):
        # 40 calls as in a c-root bisection, each reading the endpoint table
        # and building the entries it lacks: the first to its adaptive
        # depth, the shallow fixed depth to 4 at most, the deeper one past
        # the cached levels
        _exit_levels.cache_clear()
        kwargs = [{}, {"depth": 4}, {"depth": 60}]
        kwargs += [{"depth": rng.randint(1, 60)} if rng.random() < 0.3
                   else {} for _ in range(37)]
        cached, built = [], []
        for kw in kwargs:
            call = (q, in_window_c(q, lam, rng.uniform(0.01, 0.99)), lam, kw)
            assert balance_outcome(*call) == balance_per_level(*call), call
            levels, table = _exit_levels(q, lam % 1.0)
            cached.append(len(levels))
            built.append(len(table))
        assert 1 < cached[0] < 60
        assert built[:3] == [cached[0], max(cached[0], 4), 60]
        assert built == cached

    def test_f_once_per_distinct_endpoint(self, rng, monkeypatch):
        # every call, at a new lambda or a cached one, calls f once per
        # distinct endpoint lo + ln or lo of the levels it reads
        args = []

        def recording_f(q, u):
            args.append(u)
            return _f(q, u)

        monkeypatch.setattr(circle, "_f", recording_f)
        _exit_levels.cache_clear()
        calls = interleaved_calls(rng)
        repeats = 0
        for call in calls:
            q, c, lam, kwargs = call
            args.clear()
            out = balance_outcome(*call)
            assert out == balance_per_level(*call), call
            levels = _exit_levels(q, lam % 1.0)[0][:out[2]]
            ends = {e for pairs in levels for lo, ln in pairs
                    for e in (lo + ln, lo)}
            endpoints = [u for pairs in levels for lo, ln in pairs
                         for u in (lo + ln + c, lo + c)]
            assert set(args) == set(endpoints), call
            assert len(args) == len(ends), call
            repeats += len(endpoints) - len(args)
        assert repeats > 0

    def test_threads_share_one_entry(self):
        lams = (0.3, 0.77, -0.45, 0.12, 1.6, -0.9)
        calls = {lam: [(2, in_window_c(2, lam, t), lam, kwargs)
                       for t in (0.1, 0.35, 0.6, 0.85)
                       for kwargs in ({"depth": 12}, {"depth": 40}, {})]
                 for lam in lams}
        expected = {}
        for lam in lams:
            for i, call in enumerate(calls[lam]):
                _exit_levels.cache_clear()
                expected[lam, i] = balance_outcome(*call)
        _exit_levels.cache_clear()
        results = {}
        n_threads = 6
        start = threading.Barrier(n_threads, timeout=60)

        def work(k):
            # all threads meet at a lambda that none has read yet, each at
            # its own call: their first reads race the lazy level extension
            # from different depths, their second the endpoint table's build
            for lam in lams:
                start.wait()
                for j in range(len(calls[lam])):
                    i = (j + 2 * k) % len(calls[lam])
                    results[k, lam, i] = balance_outcome(*calls[lam][i])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == n_threads * len(expected)
        for (k, lam, i), out in results.items():
            assert out == expected[lam, i], (k, lam, i)


@pytest.mark.parametrize("call, message", [
    (lambda: exit_sets(2, 0.3, 0), "depth must be >= 1"),
    (lambda: sturmian_balance(PotentialParams(2, 0.3), 0.3, depth=0),
     "depth must be >= 1"),
    (lambda: exit_time_profile(2, 0.3, 2, 1), "grid_size must be >= 2"),
], ids=["exit_sets", "sturmian_balance", "exit_time_profile"])
def test_rejects_out_of_range_sizes(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
