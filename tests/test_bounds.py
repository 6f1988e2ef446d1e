import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinprimes import arith, bounds, primes, verify
from coinprimes.errors import DomainError


def test_thm2_rhs_value_and_domain():
    assert bounds.thm2_rhs(3, 11) == pytest.approx(3.440517229250032, rel=1e-13)
    # larger a pushes the factor toward 1/2
    assert bounds.thm2_rhs(1000, 11) < bounds.thm2_rhs(3, 11)
    with pytest.raises(DomainError):
        bounds.thm2_rhs(2, 11)
    with pytest.raises(DomainError):
        bounds.thm2_rhs(3, 1)


def test_rs_envelope_values():
    assert bounds.rs_pi_lower(10**6) == pytest.approx(72382.41365054197, rel=1e-13)
    assert bounds.rs_pi_upper(10**6) == pytest.approx(80241.23435935922, rel=1e-13)
    for x in (17, 1000, 10**6):
        c = primes.pi(x)
        assert bounds.rs_pi_lower(x) < c < bounds.rs_pi_upper(x)
    with pytest.raises(DomainError):
        bounds.rs_pi_lower(16)
    with pytest.raises(DomainError):
        bounds.rs_pi_upper(1)


def test_mv_upper_value_and_domain():
    assert bounds.mv_upper(0, 1000, 3, 1) == pytest.approx(172.14243162328194, rel=1e-13)
    with pytest.raises(DomainError):
        bounds.mv_upper(0, 1000, 0, 1)
    with pytest.raises(DomainError):
        bounds.mv_upper(0, 10, 10, 1)


def test_ap_fixed_range_bounds():
    lo, hi = bounds.ap_fixed_range_bounds(10**6, 4)
    c = primes.pi_ap(10**6, 4, 1)
    assert lo < c < hi
    with pytest.raises(DomainError):
        bounds.ap_fixed_range_bounds(10**6, 0)
    with pytest.raises(DomainError):
        bounds.ap_fixed_range_bounds(10**6, 1201)
    with pytest.raises(DomainError):
        bounds.ap_fixed_range_bounds(100, 1200)


def test_delta_value_and_domain():
    assert bounds.delta(Fraction(1, 10), 1000, 999999) == pytest.approx(0.0499884805496002, rel=1e-12)
    # float and Fraction cut agree when no floor boundary is straddled
    v1 = bounds.delta(0.1, 1000, 999999)
    v2 = bounds.delta(Fraction(1, 10), 1000, 999999)
    assert v1 == pytest.approx(v2, rel=1e-12)
    for bad in (0, -0.5, 1.5):
        with pytest.raises(DomainError):
            bounds.delta(bad, 1000, 999999)
    with pytest.raises(DomainError):
        bounds.delta(0.1, 2, 999999)
    with pytest.raises(DomainError):
        bounds.delta(0.1, 3, 100)  # d*s below 17
    with pytest.raises(DomainError):
        bounds.delta(0.1, 100, 500)  # a not below d*s


def _delta_reference(d, a, s):
    """delta as the scalar formula computed it row by row: arith's scalar path, Fraction floors, math.log."""
    n_cop = arith.coprime_count_up_to(d * a, a)
    phi = arith.euler_phi(a)
    ds_f = float(d * s)
    log_ds = math.log(ds_f)
    term = 1.0 - (2.0 * n_cop / phi) / (1.0 - math.log(a) / log_ds) - log_ds / ds_f
    return term * float(d)


def _assert_delta_column_exact(d, a, s):
    a = np.asarray(a, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    col = bounds.delta_column(d, a, s)
    want = np.array([_delta_reference(d, int(x), int(y)) for x, y in zip(a, s)])
    assert np.array_equal(col.view(np.int64), want.view(np.int64))  # bit for bit
    return col


def test_delta_column_matches_scalar_formula_bit_for_bit():
    a1 = np.array(verify.case1_sample_points(200), dtype=np.int64)
    _assert_delta_column_exact(verify.CASE1_DELTA, a1, verify.h_poly(a1))
    a3 = np.arange(16, 181, dtype=np.int64)
    _assert_delta_column_exact(verify.CASE3_DELTA, a3, verify.g_poly(a3))
    a2 = np.arange(181, 60001, dtype=np.int64)
    argmin = int(a2[np.argmin(bounds.delta_column(verify.CASE2_DELTA, a2, verify.h_poly(a2)))])
    # plus two rows where np.log(d*s) is one ulp off math.log
    a2 = np.append(a2[::97], [argmin, 6502, 17413])
    _assert_delta_column_exact(verify.CASE2_DELTA, a2, verify.h_poly(a2))
    # a float cut, taken at its exact binary value
    _assert_delta_column_exact(0.1, a1[::10], verify.h_poly(a1[::10]))
    # six, seven and eight distinct primes and their neighbours;
    # np.log is one ulp off math.log at 80707 (log d*s) and 141614 (log a)
    many = np.array([30030, 60060, 510510, 570570, 9699690, 9699691, 7759752, 80707, 141614], dtype=np.int64)
    assert {len(arith.factor(int(x))) for x in many} >= {6, 7, 8}
    _assert_delta_column_exact(Fraction(1, 10), many, verify.h_poly(many))
    assert bounds.delta(Fraction(1, 10), 9699690, 10**14) == _delta_reference(Fraction(1, 10), 9699690, 10**14)


def test_delta_column_domain():
    with pytest.raises(DomainError):
        bounds.delta_column(Fraction(1, 10), [2, 50], [10**4, 10**4])
    with pytest.raises(DomainError):
        bounds.delta_column(Fraction(1, 10), [50, 50], [10**4, 169])  # d*s below 17
    with pytest.raises(DomainError):
        bounds.delta_column(Fraction(1, 10), [50], [500])  # d*s equal to a
    assert bounds.delta_column(Fraction(1, 10), [50], [501]).size == 1  # a just below d*s


def test_delta_exceeds_column_escalates_near_the_threshold(monkeypatch):
    d = verify.CASE3_DELTA
    a = np.arange(16, 181, dtype=np.int64)
    s = verify.g_poly(a)
    vals, above = bounds.delta_exceeds_column(d, a, s, verify.CASE3_THRESHOLD)
    assert above.all()
    # a threshold equal to the smallest double: that row alone must be decided in intervals
    k = int(np.argmin(vals))
    thr = Fraction(float(vals[k]))
    escalated = []
    real = bounds._interval_strictly_greater
    monkeypatch.setattr(
        bounds, "_interval_strictly_greater", lambda lf, rf: escalated.append(1) or real(lf, rf)
    )
    vals2, above = bounds.delta_exceeds_column(d, a, s, thr)
    assert np.array_equal(vals, vals2)
    assert len(escalated) == 1
    assert above[k] == bounds.delta_exceeds(d, int(a[k]), int(s[k]), thr)
    assert np.delete(above, k).all()


def test_delta_grows_with_s():
    vals = [bounds.delta(Fraction(1, 10), 50, s) for s in (10**4, 10**5, 10**6, 10**7)]
    assert vals == sorted(vals)


def test_case4_constant():
    assert bounds.case4_constant(3) == pytest.approx(0.2525544706574236, rel=1e-13)
    assert bounds.case4_constant(15) == pytest.approx(0.053341147809252275, rel=1e-13)
    assert min(bounds.case4_constant(a) for a in range(3, 16)) == bounds.case4_constant(15)
    with pytest.raises(DomainError):
        bounds.case4_constant(2)
    with pytest.raises(DomainError):
        bounds.case4_constant(16)


def test_guarded_verdicts_basic():
    # (3,5) is a known exception, (3,8) clears the threshold
    assert not bounds.pi_star_exceeds_thm2_rhs(2, 3, 7, bounds.thm2_rhs(3, 7))
    assert bounds.pi_star_exceeds_thm2_rhs(4, 3, 13, bounds.thm2_rhs(3, 13))
    assert bounds.delta_exceeds(Fraction("0.0904"), 181, 181 * 181 - 182, Fraction("0.0401"))
    assert not bounds.delta_exceeds(Fraction("0.0904"), 181, 181 * 181 - 182, Fraction("0.9"))
    assert bounds.case4_constant_exceeds(15, Fraction("0.05334"))
    assert not bounds.case4_constant_exceeds(15, Fraction("0.06"))


def test_guard_escalates_on_float_ties():
    # equal doubles, separated only in interval arithmetic
    assert bounds.guarded_strictly_greater(
        1.0, 1.0, lambda iv: iv.mpf(3) / 2, lambda iv: iv.mpf(1)
    )
    assert not bounds.guarded_strictly_greater(
        1.0, 1.0, lambda iv: iv.mpf(1), lambda iv: iv.mpf(3) / 2
    )


def _close_rational_to_e(digits):
    with mpmath.workdps(digits + 20):
        scale = 10**digits
        return Fraction(int(mpmath.floor(mpmath.e * scale)), scale)


def test_guard_escalation_separates_tight_margins():
    # rational below e by less than 1e-49: doubles tie, intervals decide
    q = _close_rational_to_e(49)
    verdict = bounds.guarded_strictly_greater(
        math.e,
        float(q),
        lambda iv: iv.exp(1),
        lambda iv: iv.mpf(q.numerator) / iv.mpf(q.denominator),
    )
    assert verdict


def test_guard_exhaustion_raises():
    # agreement beyond the deepest guard precision cannot be decided
    q = _close_rational_to_e(320)
    with pytest.raises(ArithmeticError):
        bounds.guarded_strictly_greater(
            math.e,
            float(q),
            lambda iv: iv.exp(1),
            lambda iv: iv.mpf(q.numerator) / iv.mpf(q.denominator),
        )


def test_log_spaced_ints():
    xs = bounds.log_spaced_ints(17, 10**6, 50)
    assert xs[0] >= 17 and xs[-1] == 10**6
    assert xs == sorted(set(xs))
    assert bounds.log_spaced_ints(5, 5, 10) == [5]
    with pytest.raises(ValueError):
        bounds.log_spaced_ints(10, 5, 3)


def _ap_envelope_reference(x_max):
    """The envelope check with per-class sorted searches: a mask per (m, l), then searchsorted."""
    p = primes.primes_array(x_max)
    violations = []
    checked = 0
    for m in range(1, bounds.AP_M_MAX + 1):
        if 50 * m * m > x_max:
            break
        xs = bounds.log_spaced_ints(50 * m * m, x_max, bounds.AP_POINTS)
        for l in range(m):
            if math.gcd(l, m) != 1:
                continue
            counts = np.searchsorted(p[p % m == l], xs, side="right")
            for x, c in zip(xs, counts.tolist()):
                lo, hi = bounds.ap_fixed_range_bounds(x, m)
                checked += 2
                where = {"x": x, "m": m, "l": l}
                if not lo < c:
                    violations.append(bounds.BoundReport("ap-lower", where, lo, float(c), False, c - lo))
                if not c < hi:
                    violations.append(bounds.BoundReport("ap-upper", where, float(c), hi, False, hi - c))
    return checked, violations


def test_ap_envelope_counts_and_violation_order(monkeypatch):
    real = bounds.ap_fixed_range_bounds

    def too_tight(x, m):
        # crosses the true counts: some rows fail low, some high, some both, some neither
        lo, hi = real(x, m)
        return 1.08 * lo + (x % 7) * 0.02 * lo, lo + (x % 5) * 0.03 * lo

    monkeypatch.setattr(bounds, "ap_fixed_range_bounds", too_tight)
    kinds = set()
    for x_max in (10**6, 10**4, 5000):  # every m <= AP_M_MAX, then m <= 14 and m <= 10
        got = bounds.validate_ap_envelope(x_max)
        checked, want = _ap_envelope_reference(x_max)
        assert got.n_checked == checked
        assert got.violations == want
        assert [repr(v) for v in got.violations] == [repr(v) for v in want]  # plain ints and floats
        kinds |= {v.name for v in got.violations}
    assert kinds == {"ap-lower", "ap-upper"}


def test_ap_bounds_column_matches_the_scalar_and_factors_m_once(monkeypatch):
    """A column of x gives each row's scalar envelope bit for bit, from one phi(m); the validator factors each m once."""
    factored = []
    real = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: factored.append(n) or real(n))
    for m in (1, 2, 4, 7, 12, 50, 1200):
        xs = np.array(bounds.log_spaced_ints(50 * m * m, 10**15, 40) + [2**53 + 1, 2**62], dtype=np.int64)
        factored.clear()
        lows, highs = bounds.ap_fixed_range_bounds(xs, m)
        assert factored == [m]
        want = np.array([bounds.ap_fixed_range_bounds(x, m) for x in xs.tolist()]).T
        assert lows.tobytes() == want[0].tobytes() and highs.tobytes() == want[1].tobytes(), m
    with pytest.raises(DomainError):
        bounds.ap_fixed_range_bounds(np.array([800, 799], dtype=np.int64), 4)
    factored.clear()
    check = bounds.validate_ap_envelope(10**6)
    assert check.ok and factored == list(range(1, bounds.AP_M_MAX + 1))


def test_mv_k_max_is_capped_where_the_double_stays_inside_the_guard():
    """Up to MV_K_MAX, the largest k drawn, the double's relative error with y just above k is below REL_GUARD."""
    with mpmath.workprec(200):
        for k in (bounds.MV_K_MAX - 1, bounds.MV_K_MAX):
            for y in range(k + 1, k + 4):
                exact = 2 * mpmath.mpf(y) / (arith.euler_phi(k) * mpmath.log(mpmath.mpf(y) / k))
                assert abs(bounds.mv_upper(0, y, k, 0) / exact - 1) < bounds.REL_GUARD / 100  # about 1.1e-16 * k
    assert bounds.validate_mv_bound(samples=20, x_max=1000, seed=1).n_checked == 20


def test_envelopes_decided_in_intervals_agree(monkeypatch):
    # with the guard wide open every comparison is built in interval arithmetic
    plain = (
        bounds.validate_rs_envelope(5000),
        bounds.validate_ap_envelope(5000),  # m <= 10
        bounds.validate_mv_bound(samples=40, x_max=5000, seed=3),
        verify._strict_half_window_ok(9),
    )
    calls = []
    real = bounds._interval_strictly_greater
    monkeypatch.setattr(bounds, "_interval_strictly_greater", lambda lf, rf: calls.append(1) or real(lf, rf))
    monkeypatch.setattr(bounds, "REL_GUARD", 1.0)
    rs = bounds.validate_rs_envelope(5000)
    ap = bounds.validate_ap_envelope(5000)
    mv = bounds.validate_mv_bound(samples=40, x_max=5000, seed=3)
    assert (rs, ap, mv) == plain[:3]
    assert len(calls) == rs.n_checked + ap.n_checked + mv.n_checked
    # the strict-half window of a = 9 has 29 rows within 1e-3 of its bound
    monkeypatch.setattr(bounds, "REL_GUARD", 1e-3)
    calls.clear()
    assert verify._strict_half_window_ok(9) == plain[3] is True
    assert len(calls) == 29


def test_guarded_greater_column_decides_only_close_rows():
    # rows 1 and 3 tie in doubles and are decided in intervals; rows 0 and 2 never ask for a builder
    q = _close_rational_to_e(49)
    lhs_builders = {1: lambda iv: iv.exp(1), 3: lambda iv: iv.mpf(1)}
    rhs_builders = {1: lambda iv: iv.mpf(q.numerator) / q.denominator, 3: lambda iv: iv.mpf(3) / 2}
    asked = []

    def lhs_iv(i):
        asked.append(i)
        return lhs_builders[i]

    lhs = np.array([2.0, math.e, 1.0, 1.0])
    rhs = np.array([1.0, float(q), 3.0, 1.0])
    out = bounds.guarded_greater_column(lhs, rhs, lhs_iv, rhs_builders.__getitem__)
    assert out.tolist() == [True, True, False, False]
    assert asked == [1, 3]
    # a scalar side broadcasts
    assert bounds.guarded_greater_column(lhs, 1.5, None, None).tolist() == [True, True, False, False]


def test_validators_small_scale():
    rs = bounds.validate_rs_envelope(10**5)
    assert rs.ok and rs.n_checked == 398  # 199 distinct points of RS_POINTS = 200
    ap = bounds.validate_ap_envelope(10**6)
    assert ap.ok and ap.n_checked == 30960
    mv = bounds.validate_mv_bound(samples=400, x_max=10**5, seed=7)
    assert mv.ok and mv.n_checked == 400


def _mv_columns(monkeypatch, **kwargs):
    """(check, counts, bounds) of validate_mv_bound, the two columns read off its guarded comparison."""
    seen = []
    real = bounds.guarded_greater_column

    def spy(lhs, rhs, lhs_iv, rhs_iv):
        seen.append((np.asarray(rhs).tolist(), np.asarray(lhs).tolist()))
        return real(lhs, rhs, lhs_iv, rhs_iv)

    monkeypatch.setattr(bounds, "guarded_greater_column", spy)
    check = bounds.validate_mv_bound(**kwargs)
    [(counts, uppers)] = seen
    return check, counts, uppers


def test_mv_draws_are_seeded_int64_columns_in_range():
    def same(one, two):
        return all(np.array_equal(c, d) for c, d in zip(one, two))

    for x_max in (10**7, 10**6, 10**4, 1000, 50, 1):
        cap = min(x_max, bounds.MV_X_MAX)  # the largest x + 1 and y of a draw, but for y = k + 1
        for seed in range(24):
            x, y, k, l = cols = bounds._mv_draws(300, x_max, seed)
            assert all(c.dtype == np.int64 and c.shape == (300,) for c in cols)
            assert same(cols, bounds._mv_draws(300, x_max, seed))
            assert not same(cols, bounds._mv_draws(300, x_max, seed + 1))
            assert ((1 <= k) & (k <= bounds.MV_K_MAX)).all() and ((k + 1 <= y) & (y <= np.maximum(cap, k + 1))).all()
            assert ((0 <= x) & (x < cap)).all() and ((0 <= l) & (l < k)).all()
        assert all(c.dtype == np.int64 and c.shape == (0,) for c in bounds._mv_draws(0, x_max, 1))
    assert same(bounds._mv_draws(300, 10**7, 5), bounds._mv_draws(300, bounds.MV_X_MAX, 5))


def _mv_draw_rows(samples, x_max, seed):
    return list(zip(*(c.tolist() for c in bounds._mv_draws(samples, x_max, seed))))


def test_mv_counts_and_bounds_match_per_sample_definition(monkeypatch):
    p = primes.primes_array(3 * 10**4)
    for seed in (1, 2, 3, 11):
        for kw in (dict(x_max=10**4), dict(x_max=5000)):
            _, counts, uppers = _mv_columns(monkeypatch, samples=300, seed=seed, **kw)
            want_counts, want_uppers = [], []
            for x, y, k, l in _mv_draw_rows(300, seed=seed, **kw):
                seg = p[np.searchsorted(p, x, side="right") : np.searchsorted(p, x + y, side="right")]
                want_counts.append(int(np.count_nonzero(seg % k == l)))
                want_uppers.append(bounds.mv_upper(x, y, k, l))
            assert counts == want_counts
            assert np.array(uppers).tobytes() == np.array(want_uppers).tobytes()  # bit for bit


def test_mv_counts_reach_past_y_max(monkeypatch):
    # with MV_K_MAX >= x_max many draws have y = k + 1 > x_max, so x + y runs past 2 * x_max
    check, counts, _ = _mv_columns(monkeypatch, samples=2000, x_max=1000, seed=1)
    assert check.ok and check.n_checked == 2000
    p = primes.primes_array(10**5)
    draws = _mv_draw_rows(2000, 1000, 1)
    assert max(x + y for x, y, _, _ in draws) > 2000
    want = [int(np.count_nonzero((p > x) & (p <= x + y) & (p % k == l))) for x, y, k, l in draws]
    assert counts == want
    # the primes above x_max + y_max make up part of these counts
    assert sum(int(np.count_nonzero((p > max(x, 2000)) & (p <= x + y) & (p % k == l))) for x, y, k, l in draws) > 0


def test_mv_bound_without_samples():
    mv = bounds.validate_mv_bound(samples=0)
    assert mv.n_checked == 0 and mv.ok


def test_mv_bound_holds_for_many_seeds():
    """The bound is a theorem for 1 <= k < y, so no seed may find a violation."""
    for seed in range(1, 21):
        mv = bounds.validate_mv_bound(seed=seed)
        assert mv.ok and mv.n_checked == 10_000, seed


# Each case draws a point of one bound's domain and returns (the double its public evaluator gives, the
# interval builder of that row as the guard would build it, the scale whose ulp measures the double's
# rounding). The scale is the value itself, except where the expression amplifies the rounding of its
# arguments: log(y/k) near y = k (Montgomery-Vaughan), and the terms of delta, which cancel.


def _thm2_case(draw):
    a = draw(st.one_of(st.integers(3, 100), st.integers(3, 2**100)))
    s = draw(st.one_of(st.integers(2, 10**6), st.integers(2, 2**900)))
    a_col, s_col = verify._int_column([a]), verify._int_column([s])  # object columns past int64, as a sweep has them
    value = bounds.thm2_rhs(a, s)
    assert bounds.thm2_rhs_column(a_col, s_col)[0] == value
    return value, bounds._rows(bounds._thm2, a_col, s_col)(0), value


def _rs_case(upper):
    def case(draw):
        x = draw(st.one_of(st.integers(2 if upper else 17, 10**4), st.integers(17, 2**62)))
        value = bounds.rs_pi_upper(x) if upper else bounds.rs_pi_lower(x)
        return value, bounds._rows(bounds._rs_upper if upper else bounds._rs_lower, [x])(0), value

    return case


def _ap_case(upper):
    def case(draw):
        m = draw(st.integers(1, 1200))
        x = draw(st.one_of(st.integers(50 * m * m, 100 * m * m), st.integers(50 * m * m, 2**62)))
        value = bounds.ap_fixed_range_bounds(x, m)[upper]
        return value, bounds._rows(bounds._ap_upper if upper else bounds._ap_lower, [x], arith.euler_phi(m))(0), value

    return case


def _mv_case(draw):
    k = draw(st.integers(1, 10**7))
    y = draw(st.one_of(st.integers(k + 1, k + 3), st.integers(k + 1, 2 * k + 2), st.integers(k + 1, 2**50)))
    value = bounds.mv_upper(0, y, k, 0)
    build = bounds._rows(bounds._mv, np.array([y]), np.array([k]), np.array([arith.euler_phi(k)]))(0)
    return value, build, value * (1 + 1 / math.log(y / k))


def _delta_case(draw):
    den = draw(st.integers(1, 10**6))
    d = draw(st.one_of(st.builds(Fraction, st.integers(1, den), st.just(den)), st.sampled_from([0.1, 0.0904, 0.5, 1.0])))
    q = Fraction(d)
    a = draw(st.one_of(st.integers(3, 200), st.integers(3, 10**7)))
    s_min = math.ceil(max(a + 1, 17) / q)  # the least s with d*s >= 17 and d*s > a
    s = draw(st.one_of(st.integers(s_min, s_min + 20), st.integers(s_min, min(2**62, 10**6 * s_min))))
    value = bounds.delta(d, a, s)
    # phi(a) and the coprime count by the scalar factorization, independent of the columns' arith.coprime_counts
    n_cop, phi = arith.coprime_count_up_to(q * a, a), arith.euler_phi(a)
    build = bounds._rows(bounds._delta, q, [a], [q * s], [n_cop], [phi])(0)
    ds = float(q * s)
    r = math.log(a) / math.log(ds)
    return value, build, float(d) * (1 + 2 * n_cop / phi / (1 - r) ** 2 + math.log(ds) / ds)


def _case4_case(draw):
    a = draw(st.integers(3, 15))
    value = bounds.case4_constant(a)
    return value, bounds._rows(bounds._case4, [a])(0), value


def _half_window_case(draw):
    a = draw(st.integers(3, 10**4))
    n = np.array([draw(st.one_of(st.integers(2, 10**6), st.integers(2, 2**62)))])
    value = float(bounds._half_window(np.log, a, n)[0])  # the doubles of half_window_exceeds_column
    return value, bounds._rows(bounds._half_window, a, n)(0), value


_BOUND_CASES = {
    "thm2": _thm2_case,
    "rs-lower": _rs_case(False),
    "rs-upper": _rs_case(True),
    "ap-lower": _ap_case(False),
    "ap-upper": _ap_case(True),
    "mv": _mv_case,
    "delta": _delta_case,
    "case4": _case4_case,
    "half-window": _half_window_case,
}


def _interval_miss(build, value) -> float:
    """How far the double value lies outside build(iv) at the guard's first precision; 0 inside."""
    iv = mpmath.iv
    old, iv.prec = iv.prec, bounds._GUARD_PRECISIONS[0]
    try:
        enc = build(iv)
    finally:
        iv.prec = old
    with mpmath.workprec(1024):
        lo, hi, v = mpmath.mpf(enc.a), mpmath.mpf(enc.b), mpmath.mpf(value)
        return float(max(lo - v, v - hi, 0))


@pytest.mark.parametrize("case", sorted(_BOUND_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interval_rows_enclose_the_doubles(case, data):
    """The interval a guard escalates to and the double it first compares are one expression: at 120
    bits the row builder's enclosure holds the public evaluator's double, give or take a few ulps."""
    value, build, scale = _BOUND_CASES[case](data.draw)
    assert _interval_miss(build, value) <= 4 * math.ulp(scale)
