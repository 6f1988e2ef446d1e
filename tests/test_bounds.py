import math
from fractions import Fraction

import mpmath
import pytest

from coinprimes import arith, bounds, pistar, primes, semigroup
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


def test_thm2_upper_decomposition():
    assert bounds.thm2_upper_decomposition(semigroup.new_pair(3, 5)) == 4
    assert bounds.thm2_upper_decomposition(semigroup.new_pair(5, 7)) == 7
    with pytest.raises(DomainError):
        bounds.thm2_upper_decomposition(semigroup.new_pair(2, 7))
    # it really is an upper bound for the exact count
    for a in (3, 4, 7, 12, 19):
        for b in (a + 1, 2 * a + 1, 57, 58, 59, 60):
            if math.gcd(a, b) != 1 or b <= a:
                continue
            pair = semigroup.new_pair(a, b)
            assert pistar.pi_star_fast(pair).pi_star <= bounds.thm2_upper_decomposition(pair)


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


def test_validators_small_scale():
    rs = bounds.validate_rs_envelope(x_max=10**5, points=60)
    assert rs.ok and rs.n_checked == 120
    ap = bounds.validate_ap_envelope(m_max=12, x_max=10**6, points=6)
    assert ap.ok and ap.n_checked > 0
    mv = bounds.validate_mv_bound(samples=400, x_max=10**5, y_max=10**5, k_max=100, seed=7)
    assert mv.ok and mv.n_checked == 400
