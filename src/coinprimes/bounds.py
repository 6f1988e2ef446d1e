"""Closed-form bound evaluators, guarded strict comparisons, envelope validators.

All logarithms are natural. Plain evaluators return doubles; every strict
comparison that decides a verification verdict goes through a guard: if the
double-precision margin is below REL_GUARD (relative), the comparison is
re-run in interval arithmetic at escalating precision until the enclosures
separate. The compared quantities are integers or decimal rationals on one
side and log-bearing expressions on the other, so exact ties cannot occur
and the escalation terminates.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from . import arith
from . import primes as primelib
from .errors import DomainError

REL_GUARD = 1e-9
_GUARD_PRECISIONS = (120, 240, 480, 960)


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: dict
    lhs: float
    rhs: float
    holds: bool
    margin: float


@dataclass(frozen=True)
class EnvelopeCheck:
    name: str
    n_checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# plain evaluators


def thm2_rhs(a: int, s) -> float:
    """(1/2 + 1/(2(a-1))) * s / log s, the strict lower-bound threshold."""
    if a < 3:
        raise DomainError("needs a >= 3")
    if s < 2:
        raise DomainError("needs s >= 2")
    return (0.5 + 0.5 / (a - 1)) * s / math.log(s)


def mv_upper(x, y, k: int, l: int) -> float:
    """2y / (phi(k) log(y/k)): upper bound for primes in (x, x+y] in a class mod k."""
    if k < 1 or not k < y:
        raise DomainError("needs 1 <= k < y")
    return 2.0 * y / (arith.euler_phi(k) * math.log(y / k))


def rs_pi_lower(x) -> float:
    """x / log x < pi(x), valid for x >= 17."""
    if x < 17:
        raise DomainError("valid for x >= 17")
    return x / math.log(x)


def rs_pi_upper(x) -> float:
    """pi(x) < (x / log x)(1 + 3/(2 log x)), valid for x > 1."""
    if x <= 1:
        raise DomainError("valid for x > 1")
    lx = math.log(x)
    return x / lx * (1.0 + 1.5 / lx)


def ap_fixed_range_bounds(x, m: int):
    """(lower, upper) envelope for pi(x; m, l), gcd(l, m) = 1, m <= 1200, x >= 50 m**2."""
    if not 1 <= m <= 1200:
        raise DomainError("needs 1 <= m <= 1200")
    if x < 50 * m * m:
        raise DomainError("needs x >= 50 * m**2")
    lx = math.log(x)
    base = x / (arith.euler_phi(m) * lx)
    return base, base * (1.0 + 2.5 / lx)


def delta(d, a: int, s, factored: arith.FactoredInteger = None) -> float:
    """Guaranteed share of primes <= s that the semigroup misses, at cut d.

    d may be float or Fraction; a Fraction keeps the inner coprime count
    floor exact. Valid when d*s >= 17 and a < d*s.
    """
    if not 0 < d <= 1:
        raise DomainError("needs 0 < d <= 1")
    if a < 3:
        raise DomainError("needs a >= 3")
    ds = d * s
    if ds < 17 or a >= ds:
        raise DomainError("needs d*s >= 17 and a < d*s")
    fac = factored if factored is not None else arith.factor(a)
    n_cop = arith.coprime_count_up_to(d * a, a, factored=fac)
    phi = arith.phi_of(fac)
    ds_f = float(ds)
    log_ds = math.log(ds_f)
    term = 1.0 - (2.0 * n_cop / phi) / (1.0 - math.log(a) / log_ds) - log_ds / ds_f
    return term * float(d)


def case4_constant(a: int) -> float:
    """(1/a - log t / t) / (1 + 3/(2 log t)) with t = 180a - 181, for 3 <= a <= 15."""
    if not 3 <= a <= 15:
        raise DomainError("needs 3 <= a <= 15")
    t = 180 * a - 181
    lt = math.log(t)
    return (1.0 / a - lt / t) / (1.0 + 1.5 / lt)


def thm2_upper_decomposition(pair) -> int:
    """Exact upper bound: sum of pi(b*v; a, b*v) over v coprime to a, plus omega(a)."""
    a, b = pair.a, pair.b
    if a < 3:
        raise DomainError("needs a >= 3")
    total = 0
    for v in range(1, a):
        if math.gcd(v, a) == 1:
            total += primelib.pi_ap(b * v, a, (b * v) % a)
    return total + arith.omega(a)


# ----------------------------------------------------------------------
# guarded strict comparisons


def _iv_frac(ctx, q: Fraction):
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


def _interval_strictly_greater(lhs_fn, rhs_fn) -> bool:
    for prec in _GUARD_PRECISIONS:
        iv = mpmath.iv
        old = iv.prec
        iv.prec = prec
        try:
            lhs = lhs_fn(iv)
            rhs = rhs_fn(iv)
        finally:
            iv.prec = old
        verdict = lhs > rhs
        if verdict is not None:
            return verdict
    raise ArithmeticError("interval refinement failed to separate the compared values")


def guarded_strictly_greater(lhs: float, rhs: float, lhs_fn, rhs_fn) -> bool:
    """lhs > rhs in doubles, escalating to intervals when the margin is tiny."""
    scale = max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) > REL_GUARD * scale:
        return lhs > rhs
    return _interval_strictly_greater(lhs_fn, rhs_fn)


def _thm2_rhs_iv(a, s):
    def build(iv):
        return (iv.mpf(1) / 2 + iv.mpf(1) / (2 * (a - 1))) * iv.mpf(s) / iv.log(iv.mpf(s))

    return build


def pi_star_exceeds_thm2_rhs(pi_star: int, a: int, s: int, rhs: float) -> bool:
    """Guarded verdict for the strict inequality pi_star > thm2_rhs(a, s); rhs is that double, from the caller."""
    return guarded_strictly_greater(float(pi_star), rhs, lambda iv: iv.mpf(pi_star), _thm2_rhs_iv(a, s))


def _delta_iv(d, a, s, factored=None):
    d = Fraction(d)
    fac = factored if factored is not None else arith.factor(a)
    n_cop = arith.coprime_count_up_to(d * a, a, factored=fac)
    phi = arith.phi_of(fac)

    def build(iv):
        dv = _iv_frac(iv, d)
        ds = dv * s
        log_ds = iv.log(ds)
        term = 1 - (iv.mpf(2 * n_cop) / phi) / (1 - iv.log(iv.mpf(a)) / log_ds) - log_ds / ds
        return term * dv

    return build


def delta_exceeds(d, a: int, s, threshold, factored: arith.FactoredInteger = None) -> bool:
    """Guarded verdict for delta(d, a, s) > threshold (threshold exact as Fraction)."""
    thr = Fraction(threshold)
    # _delta_iv counts coprimes when built, so build it only if the guard escalates
    return guarded_strictly_greater(
        delta(d, a, s, factored=factored),
        float(thr),
        lambda iv: _delta_iv(d, a, s, factored=factored)(iv),
        lambda iv: _iv_frac(iv, thr),
    )


def case4_constant_exceeds(a: int, threshold) -> bool:
    """Guarded verdict for case4_constant(a) > threshold."""
    val = case4_constant(a)
    thr = Fraction(threshold)
    t = 180 * a - 181

    def build(iv):
        lt = iv.log(iv.mpf(t))
        return (iv.mpf(1) / a - lt / t) / (1 + iv.mpf(3) / (2 * lt))

    return guarded_strictly_greater(val, float(thr), build, lambda iv: _iv_frac(iv, thr))


# ----------------------------------------------------------------------
# empirical validators for the envelopes


def log_spaced_ints(lo: int, hi: int, n: int) -> list:
    """Distinct integers, roughly geometric between lo and hi inclusive."""
    if hi < lo:
        raise ValueError("needs lo <= hi")
    vals = np.geomspace(lo, hi, n)
    return sorted({min(max(int(round(v)), lo), hi) for v in vals})


def validate_rs_envelope(x_min: int = 17, x_max: int = 10_000_000, points: int = 200) -> EnvelopeCheck:
    """Check x/log x < pi(x) < rs_pi_upper(x) on a log-spaced grid."""
    xs = log_spaced_ints(max(x_min, 17), x_max, points)
    p = primelib.primes_array(x_max)
    counts = np.searchsorted(p, xs, side="right")
    violations = []
    for x, c in zip(xs, counts.tolist()):
        lo = rs_pi_lower(x)
        hi = rs_pi_upper(x)
        if not lo < c:
            violations.append(BoundReport("rs-lower", {"x": x}, lo, float(c), False, c - lo))
        if not c < hi:
            violations.append(BoundReport("rs-upper", {"x": x}, float(c), hi, False, hi - c))
    return EnvelopeCheck("rosser-schoenfeld", 2 * len(xs), violations)


def validate_ap_envelope(m_max: int = 50, x_max: int = 10_000_000, points: int = 20) -> EnvelopeCheck:
    """Check the fixed-range progression envelope for every m <= m_max, coprime l."""
    p = primelib.primes_array(x_max)
    violations = []
    checked = 0
    for m in range(1, m_max + 1):
        lo_x = 50 * m * m
        if lo_x > x_max:
            break
        xs = log_spaced_ints(lo_x, x_max, points)
        p_sorted, cuts = primelib.residue_classes(p, m)
        for l in range(m):
            if math.gcd(l, m) != 1:
                continue
            cls = p_sorted[cuts[l] : cuts[l + 1]]
            counts = np.searchsorted(cls, xs, side="right")
            for x, c in zip(xs, counts.tolist()):
                lo, hi = ap_fixed_range_bounds(x, m)
                checked += 2
                if not lo < c:
                    violations.append(
                        BoundReport("ap-lower", {"x": x, "m": m, "l": l}, lo, float(c), False, c - lo)
                    )
                if not c < hi:
                    violations.append(
                        BoundReport("ap-upper", {"x": x, "m": m, "l": l}, float(c), hi, False, hi - c)
                    )
    return EnvelopeCheck("ap-fixed-range", checked, violations)


def validate_mv_bound(
    samples: int = 10_000,
    x_max: int = 1_000_000,
    y_max: int = 1_000_000,
    k_max: int = 10_000,
    seed: int = 20260819,
) -> EnvelopeCheck:
    """Sample (x, y, k, l) with k < y and compare interval class counts to mv_upper."""
    rng = np.random.default_rng(seed)
    p = primelib.primes_array(x_max + y_max)
    violations = []
    for _ in range(samples):
        k = int(math.exp(rng.uniform(0.0, math.log(k_max))))
        k = max(k, 1)
        y = int(math.exp(rng.uniform(math.log(k + 1), math.log(y_max)))) if k + 1 < y_max else k + 1
        y = max(y, k + 1)
        x = int(rng.uniform(0, x_max))
        l = int(rng.integers(0, k))
        i0 = np.searchsorted(p, x, side="right")
        i1 = np.searchsorted(p, x + y, side="right")
        seg = p[i0:i1]
        count = int(np.count_nonzero(seg % k == l))
        bound = mv_upper(x, y, k, l)
        if not count < bound:
            violations.append(
                BoundReport("mv-upper", {"x": x, "y": y, "k": k, "l": l}, float(count), bound, False, bound - count)
            )
    return EnvelopeCheck("montgomery-vaughan", samples, violations)
