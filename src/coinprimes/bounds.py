"""Closed-form bound evaluators, guarded strict comparisons, envelope validators.

All logarithms are natural. Plain evaluators return doubles; every strict
comparison that decides a verification verdict goes through a guard: if the
double-precision margin is below REL_GUARD (relative), the comparison is
re-run in interval arithmetic at escalating precision until the enclosures
separate. The compared quantities are integers or decimal rationals on one
side and log-bearing expressions on the other, so exact ties cannot occur
and the escalation terminates.

The scans work on numpy columns. delta_column evaluates delta for a whole
column of a at once: floor(d*a), phi(a) and the coprime count are exact
integers, and the double expression repeats the scalar one operation for
operation, so each row equals delta bit for bit. guarded_greater_column
decides a column comparison from the doubles and sends only the rows within
REL_GUARD to the interval guard; thm2_rhs_column and
pi_star_exceeds_thm2_rhs_column do the same for the thm2 threshold of a
sweep block. The envelope validators count primes with
one searchsorted, or one bincount per slice for the progressions, and compare
whole columns of counts against the envelopes the same way.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

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


def thm2_rhs_column(a, s) -> np.ndarray:
    """thm2_rhs(a_i, s_i) for integer columns with a >= 3 and s >= 2, each row bit for bit the scalar value.

    The logs are math.log mapped over s: np.log is one ulp off on some s.
    Object columns (integers past int64) follow Python's int and float rules, as the scalar does.
    """
    log_s = np.fromiter(map(math.log, s.tolist()), dtype=float, count=len(s))
    return np.asarray((0.5 + 0.5 / (a - 1)) * s / log_s, dtype=float)


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


def _times_fraction(q: Fraction, x: np.ndarray):
    """(floor(q*x), float(q*x)) for an int64 column x >= 0: exact floors, correctly rounded doubles."""
    num, den = q.numerator, q.denominator
    if num * max(int(x.max(initial=0)), -int(x.min(initial=0))) < 2**53 and den < 2**53:
        prod = num * x  # exact in int64 and as a double, so the division rounds once
        return prod // den, prod / den
    xs = x.tolist()
    return np.array([num * v // den for v in xs], dtype=np.int64), np.array([num * v / den for v in xs], dtype=float)


def delta_column(d, a, s) -> np.ndarray:
    """delta(d, a_i, s_i) for int64 columns a and s, each row bit for bit the value of delta.

    floor(d*a) and the coprime count below it are exact integers (arith.coprime_counts);
    d*s is the correctly rounded double of the exact product, and the logs are math.log,
    so every row repeats the scalar operations in the same order.
    """
    if not 0 < d <= 1:
        raise DomainError("needs 0 < d <= 1")
    q = Fraction(d)
    a = np.asarray(a, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    if a.size and a.min() < 3:
        raise DomainError("needs a >= 3")
    ds_floor, ds = _times_fraction(q, s)
    # d*s >= 17 and a < d*s, decided exactly: an integer below d*s is below its floor unless d*s is that integer
    if (ds_floor < np.maximum(a, 17)).any() or any(
        q.numerator * int(s[i]) % q.denominator == 0 for i in np.flatnonzero(ds_floor == a).tolist()
    ):
        raise DomainError("needs d*s >= 17 and a < d*s")
    n_cop, phi = arith.coprime_counts(_times_fraction(q, a)[0], a)
    log_ds = np.fromiter(map(math.log, ds.tolist()), dtype=float, count=ds.size)
    log_a = np.fromiter(map(math.log, a.tolist()), dtype=float, count=a.size)
    term = 1.0 - (2.0 * n_cop / phi) / (1.0 - log_a / log_ds) - log_ds / ds
    return term * float(d)


def delta(d, a: int, s) -> float:
    """Guaranteed share of primes <= s that the semigroup misses, at cut d.

    d may be float or Fraction; either is taken at its exact value, so the
    inner coprime count floor is exact. Valid when d*s >= 17 and a < d*s.
    The one-row call of delta_column, whose column factorization supplies
    phi(a) and the coprime count.
    """
    return float(delta_column(d, [a], [s])[0])


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
    import mpmath  # only escalations need it, and most runs have none: kept off the import path

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


def guarded_greater_column(lhs, rhs, lhs_iv, rhs_iv) -> np.ndarray:
    """Elementwise lhs > rhs over float arrays, each element decided as guarded_strictly_greater decides it.

    Elements whose margin is within REL_GUARD, and only those, go through
    guarded_strictly_greater with the interval builders lhs_iv(i) and rhs_iv(i)
    of flat index i. A scalar side is broadcast.
    """
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
    out = lhs > rhs
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    for i in np.flatnonzero(np.abs(lhs - rhs) <= REL_GUARD * scale).tolist():
        out.flat[i] = guarded_strictly_greater(float(lhs.flat[i]), float(rhs.flat[i]), lhs_iv(i), rhs_iv(i))
    return out


def _int_iv(n):
    return lambda iv: iv.mpf(int(n))


def _thm2_rhs_iv(a, s):
    def build(iv):
        return (iv.mpf(1) / 2 + iv.mpf(1) / (2 * (a - 1))) * iv.mpf(s) / iv.log(iv.mpf(s))

    return build


def pi_star_exceeds_thm2_rhs(pi_star: int, a: int, s: int, rhs: float) -> bool:
    """Guarded verdict for the strict inequality pi_star > thm2_rhs(a, s); rhs is that double, from the caller."""
    return guarded_strictly_greater(float(pi_star), rhs, lambda iv: iv.mpf(pi_star), _thm2_rhs_iv(a, s))


def pi_star_exceeds_thm2_rhs_column(pi_star, a, s, rhs) -> np.ndarray:
    """pi_star_exceeds_thm2_rhs row by row over integer columns; rhs is thm2_rhs_column(a, s), from the caller."""
    return guarded_greater_column(
        pi_star, rhs, lambda i: _int_iv(pi_star[i]), lambda i: _thm2_rhs_iv(int(a[i]), int(s[i]))
    )


def _delta_iv(d, a, s):
    d = Fraction(d)
    fac = arith.factor(a)
    n_cop = arith.coprime_count_up_to(d * a, a, factored=fac)
    phi = arith.phi_of(fac)

    def build(iv):
        dv = _iv_frac(iv, d)
        ds = dv * s
        log_ds = iv.log(ds)
        term = 1 - (iv.mpf(2 * n_cop) / phi) / (1 - iv.log(iv.mpf(a)) / log_ds) - log_ds / ds
        return term * dv

    return build


def delta_exceeds(d, a: int, s, threshold) -> bool:
    """Guarded verdict for delta(d, a, s) > threshold (threshold exact as Fraction)."""
    thr = Fraction(threshold)
    # _delta_iv counts coprimes when built, so build it only if the guard escalates
    return guarded_strictly_greater(
        delta(d, a, s),
        float(thr),
        lambda iv: _delta_iv(d, a, s)(iv),
        lambda iv: _iv_frac(iv, thr),
    )


def delta_exceeds_column(d, a, s, threshold):
    """(delta_column(d, a, s), guarded verdicts delta > threshold) for int64 columns a and s.

    The verdicts are those of delta_exceeds, row by row: only rows within the
    guard's margin of the threshold are built in interval arithmetic.
    """
    a = np.asarray(a, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    vals = delta_column(d, a, s)
    thr = Fraction(threshold)
    above = guarded_greater_column(
        vals, float(thr), lambda i: _delta_iv(d, int(a[i]), int(s[i])), lambda i: lambda iv: _iv_frac(iv, thr)
    )
    return vals, above


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


def _rs_iv(x, upper: bool):
    def build(iv):
        lx = iv.log(iv.mpf(x))
        return iv.mpf(x) / lx * (1 + iv.mpf(3) / (2 * lx)) if upper else iv.mpf(x) / lx

    return build


def _ap_iv(x, m, upper: bool):
    phi = arith.euler_phi(m)

    def build(iv):
        lx = iv.log(iv.mpf(x))
        base = iv.mpf(x) / (phi * lx)
        return base * (1 + iv.mpf(5) / (2 * lx)) if upper else base

    return build


def _mv_iv(y, k):
    phi = arith.euler_phi(k)
    return lambda iv: 2 * iv.mpf(y) / (phi * iv.log(iv.mpf(y) / k))


def validate_rs_envelope(x_min: int = 17, x_max: int = 10_000_000, points: int = 200) -> EnvelopeCheck:
    """Check x/log x < pi(x) < rs_pi_upper(x) on a log-spaced grid."""
    xs = log_spaced_ints(max(x_min, 17), x_max, points)
    p = primelib.primes_array(x_max)
    counts = np.searchsorted(p, xs, side="right").tolist()
    lows = [rs_pi_lower(x) for x in xs]
    highs = [rs_pi_upper(x) for x in xs]
    lower_ok = guarded_greater_column(counts, lows, lambda i: _int_iv(counts[i]), lambda i: _rs_iv(xs[i], False))
    upper_ok = guarded_greater_column(highs, counts, lambda i: _rs_iv(xs[i], True), lambda i: _int_iv(counts[i]))
    violations = []
    for i in np.flatnonzero(~(lower_ok & upper_ok)).tolist():
        x, c, lo, hi = xs[i], counts[i], lows[i], highs[i]
        if not lower_ok[i]:
            violations.append(BoundReport("rs-lower", {"x": x}, lo, float(c), False, c - lo))
        if not upper_ok[i]:
            violations.append(BoundReport("rs-upper", {"x": x}, float(c), hi, False, hi - c))
    return EnvelopeCheck("rosser-schoenfeld", 2 * len(xs), violations)


def validate_ap_envelope(m_max: int = 50, x_max: int = 10_000_000, points: int = 20) -> EnvelopeCheck:
    """Check the fixed-range progression envelope for every m <= m_max, coprime l.

    No sort: the primes between consecutive x are counted per class with one
    bincount each, and a running sum gives every class count at every x.
    """
    p = primelib.primes_array(x_max)
    violations = []
    checked = 0
    for m in range(1, m_max + 1):
        lo_x = 50 * m * m
        if lo_x > x_max:
            break
        xs = log_spaced_ints(lo_x, x_max, points)
        ends = np.searchsorted(p, xs, side="right").tolist()
        slices = zip([0] + ends[:-1], ends)
        by_x = np.cumsum([np.bincount(p[i0:i1] % m, minlength=m) for i0, i1 in slices], axis=0)
        ls = [l for l in range(m) if math.gcd(l, m) == 1]
        counts = by_x[:, ls].T  # row l, column x
        env = [ap_fixed_range_bounds(x, m) for x in xs]
        lows, highs = np.array(env).T
        nx = len(xs)
        lower_ok = guarded_greater_column(
            counts, lows, lambda i: _int_iv(counts.flat[i]), lambda i: _ap_iv(xs[i % nx], m, False)
        )
        upper_ok = guarded_greater_column(
            highs, counts, lambda i: _ap_iv(xs[i % nx], m, True), lambda i: _int_iv(counts.flat[i])
        )
        checked += 2 * counts.size
        for i in np.flatnonzero(~(lower_ok & upper_ok)).tolist():
            row, col = divmod(i, nx)
            x, l, c = xs[col], ls[row], int(counts.flat[i])
            lo, hi = env[col]
            if not lower_ok.flat[i]:
                violations.append(BoundReport("ap-lower", {"x": x, "m": m, "l": l}, lo, float(c), False, c - lo))
            if not upper_ok.flat[i]:
                violations.append(BoundReport("ap-upper", {"x": x, "m": m, "l": l}, float(c), hi, False, hi - c))
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
    draws = []
    counts = []
    uppers = []
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
        draws.append((x, y, k, l))
        counts.append(int(np.count_nonzero(seg % k == l)))
        uppers.append(mv_upper(x, y, k, l))
    ok = guarded_greater_column(
        uppers, counts, lambda i: _mv_iv(draws[i][1], draws[i][2]), lambda i: _int_iv(counts[i])
    )
    violations = []
    for i in np.flatnonzero(~ok).tolist():
        (x, y, k, l), count, bound = draws[i], counts[i], uppers[i]
        violations.append(
            BoundReport("mv-upper", {"x": x, "y": y, "k": k, "l": l}, float(count), bound, False, bound - count)
        )
    return EnvelopeCheck("montgomery-vaughan", samples, violations)
