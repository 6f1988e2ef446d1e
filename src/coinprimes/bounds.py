"""Closed-form bound evaluators, guarded strict comparisons, envelope validators.

All logarithms are natural. Each bound is one private expression of log and
its arguments (_thm2, _rs_lower, _rs_upper, _ap_lower, _ap_upper, _mv,
_delta, _case4, and _half_window of thm3). The plain evaluators call it with
math.log, the column functions with _logs (math.log per value, so each row
equals the plain evaluator bit for bit; the thm3 window has no plain
evaluator and takes np.log), and _rows with iv.log on the exact values of one
row's arguments. Every strict comparison that decides a verdict is guarded:
guarded_greater_column decides it from the doubles, and re-runs only the rows
within REL_GUARD (relative) in interval arithmetic at escalating precision,
each side built by _rows from the expression its double came from (_value for
an integer count or a rational threshold). One side is exact and the other
log-bearing, so ties cannot occur and the escalation terminates. The scalar
guarded verdicts are one-row calls of the column ones.

The envelope validators count primes from the sieve bitmaps, with no prime
table: pi(x) and the progression counts at every check point come from one
walk of the sieve windows (primes.prefix_class_counts), and each
Montgomery-Vaughan sample is one strided view of a prime bitmap. On grids
fixed by module constants but for x_max, they compare whole columns of counts
against the envelopes, and one helper, _failures, decides and reports every row.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from . import primes as primelib
from .errors import DomainError, LimitExceeded

REL_GUARD = 1e-9
_GUARD_PRECISIONS = (120, 240, 480, 960)

# The check grids of the envelope validators, in which only x_max varies. _mv takes log(y / k) of the rounded
# quotient, so with y near k its double is off by about 1.1e-16 * k relative: 1.1e-12 at MV_K_MAX, far inside
# REL_GUARD, which it passes from about k = 9 * 10**6, where a row could be decided from a wrong double.
RS_POINTS, AP_M_MAX, AP_POINTS = 200, 50, 20
MV_K_MAX, MV_X_MAX = 10**4, 10**6

# The largest sizes a run may ask for. X_MAX_CAP bounds the time of the envelope checks' sieve walk
# (the progression check took 4 s at 10**9 on 2 vCPUs) and of a sweep's (verify.sieve_top). Each sample is
# a row of the Montgomery-Vaughan check's columns or a delta row of thm1 case 1, all held at once; a
# sweep holds the record columns of every pair of its grid, and GRID_CAP bounds verify.grid_size.
X_MAX_CAP = 10**9
SAMPLES_CAP = 10**6
GRID_CAP = 5 * 10**6


def check_cap(what: str, n: int, cap: int):
    """Raise LimitExceeded when the size n of what passes cap; callers check before they sieve or draw."""
    if n > cap:
        raise LimitExceeded(f"{what} = {n} exceeds cap {cap}")


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
# the bounds, each one expression of log and its arguments


def _value(log, x):  # the exact side of a comparison: a count or a threshold
    return x


def _thm2(log, a, s):
    return (0.5 + 0.5 / (a - 1)) * s / log(s)


def _rs_lower(log, x):
    return x / log(x)


def _rs_upper(log, x):
    lx = log(x)
    return x / lx * (1.0 + 1.5 / lx)


def _ap_lower(log, x, phi):
    return x / (phi * log(x))


def _ap_upper(log, x, phi):
    lx = log(x)
    return x / (phi * lx) * (1.0 + 2.5 / lx)


def _mv(log, y, k, phi):
    return 2.0 * y / (phi * log(y / k))


def _delta(log, d, a, ds, n_cop, phi):
    log_ds = log(ds)
    return (1.0 - (2.0 * n_cop / phi) / (1.0 - log(a) / log_ds) - log_ds / ds) * d


def _case4(log, a):
    t = 180 * a - 181
    lt = log(t)
    return (1.0 / a - lt / t) / (1.0 + 1.5 / lt)


def _half_window(log, a, n):
    return n / log(n) * (1.0 + 1.0 / (a - 1))


def _logs(x):
    """math.log of each value of a column: np.log is one ulp off on some values."""
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=len(x))


def _rows(expr, *columns):
    """The interval builder of row i of expr, on the exact value (int, Fraction or float) of each column at i:
    a sequence's item i, or a callable's value at i; any other argument is every row's."""

    def row(i):
        args = [c(i) if callable(c) else c[i] if hasattr(c, "__getitem__") else c for c in columns]
        return lambda iv: expr(iv.log, *(iv.mpf(int(q.numerator)) / int(q.denominator) for q in map(Fraction, args)))

    return row


# ----------------------------------------------------------------------
# plain evaluators


def thm2_rhs(a: int, s) -> float:
    """(1/2 + 1/(2(a-1))) * s / log s, the strict lower-bound threshold."""
    if a < 3:
        raise DomainError("needs a >= 3")
    if s < 2:
        raise DomainError("needs s >= 2")
    return _thm2(math.log, a, s)


def thm2_rhs_column(a, s) -> np.ndarray:
    """thm2_rhs(a_i, s_i) for integer columns with a >= 3 and s >= 2; object columns (past int64) too."""
    return np.asarray(_thm2(_logs, a, s), dtype=float)


def mv_upper(x, y, k: int, l: int) -> float:
    """2y / (phi(k) log(y/k)): upper bound for primes in (x, x+y] in a class mod k."""
    if k < 1 or not k < y:
        raise DomainError("needs 1 <= k < y")
    return _mv(math.log, y, k, arith.euler_phi(k))


def rs_pi_lower(x) -> float:
    """x / log x < pi(x), valid for x >= 17."""
    if x < 17:
        raise DomainError("valid for x >= 17")
    return _rs_lower(math.log, x)


def rs_pi_upper(x) -> float:
    """pi(x) < (x / log x)(1 + 3/(2 log x)), valid for x > 1."""
    if x <= 1:
        raise DomainError("valid for x > 1")
    return _rs_upper(math.log, x)


def ap_fixed_range_bounds(x, m: int):
    """(lower, upper) envelope for pi(x; m, l), gcd(l, m) = 1, m <= 1200, x >= 50 m**2.

    x is a number, or an int64 column giving two float columns, each row the
    number's value bit for bit; phi(m) is taken once either way.
    """
    if not 1 <= m <= 1200:
        raise DomainError("needs 1 <= m <= 1200")
    if np.min(x, initial=50 * m * m) < 50 * m * m:
        raise DomainError("needs x >= 50 * m**2")
    phi = arith.euler_phi(m)
    log = _logs if np.ndim(x) else math.log
    return _ap_lower(log, x, phi), _ap_upper(log, x, phi)


def _times_fraction(q: Fraction, x: np.ndarray):
    """(floor(q*x), float(q*x)) for an int64 column x >= 0: exact floors, correctly rounded doubles."""
    num, den = q.numerator, q.denominator
    if num * max(int(x.max(initial=0)), -int(x.min(initial=0))) < 2**53 and den < 2**53:
        prod = num * x  # exact in int64 and as a double, so the division rounds once
        return prod // den, prod / den
    xs = x.tolist()
    return np.array([num * v // den for v in xs], dtype=np.int64), np.array([num * v / den for v in xs], dtype=float)


def _delta_args(d, a, s) -> tuple:
    """The arguments (d, a, d*s, coprime count, phi(a)) of _delta over int64 columns a and s: d*s the correctly
    rounded double of the exact product, the count of v <= floor(d*a) coprime to a and phi(a) exact integers."""
    if not 0 < d <= 1:
        raise DomainError("needs 0 < d <= 1")
    q = Fraction(d)
    if a.size and a.min() < 3:
        raise DomainError("needs a >= 3")
    ds_floor, ds = _times_fraction(q, s)
    # d*s >= 17 and a < d*s, decided exactly: an integer below d*s is below its floor unless d*s is that integer
    if (ds_floor < np.maximum(a, 17)).any() or any(
        q.numerator * int(s[i]) % q.denominator == 0 for i in np.flatnonzero(ds_floor == a).tolist()
    ):
        raise DomainError("needs d*s >= 17 and a < d*s")
    return (float(q), a, ds, *arith.coprime_counts(_times_fraction(q, a)[0], a))


def delta_column(d, a, s) -> np.ndarray:
    """delta(d, a_i, s_i) for int64 columns a and s, each row bit for bit the value of delta."""
    return _delta(_logs, *_delta_args(d, np.asarray(a, dtype=np.int64), np.asarray(s, dtype=np.int64)))


def delta(d, a: int, s) -> float:
    """Guaranteed share of primes <= s that the semigroup misses, at cut d (float or Fraction, taken exactly),
    for d*s >= 17 and a < d*s: the one-row call of delta_column."""
    return float(delta_column(d, [a], [s])[0])


def case4_constant(a: int) -> float:
    """(1/a - log t / t) / (1 + 3/(2 log t)) with t = 180a - 181, for 3 <= a <= 15."""
    if not 3 <= a <= 15:
        raise DomainError("needs 3 <= a <= 15")
    return _case4(math.log, a)


# ----------------------------------------------------------------------
# guarded strict comparisons


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


def _exceeds_column(vals, threshold, expr, *columns) -> np.ndarray:
    """Guarded verdicts vals_i > threshold (exact as Fraction), vals being the doubles of expr over the columns."""
    thr = Fraction(threshold)
    return guarded_greater_column(vals, float(thr), _rows(expr, *columns), _rows(_value, thr))


def pi_star_exceeds_thm2_rhs(pi_star: int, a: int, s: int, rhs: float) -> bool:
    """Guarded verdict for the strict inequality pi_star > thm2_rhs(a, s); rhs is that double, from the caller."""
    return bool(pi_star_exceeds_thm2_rhs_column([pi_star], [a], [s], rhs)[0])


def pi_star_exceeds_thm2_rhs_column(pi_star, a, s, rhs) -> np.ndarray:
    """pi_star > thm2_rhs, guarded, row by row over integer columns; rhs is thm2_rhs_column(a, s), from the caller."""
    return guarded_greater_column(pi_star, rhs, _rows(_value, pi_star), _rows(_thm2, a, s))


def delta_exceeds(d, a: int, s, threshold) -> bool:
    """Guarded verdict for delta(d, a, s) > threshold (threshold exact as Fraction)."""
    return bool(delta_exceeds_column(d, [a], [s], threshold)[1][0])


def delta_exceeds_column(d, a, s, threshold):
    """(delta_column(d, a, s), guarded verdicts delta > threshold) for int64 columns a and s; a row that
    escalates is built from the column's own coprime counts and the exact d*s."""
    s = np.asarray(s, dtype=np.int64)
    dd, a, ds, n_cop, phi = _delta_args(d, np.asarray(a, dtype=np.int64), s)
    vals, q = _delta(_logs, dd, a, ds, n_cop, phi), Fraction(d)
    return vals, _exceeds_column(vals, threshold, _delta, q, a, lambda i: q * int(s[i]), n_cop, phi)


def case4_constant_exceeds(a: int, threshold) -> bool:
    """Guarded verdict for case4_constant(a) > threshold."""
    return bool(_exceeds_column([case4_constant(a)], threshold, _case4, [a])[0])


def half_window_exceeds_column(a: int, n, counts) -> np.ndarray:
    """Guarded verdicts (n_i / log n_i)(1 + 1/(a-1)) > counts_i over an int64 column n >= 2, for a >= 3."""
    # np.log: no plain evaluator to match, and math.log per value cost thm3 about 0.13 s on its 8e5 rows
    return guarded_greater_column(_half_window(np.log, a, n), counts, _rows(_half_window, a, n), _rows(_value, counts))


# ----------------------------------------------------------------------
# empirical validators for the envelopes


def log_spaced_ints(lo: int, hi: int, n: int) -> list:
    """Distinct integers, roughly geometric between lo and hi inclusive."""
    if hi < lo:
        raise ValueError("needs lo <= hi")
    vals = np.geomspace(lo, hi, n)
    return sorted({min(max(int(round(v)), lo), hi) for v in vals})


def _failures(name, inputs, big, small, big_iv, small_iv) -> list:
    """(i, report) for each row i where the guarded big_i > small_i fails: the report's inputs are the ints at i of
    the columns in inputs (a scalar is every row's), lhs small_i, rhs big_i and margin rhs - lhs, Python floats."""
    out = []
    for i in np.flatnonzero(~guarded_greater_column(big, small, big_iv, small_iv)).tolist():
        lhs, rhs = float(small[i]), float(big[i])
        where = {key: int(c[i] if np.ndim(c) else c) for key, c in inputs.items()}
        out.append((i, BoundReport(name, where, lhs, rhs, False, rhs - lhs)))
    return out


def _bracket(name, inputs, counts, lows, highs, low_expr, high_expr, *columns) -> list:
    """The reports of the rows where lows_i < counts_i < highs_i fails, in row order, a row's lower side first;
    the two bounds are the doubles of low_expr and high_expr over the columns."""
    counts_iv = _rows(_value, counts)
    lower = _failures(f"{name}-lower", inputs, counts, lows, counts_iv, _rows(low_expr, *columns))
    upper = _failures(f"{name}-upper", inputs, highs, counts, _rows(high_expr, *columns), counts_iv)
    return [report for _, report in sorted(lower + upper, key=lambda failure: failure[0])]


def validate_rs_envelope(x_max: int) -> EnvelopeCheck:
    """Check x/log x < pi(x) < rs_pi_upper(x) on the log-spaced grid from 17 to x_max, pi(x) from one sieve walk."""
    xs = np.array(log_spaced_ints(17, x_max, RS_POINTS), dtype=np.int64)
    counts = primelib.prefix_class_counts({1: xs})[1][:, 0]
    lows, highs = _rs_lower(_logs, xs), _rs_upper(_logs, xs)  # rs_pi_lower and rs_pi_upper bit for bit
    violations = _bracket("rs", {"x": xs}, counts, lows, highs, _rs_lower, _rs_upper, xs)
    return EnvelopeCheck("rosser-schoenfeld", 2 * len(xs), violations)


def _ap_class_counts(xs_of: dict) -> dict:
    """{m: counts} with counts[i, l] = #{primes q <= xs_of[m][i] : q = l (mod m)}, from one sieve walk.

    Each m is served by M = m * (AP_M_MAX // m), the largest multiple of m up
    to AP_M_MAX: the walk (primes.prefix_class_counts) counts the classes mod
    M at the union of the x points of every m that M serves, and those fold
    into the classes of each such m.
    """
    served = {}
    for m in xs_of:
        served.setdefault(m * (AP_M_MAX // m), []).append(m)
    cuts = {big: np.unique(np.concatenate([xs_of[m] for m in ms])) for big, ms in served.items()}
    by_big = primelib.prefix_class_counts(cuts)
    out = {}
    for big, ms in served.items():
        for m in ms:
            out[m] = by_big[big][np.searchsorted(cuts[big], xs_of[m])].reshape(-1, big // m, m).sum(axis=1)
    return out


def validate_ap_envelope(x_max: int) -> EnvelopeCheck:
    """Check the fixed-range progression envelope for every m <= AP_M_MAX with 50m^2 <= x_max, coprime l."""
    xs_of = {m: log_spaced_ints(50 * m * m, x_max, AP_POINTS) for m in range(1, AP_M_MAX + 1) if 50 * m * m <= x_max}
    by_m = _ap_class_counts(xs_of)
    violations, checked = [], 0
    for m, xs in xs_of.items():
        ls = [l for l in range(m) if math.gcd(l, m) == 1]
        phi = len(ls)  # phi(m): the classes coprime to m
        counts = by_m[m][:, ls].T.ravel()  # row j * len(xs) + i is class ls[j] at xs[i]
        lows, highs = (np.tile(side, phi) for side in ap_fixed_range_bounds(np.array(xs, dtype=np.int64), m))
        inputs = {"x": np.tile(xs, phi), "m": m, "l": np.repeat(ls, len(xs))}
        violations += _bracket("ap", inputs, counts, lows, highs, _ap_lower, _ap_upper, inputs["x"], phi)
        checked += 2 * counts.size
    return EnvelopeCheck("ap-fixed-range", checked, violations)


def _mv_draws(samples: int, x_max: int, seed: int):
    """The int64 columns (x, y, k, l) of validate_mv_bound's samples, all from one generator seeded with seed:
    with x_max capped at MV_X_MAX, k log-uniform in [1, MV_K_MAX], y log-uniform in [k + 1, max(x_max, k + 1)],
    x uniform in [0, x_max) and l uniform in [0, k), each of the first three from one column of rng.random."""
    x_max = min(x_max, MV_X_MAX)
    rng = np.random.default_rng(seed)
    k = np.maximum(np.exp(math.log(MV_K_MAX) * rng.random(samples)).astype(np.int64), 1)
    lo = np.log(k + 1)
    y = np.maximum(np.exp(lo + (math.log(x_max) - lo) * rng.random(samples)).astype(np.int64), k + 1)
    x = (x_max * rng.random(samples)).astype(np.int64)
    return x, y, k, rng.integers(0, k)


def validate_mv_bound(samples: int = 10_000, x_max: int = MV_X_MAX, seed: int = 20260819) -> EnvelopeCheck:
    """Sample (x, y, k, l) with k < y and compare interval class counts to mv_upper.

    The samples are the seeded int64 columns of _mv_draws. The primes up to
    the largest x + y drawn are one bool bitmap, and a sample's count of the
    primes n in (x, x + y] with n = l (mod k) is one strided view of it, from
    the least such n above x. phi(k) is one column (arith.coprime_counts) and
    the bounds one column of doubles, each row mv_upper bit for bit. When
    MV_K_MAX >= x_max a draw can have y = k + 1 > x_max; the bitmap reaches
    its x + y all the same.
    """
    x, y, k, l = _mv_draws(samples, x_max, seed)
    ends = x + y + 1
    flags = primelib.sieve_segment(0, int(ends.max(initial=1)))
    firsts = x + 1 + (l - x - 1) % k  # the least n > x with n = l (mod k)
    spans = zip(firsts.tolist(), ends.tolist(), k.tolist())
    counts = np.fromiter((np.count_nonzero(flags[f:e:m]) for f, e, m in spans), dtype=np.int64, count=samples)
    phi = arith.coprime_counts(np.zeros_like(k), k)[1]
    uppers, inputs = _mv(_logs, y, k, phi), {"x": x, "y": y, "k": k, "l": l}
    failures = _failures("mv-upper", inputs, uppers, counts, _rows(_mv, y, k, phi), _rows(_value, counts))
    return EnvelopeCheck("montgomery-vaughan", samples, [report for _, report in failures])
