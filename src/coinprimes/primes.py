"""Segmented prime sieve plus exact counts pi(x) and pi(x; m, l).

Each sieve window stores one bool per odd number, so a window of 2**21
numbers takes 1 MiB. A window starts as a copy of a wheel pattern with the
odd multiples of 3, 5, 7, 11 and 13 already struck, so only the larger base
primes are struck window by window. sieve_windows yields these bitmaps;
prime_windows turns each into an array of primes, while prefix_class_counts
and class_counts count straight from the bits: entry i of a window is
first + 2*i, so its class mod m repeats with period m / gcd(m, 2), and one
column sum of a run of the bitmap (_phase_sums) gives every class's count in
the run. pi and pi_ap are one-cut walks of prefix_class_counts; class_counts
keeps the per-class caps of the single-pair residue route
(pistar.pi_star_residue_sum). The grid kernel (pistar.gap_prime_counts)
reads sieve_segment, one bool per number. primes_array, the whole table
joined from prime_windows, is kept as the tests' reference.
"""

import math

import numpy as np

DEFAULT_WINDOW = 1 << 21

# Witnesses making Miller-Rabin deterministic far beyond 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _simple_prime_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


# Odd-only wheel: entry k is False iff 2*k + 1 has a factor in _WHEEL_PRIMES. It repeats every
# 3*5*7*11*13 = 15,015 entries (30,030 numbers), so each window starts from a copy of it and
# strikes only the multiples of the larger primes.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.logical_and.reduce([np.arange(1, 2 * math.prod(_WHEEL_PRIMES), 2) % p != 0 for p in _WHEEL_PRIMES])


def _odd_sieve(lo: int, hi: int):
    """Odd-only primality bits for [lo, hi): (first, bits), bits[i] True iff first + 2*i is prime.

    first is the least odd number >= max(lo, 3); 2 is never represented.
    """
    if lo < 0 or hi < lo:
        raise ValueError("segment needs 0 <= lo <= hi")
    first = max(lo, 3) | 1
    n = max(hi - first + 1, 0) // 2
    # first + 2*i = 2*(first // 2 + i) + 1, so the wheel pattern starts at entry first // 2
    bits = np.resize(np.roll(_WHEEL, -(first // 2 % _WHEEL.size)), n)
    for p in _WHEEL_PRIMES:
        if first <= p < hi:
            bits[(p - first) // 2] = True
    ps = np.flatnonzero(_simple_prime_flags(math.isqrt(max(hi - 1, 0))))[1 + len(_WHEEL_PRIMES) :]
    # the least odd multiple of p that is >= max(lo, p*p)
    start = np.maximum(ps * ps, -(-lo // ps) * ps)
    start += ps * (start % 2 == 0)
    for p, i in zip(ps.tolist(), ((start - first) >> 1).tolist()):
        bits[i::p] = False
    return first, bits


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """Primality bits for the half-open window [lo, hi): bits[i] is True iff lo + i is prime."""
    first, odd = _odd_sieve(lo, hi)
    bits = np.zeros(hi - lo, dtype=bool)
    bits[first - lo :: 2] = odd
    if lo <= 2 < hi:
        bits[2 - lo] = True
    return bits


def sieve_windows(lo: int, hi: int):
    """Yield (first, bits) for [lo, hi), DEFAULT_WINDOW numbers at a time: bits[i] is True iff first + 2*i is prime.

    2 is never represented (see _odd_sieve), so a caller whose range holds 2 counts it itself.
    """
    for start in range(lo, hi, DEFAULT_WINDOW):
        yield _odd_sieve(start, min(start + DEFAULT_WINDOW, hi))


def prime_windows(lo: int, hi: int):
    """Yield nonempty ascending int64 arrays of the primes in [lo, hi), one per window of sieve_windows."""
    two = lo <= 2 < hi
    for first, bits in sieve_windows(lo, hi):
        arr = np.flatnonzero(bits)
        arr <<= 1
        arr += first
        if two:
            arr, two = np.concatenate(([2], arr)), False
        if arr.size:
            yield arr


def _phase_sums(bits, period: int) -> np.ndarray:
    """The set entries of bits by position mod period: an int64 array of length period.

    The bits, cut into about k rows of period*k entries, sum by column, and the
    columns fold mod period; the entries past the last whole row are counted
    one by one.
    """
    n = bits.size
    k = max(math.isqrt(n // period), 1)
    body = n // (period * k) * period * k
    # at most isqrt(n // period) + 3 rows (about 1,000 in a default window), so uint16 column sums hold them
    columns = bits[:body].view(np.uint8).reshape(-1, period * k).sum(axis=0, dtype=np.uint16)
    phase = columns.reshape(k, period).sum(axis=0, dtype=np.int64)
    phase += np.bincount(np.flatnonzero(bits[body:]) % period, minlength=period)  # body is whole periods
    return phase


def class_counts(x, m: int, below):
    """Capped class counts of the primes p <= x, from one pass of sieve_windows: (counts, pi(x)).

    counts[c] (an int64 array of length m) counts the primes p = c (mod m)
    with p < below[c], below being an int64 array of length m; pi(x) counts
    every prime <= x. Entry i of a window is first + 2*i, so its class
    repeats with period P = m / gcd(m, 2): the window's phase sums
    (_phase_sums) give one count per class. A class whose cap falls inside a
    window counts the strided prefix of its entries below the cap instead.
    Each cap falls in one window at most, so that is at most m such counts
    over the whole pass.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    counts = np.zeros(m, dtype=np.int64)
    if x < 2:
        return counts, 0
    if below[2 % m] > 2:
        counts[2 % m] = 1
    total = 1
    period = m // math.gcd(m, 2)
    steps = 2 * np.arange(period, dtype=np.int64)
    for first, bits in sieve_windows(0, int(x) + 1):
        phase = _phase_sums(bits, period)
        total += int(phase.sum())
        cls = (first + steps) % m  # the class of phase j, each class of first's parity once
        end = first + 2 * bits.size
        cap = below[cls]
        counts[cls] += np.where(cap >= end, phase, 0)
        for j in np.flatnonzero((first < cap) & (cap < end)).tolist():
            counts[cls[j]] += np.count_nonzero(bits[j : (int(cap[j]) - first + 1) // 2 : period])
    return counts, total


def prefix_class_counts(cuts: dict) -> dict:
    """{m: counts} for cuts {m: ascending cut points}, from one pass of sieve_windows for every modulus.

    counts (int64, one row per cut point x and one column per class c mod m)
    counts the primes p <= x with p = c (mod m); pi(x) is counts[:, 0] of
    m = 1. Between two consecutive cuts of m the window's bits sum by phase
    (_phase_sums), and phase j of a run starting at entry e is the class of
    first + 2*(e + j). The walk reaches the largest cut of any modulus.
    """
    walks = {}
    for m, xs in cuts.items():
        if m < 1:
            raise ValueError("modulus must be >= 1")
        xs = np.asarray(xs, dtype=np.int64)
        if (np.diff(xs) < 0).any():
            raise ValueError("cut points must be ascending")
        run = np.zeros(m, dtype=np.int64)
        run[2 % m] = 1  # 2 is in no window; the rows of cuts below 2 are zeroed at the end
        walks[m] = (xs, 2 * np.arange(m // math.gcd(m, 2), dtype=np.int64), run, np.zeros((xs.size, m), dtype=np.int64))
    done = dict.fromkeys(walks, 0)  # per modulus, the cuts counted so far
    top = max((int(xs[-1]) for xs, *_ in walks.values() if xs.size), default=-1)
    for first, bits in sieve_windows(0, top + 1) if top >= 2 else ():
        end = first + 2 * bits.size  # every prime below end but 2 is an entry of this window or an earlier one
        for m, (xs, steps, run, rows) in walks.items():
            i, stop = done[m], int(np.searchsorted(xs, end))
            lo = 0
            for j, e in enumerate(np.clip((xs[i:stop] - first) // 2 + 1, 0, bits.size).tolist(), i):
                run[(first + 2 * lo + steps) % m] += _phase_sums(bits[lo:e], steps.size)
                rows[j] = run
                lo = e
            if stop < xs.size:
                run[(first + 2 * lo + steps) % m] += _phase_sums(bits[lo:], steps.size)
            done[m] = stop
    for xs, _, _, rows in walks.values():
        rows[xs < 2] = 0
    return {m: rows for m, (_, _, _, rows) in walks.items()}


def primes_array(limit: int) -> np.ndarray:
    """Ascending primes <= limit as an int64 array: the arrays of prime_windows joined."""
    return np.concatenate([np.empty(0, dtype=np.int64), *prime_windows(0, limit + 1)])


def pi(x) -> int:
    """Exact count of primes <= x: one cut of prefix_class_counts."""
    return int(prefix_class_counts({1: [int(x)]})[1][0, 0])


def pi_ap(x, m: int, l: int) -> int:
    """Exact count of primes p <= x in the residue class l mod m: one cut of prefix_class_counts.

    Any l is accepted and reduced mod m; classes sharing a factor with m
    hold at most the one prime dividing m.
    """
    return int(prefix_class_counts({m: [int(x)]})[m][0, l % m])


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the 12-witness set; exact far past 2**64)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
