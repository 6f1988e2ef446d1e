"""Segmented prime sieve plus exact counts pi(x) and pi(x; m, l).

The sieve is odd-only inside each window; windows default to 2**20 numbers.
A module-level prime table backs the bulk array queries and grows on demand.
Each process grows its own: a sweep's forked workers each build the table
they need, starting from whatever the parent had built before the fork.
"""

import math

import numpy as np

DEFAULT_WINDOW = 1 << 20

# Witnesses making Miller-Rabin deterministic far beyond 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _simple_prime_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


_base_primes = np.empty(0, dtype=np.int64)
_base_limit = 0


def _base_primes_upto(limit: int) -> np.ndarray:
    global _base_primes, _base_limit
    if limit > _base_limit:
        new = max(limit, 1 << 12, 2 * _base_limit)
        _base_primes = np.flatnonzero(_simple_prime_flags(new)).astype(np.int64)
        _base_limit = new
    idx = np.searchsorted(_base_primes, limit, side="right")
    return _base_primes[:idx]


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """Primality bits for the half-open window [lo, hi): bits[i] is True iff lo + i is prime."""
    if lo < 0 or hi < lo:
        raise ValueError("segment needs 0 <= lo <= hi")
    bits = np.zeros(hi - lo, dtype=bool)
    if hi <= 2:
        return bits
    first = max(lo, 3)
    if first % 2 == 0:
        first += 1
    if first < hi:
        bits[first - lo :: 2] = True
    if lo <= 2 < hi:
        bits[2 - lo] = True
    for p in _base_primes_upto(math.isqrt(hi - 1)):
        p = int(p)
        if p == 2:
            continue
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            bits[start - lo :: 2 * p] = False
    return bits


def segments(lo: int, hi: int, window: int = None):
    """Yield (start, bits) for consecutive sieve windows covering [lo, hi)."""
    w = window if window else DEFAULT_WINDOW
    if w < 1:
        raise ValueError("window must be positive")
    for start in range(lo, hi, w):
        yield start, sieve_segment(start, min(start + w, hi))


def prime_windows(lo: int, hi: int, window: int = None):
    """Yield nonempty int64 arrays of the primes in [lo, hi), window by window."""
    for start, bits in segments(lo, hi, window):
        arr = np.flatnonzero(bits).astype(np.int64) + start
        if arr.size:
            yield arr


def pi(x, window: int = None) -> int:
    """Exact count of primes <= x."""
    if x < 2:
        return 0
    return sum(int(bits.sum()) for _, bits in segments(0, int(x) + 1, window))


_cached = np.empty(0, dtype=np.int64)
_cached_limit = 1


def primes_array(limit: int) -> np.ndarray:
    """Ascending primes <= limit as an int64 array (cached; grows monotonically).

    The returned slice is a view of the shared table: treat it as read-only.
    Growth is not thread-safe; build the largest table needed before fanning out.
    """
    global _cached, _cached_limit
    if limit > _cached_limit:
        new_limit = max(int(limit), 2 * _cached_limit, 1 << 16)
        chunks = list(prime_windows(0, new_limit + 1))
        _cached = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        _cached_limit = new_limit
    idx = np.searchsorted(_cached, limit, side="right")
    return _cached[:idx]


def residue_classes(p: np.ndarray, m: int):
    """Group ascending primes by residue mod m.

    Returns (p_sorted, cuts): class l is p_sorted[cuts[l] : cuts[l + 1]], still ascending.
    """
    res = p % m
    order = np.argsort(res, kind="stable")
    return p[order], np.searchsorted(res[order], np.arange(m + 1))


def pi_ap(x, m: int, l: int) -> int:
    """Exact count of primes p <= x in the residue class l mod m.

    Any l is accepted and reduced mod m; classes sharing a factor with m
    hold at most the one prime dividing m.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if x < 2:
        return 0
    l %= m
    p = primes_array(int(x))
    return int(np.count_nonzero(p % m == l))


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
