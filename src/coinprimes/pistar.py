"""The central count: primes that are gaps of a two-generator semigroup.

Three independent routes compute the same number:

  fast         one streamed sieve pass with the O(1) membership test
  residue-sum  sum over v of the primes below b*v in the class b*v mod a
  brute-force  mark every a*u + b*v up to s, then subtract from a dense sieve

plus closed forms for the degenerate families (one generator equal to 1 or 2).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import primes as primelib
from .errors import LimitExceeded, NotCoprime
from .semigroup import SemigroupPair, new_pair

BRUTE_FORCE_CAP = 10_000_000

METHOD_FAST = "fast"
METHOD_RESIDUE = "residue-sum"
METHOD_BRUTE = "brute-force"
METHOD_CLOSED = "closed-form"


@dataclass(frozen=True)
class PiStarResult:
    pair: SemigroupPair
    pi_star: int  # primes p <= s outside the semigroup
    pi_s: int  # all primes p <= s
    method: str
    ratio_to_pi_s: float  # None when pi_s == 0


def _result(pair, gap_primes, all_primes, method):
    ratio = gap_primes / all_primes if all_primes > 0 else None
    return PiStarResult(pair, gap_primes, all_primes, method, ratio)


def count_gap_primes(chunk: np.ndarray, a: int, b: int, b_inv: int) -> int:
    """Gap primes within one ascending array of primes (all values must be <= s)."""
    v0 = (chunk % a) * b_inv % a
    return int(np.count_nonzero(chunk < b * v0))


def pi_star_fast(pair: SemigroupPair, window: int = None) -> PiStarResult:
    """Stream sieve windows over [2, s] and apply the membership test."""
    if pair.a == 1 or pair.b == 1 or pair.s < 2:
        return _result(pair, 0, 0, METHOD_FAST)
    total = 0
    gapped = 0
    for chunk in primelib.prime_windows(2, pair.s + 1, window):
        total += int(chunk.size)
        gapped += count_gap_primes(chunk, pair.a, pair.b, pair.b_inv_mod_a)
    return _result(pair, gapped, total, METHOD_FAST)


def pi_star_residue_sum(pair: SemigroupPair) -> PiStarResult:
    """Sum over v in [1, a-1] of #{p prime : p < b*v, p = b*v (mod a)}."""
    a, b = pair.a, pair.b
    if a == 1 or b == 1:
        return _result(pair, 0, 0, METHOD_RESIDUE)
    p = primelib.primes_array(b * (a - 1))
    pi_s = int(np.searchsorted(p, pair.s, side="right"))
    p_sorted, cuts = primelib.residue_classes(p, a)
    total = 0
    for v in range(1, a):
        t = b * v
        r = t % a
        cls = p_sorted[cuts[r] : cuts[r + 1]]
        total += int(np.searchsorted(cls, t, side="left"))
    return _result(pair, total, pi_s, METHOD_RESIDUE)


def _dense_prime_flags(limit: int) -> np.ndarray:
    # Plain dense sieve, kept local so the brute-force oracle does not share
    # code with the segmented machinery it is used to check.
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return flags


def pi_star_bruteforce(pair: SemigroupPair, cap: int = BRUTE_FORCE_CAP) -> PiStarResult:
    """Enumerate every representable a*u + b*v <= s, then count prime leftovers."""
    s = pair.s
    if s > cap:
        raise LimitExceeded(f"s = {s} exceeds brute-force cap {cap}")
    if pair.a == 1 or pair.b == 1 or s < 2:
        return _result(pair, 0, 0, METHOD_BRUTE)
    reachable = np.zeros(s + 1, dtype=bool)
    v = 0
    while pair.b * v <= s:
        reachable[pair.b * v :: pair.a] = True
        v += 1
    flags = _dense_prime_flags(s)
    pi_s = int(np.count_nonzero(flags))
    gapped = int(np.count_nonzero(flags & ~reachable))
    return _result(pair, gapped, pi_s, METHOD_BRUTE)


def pi_star_closed_small(a: int, b: int) -> PiStarResult:
    """Closed forms when min(a, b) <= 2; None otherwise.

    min = 1: every integer is representable, so the count is 0.
    min = 2: the gaps are the odd numbers below the odd generator y, giving
    pi(y - 2) - 1 prime gaps (0 for y = 3).
    """
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) != 1")
    lo, hi = min(a, b), max(a, b)
    pair = new_pair(a, b)
    if lo == 1:
        return _result(pair, 0, 0, METHOD_CLOSED)
    if lo == 2:
        if hi == 3:
            return _result(pair, 0, 0, METHOD_CLOSED)
        pi_s = primelib.pi(hi - 2)
        return _result(pair, pi_s - 1, pi_s, METHOD_CLOSED)
    return None
