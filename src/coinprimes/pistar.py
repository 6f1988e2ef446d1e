"""The central count: primes that are gaps of a two-generator semigroup.

Three independent routes compute the same number:

  fast         one streamed sieve pass with the O(1) membership test: p is a
               gap iff p < w[p mod a], w the Apery table of semigroup.apery_table
  residue-sum  sum over v of the primes below b*v in the class b*v mod a:
               for one pair, capped class counts read off the sieve bitmaps
               (primes.class_counts), the classes taken mod the smaller
               generator, as the identity is symmetric in a and b; for many
               b of one a, the gap_prime_counts kernel
  brute-force  mark every a*u + b*v up to s, then subtract from a dense sieve

Every grid command counts with the residue-sum kernel; fast and brute force
are the independent routes it is cross-checked against. The kernel walks the
sieve windows once, each cut into rows of a numbers, and reads the per-class
prime counts below every query b*v off the window's cumsum down its rows; it
builds no prime array. Neither does a single pair: it counts the columns of
each sieve window's bitmap per class, so fast and residue share only the sieve.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import primes as primelib
from .errors import LimitExceeded
from .semigroup import SemigroupPair, apery_table

BRUTE_FORCE_CAP = 10_000_000

METHOD_FAST = "fast"
METHOD_RESIDUE = "residue-sum"
METHOD_BRUTE = "brute-force"


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
    """Gap primes within one ascending array of primes (all values must be <= s): one class gather per prime."""
    return int(np.count_nonzero(chunk < apery_table(a, b, b_inv)[chunk % a]))


def pi_star_fast(pair: SemigroupPair) -> PiStarResult:
    """Stream sieve windows over [2, s] and apply the membership test."""
    if pair.s < 2:
        return _result(pair, 0, 0, METHOD_FAST)
    total = 0
    gapped = 0
    for chunk in primelib.prime_windows(2, pair.s + 1):
        total += int(chunk.size)
        gapped += count_gap_primes(chunk, pair.a, pair.b, pair.b_inv_mod_a)
    return _result(pair, gapped, total, METHOD_FAST)


def gap_prime_counts(a: int, bs: np.ndarray, below: np.ndarray = None):
    """(pi_star, pi_s) of <a, b> for each b of the int64 array bs, in any order, as int64 arrays;
    with below, an int64 array like bs, pi_star[i] counts only the gap primes below below[i].

    With K[n] = #{p prime : p < n, p = n (mod a)}, pi_star is the sum of K[b*v]
    over v in [1, a): a prime p is a gap iff p < b*v for the v with b*v = p
    (mod a). A cap L moves the query b*v to min(b*v, L + (b*v - L) mod a), the
    first number at or after L in its class. One walk sieves [0, top) in
    windows of whole rows of a numbers, each starting at a multiple of a: seen
    as (rows, a), a window has one class per column, its exclusive cumsum down
    the rows plus the earlier windows' class counts is K there, and its flat
    cumsum gives pi. A window visits only the v whose queries can fall in it;
    memory is one window plus O(len(bs)).
    """
    if a < 1 or bs.min(initial=1) < 1 or np.any(np.gcd(bs, a) != 1):
        raise ValueError(f"every b must be a positive integer coprime to a = {a}")
    s = a * bs - a - bs
    pi_star, pi_s = np.zeros((2, bs.size), dtype=np.int64)
    if not bs.size:
        return pi_star, pi_s
    vs = np.arange(1, a, dtype=np.int64)
    q_lo, q_hi = vs * int(bs.min()), vs * int(bs.max())  # q_lo[v - 1] <= v's queries <= q_hi[v - 1]
    if below is not None:
        q_lo, q_hi = np.minimum(q_lo, below.min()), np.minimum(q_hi, below.max() + a - 1)
    top = -(-(max(int(q_hi.max(initial=0)), int(s.max())) + 1) // a) * a
    dtype = np.int32 if top < 2**31 else np.int64  # K is at most the number of primes below top
    carry, total = np.zeros(a, dtype=dtype), 0  # the primes below the window, per class and in all
    width = max(primelib.DEFAULT_WINDOW // a, 1) * a
    for lo in range(0, top, width):
        hi = min(lo + width, top)
        bits = primelib.sieve_segment(lo, hi)
        at = np.flatnonzero((lo <= s) & (s < hi))
        if at.size:
            pi_s[at] = np.cumsum(bits, dtype=dtype)[s[at] - lo] + total  # below top, so in dtype
        total += int(np.count_nonzero(bits))
        k = np.empty(((hi - lo) // a + 1, a), dtype=dtype)
        k[0], k[1:] = carry, bits.reshape(-1, a)
        np.cumsum(k, axis=0, out=k)  # row r: the primes below row r of the window, by class, so K there
        carry, k = k[-1].copy(), k.ravel()
        for v in vs[(q_lo < hi) & (q_hi >= lo)].tolist():
            q = bs * v if below is None else np.minimum(bs * v, below + (bs * v - below) % a)
            i = np.flatnonzero((lo <= q) & (q < hi))
            pi_star[i] += k[q[i] - lo]
    return pi_star, pi_s


def pi_star_residue_sum(pair: SemigroupPair) -> PiStarResult:
    """The residue-sum identity for one pair, with m = min(a, b) and n = max(a, b): the primes
    p <= s in each class c mod m below n*v, v = c * n^-1 mod m, counted by primes.class_counts in
    one pass of the sieve windows of [2, s]; the smaller modulus means fewer classes to cap.

    No prime array or table is built, so the memory does not grow with s; s < 2 gives (0, 0).
    The caps are computed here, not taken from apery_table, so fast and this route share only the sieve.
    """
    m, n = sorted((pair.a, pair.b))
    v = np.arange(m, dtype=np.int64) * pow(n, -1, m) % m
    counts, pi_s = primelib.class_counts(pair.s, m, n * v)
    return _result(pair, int(counts.sum()), pi_s, METHOD_RESIDUE)


def _dense_prime_flags(limit: int) -> np.ndarray:
    # Plain dense sieve, kept local so the brute-force oracle does not share
    # code with the segmented machinery it is used to check.
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return flags


def check_brute_cap(pair: SemigroupPair, cap: int):
    """Raise LimitExceeded when brute force on the pair would pass its cap on s."""
    if pair.s > cap:
        raise LimitExceeded(f"s = {pair.s} exceeds brute-force cap {cap}")


def pi_star_bruteforce(pair: SemigroupPair, cap: int = BRUTE_FORCE_CAP) -> PiStarResult:
    """Enumerate every representable a*u + b*v <= s, striding by min(a, b) from each multiple of
    max(a, b), then count prime leftovers."""
    check_brute_cap(pair, cap)
    s = pair.s
    if s < 2:
        return _result(pair, 0, 0, METHOD_BRUTE)
    m, n = sorted((pair.a, pair.b))
    reachable = np.zeros(s + 1, dtype=bool)
    for start in range(0, s + 1, n):
        reachable[start::m] = True
    flags = _dense_prime_flags(s)
    pi_s = int(np.count_nonzero(flags))
    gapped = int(np.count_nonzero(flags & ~reachable))
    return _result(pair, gapped, pi_s, METHOD_BRUTE)
