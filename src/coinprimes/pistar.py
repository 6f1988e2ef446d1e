"""The central count: primes that are gaps of a two-generator semigroup.

Three independent routes compute the same number:

  fast         one streamed sieve pass with the O(1) membership test: p is a
               gap iff p < w[p mod a], w the Apery table of semigroup.apery_table
  residue-sum  sum over v of the primes below b*v in the class b*v mod a:
               for one pair, capped class counts read off the sieve bitmaps
               (primes.class_counts); for a grid block, the gap_prime_counts
               kernel, batched over b
  brute-force  mark every a*u + b*v up to s, then subtract from a dense sieve

Every grid command counts with the residue-sum kernel; fast and brute force
are the independent routes it is cross-checked against. The kernel takes its
primes as ascending chunks, splits each into its classes mod a and searches
it class by class, one searchsorted per class for every b of the block. A
single pair builds neither primes nor a table: it counts the columns of each
sieve window's bitmap per class, so fast and residue share only the sieve.
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
    if pair.a == 1 or pair.b == 1 or pair.s < 2:
        return _result(pair, 0, 0, METHOD_FAST)
    total = 0
    gapped = 0
    for chunk in primelib.prime_windows(2, pair.s + 1):
        total += int(chunk.size)
        gapped += count_gap_primes(chunk, pair.a, pair.b, pair.b_inv_mod_a)
    return _result(pair, gapped, total, METHOD_FAST)


def gap_prime_counts(a: int, bs: np.ndarray, below: np.ndarray, primes) -> np.ndarray:
    """Gap primes p < below[i] of <a, bs[i]> for each i, all b at once (int64 arrays in, out).

    primes is an iterable of ascending int64 chunks that together hold every
    prime below max(below), each in one chunk, such as the prime table as one
    chunk. Primes at or above below[i] are not counted for b_i, so a chunk may
    run past max(below).

    The residue-sum identity: a prime p is a gap iff p < b*v for the v in
    [1, a) with b*v = p (mod a). As v runs over [1, a), b*v mod a runs over
    every class c in [1, a) once, with v = c * b^-1 mod a. So the count is the
    sum over c of #{p prime : p = c (mod a), p < min(b*v, below)}, and it adds
    up over disjoint ranges of primes: each chunk is split into its classes
    mod a once, and one searchsorted per class serves every b. Memory is
    O(len(bs)) besides the largest chunk and its split.
    """
    if a < 1 or bs.min(initial=1) < 1 or np.any(np.gcd(bs, a) != 1):
        raise ValueError(f"every b must be a positive integer coprime to a = {a}")
    inverse = np.array([pow(r, -1, a) if math.gcd(r, a) == 1 else 0 for r in range(a)], dtype=np.int64)
    b_inv = inverse[bs % a]
    counts = np.zeros(bs.size, dtype=np.int64)
    for chunk in primes:
        p_sorted, cuts = primelib.residue_classes(chunk, a)
        for c in range(1, a):
            v = c * b_inv % a
            counts += np.searchsorted(p_sorted[cuts[c] : cuts[c + 1]], np.minimum(bs * v, below), side="left")
    return counts


def pi_star_residue_sum(pair: SemigroupPair) -> PiStarResult:
    """The residue-sum identity for one pair: the primes p <= s in each class c mod a below b*v,
    v = c * b^-1 mod a, counted by primes.class_counts in one pass of the sieve windows of [2, s].

    No prime array or table is built, so the memory does not grow with s; s < 2 gives (0, 0).
    The caps are computed here, not taken from apery_table, so fast and this route share only the sieve.
    """
    v = np.arange(pair.a, dtype=np.int64) * pair.b_inv_mod_a % pair.a
    counts, pi_s = primelib.class_counts(pair.s, pair.a, pair.b * v)
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
    """Enumerate every representable a*u + b*v <= s, then count prime leftovers."""
    check_brute_cap(pair, cap)
    s = pair.s
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
