"""The central count: primes that are gaps of a two-generator semigroup.

Three independent routes compute the same number:

  fast         one streamed sieve pass with the O(1) membership test: p is a
               gap iff p < w[p mod a], w the Apery table of semigroup.apery_table
  residue-sum  the gap_prime_counts kernel: sum over v of the primes below
               b*v in the class b*v mod a, batched over b
  brute-force  mark every a*u + b*v up to s, then subtract from a dense sieve

Every grid command counts with the residue-sum kernel; fast and brute force
are the independent routes it is cross-checked against. The kernel takes its
primes as ascending chunks and adds up their counts: a grid block passes the
prime table it already holds as one chunk and searches it class by class,
while a single pair passes the sieve windows of [2, s], searches each with
one packed searchsorted, and so builds no table. The search order of a chunk
follows its size: class by class when the (a - 1) * len(bs) queries are no
fewer than the chunk's primes, packed otherwise.
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
    prime below max(below), each in one chunk: a table as one chunk, or the
    windows of primes.prime_windows. Primes at or above below[i] are not
    counted for b_i, so a chunk may run past max(below).

    The residue-sum identity: a prime p is a gap iff p < b*v for the v in
    [1, a) with b*v = p (mod a). As v runs over [1, a), b*v mod a runs over
    every class c in [1, a) once, with v = c * b^-1 mod a. So the count is the
    sum over c of #{p prime : p = c (mod a), p < min(b*v, below)}, and it adds
    up over disjoint ranges of primes: each chunk is split into its classes
    mod a once and its counts are added. When the (a - 1) * len(bs) queries
    are no fewer than the chunk's primes (every grid block), one searchsorted
    per class serves every b. Otherwise (one b against a sieve window) the
    (class, prime) keys stay packed and one searchsorted serves every class.
    Memory is O(len(bs)) besides the largest chunk and its split, since the
    packed queries are fewer than the chunk's primes.
    """
    if a < 1 or bs.min(initial=1) < 1 or np.any(np.gcd(bs, a) != 1):
        raise ValueError(f"every b must be a positive integer coprime to a = {a}")
    inverse = np.array([pow(r, -1, a) if math.gcd(r, a) == 1 else 0 for r in range(a)], dtype=np.int64)
    b_inv = inverse[bs % a]
    counts = np.zeros(bs.size, dtype=np.int64)
    for chunk in primes:
        if (a - 1) * bs.size >= chunk.size:
            p_sorted, cuts = primelib.residue_classes(chunk, a)
            for c in range(1, a):
                v = c * b_inv % a
                counts += np.searchsorted(p_sorted[cuts[c] : cuts[c + 1]], np.minimum(bs * v, below), side="left")
        else:
            keys, cuts = primelib.residue_classes(chunk, a, packed=True)
            shift = int(chunk[-1]).bit_length()  # as residue_classes packs the keys
            c = np.arange(1, a, dtype=np.int64)[:, None]
            # the primes of class c below q are the keys up to c << shift | (q - 1), with q - 1 kept in [0, max prime]
            last = np.clip(np.minimum(bs * (c * b_inv % a), below) - 1, 0, chunk[-1])
            counts += (np.searchsorted(keys, c << shift | last, side="right") - cuts[1:a, None]).sum(axis=0)
    return counts


def pi_star_residue_sum(pair: SemigroupPair) -> PiStarResult:
    """The gap_prime_counts kernel on the one b of the pair, over the sieve windows of [2, s]; s < 2 gives (0, 0).

    pi(s) is the sum of the window sizes, so no prime table is built and the
    memory does not grow with s.
    """
    sizes = []

    def counted(window):
        sizes.append(window.size)
        return window

    b, below = np.array([pair.b], dtype=np.int64), np.array([pair.s + 1], dtype=np.int64)
    gapped = gap_prime_counts(pair.a, b, below, map(counted, primelib.prime_windows(2, pair.s + 1)))
    return _result(pair, int(gapped[0]), sum(sizes), METHOD_RESIDUE)


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
