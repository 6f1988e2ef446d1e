"""Elementary arithmetic: factorization, Euler's phi and coprime counts.

factor, euler_phi and coprime_count_up_to take one integer; they are the
scalar reference for coprime_counts, which takes int64 columns.
"""

import math

import numpy as np

from . import primes as primelib

# the first primes: their running product passes 2**63 at 53
_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def factor(n: int) -> tuple:
    """Ascending (prime, exponent) pairs of n, by trial division. Intended for n up to ~10**12."""
    if n < 1:
        raise ValueError("factor() needs n >= 1")
    m = n
    out = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                out.append((p, e))
        d += 6
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def coprime_count_up_to(t, a: int) -> int:
    """Count v with 1 <= v <= t and gcd(v, a) = 1, by divisor inclusion-exclusion.

    t may be int, float, or Fraction; Fraction and int bounds are floored exactly.
    """
    if a < 1:
        raise ValueError("needs a >= 1")
    if t < 1:
        return 0
    # (d, mobius(d)) for every squarefree divisor d of a
    divisors = [(1, 1)]
    for p, _ in factor(a):
        divisors += [(d * p, -mu) for d, mu in divisors]
    total = 0
    as_float = isinstance(t, float)
    for d, mu in divisors:
        q = math.floor(t / d) if as_float else t // d
        total += mu * int(q)
    return total

def _max_omega(n: int) -> int:
    """Most distinct prime factors an integer in [1, n] can have."""
    k, prod = 0, 1
    for p in _FIRST_PRIMES:
        prod *= p
        if prod > n:
            break
        k += 1
    return k


def coprime_counts(t: np.ndarray, a: np.ndarray):
    """(#{v <= t_i : gcd(v, a_i) = 1}, phi(a_i)) for int64 columns a >= 1 and t (t < 0 counts 0).

    Exact integers throughout. Each whole period of a_i up to t_i holds phi(a_i)
    such v, so only the tail r_i = t_i mod a_i is counted by inclusion-exclusion:
    mobius(d) * (r // d) summed over the squarefree divisors d <= r of each row.
    The column is trial-divided by the primes up to sqrt(max a), each row's
    distinct primes filling its slots in ascending order; primes, tails and
    quotients are int32 when max a < 2**31. A divisor past r adds 0, and so
    does every multiple of it, so the sum descends only into the rows whose
    divisor is still <= r, carrying q = r // d, since r // (d * p) = q // p.
    Nothing is sieved up to max a, so sparse columns stay cheap.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size and a.min() < 1:
        raise ValueError("needs a >= 1")
    periods, tail = np.divmod(np.maximum(np.asarray(t, dtype=np.int64), 0), a)
    a_max = int(a.max(initial=1))
    slots = max(_max_omega(a_max), 1)
    word = np.int32 if a_max < 2**31 else np.int64
    # fac[k, i]: the (k+1)-th smallest prime of a_i; a slot the row does not fill holds a_max, past every tail
    fac = np.full((slots, a.size), a_max, dtype=word)
    omega = np.zeros(a.size, dtype=np.int64)
    phi = a.copy()
    rest = a.astype(word)
    for p in np.flatnonzero(primelib.sieve_segment(0, math.isqrt(a_max) + 1)).tolist():
        hit = np.flatnonzero(rest % p == 0)
        if not hit.size:
            continue
        fac[omega[hit], hit] = p
        omega[hit] += 1
        phi[hit] = phi[hit] // p * (p - 1)
        r = rest[hit] // p
        more = np.flatnonzero(r % p == 0)
        while more.size:
            r[more] //= p
            more = more[r[more] % p == 0]
        rest[hit] = r
    big = np.flatnonzero(rest > 1)  # one prime above sqrt(max a) at most
    fac[omega[big], big] = rest[big]
    phi[big] = phi[big] // rest[big] * (rest[big] - 1)
    counts = tail + periods * phi

    def add_multiples(rows, q, sign, first):
        # q = r // d for a divisor d <= r of each row; adds the divisors d * (a product of slots >= first)
        for k in range(first, slots):
            p = fac[k, rows]
            # a row's slots ascend, so a row whose q is below this slot's prime is below every later one too
            keep = p <= q
            rows, q, p = rows[keep], q[keep], p[keep]
            if not rows.size:
                return
            nxt = q // p
            counts[rows] += sign * nxt
            add_multiples(rows, nxt, -sign, k + 1)

    add_multiples(np.arange(a.size), tail.astype(word), -1, 0)
    return counts, phi
