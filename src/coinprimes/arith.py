"""Elementary arithmetic: factorization, multiplicative functions, coprime counts."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FactoredInteger:
    """Prime factorization of n as ascending (prime, exponent) pairs."""

    n: int
    factors: tuple


def factor(n: int) -> FactoredInteger:
    """Trial-division factorization. Intended for n up to ~10**12."""
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
    return FactoredInteger(n, tuple(out))


def phi_of(f: FactoredInteger) -> int:
    out = 1
    for p, e in f.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def euler_phi(n: int) -> int:
    return phi_of(factor(n))


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factor(n).factors)


def mobius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def squarefree_divisors(f: FactoredInteger):
    """All (d, mobius(d)) with d a squarefree divisor of f.n."""
    out = [(1, 1)]
    for p, _ in f.factors:
        out += [(d * p, -mu) for d, mu in out]
    return out


def coprime_count_up_to(t, a: int, factored: FactoredInteger = None) -> int:
    """Count v with 1 <= v <= t and gcd(v, a) = 1, by divisor inclusion-exclusion.

    t may be int, float, or Fraction; Fraction and int bounds are floored exactly.
    """
    if a < 1:
        raise ValueError("needs a >= 1")
    if t < 1:
        return 0
    f = factored if factored is not None else factor(a)
    total = 0
    as_float = isinstance(t, float)
    for d, mu in squarefree_divisors(f):
        q = math.floor(t / d) if as_float else t // d
        total += mu * int(q)
    return total
