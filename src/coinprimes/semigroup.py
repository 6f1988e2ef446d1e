"""Two-generator numerical semigroups: membership and gaps.

For coprime a, b the set {a*u + b*v : u, v >= 0} misses exactly
(a-1)(b-1)/2 positive integers, the largest being s = a*b - a - b.
Membership of n reduces to one comparison against the Apery element
in n's residue class mod a: n is representable iff n >= b * ((n * b^-1) mod a).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCoprime


@dataclass(frozen=True)
class SemigroupPair:
    a: int
    b: int
    s: int  # largest non-representable integer: a*b - a - b (-1 when a generator is 1)
    b_inv_mod_a: int  # inverse of b mod a; 0 when a == 1

    def __str__(self):
        return f"<{self.a},{self.b}>"


def new_pair(a: int, b: int) -> SemigroupPair:
    """Validated constructor; raises NotCoprime when gcd(a, b) > 1."""
    if a < 1 or b < 1:
        raise ValueError("generators must be positive")
    g = math.gcd(a, b)
    if g != 1:
        raise NotCoprime(f"gcd({a}, {b}) = {g}; generators must be coprime")
    b_inv = pow(b, -1, a) if a >= 2 else 0
    return SemigroupPair(a, b, a * b - a - b, b_inv)


def contains(pair: SemigroupPair, n: int) -> bool:
    """True iff n = a*u + b*v for some u, v >= 0."""
    if n < 0:
        return False
    if pair.a == 1:
        return True
    v0 = (n % pair.a) * pair.b_inv_mod_a % pair.a
    return n >= pair.b * v0


def apery_table(a: int, b: int, b_inv: int) -> np.ndarray:
    """The Apery set of <a, b> by class mod a (int64): n >= 0 is representable iff n >= table[n % a].

    Entry c is b * v with v = c * b^-1 mod a, the least element of the
    semigroup in class c; b_inv is the inverse of b mod a (0 when a == 1).
    """
    return b * (np.arange(a, dtype=np.int64) * b_inv % a)


def gap_bits(pair: SemigroupPair, lo: int, hi: int) -> np.ndarray:
    """Gap bits for the half-open window [lo, hi), 0 <= lo: bits[i] is True iff lo + i is not representable.

    Laid out as rows of a numbers, lo + r*a + j is a gap iff it is below the
    Apery element of its class, that is iff r < limit[j]: one comparison of
    the row numbers against a per-column limit, no per-number integers.
    """
    a, size = pair.a, max(hi - lo, 0)
    j = np.arange(a, dtype=np.int64)
    limit = -((lo + j - np.roll(apery_table(a, pair.b, pair.b_inv_mod_a), -(lo % a))) // a)  # ceil((apery - lo - j) / a)
    return (np.arange(-(-size // a))[:, None] < limit).ravel()[:size]


def gaps(pair: SemigroupPair) -> list:
    """All non-representable positive integers, ascending."""
    return (np.flatnonzero(gap_bits(pair, 1, pair.s + 1)) + 1).tolist()
