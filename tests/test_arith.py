import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinprimes import arith
from coinprimes.primes import is_prime


def test_factor_reconstructs_and_is_prime():
    rng = random.Random(12)
    values = [1, 2, 3, 4, 60001, 2**10, 3 * 5 * 7 * 11, 999983]
    values += [rng.randrange(2, 10**9) for _ in range(50)]
    for n in values:
        prod = 1
        last = 0
        for p, e in arith.factor(n):
            assert p > last  # ascending
            assert e >= 1
            assert is_prime(p)
            prod *= p**e
            last = p
        assert prod == n


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        arith.factor(0)


def test_euler_phi_brute():
    for n in range(1, 300):
        expected = sum(1 for v in range(1, n + 1) if math.gcd(v, n) == 1)
        assert arith.euler_phi(n) == expected


def test_coprime_count_matches_brute():
    rng = random.Random(13)
    for _ in range(100):
        a = rng.randrange(1, 500)
        t = rng.randrange(0, 2000)
        expected = sum(1 for v in range(1, t + 1) if math.gcd(v, a) == 1)
        assert arith.coprime_count_up_to(t, a) == expected


def test_coprime_count_fraction_and_float_bounds():
    # the count only depends on floor(t), and Fraction bounds floor exactly
    a = 60001
    n_int = arith.coprime_count_up_to(6000, a)
    n_frac = arith.coprime_count_up_to(Fraction(60001, 10), a)
    n_float = arith.coprime_count_up_to(6000.1, a)
    assert n_int == n_frac == n_float == 5792
    assert arith.coprime_count_up_to(Fraction(1, 2), 7) == 0
    assert arith.coprime_count_up_to(0, 7) == 0


# primes above the square root of most columns drawn below, on both sides of 2**31 (2**31 - 1 is prime)
_LARGE_PRIMES = (65537, 999983, 2**31 - 1, 2**31 + 11)


def _a_values():
    return st.one_of(
        st.just(1),
        st.integers(1, 10**6),
        st.integers(2**31 - 40, 2**31 + 40),
        st.builds(pow, st.sampled_from((2, 3, 7, 65537)), st.integers(1, 32)).filter(lambda n: n < 2**33),
        st.builds(operator.mul, st.integers(1, 3), st.sampled_from(_LARGE_PRIMES)),
    )


def _rows():
    """(t, a) with t anywhere from below 0 to past 2a."""
    return _a_values().flatmap(lambda a: st.tuples(st.integers(-3, 2 * a + 3), st.just(a)))


@settings(max_examples=40, deadline=None)
@given(st.lists(_rows(), min_size=1, max_size=12))
# int32 arithmetic at its largest max a; int64 at its least, with t at the int64 maximum
@example([(2**31 - 2, 2**31 - 1), (-1, 1), (5, 1), (40, 3**20)])
@example([(2**30, 2**31), (6 * 65537, 4 * 65537), (0, 999983), (2**63 - 1, 30030)])
def test_coprime_counts_match_the_scalar_count(rows):
    a_max = max(a for _, a in rows)
    # plus the largest multiple of the largest primorial <= max a, which has as many distinct primes as any a <= max a
    primorials = itertools.accumulate(arith._FIRST_PRIMES, operator.mul)
    widest = max(itertools.takewhile(lambda q: q <= a_max, primorials), default=1)
    widest *= a_max // widest
    assert len(arith.factor(widest)) == arith._max_omega(a_max)
    rows = [*rows, (a_max // 7, widest), (a_max + 1, widest)]
    t, a = (np.array(col, dtype=np.int64) for col in zip(*rows))
    counts, phi = arith.coprime_counts(t, a)
    assert counts.dtype == phi.dtype == np.int64
    assert counts.tolist() == [arith.coprime_count_up_to(int(x), int(n)) for x, n in rows]
    assert phi.tolist() == [arith.euler_phi(int(n)) for _, n in rows]
