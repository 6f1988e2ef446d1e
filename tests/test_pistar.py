import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinprimes import pistar, primes, semigroup
from coinprimes.errors import LimitExceeded


def test_point_values():
    expected = {
        (3, 5): 2,
        (2, 3): 0,
        (2, 5): 1,
        (3, 7): 3,
        (5, 7): 5,
        (11, 13): 17,
        (97, 101): 637,
        (3, 10001): 1741,
    }
    for (a, b), want in expected.items():
        pair = semigroup.new_pair(a, b)
        assert pistar.pi_star_fast(pair).pi_star == want
        assert pistar.pi_star_residue_sum(pair).pi_star == want
        assert pistar.pi_star_bruteforce(pair).pi_star == want


def test_result_fields():
    r = pistar.pi_star_fast(semigroup.new_pair(3, 5))
    assert r.pi_s == 4
    assert r.method == pistar.METHOD_FAST
    assert r.ratio_to_pi_s == 0.5
    # s = 1 leaves no primes below s, hence no ratio
    r0 = pistar.pi_star_fast(semigroup.new_pair(2, 3))
    assert r0.pi_s == 0 and r0.ratio_to_pi_s is None


def test_methods_agree_random_pairs():
    rng = random.Random(41)
    checked = 0
    while checked < 120:
        a = rng.randrange(2, 400)
        b = rng.randrange(a + 1, 2500)
        if math.gcd(a, b) != 1:
            continue
        pair = semigroup.new_pair(a, b)
        if pair.s > 10**6:
            continue
        f = pistar.pi_star_fast(pair).pi_star
        r = pistar.pi_star_residue_sum(pair).pi_star
        bf = pistar.pi_star_bruteforce(pair).pi_star
        assert f == r == bf, (a, b)
        checked += 1


@st.composite
def _pair_and_window(draw):
    a = draw(st.integers(1, 60))
    b_max = 200_000 if a == 1 else (200_000 + a) // (a - 1)  # keeps s = a*b - a - b <= 2e5
    b = draw(st.integers(1, b_max).filter(lambda b: math.gcd(a, b) == 1))
    return a, b, draw(st.integers(16, 4096))


@settings(max_examples=60, deadline=None)
@given(_pair_and_window())
@example((1, 7, 16))
@example((3, 5, 17))
@example((7, 33333, 4096))  # s = 199,991
@example((2, 9, 16))  # a = 2: one odd class, period 1
@example((30, 77, 64))  # even a: half the classes hold no odd prime
@example((45, 8, 16))  # b < a
def test_three_routes_agree_property(case):
    a, b, window = case
    pair = semigroup.new_pair(a, b)
    with mock.patch.object(primes, "DEFAULT_WINDOW", window):
        f = pistar.pi_star_fast(pair)
        r = pistar.pi_star_residue_sum(pair)  # many windows, each counted by its bitmap columns
    bf = pistar.pi_star_bruteforce(pair)
    assert (f.pi_star, f.pi_s) == (r.pi_star, r.pi_s) == (bf.pi_star, bf.pi_s), case


def test_symmetry_in_generators():
    for a, b in [(3, 5), (7, 5), (12, 25), (101, 97)]:
        x = pistar.pi_star_fast(semigroup.new_pair(a, b)).pi_star
        y = pistar.pi_star_fast(semigroup.new_pair(b, a)).pi_star
        assert x == y


def test_reversed_pairs_count_alike_on_every_route():
    """A pair and its reverse give the same (pi_star, pi_s) on fast, residue and brute force, and the
    residue route counts classes mod the smaller generator whichever order the pair is given in."""
    pairs = [(1, 7), (2, 9), (3, 5), (12, 25), (101, 97), (3, 200003), (1024, 4001)]
    with mock.patch.object(primes, "class_counts", wraps=primes.class_counts) as spy:
        for a, b in pairs:
            counts = set()
            for pair in (semigroup.new_pair(a, b), semigroup.new_pair(b, a)):
                for route in (pistar.pi_star_fast, pistar.pi_star_residue_sum, pistar.pi_star_bruteforce):
                    r = route(pair)
                    counts.add((r.pi_star, r.pi_s))
            assert len(counts) == 1, (a, b, counts)
    assert [c.args[1] for c in spy.call_args_list] == [min(a, b) for a, b in pairs for _ in range(2)]


def test_closed_forms():
    # <1, y> misses nothing; <2, y> misses the odd numbers below y, so pi(y - 2) - 1 primes for y >= 5
    for b in (3, 11):
        assert pistar.pi_star_fast(semigroup.new_pair(1, b)).pi_star == 0
        assert pistar.pi_star_fast(semigroup.new_pair(b, 1)).pi_star == 0
    assert pistar.pi_star_fast(semigroup.new_pair(2, 3)).pi_star == 0
    assert pistar.pi_star_fast(semigroup.new_pair(3, 2)).pi_star == 0
    rng = random.Random(42)
    for _ in range(60):
        b = rng.randrange(5, 10**4) | 1
        assert pistar.pi_star_fast(semigroup.new_pair(2, b)).pi_star == primes.pi(b - 2) - 1
        assert pistar.pi_star_fast(semigroup.new_pair(b, 2)).pi_star == primes.pi(b - 2) - 1


def test_bruteforce_cap():
    pair = semigroup.new_pair(3, 10**6 + 1)
    with pytest.raises(LimitExceeded):
        pistar.pi_star_bruteforce(pair, cap=10**5)


def test_pi_star_never_exceeds_pi_s():
    rng = random.Random(43)
    for _ in range(60):
        a = rng.randrange(1, 200)
        b = rng.randrange(1, 2000)
        if math.gcd(a, b) != 1:
            continue
        r = pistar.pi_star_fast(semigroup.new_pair(a, b))
        assert 0 <= r.pi_star <= r.pi_s


def test_gap_primes_are_the_prime_gaps():
    # pi_star equals the number of primes in the explicit gap list
    for a, b in [(3, 5), (5, 7), (11, 24), (29, 60)]:
        pair = semigroup.new_pair(a, b)
        want = sum(1 for n in semigroup.gaps(pair) if primes.is_prime(n))
        assert pistar.pi_star_fast(pair).pi_star == want


def test_count_gap_primes_matches_contains():
    """The class-table count over random chunks of the primes <= s is the count of primes
    semigroup.contains rejects, for every a in [1, 40]; the primes dividing a get a chunk of their own."""
    rng = random.Random(45)
    for a in range(1, 41):
        b = rng.choice([b for b in range(max(a + 1, 5), 4000 // a + 60) if math.gcd(a, b) == 1])
        pair = semigroup.new_pair(a, b)
        table = primes.primes_array(max(pair.s, 2))
        table = table[table <= pair.s]
        want = sum(1 for p in table.tolist() if not semigroup.contains(pair, p))
        own = a % table == 0
        rest = table[~own]
        cuts = sorted(rng.sample(range(rest.size + 1), min(rest.size + 1, rng.choice([0, 1, 3, 10]))))
        chunks = [table[own]] + np.split(rest, cuts)
        got = sum(pistar.count_gap_primes(chunk, a, b, pair.b_inv_mod_a) for chunk in chunks)
        assert got == want == pistar.pi_star_fast(pair).pi_star, (a, b)


@st.composite
def _a_bs_and_window(draw):
    a = draw(st.integers(1, 60))
    b_max = 4000 if a == 1 else (4000 + a) // (a - 1)  # keeps the walk's top, about (a - 1) * b, near 4000
    bs = draw(st.lists(st.integers(1, b_max).filter(lambda b: math.gcd(a, b) == 1), max_size=12))
    return a, bs, draw(st.integers(1, 300))


@settings(max_examples=80, deadline=None)
@given(_a_bs_and_window())
@example((1, [3, 1, 2], 1))
@example((2, [9, 1, 3, 5], 1))  # a window narrower than a is one row of a numbers
@example((7, [3, 40, 8, 1, 600], 5))
@example((30, [77, 31, 1, 133], 64))  # even a: half the classes hold no odd prime
@example((60, [61, 7, 67, 1], 59))
@example((5, [], 3))
def test_gap_prime_counts_matches_fast_property(case):
    """The windowed kernel gives pi_star_fast's (pi_star, pi_s) for unsorted b, with windows of any width."""
    a, bs, window = case
    with mock.patch.object(primes, "DEFAULT_WINDOW", window):
        pi_star, pi_s = pistar.gap_prime_counts(a, np.array(bs, dtype=np.int64))
    want = [pistar.pi_star_fast(semigroup.new_pair(a, b)) for b in bs]
    assert list(zip(pi_star.tolist(), pi_s.tolist())) == [(r.pi_star, r.pi_s) for r in want], case


def test_gap_prime_counts_capped_queries():
    """Capped queries count the prime gaps below the cap, as thm1 case 3 asks of the kernel; pi_s stays pi(s)."""
    rows = [(3, [4, 5, 7, 8, 10, 11]), (5, [6, 7, 8, 9, 11, 12, 13]), (7, [8, 9, 10, 11, 12, 13, 30]), (11, [12, 13, 25])]
    for window in (primes.DEFAULT_WINDOW, 1, 7):
        with mock.patch.object(primes, "DEFAULT_WINDOW", window):
            for a, bs in rows:
                bs = np.array(bs[::-1] if window == 7 else bs, dtype=np.int64)
                s = a * bs - a - bs
                for below in (np.full(bs.size, 3), bs // 2, s // 20 + 1, s // 3, s + 1, 2 * s + 50):
                    got, pi_s = pistar.gap_prime_counts(a, bs, below)
                    assert pi_s.tolist() == [primes.pi(x) for x in s.tolist()]
                    for b, cap, count in zip(bs.tolist(), below.tolist(), got.tolist()):
                        gaps = semigroup.gaps(semigroup.new_pair(a, b))
                        assert count == sum(1 for n in gaps if n < cap and primes.is_prime(n)), (a, b, cap, window)
    # <3,5> has the prime gaps 2 and 7 (s = 7), and b*v runs over 5 and 10
    for cap, want in [(3, 1), (7, 1), (8, 2), (10**6, 2)]:
        assert pistar.gap_prime_counts(3, np.array([5]), np.array([cap]))[0].tolist() == [want]


def test_single_pair_routes_build_no_table():
    """pi_star_residue_sum and pi_ap count the sieve windows' bits: no prime array is made."""
    pair = semigroup.new_pair(1024, 10**4 + 1)  # s spans several sieve windows
    made = AssertionError("prime array made")
    with mock.patch.object(primes, "primes_array", side_effect=made), mock.patch.object(
        primes, "prime_windows", side_effect=made
    ):
        r = pistar.pi_star_residue_sum(pair)
        assert primes.pi_ap(pair.s, 4, 1) + primes.pi_ap(pair.s, 4, 3) + 1 == r.pi_s == primes.pi(pair.s)
    assert r.pi_star == pistar.pi_star_fast(pair).pi_star


def test_prime_layer_keeps_no_table():
    """Tables belong to their callers: after building and counting, the wheel is the module's only array."""
    primes.primes_array(10**5)
    primes.pi(10**6)
    pistar.pi_star_fast(semigroup.new_pair(7, 10**5 + 3))
    assert [name for name, v in vars(primes).items() if isinstance(v, np.ndarray)] == ["_WHEEL"]


def test_best_factor_direction():
    # the spread between pi_star and pi(s)/2 narrows slowly; the half factor
    # stays a genuine lower bound at this scale
    pair = semigroup.new_pair(3, 10**6 + 1)
    r = pistar.pi_star_fast(pair)
    ratio = r.pi_star * math.log(pair.s) / pair.s
    assert ratio > 0.75
