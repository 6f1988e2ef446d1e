import bisect
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinprimes import primes


def trial_primes(hi):
    """Primes below hi by trial division by the smaller primes up to the square root."""
    out = []
    for n in range(2, hi):
        if all(n % d for d in out[: bisect.bisect_right(out, math.isqrt(n))]):
            out.append(n)
    return out


def _windows():
    """Half-open windows [lo, hi): empty and single-number ones, either parity of lo,
    widths 1-3, windows straddling 2 and 3, and windows ending on a prime square."""
    out = [(0, 2), (0, 100), (1, 2), (2, 3), (90, 90), (97, 98), (10**4, 10**4 + 500), (10, 30), (23, 24), (24, 24)]
    out += [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)]
    out += [(lo, q * q + 1) for q in (7, 11, 19) for lo in range(q * q - 3, q * q + 1)]
    rng = random.Random(23)
    for _ in range(40):
        lo = rng.randrange(0, 10**4)
        out += [(lo, lo + width) for width in (1, 2, 3, rng.randrange(4, 400))]
    return out


WHEEL_PERIOD = 30_030  # 2 * 3 * 5 * 7 * 11 * 13: the odd-only wheel pattern repeats every this many numbers


def _wheel_windows():
    """Every window in [0, 64]; windows starting on a multiple of each wheel prime; windows
    crossing a multiple of the wheel period; and one window longer than two periods."""
    out = [(lo, hi) for hi in range(65) for lo in range(hi + 1)]
    for p in (3, 5, 7, 11, 13):
        for lo in (p, 2 * p, p * p, WHEEL_PERIOD - p, WHEEL_PERIOD + p, 2 * WHEEL_PERIOD + 7 * p):
            out += [(lo, lo + width) for width in (1, 2, 3, 2 * p + 1, 1000)]
    for k in (1, 2, 3):
        out += [(k * WHEEL_PERIOD - w, k * WHEEL_PERIOD + w) for w in (1, 2, 17, 500)]
    out.append((12_345, 12_345 + 2 * WHEEL_PERIOD + 777))
    return out


WINDOWS = _windows()
WHEEL_WINDOWS = _wheel_windows()
REFERENCE = trial_primes(max(hi for _, hi in WINDOWS + WHEEL_WINDOWS))


def reference_primes(lo, hi):
    return REFERENCE[bisect.bisect_left(REFERENCE, lo) : bisect.bisect_left(REFERENCE, hi)]


def segment_primes(lo, hi):
    return (np.flatnonzero(primes.sieve_segment(lo, hi)) + lo).tolist()


def test_sieve_segment_small_windows():
    for lo, hi in WINDOWS:
        assert segment_primes(lo, hi) == reference_primes(lo, hi), (lo, hi)


def test_prime_windows(monkeypatch):
    for window in (primes.DEFAULT_WINDOW, 1, 2, 3, 7, 64):
        monkeypatch.setattr(primes, "DEFAULT_WINDOW", window)
        for lo, hi in WINDOWS:
            arrays = list(primes.prime_windows(lo, hi))
            assert all(a.size and a.dtype == np.int64 and a[-1] - a[0] < window for a in arrays)
            assert [int(p) for a in arrays for p in a] == reference_primes(lo, hi), (lo, hi, window)
    monkeypatch.undo()
    for lo, hi in WINDOWS:
        assert primes.pi(hi - 1) == len(reference_primes(0, hi)), hi


def test_wheel_windows(monkeypatch):
    """The wheel pattern is laid down at every phase, its primes 3-13 are restored, and windows
    of the wheel period's size or just past it lose no prime at the seams."""
    for lo, hi in WHEEL_WINDOWS:
        assert segment_primes(lo, hi) == reference_primes(lo, hi), (lo, hi)
    for window in (primes.DEFAULT_WINDOW, 64, WHEEL_PERIOD // 2, WHEEL_PERIOD, WHEEL_PERIOD + 1):
        monkeypatch.setattr(primes, "DEFAULT_WINDOW", window)
        for lo, hi in WHEEL_WINDOWS:
            arrays = list(primes.prime_windows(lo, hi))
            assert all(a.size and a.dtype == np.int64 and a[-1] - a[0] < window for a in arrays)
            assert [int(p) for a in arrays for p in a] == reference_primes(lo, hi), (lo, hi, window)


def test_sieve_segment_random_windows():
    rng = random.Random(21)
    for _ in range(30):
        lo = rng.randrange(0, 10**6)
        hi = lo + rng.randrange(0, 3000)
        assert segment_primes(lo, hi) == [n for n in range(lo, hi) if primes.is_prime(n)]


def test_pi_point_values():
    assert primes.pi(1) == 0
    assert primes.pi(2) == 1
    assert primes.pi(10) == 4
    assert primes.pi(100) == 25
    assert primes.pi(10**6) == 78498
    assert primes.pi(10**7) == 664579
    assert primes.pi(10**8) == 5761455
    # x < 2 (negative too) gives 0, and a float x counts the primes up to its integer part
    assert primes.pi(-7) == primes.pi(1.99) == 0
    assert primes.pi(10.5) == 4 and primes.pi_ap(20.9, 4, 1) == 3


def test_pi_window_size_independent(monkeypatch):
    x = 10**5
    want = primes.pi(x)
    for window in (1 << 10, 1 << 14, 1 << 22):
        monkeypatch.setattr(primes, "DEFAULT_WINDOW", window)
        assert primes.pi(x) == want


def test_pi_monotone():
    rng = random.Random(22)
    for _ in range(50):
        x = rng.randrange(0, 10**5)
        y = x + rng.randrange(0, 10**4)
        assert primes.pi(x) <= primes.pi(y)


def test_primes_array_is_sorted_prefix():
    for limit, want in [(0, []), (1, []), (2, [2]), (3, [2, 3])]:
        arr = primes.primes_array(limit)
        assert arr.dtype == np.int64 and arr.tolist() == want, limit
    arr = primes.primes_array(10**4)
    assert arr[0] == 2 and arr[-1] <= 10**4
    assert len(arr) == primes.pi(10**4)
    assert np.all(np.diff(arr) > 0)
    # two independent builds: the smaller is a prefix of the larger
    bigger = primes.primes_array(10**5)
    assert len(bigger) == primes.pi(10**5)
    assert np.array_equal(bigger[: len(arr)], arr)
    # a table of several sieve windows, against the sieve bits directly
    x = 5 * 10**6
    assert np.array_equal(primes.primes_array(x), np.flatnonzero(primes.sieve_segment(0, x + 1)))


def _class_counts_reference(x, m, below):
    """Per-prime reference: the primes <= x by class mod m, each kept only below its class's cap if below is given."""
    p = primes.primes_array(max(x, 2))
    p = p[p <= x]
    res = p % m
    keep = np.ones(p.size, dtype=bool) if below is None else p < below[res]
    return np.bincount(res[keep], minlength=m).tolist(), p.size


def _window_edges(x):
    """Each sieve window's first odd entry and the numbers next to it, then 0, 2, 3 and x + 2;
    the next window's first entry is one past a window's last."""
    firsts = [max(t, 3) | 1 for t in range(0, x + 1, primes.DEFAULT_WINDOW)]
    return sorted({e + d for e in firsts for d in (-1, 0, 1, 2)} | {0, 2, 3, x + 2})


def test_class_counts_matches_per_prime_reference(monkeypatch):
    """Capped class counts from the bitmap columns equal a count over the primes, for moduli even and
    odd, one larger than a window's entries, and caps on and next to window edges; so do pi(x) and
    pi_ap(x, m, l), the uncapped one-cut walks, at the same window edges."""
    rng = np.random.default_rng(25)
    # wide: a modulus past a full window's window // 2 entries; at the default window a cap per class
    # would take seconds, so there only the windows of x <= 3 hold fewer entries than 97
    for window, wide in ((primes.DEFAULT_WINDOW, 97), (64, 65), (WHEEL_PERIOD // 2, 15_016), (WHEEL_PERIOD + 1, 30_032)):
        monkeypatch.setattr(primes, "DEFAULT_WINDOW", window)
        for x in (0, 1, 2, 3, window - 1, window, 2 * window + 1, 3 * window - 2):
            edges = np.array(_window_edges(x), dtype=np.int64)
            pi_x = primes.pi(x)
            for m in (1, 2, 3, 30, 97, wide):
                uncapped = _class_counts_reference(x, m, None)[0]
                for l in {0, 1, 2 % m, m - 1}:
                    assert primes.pi_ap(x, m, l) == uncapped[l % m], (window, x, m, l)
                caps = (
                    rng.choice(edges, size=m),
                    rng.integers(0, x + 3, size=m),
                    np.where(rng.random(m) < 0.5, rng.choice(edges, size=m), rng.integers(0, x + 3, size=m)),
                )
                for below in caps:
                    counts, total = primes.class_counts(x, m, below)
                    want, want_pi = _class_counts_reference(x, m, below)
                    assert counts.dtype == np.int64 and counts.tolist() == want, (window, x, m)
                    assert total == want_pi == pi_x, (window, x, m)
    with pytest.raises(ValueError):
        primes.class_counts(100, 0, np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        primes.pi_ap(100, 0, 1)


@st.composite
def _window_and_cuts(draw):
    """A window of 1-64 numbers and moduli in [1, 60], each with ascending cut points up to 3000:
    0 to 3, numbers next to a window's first number, any number, repeats among them."""
    window = draw(st.integers(1, 64))
    edge = st.builds(lambda k, d: max(k * window + d, 0), st.integers(0, 3000 // window), st.integers(-1, 2))
    point = st.one_of(st.integers(0, 3), edge, st.integers(0, 3000))
    moduli = draw(st.lists(st.integers(1, 60), unique=True, max_size=4))
    return window, {m: sorted(draw(st.lists(point, max_size=10))) for m in moduli}


SMALL_PRIMES = primes.primes_array(3003)


@settings(max_examples=80, deadline=None)
@given(_window_and_cuts())
@example((1, {1: [0, 1, 2, 3, 3, 3000], 2: [2, 2, 3], 60: [0, 5, 5, 64, 65]}))
@example((7, {59: [6, 7, 7, 8, 13, 14, 15], 30: [1, 2, 3, 4], 45: [3000]}))  # windows narrower than m
@example((64, {}))
@example((3, {4: [], 5: [0, 1]}))
def test_prefix_class_counts_property(case):
    """The walk's class counts at every cut equal a bincount of p % m over the primes up to the cut."""
    window, cuts = case
    with mock.patch.object(primes, "DEFAULT_WINDOW", window):
        got = primes.prefix_class_counts(cuts)
    assert got.keys() == cuts.keys()
    for m, xs in cuts.items():
        want = [np.bincount(SMALL_PRIMES[SMALL_PRIMES <= x] % m, minlength=m).tolist() for x in xs]
        assert got[m].dtype == np.int64 and got[m].shape == (len(xs), m) and got[m].tolist() == want, (window, m, xs)


def test_prefix_class_counts_refuses_bad_input():
    with pytest.raises(ValueError):
        primes.prefix_class_counts({3: [5, 4]})
    with pytest.raises(ValueError):
        primes.prefix_class_counts({0: [5]})


def test_pi_ap_point_values():
    assert primes.pi_ap(20, 4, 1) == 3  # 5, 13, 17
    assert primes.pi_ap(100, 3, 1) == 11
    assert primes.pi_ap(100, 3, 2) == 13
    # residue class sharing a factor with the modulus holds at most one prime
    assert primes.pi_ap(50, 10, 5) == 1  # just 5
    assert primes.pi_ap(50, 9, 3) == 1  # just 3
    assert primes.pi_ap(50, 8, 4) == 0


def test_pi_ap_partitions_pi():
    for m in (3, 4, 5, 7, 12, 30):
        for x in (10, 100, 1000, 12345):
            total = sum(primes.pi_ap(x, m, l) for l in range(m))
            assert total == primes.pi(x)


def test_pi_ap_reduces_residue():
    assert primes.pi_ap(100, 3, 7) == primes.pi_ap(100, 3, 1)


def test_is_prime_matches_sieve():
    flags = set(primes.primes_array(10**4).tolist())
    for n in range(10**4):
        assert primes.is_prime(n) == (n in flags)


def test_is_prime_large_values():
    assert primes.is_prime(2**61 - 1)
    assert not primes.is_prime(2**61 + 1)
    assert not primes.is_prime(561)  # Carmichael
    assert not primes.is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert primes.is_prime(10**18 + 9)
