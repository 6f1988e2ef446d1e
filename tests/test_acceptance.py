"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Each test prints its verdict line before asserting, so the line is visible
in the captured output of failing runs as well. Tolerances are pinned in
the assertions themselves; every expected value is either exact or frozen
from an independent computation.
"""

import math
import os
import subprocess
import sys

import numpy as np

from coinprimes import bounds, pistar, primes, semigroup, verify

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _line(n, label, ok):
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_three_methods_agree_up_to_150():
    bad = []
    n = 0
    for a in range(2, 150):
        for b in range(a + 1, 151):
            if math.gcd(a, b) != 1:
                continue
            pair = semigroup.new_pair(a, b)
            f = pistar.pi_star_fast(pair).pi_star
            r = pistar.pi_star_residue_sum(pair).pi_star
            bf = pistar.pi_star_bruteforce(pair).pi_star
            n += 1
            if not (f == r == bf):
                bad.append((a, b, f, r, bf))
    ok = _line(1, f"three methods agree on {n} pairs", not bad)
    assert ok, bad[:10]


def test_02_point_values_and_closed_forms():
    bad = []
    for b in range(1, 101):
        if pistar.pi_star_fast(semigroup.new_pair(1, b)).pi_star != 0:
            bad.append((1, b))
    for (a, b), want in [((2, 3), 0), ((2, 5), 1), ((3, 5), 2)]:
        if pistar.pi_star_fast(semigroup.new_pair(a, b)).pi_star != want:
            bad.append((a, b))
    table = primes.primes_array(10**4)
    for b in range(7, 10**4 + 1, 2):
        want = int(np.searchsorted(table, b - 2, side="right")) - 1
        if pistar.pi_star_fast(semigroup.new_pair(2, b)).pi_star != want:
            bad.append((2, b))
    ok = _line(2, "closed-form point values", not bad)
    assert ok, bad[:10]


def test_03_exception_scan_full_grid():
    found = verify.scan_coj2_exceptions(10)
    ok = _line(3, "threshold exceptions over the 50a^2 grid", found == [(3, 4), (3, 5), (3, 7)])
    assert ok, found


def test_04_equality_scan():
    res = verify.scan_coj1_equalities(10)
    good = (
        res.equalities == [(2, 3), (2, 5), (3, 5)]
        and res.failures == []
        and res.a1_family_checked == 100
    )
    ok = _line(4, "half-bound equality cases", good)
    assert ok, (res.equalities, res.failures)


def test_05_strict_half_direct_ranges():
    bad = []
    for a in (9, 10):
        hi = verify.exp_threshold_b_max(a)
        bs = [b for b in range(a + 1, hi + 1) if math.gcd(a, b) == 1]
        for b, s, ps, pis in verify.iter_pair_stats(a, bs):
            if not 2 * ps > pis:
                bad.append((a, b))
    ok = _line(5, "strict half bound on the a=9,10 direct ranges", not bad)
    assert ok, bad[:10]


def test_06_computational_branches():
    rep3 = verify.reproduce_thm1_cases(3)
    rep4 = verify.reproduce_thm1_cases(4)
    good = rep3.computational_failures == [] and rep4.computational_failures == []
    ok = _line(6, f"computational branches ({rep4.n_pairs} + {rep3.n_pairs} pairs)", good)
    assert ok, (rep3.computational_failures[:5], rep4.computational_failures[:5])


def test_07_delta_thresholds():
    rep1 = verify.reproduce_thm1_cases(1)
    rep2 = verify.reproduce_thm1_cases(2)
    rep3 = verify.reproduce_thm1_cases(3)
    good = (
        rep1.analytic_ok
        and rep2.analytic_ok
        and rep3.analytic_ok
        and rep2.analytic_min > 0.0401
        and rep3.analytic_min > 0.0425
        and rep1.analytic_min > 0.0445
    )
    ok = _line(7, "delta threshold minima", good)
    assert ok, (rep1.analytic_min, rep2.analytic_min, rep3.analytic_min)


def test_08_envelope_properties():
    rs = bounds.validate_rs_envelope(10**7)
    ap = bounds.validate_ap_envelope(10**7)
    mv = bounds.validate_mv_bound(samples=10**4)
    good = rs.ok and ap.ok and mv.ok
    ok = _line(8, f"bound envelopes ({rs.n_checked}+{ap.n_checked}+{mv.n_checked} checks)", good)
    assert ok, (rs.violations[:3], ap.violations[:3], mv.violations[:3])


def test_09_best_possible_factor_window():
    pair = semigroup.new_pair(3, 10**6 + 1)
    r = pistar.pi_star_fast(pair)
    ratio = r.pi_star * math.log(pair.s) / pair.s
    good = 0.75 < ratio < 0.79
    ok = _line(9, f"normalized count at b=10^6+1 inside (0.75, 0.79), got {ratio:.6f}", good)
    assert ok, ratio


def test_10_sweep_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    base = [sys.executable, "-m", "coinprimes", "verify", "coj2", "--a-max", "10", "--format", "csv"]

    t1 = tmp_path / "t1.csv"
    t8 = tmp_path / "t8.csv"
    r1 = subprocess.run(base + ["--threads", "1", "--out", str(t1)], env=env, capture_output=True, text=True)
    r8 = subprocess.run(base + ["--threads", "8", "--out", str(t8)], env=env, capture_output=True, text=True)
    threads_same = r1.returncode == 0 and r8.returncode == 0 and t1.read_bytes() == t8.read_bytes()

    # full run with a checkpoint, then a simulated kill: keep a prefix plus a
    # torn half line, resume, and demand the byte-identical report
    ck = tmp_path / "ck.jsonl"
    full = tmp_path / "full.csv"
    resumed = tmp_path / "resumed.csv"
    rf = subprocess.run(base + ["--resume", str(ck), "--out", str(full)], env=env, capture_output=True, text=True)
    lines = ck.read_text().splitlines(keepends=True)
    with open(ck, "w") as fh:
        fh.writelines(lines[:5000])
        fh.write(lines[5000][:40])
    rr = subprocess.run(base + ["--resume", str(ck), "--out", str(resumed)], env=env, capture_output=True, text=True)
    resume_same = rf.returncode == 0 and rr.returncode == 0 and full.read_bytes() == resumed.read_bytes()

    ok = _line(10, "csv identical across thread counts and kill-resume", threads_same and resume_same)
    assert ok, (r1.stderr, r8.stderr, rf.stderr, rr.stderr)
