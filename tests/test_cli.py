import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import coinprimes
from coinprimes import bounds, cli, pistar, primes, semigroup, verify
from coinprimes.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compute_table(capsys, monkeypatch):
    # the table alone writes no record, so none is built
    monkeypatch.setattr(verify, "pair_columns", lambda *args: pytest.fail("record built but not written"))
    rc, out, _ = run(capsys, "compute", "--a", "3", "--b", "5")
    assert rc == 0
    assert "pi_star=2" in out and "pi_s=4" in out and "<3,5>" in out


def test_compute_rejects_noncoprime(capsys):
    rc, _, err = run(capsys, "compute", "--a", "4", "--b", "6")
    assert rc == 2
    assert "coprime" in err


def test_compute_all_methods(capsys):
    rc, out, _ = run(capsys, "compute", "--a", "5", "--b", "7", "--method", "all")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("pair=")]
    assert len(lines) == 3
    assert all("pi_star=5" in l for l in lines)


def test_compute_csv_and_jsonl(capsys):
    rc, out, _ = run(capsys, "compute", "--a", "3", "--b", "5", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == verify.CSV_HEADER
    assert out.splitlines()[1].startswith("3,5,7,2,4,")
    rc, out, _ = run(capsys, "compute", "--a", "3", "--b", "5", "--format", "jsonl")
    assert rc == 0
    obj = json.loads(out.splitlines()[0])
    assert obj["pi_star"] == 2 and obj["ms"] == 0


def test_compute_table_writes_csv_to_out(tmp_path, capsys):
    """Under --format table, the table goes to stdout and the CSV that --format csv prints goes to --out."""
    out = tmp_path / "c.csv"
    rc, table, _ = run(capsys, "compute", "--a", "7", "--b", "100", "--out", str(out))
    assert rc == 0 and table.startswith("pair=<7,100> ")
    rc, csv, _ = run(capsys, "compute", "--a", "7", "--b", "100", "--format", "csv")
    assert rc == 0
    assert out.read_text() == csv


def test_compute_all_methods_compare_pi_s(capsys, monkeypatch):
    """Methods that agree on pi_star but not on pi(s) disagree."""
    brute = pistar.pi_star_bruteforce
    monkeypatch.setattr(pistar, "pi_star_bruteforce", lambda *a, **k: dataclasses.replace(brute(*a, **k), pi_s=10))
    rc, out, _ = run(capsys, "compute", "--a", "5", "--b", "7", "--method", "all")
    assert rc == 1
    assert out == "FAIL: methods disagree on <5,7> (pi_star, pi_s): fast=(5, 9), residue-sum=(5, 9), brute-force=(5, 10)\n"


def test_compute_exact_margins(capsys):
    rc, out, _ = run(capsys, "compute", "--a", "3", "--b", "5", "--exact-margins")
    assert (rc, out) == (
        0,
        "pair=<3,5> s=7 pi_star=2 pi_s=4 ratio=0.5 method=fast\n"
        "thm2 margin: pi_star - rhs = -0.6979662974411913 (guarded verdict: false)\n",
    )
    rc, out, _ = run(capsys, "compute", "--a", "5", "--b", "7", "--exact-margins")
    assert (rc, out) == (
        0,
        "pair=<5,7> s=23 pi_star=5 pi_s=9 ratio=0.555556 method=fast\n"
        "thm2 margin: pi_star - rhs = 0.41539578450786063 (guarded verdict: true)\n",
    )
    # outside thm2's domain (a < 3) there is no margin to print
    rc, out, _ = run(capsys, "compute", "--a", "2", "--b", "7", "--exact-margins")
    assert (rc, out) == (0, "pair=<2,7> s=5 pi_star=2 pi_s=3 ratio=0.666667 method=fast\n")


def test_compute_exact_margins_keeps_out_of_the_record_stream(tmp_path, capsys, monkeypatch):
    """The margin is a text line: with --out it follows the records, and csv or jsonl on stdout exits 2 first."""
    for fmt in ("csv", "jsonl"):
        path = tmp_path / f"m.{fmt}"
        rc, out, _ = run(capsys, "compute", "--a", "5", "--b", "7", "--exact-margins", "--format", fmt, "--out", str(path))
        assert (rc, out) == (0, "thm2 margin: pi_star - rhs = 0.41539578450786063 (guarded verdict: true)\n")
        assert path.read_text().count("\n") == (2 if fmt == "csv" else 1)
    monkeypatch.setattr(pistar, "pi_star_fast", lambda *args: pytest.fail("method ran"))
    for fmt in ("csv", "jsonl"):
        rc, out, err = run(capsys, "compute", "--a", "5", "--b", "7", "--exact-margins", "--format", fmt)
        assert (rc, out) == (2, "") and "--exact-margins" in err and "--out" in err, fmt


def test_compute_brute_cap(capsys):
    rc, _, err = run(capsys, "compute", "--a", "3", "--b", "2000003", "--method", "brute", "--brute-cap", "1000")
    assert rc == 3
    assert "error:" in err


def test_compute_all_checks_the_brute_cap_first(capsys, monkeypatch):
    """--method all exits 3 on the brute-force cap before fast or residue sieves [2, s]."""
    monkeypatch.setattr(primes, "sieve_windows", lambda *args: pytest.fail("sieved before the cap check"))
    rc, out, err = run(capsys, "compute", "--a", "1840", "--b", "40781", "--method", "all")
    assert (rc, out, err) == (3, "", "error: s = 74994419 exceeds brute-force cap 10000000\n")


def test_compute_checks_the_sieve_cap_first(capsys, monkeypatch):
    """compute exits 3 when s passes bounds.X_MAX_CAP, before any method sieves, on every method."""
    monkeypatch.setattr(primes, "sieve_windows", lambda *args: pytest.fail("sieved before the cap check"))
    monkeypatch.setattr(primes, "sieve_segment", lambda *args: pytest.fail("sieved before the cap check"))
    pairs = [("3", "10000000000000000000"), ("30000000000", "30000000001"), ("3", "5000000000000000000")]
    for a, b in pairs:
        for method in ("fast", "residue", "brute", "all"):
            rc, out, err = run(capsys, "compute", "--a", a, "--b", b, "--method", method)
            s = int(a) * int(b) - int(a) - int(b)
            assert (rc, out, err) == (3, "", f"error: s = {s} exceeds cap {bounds.X_MAX_CAP}\n"), (a, b, method)


def test_gaps_output(capsys):
    rc, out, _ = run(capsys, "gaps", "--a", "3", "--b", "5")
    assert rc == 0
    assert out.splitlines() == ["1\t-", "2\tp", "4\t-", "7\tp"]
    rc, out, _ = run(capsys, "gaps", "--a", "2", "--b", "7")
    assert rc == 0
    assert out.splitlines() == ["1\t-", "3\tp", "5\tp"]


def test_gaps_checks_the_brute_cap_first(capsys, monkeypatch):
    """gaps past the brute-force cap exits 3 before it lists a gap or sieves."""
    monkeypatch.setattr(semigroup, "gaps", lambda *args: pytest.fail("gaps listed before the cap check"))
    monkeypatch.setattr(primes, "sieve_segment", lambda *args: pytest.fail("sieved before the cap check"))
    rc, out, err = run(capsys, "gaps", "--a", "1840", "--b", "40781")
    assert (rc, out, err) == (3, "", "error: s = 74994419 exceeds brute-force cap 10000000\n")


def test_gaps_streams_the_listing_of_every_window(capsys, monkeypatch):
    """With windows of a few numbers and slices of a few lines, gaps writes the listing that one
    pass over every number to s gives: membership by the Apery test, primality by trial division."""
    monkeypatch.setattr(cli, "_GAP_LINES", 3)
    for window in (1, 2, 7, 64):
        monkeypatch.setattr(primes, "DEFAULT_WINDOW", window)
        for a, b in ((3, 5), (2, 7), (7, 10), (10, 7), (13, 25), (5, 1), (2, 3)):
            pair = semigroup.new_pair(a, b)
            want = "".join(
                f"{n}\t{'p' if primes.is_prime(n) else '-'}\n" for n in range(1, pair.s + 1) if not semigroup.contains(pair, n)
            )
            assert run(capsys, "gaps", "--a", str(a), "--b", str(b)) == (0, want, ""), (window, a, b)


def test_gaps_empty(capsys):
    rc, out, _ = run(capsys, "gaps", "--a", "1", "--b", "5")
    assert rc == 0
    assert out == ""


def test_verify_coj2_small(capsys):
    rc, out, _ = run(capsys, "verify", "coj2", "--a-max", "4", "--b-max", "60", "--b-rule", "upto")
    assert rc == 0
    assert "PASS" in out
    assert "exception 3,5 (expected)" in out


def test_verify_coj2_partial_grid(capsys):
    # grid too small to contain (3,7); the expected set shrinks with it
    rc, out, _ = run(capsys, "verify", "coj2", "--a", "3", "--b-max", "6", "--b-rule", "upto")
    assert rc == 0
    assert "exception 3,4 (expected)" in out and "3,7" not in out


def test_verify_thm1_case(capsys):
    rc, out, _ = run(capsys, "verify", "thm1", "--case", "4")
    assert rc == 0
    assert "PASS: thm1 case 4" in out


def test_verify_thm3_single(capsys):
    rc, out, _ = run(capsys, "verify", "thm3", "--a", "3")
    assert rc == 0
    assert "PASS: thm3 a=3" in out


def test_verify_coj1_small(capsys):
    rc, out, _ = run(capsys, "verify", "coj1", "--a-max", "3", "--b-max", "30")
    assert rc == 0
    assert "equality 3,5 (expected)" in out


COJ2_HEAD = "coj2: checked 31 pairs, a in [3,4]\nexception 3,4 (expected)\n"
COJ1_HEAD = "coj1: a=1 family sampled at 100 values of b (all equalities)\nequality 2,3 (expected)\n"
# (argv, the catalogue patched in verify, exit code, stdout)
CATALOGUE_RUNS = [
    (
        "verify coj2 --a-max 4 --b-max 30",
        {"EXPECTED_COJ2_EXCEPTIONS": ((3, 4), (3, 7))},
        1,
        COJ2_HEAD + "exception 3,5 (UNEXPECTED)\nexception 3,7 (expected)\nFAIL: coj2 exception set does not match\n",
    ),
    (
        "verify coj2 --a-max 4 --b-max 30",
        {"EXPECTED_COJ2_EXCEPTIONS": ((3, 4), (3, 5), (3, 7), (4, 5))},
        1,
        COJ2_HEAD + "exception 3,5 (expected)\nexception 3,7 (expected)\nmissing expected exception 4,5\n"
        "FAIL: coj2 exception set does not match\n",
    ),
    (
        "verify thm3 --a 3",
        {"EXPECTED_COJ2_EXCEPTIONS": ((3, 4),)},
        1,
        "FAIL: thm3 a=3 (exceptions [(3, 4), (3, 5), (3, 7)] vs expected [(3, 4)]; "
        "equalities [(3, 5)] vs expected [(3, 5)]; direct checks to b=12)\n",
    ),
    (
        "verify coj1 --a-max 4",
        {"EXPECTED_COJ1_EQUALITIES": ((2, 3), (2, 5), (3, 5), (3, 8))},
        1,
        COJ1_HEAD + "equality 2,5 (expected)\nequality 3,5 (expected)\nmissing expected equality 3,8\n"
        "FAIL: coj1 scan does not match the expected equality set\n",
    ),
    (
        "verify coj1 --a-max 4",
        {"EXPECTED_COJ1_EQUALITIES": ((2, 3),)},
        1,
        COJ1_HEAD + "equality 2,5 (UNEXPECTED)\nequality 3,5 (UNEXPECTED)\n"
        "FAIL: coj1 scan does not match the expected equality set\n",
    ),
    # a catalogued pair is expected only when it is a row of the grid that ran: at a = 3 the exp-threshold
    # rule stops at b = 12, so (3, 20) is not missing, as an exception outside the coj2 grid is not
    (
        "verify coj1 --a-max 4",
        {"EXPECTED_COJ1_EQUALITIES": ((2, 3), (2, 5), (3, 5), (3, 20))},
        0,
        COJ1_HEAD + "equality 2,5 (expected)\nequality 3,5 (expected)\n"
        "PASS: coj1 strict everywhere except the expected equalities\n",
    ),
]


CATALOGUE_IDS = ["coj2-unexpected", "coj2-missing", "thm3-unexpected", "coj1-missing", "coj1-unexpected", "coj1-off-grid"]


@pytest.mark.parametrize("argv,catalogue,want_rc,want_out", CATALOGUE_RUNS, ids=CATALOGUE_IDS)
def test_found_pairs_are_diffed_against_the_catalogue(capsys, monkeypatch, argv, catalogue, want_rc, want_out):
    for name, pairs in catalogue.items():
        monkeypatch.setattr(verify, name, pairs)
    assert run(capsys, *argv.split()) == (want_rc, want_out, "")


# (argv, lines, last line, sha256 of the full stdout) under a kernel that counts no gap prime when b = 1 (mod 7)
PLANTED_VIOLATIONS = [
    (
        "verify thm2 --a-max 6 --b-max 60",
        22,
        "FAIL: thm2 exception set does not match",
        "851fca12609ad8974c4cdd12003995182501163f132a5fcbae1beabbfb910e21",
    ),
    (
        "verify thm1 --a-max 6 --b-max 60",
        23,
        "FAIL: thm1 grid check found violations",
        "602da65ad3982088d58c5e74bcb7c6f8858b431b6a109962f3c38290810d076b",
    ),
    ("verify thm1 --case 4", 196, "violation 15,176", "40bb83a597670bbc5011657b083cbb336833921f46dcb3f5f5012e252ce7eb63"),
    ("verify thm3 --a 5", 12, "violation 5,99", "b7d817964615fde6c95b4b31832e680494d5b150b6cb6de3c79cc963f9a207e4"),
    (
        "verify coj1 --a-max 6",
        35,
        "FAIL: coj1 scan does not match the expected equality set",
        "8ab4e8b0fd88075d403e2ca355bf7eb13e826b28e4795145b5233483fe7cc15b",
    ),
]


@pytest.mark.parametrize("argv,n_lines,last,want_sha256", PLANTED_VIOLATIONS, ids=[p[0] for p in PLANTED_VIOLATIONS])
def test_planted_violations_exit_1(capsys, monkeypatch, argv, n_lines, last, want_sha256):
    """Every target that reads the kernel reports the pairs whose counts were zeroed, and exits 1."""
    real = pistar.gap_prime_counts

    def kernel(a, bs, below=None):
        pi_star, pi_s = real(a, bs, below)
        pi_star[bs % 7 == 1] = 0
        return pi_star, pi_s

    monkeypatch.setattr(pistar, "gap_prime_counts", kernel)
    rc, out, err = run(capsys, *argv.split())
    lines = out.splitlines()
    assert (rc, len(lines), lines[-1], err) == (1, n_lines, last, "")
    assert "violation 5,8" in lines or "exception 5,8 (UNEXPECTED)" in lines
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha256


def test_thm1_case_3_reports_every_pair_without_low_gap_primes(capsys, monkeypatch):
    real = pistar.gap_prime_counts

    def kernel(a, bs, below=None):
        pi_star, pi_s = real(a, bs, below)
        return (pi_star if below is None else pi_star * 0), pi_s

    monkeypatch.setattr(pistar, "gap_prime_counts", kernel)
    rc, out, err = run(capsys, "verify", "thm1", "--case", "3")
    first, *rest = out.splitlines()
    want = "FAIL: thm1 case 3 (90482 pairs, 90482 failures; analytic min 0.042544 vs threshold 0.0425)"
    assert (rc, first, err) == (1, want, "")
    assert len(rest) == 90482 and rest[0] == "violation 16,17" and rest[-1] == "violation 180,997"
    assert hashlib.sha256(out.encode()).hexdigest() == "5a19ecc04d2b91b7aac83fe659df385971d3ecf94f3d745be7e717025d72c68a"


def test_verify_bounds_rs(capsys):
    rc, out, _ = run(capsys, "verify", "bounds", "--check", "rs", "--x-max", "1e5")
    assert rc == 0
    assert "rosser-schoenfeld" in out


# the value each verify flag is given below; None for a switch
FLAG_VALUES = {
    "--a": "3",
    "--a-max": "4",
    "--a-range": "3:4",
    "--b-max": "10",
    "--b-rule": "upto",
    "--case": "4",
    "--check": "rs",
    "--x-max": "1e5",
    "--samples": "5",
    "--seed": "1",
    "--format": "csv",
    "--out": "unused.csv",
    "--resume": "unused.jsonl",
    "--threads": "1",
    "--brute-cap": "100",
    "--cross-check": None,
}
A_FLAGS = ("--a", "--a-max", "--a-range")
SWEEP_FLAGS = ("--b-max", "--b-rule", "--format", "--out", "--resume", "--threads", "--brute-cap", "--cross-check")
READS = {
    "thm1": A_FLAGS + SWEEP_FLAGS + ("--case", "--samples"),
    "thm2": A_FLAGS + SWEEP_FLAGS,
    "coj2": A_FLAGS + SWEEP_FLAGS,
    "thm3": A_FLAGS,
    "coj1": ("--a-max", "--b-max"),
    "bounds": ("--check", "--x-max", "--samples", "--seed"),
}


def _flag(flag):
    return [flag] if FLAG_VALUES[flag] is None else [flag, FLAG_VALUES[flag]]


def test_each_target_takes_only_the_flags_it_reads(capsys):
    accepted = set()
    for target in READS:
        for flag in FLAG_VALUES:
            _, extras = build_parser().parse_known_args(["verify", target] + _flag(flag))
            if not extras:
                accepted.add((target, flag))
    assert len(accepted) == 44
    assert accepted == {(target, flag) for target, flags in READS.items() for flag in flags}
    for target, flags in READS.items():
        for flag in set(FLAG_VALUES) - set(flags):
            rc, out, err = run(capsys, "verify", target, *_flag(flag))
            assert (rc, out) == (2, ""), (target, flag)
            assert "unrecognized arguments" in err


def test_thm1_mode_rejects_the_other_modes_flags(capsys):
    for flag in SWEEP_FLAGS:
        rc, out, err = run(capsys, "verify", "thm1", "--case", "4", *_flag(flag))
        assert (rc, out) == (2, ""), flag
        assert f"thm1 case mode does not read {flag}" in err
    for flag in ("--case", "--samples"):
        rc, out, err = run(capsys, "verify", "thm1", "--a", "3", "--b-max", "30", *_flag(flag))
        assert (rc, out) == (2, ""), flag
        assert f"thm1 grid mode does not read {flag}" in err


def test_b_max_bounds_b_for_every_sweep_target(capsys):
    rc, out, _ = run(capsys, "verify", "coj2", "--a", "3", "--b-max", "1000")
    assert rc == 0
    assert out.splitlines()[0] == "coj2: checked 665 pairs, a in [3,3]"
    assert run(capsys, "verify", "coj2", "--a", "3", "--b-rule", "upto", "--b-max", "1000")[1] == out
    rc, out, _ = run(capsys, "verify", "thm1", "--a", "3", "--b-max", "30")
    assert (rc, out.splitlines()[0]) == (0, "thm1: checked 18 pairs, a in [3,3]")
    for rule in (verify.B_RULE_50A2, verify.B_RULE_EXP):
        rc, out, err = run(capsys, "verify", "thm2", "--a", "3", "--b-rule", rule, "--b-max", "1000")
        assert (rc, out) == (2, "") and "upto" in err


@pytest.mark.parametrize(
    "argv",
    [
        "verify coj2 --a 3 --a-max 20",
        "verify thm3 --a-range 3:4 --a 3",
        "verify thm1 --case 4 --samples 0",
        "verify thm1 --case 2 --samples 5",
        "verify thm1 --case 3 --samples 5",
        "verify thm1 --case 4 --samples 5",
        "verify bounds --samples 0",
        "verify bounds --samples -1",
    ],
)
def test_rejected_flag_combinations(capsys, argv):
    """Flags each target reads, in combinations or values it rejects (coj1 --a 3 is in the table above)."""
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (2, "")
    assert "error:" in err


def test_cross_check_disagreement_exits_1(capsys, monkeypatch):
    fast = pistar.pi_star_fast

    def off_by_one(pair):
        r = fast(pair)
        return dataclasses.replace(r, pi_star=r.pi_star + 1)

    monkeypatch.setattr(pistar, "pi_star_fast", off_by_one)
    rc, out, err = run(capsys, "verify", "coj2", "--a", "3", "--b-max", "10", "--cross-check")
    assert (rc, out) == (1, "")
    assert err.startswith("error: method disagreement at (3,4)") and "Traceback" not in err


def test_thm1_samples_is_read_by_case_1_and_all(capsys):
    for case in ("1", "all"):
        rc, out, _ = run(capsys, "verify", "thm1", "--case", case, "--samples", "5")
        assert rc == 0 and out.startswith("PASS: thm1 case 1 ("), case


def test_failed_runs_leave_no_out_file(tmp_path, capsys, monkeypatch):
    """A corrupt checkpoint (exit 4) or a --cross-check disagreement (exit 1) writes no --out file, partial or not."""
    out, bad = tmp_path / "out.csv", tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    argv = ("verify", "coj2", "--a-max", "5", "--b-max", "40", "--format", "csv", "--out", str(out))
    assert run(capsys, *argv, "--resume", str(bad))[0] == 4
    fast = pistar.pi_star_fast
    # a = 3 and 4 agree and are computed before a = 5 disagrees
    off = lambda pair: dataclasses.replace(fast(pair), pi_star=-1) if pair.a == 5 else fast(pair)  # noqa: E731
    monkeypatch.setattr(pistar, "pi_star_fast", off)
    assert run(capsys, *argv, "--cross-check")[0] == 1
    assert sorted(tmp_path.iterdir()) == [bad]


def test_out_writes_through_a_symlink(tmp_path, capsys):
    """--out is opened as given: a symlink stays a symlink, and its target gets the CSV."""
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    rc, _, _ = run(capsys, "verify", "coj2", "--a-max", "4", "--b-max", "30", "--format", "csv", "--out", str(link))
    assert rc == 0 and link.is_symlink()
    rc, csv, _ = run(capsys, "verify", "coj2", "--a-max", "4", "--b-max", "30", "--format", "csv")
    assert rc == 0 and target.read_text() == csv.split("coj2: checked")[0]


def test_verify_runs_one_sweep_with_every_pair(tmp_path, capsys, monkeypatch):
    """The CLI runs verify.sweep once per run, and its result holds every record the CLI writes."""
    results = []

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    real = verify.sweep
    monkeypatch.setattr(verify, "sweep", spy)
    out = tmp_path / "out.jsonl"
    rc, text, _ = run(capsys, "verify", "coj2", "--a-max", "6", "--format", "jsonl", "--out", str(out))
    assert rc == 0 and text.startswith("coj2: checked 2290 pairs, a in [3,6]\n")
    assert len(results) == 1
    written = [(obj["a"], obj["b"]) for obj in map(json.loads, out.read_text().splitlines())]
    assert written == [(r.a, r.b) for r in results[0].records] and len(written) == 2290


def test_bad_inputs(capsys, monkeypatch):
    rc, _, err = run(capsys, "verify", "thm3", "--a-range", "5:3")
    assert rc == 2
    rc, _, err = run(capsys, "verify", "thm3", "--a-range", "x:y")
    assert rc == 2
    rc, _, _ = run(capsys, "verify", "nothing")
    assert rc == 2
    # thm3 checks its whole a-range before any a runs; --threads takes a count of at least one
    bad = [("thm3", "--a-range", "9:11"), ("thm3", "--a-max", "2")]
    bad += [("coj2", "--a-max", "4", "--b-max", "10", "--threads", n) for n in ("0", "-3")]
    for argv in bad:
        rc, out, _ = run(capsys, "verify", *argv)
        assert (rc, out) == (2, ""), argv
    # the thm2 threshold is defined for a >= 3 only
    for argv in [("coj2", "--a", "2"), ("thm2", "--a-range", "2:5")]:
        assert run(capsys, "verify", *argv) == (2, "", f"error: {argv[0]} verification needs a >= 3\n"), argv
    for x_max in ("inf", "1e400", "nan"):
        rc, _, err = run(capsys, "verify", "bounds", "--x-max", x_max)
        assert rc == 2 and "--x-max" in err and "Traceback" not in err, x_max
    # a and b values are at least 1, checked as the flags are parsed; the last flag of each argv is the bad one
    nonpositive = [("thm1", "--a", "0"), ("thm1", "--b-max", "5", "--a", "-3"), ("coj2", "--a-max", "0")]
    nonpositive += [("thm1", "--a-range", "0:4"), ("coj2", "--a-max", "4", "--b-max", "-1")]
    nonpositive += [("coj1", "--a-max", "-5"), ("coj1", "--a-max", "3", "--b-max", "-4")]
    for argv in nonpositive:
        rc, out, err = run(capsys, "verify", *argv)
        assert (rc, out) == (2, "") and f"argument {argv[-2]}:" in err, argv
    # the brute-force cap is at least 0, and 0 skips brute force
    negative_cap = [("compute", "--a", "3", "--b", "5", "--method", "brute", "--brute-cap", "-1")]
    negative_cap += [("verify", "coj2", "--a", "3", "--b-max", "10", "--cross-check", "--brute-cap", "-5")]
    for argv in negative_cap:
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "") and "argument --brute-cap:" in err, argv
    assert run(capsys, "verify", "coj2", "--a", "3", "--b-max", "10", "--cross-check", "--brute-cap", "0")[0] == 0
    # the seed of the Montgomery-Vaughan draws is at least 0, checked as it is parsed
    rc, out, err = run(capsys, "verify", "bounds", "--seed", "-1", "--check", "mv")
    assert (rc, out) == (2, "") and "argument --seed:" in err
    # an empty --out or --resume path exits 2 as it is parsed, before any pair is counted
    empty_path = [("compute", "--a", "5", "--b", "7", *fmt, "--out", "") for fmt in ((), ("--format", "csv"))]
    empty_path += [("verify", "coj2", "--a-max", "4", "--b-max", "20", flag, "") for flag in ("--out", "--resume")]
    empty_path += [("verify", "thm1", "--a", "3", "--b-max", "20", "--resume", "", "--format", "csv")]
    for argv in empty_path:
        rc, out, err = run(capsys, *argv)
        flag = argv[argv.index("") - 1]
        assert (rc, out) == (2, "") and f"argument {flag}: must be a nonempty path" in err, argv
    # sizes past their caps exit 3 before any table is sieved, any sample drawn or any delta row built
    monkeypatch.setattr(primes, "primes_array", lambda *args: pytest.fail("prime table built"))
    monkeypatch.setattr(primes, "sieve_windows", lambda *args: pytest.fail("sieved"))
    monkeypatch.setattr(bounds, "_mv_draws", lambda *args: pytest.fail("samples drawn"))
    monkeypatch.setattr(verify, "reproduce_thm1_cases", lambda *args, **kwargs: pytest.fail("thm1 case run"))
    x_over, samples_over = str(bounds.X_MAX_CAP + 1), str(bounds.SAMPLES_CAP + 1)
    over = [("bounds", "--x-max", x, "--check", check) for x in ("1e30", x_over) for check in ("all", "rs", "mv")]
    over += [("bounds", "--samples", samples_over, "--check", check) for check in ("all", "ap", "mv")]
    over += [("thm1", "--samples", samples_over, "--case", case) for case in ("1", "all")]
    for argv in over:
        rc, out, err = run(capsys, "verify", *argv)
        assert (rc, out) == (3, "") and f"{argv[1]} = " in err and "exceeds cap" in err, argv
    # grids past bounds.GRID_CAP pairs exit 3 before any b column is built
    monkeypatch.setattr(verify, "grid_pairs", lambda *args: pytest.fail("grid built"))
    over_b = str(bounds.GRID_CAP + 4)
    grids = [("coj2", "--a", "3", "--b-max", "100000000000"), ("coj2", "--a-max", "100000"), ("thm2", "--a-max", "70")]
    grids += [("thm1", "--a", "1", "--b-max", over_b), ("coj2", "--a-max", "1000000000", "--b-max", "100000")]
    for argv in grids:
        rc, out, err = run(capsys, "verify", *argv)
        assert (rc, out) == (3, "") and "grid pairs = " in err and "exceeds cap" in err, argv


def test_the_grid_cap_admits_the_documented_grids(capsys):
    """Under the upto rule no a >= b_max has a pair, so a huge --a-max with a small --b-max runs at once."""
    rc, out, _ = run(capsys, "verify", "coj2", "--a-max", "1000000000", "--b-max", "10")
    assert rc == 0 and out.startswith("coj2: checked 18 pairs, a in [3,1000000000]\n")
    # coj2 --a-max 40 (654,912 coprime pairs) is the largest grid the README runs; thm1 --b-max N at a = 1
    assert verify.grid_size(verify.SweepConfig(a_min=3, a_max=40)) <= bounds.GRID_CAP
    at_cap = verify.SweepConfig(a_min=1, a_max=1, b_rule="upto", b_max=bounds.GRID_CAP + 1)
    assert verify.grid_size(at_cap) == bounds.GRID_CAP


def test_sieve_walk_past_the_cap_exits_3(capsys, monkeypatch):
    """One pair whose sieve walk, (a - 1) * b, passes bounds.X_MAX_CAP exits 3 before any window is sieved."""
    monkeypatch.setattr(primes, "sieve_segment", lambda *args: pytest.fail("sieved"))
    rc, out, err = run(capsys, "verify", "coj2", "--a", "40000", "--b-max", "40002")
    assert (rc, out) == (3, "") and "sieve bound = 1600039998" in err and "exceeds cap" in err
    assert "Traceback" not in err
    cfg = verify.SweepConfig(a_min=30000, a_max=30000, b_rule="upto", b_max=30002)
    assert verify.sieve_top(cfg) == 29999 * 30002 <= bounds.X_MAX_CAP
    assert verify.sieve_top(verify.SweepConfig(a_min=3, a_max=9, b_rule="exp-threshold")) == 7 * 5189  # a = 8, not the last a


def test_resume_rejects_impossible_counts(tmp_path, capsys):
    """A canonical line for (7, 30) claiming 100 primes up to s = 173 (there are 40) exits 4 and prints nothing."""
    ck = tmp_path / "ck.jsonl"
    ck.write_text(verify.record_to_json(verify.evaluate_pair(7, 30, 173, 60, 100)) + "\n")
    rc, out, err = run(capsys, "verify", "coj2", "--a", "7", "--b-max", "30", "--resume", str(ck), "--format", "csv")
    assert (rc, out) == (4, "") and "pi_s = 100 is more primes than fit up to s = 173" in err
    # at s < 2 no prime fits: (2, 3) has s = 1
    ck.write_text(verify.record_to_json(verify.evaluate_pair(2, 3, 1, 1, 1)) + "\n")
    rc, out, _ = run(capsys, "verify", "thm1", "--a", "2", "--b-max", "3", "--resume", str(ck), "--format", "csv")
    assert (rc, out) == (4, "")


@pytest.mark.parametrize("check", ["all", "rs", "ap", "mv"])
def test_verify_bounds_builds_no_table(capsys, monkeypatch, check):
    """Every check counts primes straight from the sieve bitmaps: no prime table and no array of primes."""
    monkeypatch.setattr(primes, "primes_array", lambda *args: pytest.fail("prime table built"))
    monkeypatch.setattr(primes, "prime_windows", lambda *args: pytest.fail("prime array built"))
    rc, out, _ = run(capsys, "verify", "bounds", "--check", check, "--x-max", "1e5", "--samples", "50")
    assert rc == 0 and out.startswith("PASS: ")


def test_verify_bounds_fail_prints_the_first_20_violations(capsys, monkeypatch):
    """A planted envelope that crosses the true counts exits 1 with the FAIL line and the first 20 reports,
    in row order, a row's lower side before its upper side."""
    real = bounds.ap_fixed_range_bounds

    def too_tight(x, m):
        lo, hi = real(x, m)
        return 1.08 * lo + (x % 7) * 0.02 * lo, lo + (x % 5) * 0.03 * lo

    monkeypatch.setattr(bounds, "ap_fixed_range_bounds", too_tight)
    rc, out, err = run(capsys, "verify", "bounds", "--check", "ap", "--x-max", "1e4")
    first, *rest = out.splitlines(keepends=True)
    assert (rc, first, err) == (1, "FAIL: ap-fixed-range (2560 checks, 1893 violations)\n", "")
    assert len(rest) == 20 and all(line.startswith("violation BoundReport(name='ap-") for line in rest)
    assert [line.partition(", lhs=")[0] for line in rest[4:6]] == [
        "violation BoundReport(name='ap-lower', inputs={'x': 153, 'm': 1, 'l': 0}",
        "violation BoundReport(name='ap-upper', inputs={'x': 153, 'm': 1, 'l': 0}",
    ]
    assert hashlib.sha256("".join(rest).encode()).hexdigest() == (
        "a89c29703b8634ac0c540db6e62cec02f6424b3e42374d801dad6bc539bafe6a"
    )


def test_verify_bounds_at_the_smallest_x_max(capsys):
    """Below 17 the Rosser-Schoenfeld grid is empty and exits 2; below 50 no modulus has a progression point."""
    rs = {17: "2", 49: "66", 50: "68"}
    for x_max in (16, 17, 49, 50):
        lines = {
            "rs": [f"PASS: rosser-schoenfeld ({rs[x_max]} checks, 0 violations)"] if x_max in rs else [],
            "ap": [f"PASS: ap-fixed-range ({2 * (x_max == 50)} checks, 0 violations)"],
            "mv": ["PASS: montgomery-vaughan (50 checks, 0 violations)"],
        }
        for check in ("rs", "ap", "all"):
            argv = ("verify", "bounds", "--check", check, "--x-max", str(x_max), "--samples", "50", "--seed", "1")
            rc, out, err = run(capsys, *argv)
            if x_max == 16 and check != "ap":
                want = f"error: --x-max must be at least 17 for --check {check}, got 16\n"
                assert (rc, out, err) == (2, "", want), argv
            else:
                want = lines[check] if check != "all" else lines["rs"] + lines["ap"] + lines["mv"]
                assert (rc, out, err) == (0, "".join(line + "\n" for line in want), ""), argv


def test_verify_bounds_mv_needs_x_max_at_least_1(capsys, monkeypatch):
    """The Montgomery-Vaughan draws take log x_max: below 1, --check mv exits 2 before any sample is drawn."""
    with monkeypatch.context() as m:
        m.setattr(bounds, "_mv_draws", lambda *args: pytest.fail("samples drawn"))
        for x_max, got in (("0", 0), ("-5", -5), ("0.5", 0)):
            argv = ("verify", "bounds", "--check", "mv", "--x-max", x_max)
            assert run(capsys, *argv) == (2, "", f"error: --x-max must be at least 1 for --check mv, got {got}\n"), argv
    rc, out, err = run(capsys, "verify", "bounds", "--check", "mv", "--x-max", "1", "--samples", "50", "--seed", "1")
    assert (rc, out, err) == (0, "PASS: montgomery-vaughan (50 checks, 0 violations)\n", "")


def test_corrupt_checkpoint_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    argv = ("verify", "coj2", "--a-max", "3", "--b-max", "10", "--b-rule", "upto", "--resume", str(bad))
    good = verify.record_to_dict(verify.evaluate_pair(3, 4, 5, 2, 3))
    # hand-edited records: counts that cannot be (pi_star > pi_s), and an infinite threshold
    tampered = [
        (json.dumps(dict(good, pi_star=7)) + "\n").encode(),
        json.dumps(good).replace('"thm2_rhs": ' + repr(good["thm2_rhs"]), '"thm2_rhs": 1e999').encode() + b"\n",
    ]
    assert b"1e999" in tampered[1]
    bad.write_text(json.dumps(good) + "\n")  # the untampered record is reused
    assert run(capsys, *argv)[0] == 0
    # not JSON, not UTF-8, nested past the parser's recursion limit, an integer past the digit limit
    for payload in [b"garbage\n", b'\xff\xfe{"schema": 1}\n', b"[" * 100_000 + b"\n", b"9" * 5000 + b"\n"] + tampered:
        bad.write_bytes(payload)
        rc, _, err = run(capsys, *argv)
        assert rc == 4, payload[:20]
        assert "error:" in err


def test_grid_csv_digest(tmp_path, capsys):
    """The coj2 grid a in [3,20], b <= 50a^2 (86,974 pairs): every byte, thm2_rhs digits included."""
    out = tmp_path / "grid.csv"
    rc, _, _ = run(capsys, "verify", "coj2", "--a-range", "3:20", "--format", "csv", "--out", str(out))
    assert rc == 0
    want = "b3f367dae0575f33ea77bcc8230bd1b8e9deadb8561c646d7ff5e7ddf3adf319"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_grid_resume_csv_digest(tmp_path, capsys):
    """The same grid resumed from a 90% checkpoint whose last line is torn: the same bytes."""
    ck = tmp_path / "ck.jsonl"
    fresh = tmp_path / "fresh.csv"
    argv = ("verify", "coj2", "--a-range", "3:20", "--resume", str(ck), "--format", "csv", "--out")
    assert run(capsys, *argv, str(fresh))[0] == 0
    lines = ck.read_text().splitlines(keepends=True)
    assert hashlib.sha256("".join(sorted(lines)).encode()).hexdigest() == (
        "75602f6aea551d6653c738c919321f9112f4a28c2bacd48f0034d6d30b959d79"
    )
    keep = set(random.Random(9).sample(range(len(lines)), round(0.9 * len(lines))))
    torn = next(line for i, line in enumerate(lines) if i not in keep)
    ck.write_text("".join(line for i, line in enumerate(lines) if i in keep) + torn[: len(torn) // 2])
    resumed = tmp_path / "resumed.csv"
    assert run(capsys, *argv, str(resumed))[0] == 0
    want = "b3f367dae0575f33ea77bcc8230bd1b8e9deadb8561c646d7ff5e7ddf3adf319"
    assert hashlib.sha256(resumed.read_bytes()).hexdigest() == want
    assert len(ck.read_text().splitlines()) == len(lines)


def test_import_leaves_mpmath_unloaded():
    """mpmath is imported only when a guard escalates to intervals, and multiprocessing only when a sweep
    runs a pool, not by importing the package."""
    src = os.path.dirname(os.path.dirname(coinprimes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, coinprimes, coinprimes.cli; print('mpmath' in sys.modules, 'multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False False\n"


def test_csv_out_threads_identical(tmp_path, capsys):
    one = tmp_path / "t1.csv"
    four = tmp_path / "t4.csv"
    rc1, _, _ = run(capsys, "verify", "coj2", "--a-max", "6", "--format", "csv", "--out", str(one))
    rc4, _, _ = run(capsys, "verify", "coj2", "--a-max", "6", "--format", "csv", "--out", str(four), "--threads", "4")
    assert rc1 == rc4 == 0
    assert one.read_bytes() == four.read_bytes()
    header = one.read_text().splitlines()[0]
    assert header == verify.CSV_HEADER


# (argv, exit code, sha256 of the full stdout): every byte these scan and sweep
# paths print is pinned, so a refactor of them cannot change the output unseen
GOLDEN = [
    ("verify thm3 --a-range 3:10", 0, "f5e541fc98f829519984ab736272f5d0cd5e1ee2d3ef08daa25a59261e4414bb"),
    ("verify coj1 --a-max 10", 0, "ee111942a044977e9bf8673a4ad2f6fef0b3f7e15cb2861d9cbb9f1753553014"),
    ("verify thm1 --case 3", 0, "e94f3db821643ca6e56228d84bf5790d126e31c5de3ee9775faf3214558a5744"),
    ("verify thm1 --case 4", 0, "1058fa7d6a133becf559ed71a7d64189b5e0094c767df6503ebd63c56d04ffcd"),
    (
        "verify thm1 --a-range 1:10 --b-rule upto --b-max 200 --format csv",
        0,
        "4db5ffb6728367ab0b3a644100eda63034ee720cc6caf55ebbcb2648097c61da",
    ),
    ("verify thm1 --case 1", 0, "835f522008394481af34fd2769b0feec6371e4b3e9357692d79d2caef500e9c2"),
    ("verify thm1 --case 2", 0, "d926a453ae5af08be667d5faca07860b46abdcbbfd0536158be11b715d0eec6f"),
    ("verify bounds --check all --seed 1", 0, "439f3ab07f575b6967b9c123c8baee5088f06f19b147787c8984d75a3101e486"),
]


@pytest.mark.parametrize("argv,want_rc,want_sha256", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(capsys, argv, want_rc, want_sha256):
    rc, out, _ = run(capsys, *argv.split())
    assert rc == want_rc
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha256, out[-2000:]


def test_public_names_resolve():
    for name in coinprimes.__all__:
        assert hasattr(coinprimes, name), name
