import json
import math
import struct
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinprimes import bounds, pistar, primes, verify
from coinprimes.cli import main
from coinprimes.errors import CheckpointCorrupt, DomainError, LimitExceeded
from coinprimes.semigroup import new_pair


def _evaluate_pair_oracle(a, b, s, pi_star, pi_s):
    """The scalar evaluator the column one replaced: Python ints, bounds.thm2_rhs, one guard call per pair."""
    amin = a if a <= b else b
    if amin >= 3 and s >= 2:
        rhs = bounds.thm2_rhs(amin, s)
        holds = bounds.pi_star_exceeds_thm2_rhs(pi_star, amin, s, rhs)
    else:
        rhs = math.nan
        holds = True
    thm1 = 100 * pi_star >= 4 * pi_s
    diff = 2 * pi_star - pi_s
    coj1 = verify.COJ1_STRICT if diff > 0 else verify.COJ1_EQUALITY if diff == 0 else verify.COJ1_FAIL
    coj2 = verify.COJ2_HOLDS if holds else verify.COJ2_EXCEPTION
    return verify.VerificationRecord(a, b, s, pi_star, pi_s, rhs, holds, thm1, coj1, coj2)


def _fields(rec):
    """Every field of a record, with thm2_rhs as its bit pattern so that nan compares equal to nan."""
    return (*(getattr(rec, k) for k in ("a", "b", "s", "pi_star", "pi_s")), struct.pack("<d", rec.thm2_rhs),
            rec.thm2_holds, rec.thm1_holds, rec.coj1_status, rec.coj2_status)


_I64 = 2**63 - 1


@st.composite
def _count_rows(draw):
    """(a, b, s, pi_star, pi_s): small a and b, b < a, s < 2, pi_star next to the thm2 threshold, counts near int64's edge."""
    a = draw(st.one_of(st.integers(1, 3), st.integers(1, 5000), st.integers(1, _I64)))
    b = draw(st.one_of(st.integers(1, 3), st.integers(1, 10**6), st.integers(1, _I64)))
    s = draw(st.one_of(st.integers(-(2**40), 3), st.integers(2, 10**9), st.integers(2, _I64)))
    pi_s = draw(st.one_of(st.integers(0, 200), st.integers(0, _I64)))
    amin = min(a, b)
    if amin >= 3 and s >= 2 and draw(st.booleans()):
        pi_star = max(0, int(bounds.thm2_rhs(amin, s)) + draw(st.integers(-1, 2)))
    else:
        pi_star = draw(st.one_of(st.integers(0, pi_s), st.just(pi_s // 2), st.just(-(-pi_s // 25)), st.integers(0, _I64)))
    return a, b, s, pi_star, pi_s


@pytest.mark.parametrize("rel_guard", [bounds.REL_GUARD, 1.0], ids=["guard", "every-row-escalates"])
@settings(max_examples=60, deadline=None)
@given(st.lists(_count_rows(), max_size=12))
@example([(3, 5, 7, 2, 4), (2, 5, 3, 1, 2), (1, 9, -1, 0, 0), (5, 3, 7, 2, 4), (7, 30, 173, 1, 40), (5, 7, 23, 5, 9)])
@example([(3, 10**6, 2 * 10**6 - 3, 0, 0), (4, 4, 1, 0, 0), (_I64, _I64, _I64, _I64, _I64), (3, 3, 2, 0, _I64)])
def test_verdict_columns_match_the_scalar_oracle(rel_guard, rows):
    """Every field of every row equals the scalar evaluator's; with REL_GUARD = 1 every row escalates to intervals."""
    want = [_fields(_evaluate_pair_oracle(*row)) for row in rows]
    cols = [np.array(col, dtype=np.int64) for col in zip(*rows)] or [np.zeros(0, dtype=np.int64)] * 5
    with mock.patch.object(bounds, "REL_GUARD", rel_guard):
        got = [_fields(rec) for rec in verify._verdict_columns(*cols).records()]
        one_row = [_fields(verify.evaluate_pair(*row)) for row in rows]
    assert got == want
    assert one_row == want


def test_evaluate_pair_past_int64_is_exact():
    """Counts past int64 take object columns and Python's int and float rules, as the scalar evaluator does.

    With REL_GUARD = 1 every row escalates, so the interval rows are built from the object columns' Python ints.
    """
    a, b = 2**40, 2**40 + 1
    rows = [(a, b, a * b - a - b, 10**20, 10**21), (3, 2**64, 2 * 2**64 - 3, 2**63, 2**64 + 1), (3, 4, 5, 2**70, 2**71)]
    s = 2 * 2**64 - 3
    rows += [(3, 2**64, s, int(bounds.thm2_rhs(3, s)), 2**64 + 1)]  # within REL_GUARD of the threshold
    for rel_guard in (bounds.REL_GUARD, 1.0):
        escalated = []
        real = bounds._interval_strictly_greater
        with mock.patch.object(bounds, "REL_GUARD", rel_guard), mock.patch.object(
            bounds, "_interval_strictly_greater", lambda lf, rf: escalated.append(1) or real(lf, rf)
        ):
            for row in rows:
                assert _fields(verify.evaluate_pair(*row)) == _fields(_evaluate_pair_oracle(*row))
        assert len(escalated) == 2 * (len(rows) if rel_guard == 1.0 else 1)
    with pytest.raises(OverflowError):
        verify.evaluate_pair(10**200, 10**200 + 1, 10**400 - 2 * 10**200 - 1, 2, 4)


@pytest.mark.parametrize("a,b", [(5, 3), (7, 2), (2, 9), (1, 4), (4, 1), (9, 4), (1, 1)])
def test_check_pair_small_and_reversed_pairs_match_the_oracle(a, b):
    """check_pair allows b < a and a in {1, 2}: amin = min(a, b) decides whether thm2 applies."""
    r = pistar.pi_star_fast(new_pair(a, b))
    want = _evaluate_pair_oracle(a, b, r.pair.s, r.pi_star, r.pi_s)
    assert _fields(verify.check_pair(a, b)) == _fields(want)


def test_evaluate_pair_known_exception():
    rec = verify.evaluate_pair(3, 5, 7, 2, 4)
    assert rec.thm2_rhs == pytest.approx(2.6979662974411913, rel=1e-13)
    assert not rec.thm2_holds
    assert rec.thm1_holds
    assert rec.coj1_status == verify.COJ1_EQUALITY
    assert rec.coj2_status == verify.COJ2_EXCEPTION


def test_evaluate_pair_small_a_is_vacuous():
    rec = verify.evaluate_pair(2, 5, 3, 1, 2)
    assert math.isnan(rec.thm2_rhs)
    assert rec.thm2_holds and rec.coj2_status == verify.COJ2_HOLDS
    assert rec.coj1_status == verify.COJ1_EQUALITY


def test_evaluate_pair_strict():
    rec = verify.evaluate_pair(5, 7, 23, 5, 9)
    assert rec.thm2_holds
    assert rec.coj1_status == verify.COJ1_STRICT
    assert rec.coj2_status == verify.COJ2_HOLDS


def test_check_pair_cross_methods():
    rec = verify.check_pair(5, 7, cross_check=True)
    assert (rec.pi_star, rec.pi_s, rec.s) == (5, 9, 23)
    rec2 = verify.check_pair(3, 10001, cross_check=True)
    assert rec2.pi_star == 1741


@pytest.mark.parametrize(
    "a,b,message",
    [(3, 10**12, f"s = {2 * 10**12 - 3} exceeds cap"), (1, 10**30, f"max\\(a, b\\) = {10**30} exceeds cap")],
    ids=["s", "b-of-a-1"],
)
def test_check_pair_checks_its_caps_before_it_sieves(monkeypatch, a, b, message):
    """s, or b where a = 1 makes s = -1, past bounds.X_MAX_CAP raises LimitExceeded before any sieve."""
    for name in ("sieve_segment", "sieve_windows", "prime_windows", "class_counts"):
        monkeypatch.setattr(primes, name, lambda *args: pytest.fail("sieved before the cap check"))
    with pytest.raises(LimitExceeded, match=message):
        verify.check_pair(a, b)


def test_cross_check_is_independent_of_the_kernel():
    """A kernel that is off by one must fail the cross-check, so nothing it is compared with shares it."""
    kernel = pistar.gap_prime_counts

    def off_by_one(*args):
        pi_star, pi_s = kernel(*args)
        return pi_star + 1, pi_s

    with mock.patch.object(pistar, "gap_prime_counts", off_by_one):
        assert verify.check_pair(5, 7).pi_star == 6
        for brute_cap in (pistar.BRUTE_FORCE_CAP, 0):
            with pytest.raises(RuntimeError, match="method disagreement"):
                verify.check_pair(5, 7, cross_check=True, brute_cap=brute_cap)


def test_exp_threshold_b_max():
    expected = {2: 6, 3: 12, 4: 32, 5: 102, 6: 363, 7: 1352, 8: 5189, 9: 2325, 10: 6687}
    for a, want in expected.items():
        assert verify.exp_threshold_b_max(a) == want
    for bad in (1, 11):
        with pytest.raises(DomainError):
            verify.exp_threshold_b_max(bad)


def test_b_limit_rules():
    assert verify.b_limit(verify.B_RULE_50A2, 7) == 2450
    assert verify.b_limit(verify.B_RULE_EXP, 9) == 2325
    assert verify.b_limit(verify.B_RULE_UPTO, 9, 44) == 44
    with pytest.raises(ValueError):
        verify.b_limit(verify.B_RULE_UPTO, 9)
    with pytest.raises(ValueError):
        verify.b_limit("no-such-rule", 9, 44)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.integers(0, 60), st.sampled_from(["upto", "50a2", "exp-threshold"]), st.integers(1, 400))
def test_grid_size_counts_every_b_of_the_rule(a_min, a_max, rule, b_max):
    """grid_size is the per-a count of b in (a, b_limit(a)] in closed form, and bounds the grid's coprime pairs."""
    if rule == verify.B_RULE_EXP:
        a_min, a_max = min(max(a_min, 2), 10), min(a_max, 10)  # the rule is defined there only
    cfg = verify.SweepConfig(a_min=a_min, a_max=a_max, b_rule=rule, b_max=b_max if rule == verify.B_RULE_UPTO else None)
    want = sum(max(0, verify.b_limit(rule, a, cfg.b_max) - a) for a in range(a_min, a_max + 1))
    assert verify.grid_size(cfg) == want
    pairs = verify.grid_pairs(cfg)
    assert sum(bs.size for bs in pairs.values()) <= want
    if rule == verify.B_RULE_UPTO:
        assert max(pairs, default=0) < b_max


def test_iter_pair_stats_matches_check_pair():
    a = 7
    bs = [b for b in range(8, 40) if math.gcd(a, b) == 1]
    for b, s, ps, pis in verify.iter_pair_stats(a, bs):
        rec = verify.check_pair(a, b)
        assert (s, ps, pis) == (rec.s, rec.pi_star, rec.pi_s)


@st.composite
def _a_and_bs(draw):
    a = draw(st.integers(1, 60))
    bs = draw(st.lists(st.integers(a + 1, a + 2500).filter(lambda b: math.gcd(a, b) == 1), max_size=25))
    return a, bs


@settings(max_examples=150, deadline=None)
@given(_a_and_bs(), st.booleans())
@example((1, [2, 5, 3]), False)
@example((2, [3, 5, 101, 7]), False)
@example((2, [3, 5, 101, 7]), True)
@example((3, [4, 5, 7, 8, 10, 11, 13]), True)
@example((60, [61]), False)
@example((37, [38, 1000, 39, 556, 40, 41, 2000, 42, 43, 44]), True)
def test_iter_pair_stats_matches_fast(a_bs, small_windows):
    """The batched kernel equals pi_star_fast pair by pair, in input order, across sieve window edges."""
    a, bs = a_bs
    window = 1 << 12 if small_windows else primes.DEFAULT_WINDOW
    with mock.patch.object(primes, "DEFAULT_WINDOW", window):
        got = list(verify.iter_pair_stats(a, bs))
    want = []
    for b in bs:
        r = pistar.pi_star_fast(new_pair(a, b))
        want.append((b, r.pair.s, r.pi_star, r.pi_s))
    assert got == want
    assert all(type(x) is int for row in got for x in row)


def test_iter_pair_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        list(verify.iter_pair_stats(6, [7, 9]))
    with pytest.raises(ValueError):
        list(verify.iter_pair_stats(3, [4, -1]))


def test_scan_coj2_exceptions_small():
    found = verify.scan_coj2_exceptions(4, b_rule=verify.B_RULE_UPTO, b_max=60)
    assert found == [(3, 4), (3, 5), (3, 7)]


def test_scan_coj1_equalities_small():
    res = verify.scan_coj1_equalities(3, b_max=30)
    assert res.equalities == res.expected_equalities == [(2, 3), (2, 5), (3, 5)]
    assert res.failures == []
    assert res.a1_family_checked == 100


def test_reproduce_thm3_smallest():
    rep = verify.reproduce_thm3(3)
    assert rep.passed
    assert rep.threshold_exceptions == rep.expected_threshold_exceptions == [(3, 4), (3, 5), (3, 7)]
    assert rep.half_equalities == rep.expected_half_equalities == [(3, 5)]
    assert rep.b_direct_max == 12
    assert rep.window_ok is None
    with pytest.raises(DomainError):
        verify.reproduce_thm3(11)


def test_reproduce_thm1_case4():
    rep = verify.reproduce_thm1_cases(4)
    assert rep.ok
    assert rep.n_pairs == 1345
    assert rep.computational_failures == []
    assert rep.analytic_min == pytest.approx(0.053341147809252275, rel=1e-12)
    with pytest.raises(ValueError):
        verify.reproduce_thm1_cases(5)


def test_record_csv_line():
    rec = verify.evaluate_pair(3, 5, 7, 2, 4)
    assert verify.record_to_csv(rec) == "3,5,7,2,4,2.69797,false,true,equality,exception,0"
    nan_rec = verify.evaluate_pair(2, 5, 3, 1, 2)
    assert verify.record_to_csv(nan_rec) == "2,5,3,1,2,nan,true,true,equality,holds,0"


def test_record_dict_roundtrip():
    rec = verify.evaluate_pair(5, 7, 23, 5, 9)
    d = verify.record_to_dict(rec)
    assert d["ms"] == 0  # canonical outputs never carry timing
    back = verify.record_from_dict(d)
    assert back == verify.evaluate_pair(5, 7, 23, 5, 9)
    nan_rec = verify.evaluate_pair(2, 5, 3, 1, 2)
    d2 = verify.record_to_dict(nan_rec)
    assert d2["thm2_rhs"] is None
    back2 = verify.record_from_dict(d2)
    assert math.isnan(back2.thm2_rhs)


def test_record_to_json_matches_json_dumps():
    recs = [
        verify.evaluate_pair(3, 5, 7, 2, 4),  # equality, exception
        verify.evaluate_pair(5, 7, 23, 5, 9),  # strict, holds
        verify.evaluate_pair(3, 5, 7, 1, 4),  # fail, thm1 holds
        verify.evaluate_pair(7, 30, 173, 1, 40),  # fail, exception, thm1 false
        verify.evaluate_pair(2, 5, 3, 1, 2),  # nan threshold
        verify.evaluate_pair(1, 9, -1, 0, 0),  # nan threshold, s < 2
    ]
    recs += verify.sweep(_small_cfg(a_min=2, b_max=300)).records
    statuses = {(r.coj1_status, r.coj2_status) for r in recs}
    assert {s for s, _ in statuses} == {verify.COJ1_STRICT, verify.COJ1_EQUALITY, verify.COJ1_FAIL}
    assert {s for _, s in statuses} == {verify.COJ2_HOLDS, verify.COJ2_EXCEPTION}
    assert any(math.isnan(r.thm2_rhs) for r in recs) and not all(r.thm1_holds for r in recs)
    for rec in recs:
        assert verify.record_to_json(rec) == json.dumps(verify.record_to_dict(rec))
    # record_to_dict parses record_to_json, so the check above only shows that the line is valid JSON in
    # json.dumps form; the pinned lines below are the oracle of the encoding
    pinned = [
        ("3,5,7,2,4,2.69797,false,true,equality,exception,0", "2.6979662974411913", "false", "true", "equality", "exception"),
        ("5,7,23,5,9,4.5846,true,true,strict,holds,0", "4.584604215492139", "true", "true", "strict", "holds"),
        ("3,5,7,1,4,2.69797,false,true,fail,exception,0", "2.6979662974411913", "false", "true", "fail", "exception"),
        ("7,30,173,1,40,19.583,false,false,fail,exception,0", "19.582952917784898", "false", "false", "fail", "exception"),
        ("2,5,3,1,2,nan,true,true,equality,holds,0", "null", "true", "true", "equality", "holds"),
        ("1,9,-1,0,0,nan,true,true,equality,holds,0", "null", "true", "true", "equality", "holds"),
    ]
    for rec, (csv, rhs, thm2, thm1, coj1, coj2) in zip(recs, pinned):
        assert verify.record_to_csv(rec) == csv
        assert verify.record_to_json(rec) == (
            f'{{"schema": 1, "a": {rec.a}, "b": {rec.b}, "s": {rec.s}, "pi_star": {rec.pi_star}, "pi_s": {rec.pi_s}, '
            f'"thm2_rhs": {rhs}, "thm2": {thm2}, "thm1": {thm1}, "coj1": "{coj1}", "coj2": "{coj2}", "ms": 0}}'
        )


def test_record_from_dict_rederives():
    good = verify.record_to_dict(verify.evaluate_pair(3, 5, 7, 2, 4))
    assert verify.record_from_dict(dict(good, ms=17)) == verify.evaluate_pair(3, 5, 7, 2, 4)
    tampered = [
        dict(good, s=8),  # s is not ab - a - b
        dict(good, pi_star=5),  # pi_star > pi_s
        dict(good, pi_star=-1),
        dict(good, pi_star=3),  # consistent counts, but the stored verdicts are of pi_star = 2
        dict(good, thm2=True),
        dict(good, coj1=verify.COJ1_STRICT),
        dict(good, coj2=verify.COJ2_HOLDS),
        dict(good, thm1=False),
        dict(good, thm2_rhs=math.inf),
        dict(good, thm2_rhs=math.nextafter(good["thm2_rhs"], 0.0)),  # one ulp off
        dict(good, thm2_rhs=None),
        dict(verify.record_to_dict(verify.evaluate_pair(2, 5, 3, 1, 2)), thm2_rhs=1.0),
        dict(good, a=10**200, b=10**200 + 1, s=10**400 - 2 * 10**200 - 1),  # thm2_rhs overflows a float
    ]
    for bad in tampered:
        with pytest.raises(CheckpointCorrupt):
            verify.record_from_dict(bad)


def test_record_from_dict_rejects_bad_shapes():
    good = verify.record_to_dict(verify.evaluate_pair(3, 5, 7, 2, 4))
    cases = []
    d = dict(good)
    d["extra"] = 1
    cases.append(d)
    d = dict(good)
    del d["pi_s"]
    cases.append(d)
    d = dict(good)
    d["schema"] = 2
    cases.append(d)
    d = dict(good)
    d["a"] = "3"
    cases.append(d)
    d = dict(good)
    d["thm2"] = "false"
    cases.append(d)
    d = dict(good)
    d["coj1"] = "tight"
    cases.append(d)
    d = dict(good)
    d["pi_star"] = True
    cases.append(d)
    for bad in cases:
        with pytest.raises(CheckpointCorrupt):
            verify.record_from_dict(bad)
    with pytest.raises(CheckpointCorrupt):
        verify.record_from_dict([1, 2])


def test_load_checkpoint_torn_tail(tmp_path):
    path = tmp_path / "ck.jsonl"
    recs = [verify.evaluate_pair(3, b, 3 * b - 3 - b, 0, 0) for b in (4, 5)]
    with open(path, "w") as fh:
        for r in recs:
            fh.write(json.dumps(verify.record_to_dict(r)) + "\n")
        fh.write('{"schema": 1, "a": 3, "b"')  # interrupted append
    loaded = verify.load_checkpoint(str(path))
    assert list(zip(loaded.a.tolist(), loaded.b.tolist())) == [(3, 4), (3, 5)]


@pytest.mark.parametrize("read_hint", [verify._READ_HINT, 700])
def test_load_checkpoint_cuts_only_a_torn_tail(tmp_path, monkeypatch, capsys, read_hint):
    """load_checkpoint leaves complete lines byte for byte, cuts a torn final line, creates no file, and cuts
    nothing when a complete line is corrupt: the cut comes only after every complete line has validated."""
    monkeypatch.setattr(verify, "_READ_HINT", read_hint)
    lines = [line + "\n" for line in verify.json_lines(verify.sweep(_small_cfg()).columns)]
    complete, torn = "".join(lines[:-1]).encode(), lines[-1][: len(lines[-1]) // 2].encode()
    path = tmp_path / "ck.jsonl"
    for before, after in ((complete, complete), (complete + torn, complete), (torn, b"")):
        path.write_bytes(before)
        loaded = verify.load_checkpoint(str(path))
        assert path.read_bytes() == after
        assert len(loaded.a) == after.count(b"\n")
    missing = tmp_path / "missing.jsonl"
    assert len(verify.load_checkpoint(str(missing)).a) == 0
    assert not missing.exists()
    corrupt = "".join(lines[:5] + ["garbage\n"] + lines[6:-1]).encode() + torn
    path.write_bytes(corrupt)
    with pytest.raises(CheckpointCorrupt, match=r"^line 6: invalid JSON \(Expecting value\)$"):
        verify.load_checkpoint(str(path))
    assert path.read_bytes() == corrupt
    # through the CLI: exit 4, the same message, no output file, and the checkpoint as it was
    out = tmp_path / "out.csv"
    argv = ["verify", "coj2", "--a-range", "3:6", "--b-max", "40", "--resume", str(path), "--format", "csv", "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr().err == "error: line 6: invalid JSON (Expecting value)\n"
    assert path.read_bytes() == corrupt and not out.exists()


def test_load_checkpoint_corrupt_line(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_text("this is not json\n")
    with pytest.raises(CheckpointCorrupt):
        verify.load_checkpoint(str(path))
    assert len(verify.load_checkpoint(str(tmp_path / "missing.jsonl")).a) == 0


def _variant_lines(recs):
    """The records' checkpoint lines, written four valid ways in turn: canonical, ms 17, keys reversed, compact."""
    out = []
    for i, rec in enumerate(recs):
        d = verify.record_to_dict(rec)
        out.append(
            [
                verify.record_to_json(rec),
                json.dumps(dict(d, ms=17)),
                json.dumps(dict(reversed(list(d.items())))),
                json.dumps(d, separators=(",", ":")),
            ][i % 4]
            + "\n"
        )
    return out


@pytest.mark.parametrize("read_hint", [verify._READ_HINT, 700])
def test_load_checkpoint_reuses_valid_noncanonical_lines(tmp_path, monkeypatch, read_hint):
    """Lines that differ from the canonical bytes but are valid records are reused, with the same records."""
    monkeypatch.setattr(verify, "_READ_HINT", read_hint)
    recs = verify.sweep(_small_cfg(a_min=2)).records
    a, b = 2**40, 2**40 + 1
    big = verify.evaluate_pair(a, b, a * b - a - b, 10**20, 10**21)  # valid, past int64
    dup = verify.evaluate_pair(3, 4, 5, 1, 3)  # an earlier line for a pair whose last line wins
    path = tmp_path / "ck.jsonl"
    path.write_text(verify.record_to_json(dup) + "\n" + "".join(_variant_lines(recs)) + verify.record_to_json(big) + "\n")
    want = [_fields(rec) for rec in recs + [big]]  # (a, b) order; the later line for (3, 4) wins
    assert [_fields(rec) for rec in verify.load_checkpoint(str(path)).records()] == want
    # all of them reused: the resumed sweep appends nothing and returns the fresh records
    before = path.read_bytes()
    resumed = verify.sweep(_small_cfg(a_min=2, checkpoint_path=str(path))).records
    assert [_fields(rec) for rec in resumed] == want[:-1]
    assert path.read_bytes() == before


def test_load_checkpoint_in_order_shuffled_and_duplicated(tmp_path, monkeypatch):
    """In-order lines load without a sort; the same lines shuffled, with stale duplicates, load to equal columns."""
    cols = verify.sweep(_small_cfg(a_min=2)).columns
    lines = [line + "\n" for line in verify.json_lines(cols)]
    pairs = list(zip(cols.a.tolist(), cols.b.tolist()))
    rng = np.random.default_rng(9)
    chosen = set(rng.choice(len(pairs), 20, replace=False).tolist())
    stale = [verify.record_to_json(verify.evaluate_pair(a, b, a * b - a - b, 0, 0)) + "\n" for a, b in map(pairs.__getitem__, chosen)]
    path = tmp_path / "ck.jsonl"
    path.write_text("".join(lines))
    with monkeypatch.context() as m:
        m.setattr(np, "lexsort", None)  # strictly increasing (a, b): returned as read
        in_order = verify.load_checkpoint(str(path))
    assert verify.json_lines(in_order) == verify.json_lines(cols)
    # stale lines first and a few lines twice: each pair's last line is the good one
    path.write_text("".join(stale + list(rng.permutation(lines)) + lines[::7]))
    assert verify.json_lines(verify.load_checkpoint(str(path))) == verify.json_lines(cols)
    # the stale lines last: they win
    path.write_text("".join(list(rng.permutation(lines)) + stale))
    loaded = verify.load_checkpoint(str(path))
    want = [(0, 0) if i in chosen else counts for i, counts in enumerate(zip(cols.pi_star.tolist(), cols.pi_s.tolist()))]
    assert list(zip(loaded.a.tolist(), loaded.b.tolist())) == pairs
    assert list(zip(loaded.pi_star.tolist(), loaded.pi_s.tolist())) == want


_BASE = verify.record_to_dict(verify.evaluate_pair(7, 30, 173, 1, 40))
_VALID = json.dumps(dict(_BASE, ms=17))  # valid, not canonical: reused
_FLIPPED = json.dumps(dict(_BASE, thm2=True))
_WRONG_S = json.dumps(dict(_BASE, s=174))
_TOO_BIG = json.dumps(dict(_BASE, a=3, b=5, s=7, pi_star=10**400, pi_s=10**400))


def _payload(*lines):
    return "".join(line + "\n" for line in lines).encode()


# (payload after 1,000 good lines, the message the line-by-line parse gives for it); each line of a
# multi-line payload is checked on its own, in file order, so the first bad one is reported
_BAD_AFTER_GOOD = [
    (b"garbage\n", "line 1001: invalid JSON (Expecting value)"),
    (b'\xff\xfe{"schema": 1}\n', "line 1001: invalid UTF-8"),
    ({"pi_star": 70}, "(7,30): counts pi_star = 70, pi_s = 40 out of order"),
    # canonical bytes whose verdicts are those of its counts, but the counts are out of order
    (
        verify.record_to_json(verify.evaluate_pair(7, 30, 173, 41, 40)).encode() + b"\n",
        "(7,30): counts pi_star = 41, pi_s = 40 out of order",
    ),
    ({"thm2": True}, "(7,30): fields ['thm2'] disagree with the counts"),
    ({"s": 174}, "(7,30): s = 174 is not a*b - a - b"),
    ({"extra": 1}, "unknown fields: ['extra']"),
    (b"9" * 5000 + b"\n", "line 1001: unreadable JSON (Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit)"),
    (_payload(_VALID, _FLIPPED, _WRONG_S), "(7,30): fields ['thm2'] disagree with the counts"),
    (_payload(_VALID, _WRONG_S, _FLIPPED), "(7,30): s = 174 is not a*b - a - b"),
    (_payload(_VALID, _TOO_BIG, _FLIPPED), "(3,5): cannot re-derive the verdicts (int too large to convert to float)"),
    (_payload(_FLIPPED, _TOO_BIG), "(7,30): fields ['thm2'] disagree with the counts"),
    (_payload(_VALID, _VALID, "garbage", _FLIPPED), "line 1003: invalid JSON (Expecting value)"),
    # canonical bytes whose counts are ordered and whose verdicts are theirs, but no s = 173 has 100 primes up to it
    (
        verify.record_to_json(verify.evaluate_pair(7, 30, 173, 60, 100)).encode() + b"\n",
        "(7,30): pi_s = 100 is more primes than fit up to s = 173",
    ),
    # the same counts in a line that is parsed: checked after its verdicts re-derive
    (
        _payload(_VALID, json.dumps(dict(verify.record_to_dict(verify.evaluate_pair(7, 30, 173, 60, 100)), ms=17))),
        "(7,30): pi_s = 100 is more primes than fit up to s = 173",
    ),
    # two canonical lines whose newline between them was lost: the first head, then data past one object
    (
        (verify.record_to_json(verify.evaluate_pair(7, 30, 173, 1, 40))
         + verify.record_to_json(verify.evaluate_pair(7, 31, 179, 1, 41)) + "\n").encode(),
        "line 1001: invalid JSON (Extra data)",
    ),
]


@pytest.mark.parametrize("read_hint", [verify._READ_HINT, 4096])
@pytest.mark.parametrize("payload,message", _BAD_AFTER_GOOD, ids=range(len(_BAD_AFTER_GOOD)))
def test_bad_line_after_good_lines_keeps_its_message(tmp_path, monkeypatch, read_hint, payload, message):
    monkeypatch.setattr(verify, "_READ_HINT", read_hint)
    good = [verify.record_to_json(verify.evaluate_pair(3, b, 2 * b - 3, 0, 0)) + "\n" for b in range(4, 4000) if b % 3]
    if isinstance(payload, dict):  # a line in the canonical form whose counts or fields are wrong
        rec = verify.record_to_dict(verify.evaluate_pair(7, 30, 173, 1, 40))
        payload = (json.dumps(dict(rec, **payload)) + "\n").encode()
    path = tmp_path / "ck.jsonl"
    path.write_bytes("".join(good[:1000]).encode() + payload + "".join(good[1000:1010]).encode())
    with pytest.raises(CheckpointCorrupt) as err:
        verify.load_checkpoint(str(path))
    assert str(err.value) == message



def _small_cfg(**kw):
    base = dict(a_min=3, a_max=6, b_rule=verify.B_RULE_UPTO, b_max=40, workers=1)
    base.update(kw)
    return verify.SweepConfig(**base)


def test_sweep_summary_and_order():
    res = verify.sweep(_small_cfg())
    keys = [(r.a, r.b) for r in res.records]
    assert keys == sorted(keys)
    assert res.summary.n_pairs == len(res.records)
    assert res.summary.coj2_exceptions == res.summary.expected_coj2_exceptions == [(3, 4), (3, 5), (3, 7)]
    assert res.summary.coj1_failures == []
    assert res.summary.thm1_failures == []
    assert (3, 5) in res.summary.coj1_equalities
    assert res.summary.expected_coj1_equalities == [(3, 5)]  # (2, 3) and (2, 5) are not rows of a >= 3


def test_sweep_empty_range():
    res = verify.sweep(verify.SweepConfig(a_min=7, a_max=6))
    assert res.records == []
    assert res.summary.n_pairs == 0
    assert res.summary.coj2_exceptions == res.summary.expected_coj2_exceptions == []
    assert res.summary.coj1_equalities == res.summary.expected_coj1_equalities == []
    assert res.summary.coj1_failures == []
    assert res.summary.thm1_failures == []


def test_sweep_threads_deterministic():
    serial = verify.sweep(_small_cfg(a_max=8, b_max=80))
    threaded = verify.sweep(_small_cfg(a_max=8, b_max=80, workers=4))
    assert serial.records == threaded.records


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and each task's (a, rows), and runs it at submit."""

    sizes = []
    tasks = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.tasks.append((args[0], len(args[1])))
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def test_sweep_pool_size_is_bounded(monkeypatch):
    """--threads N asks for at most one process per task and per cpu, and cuts about four tasks per process,
    the largest a first; no real process is started."""
    monkeypatch.setattr(verify, "ProcessPoolExecutor", _InlineExecutor)
    serial = verify.sweep(_small_cfg())
    n_pairs = serial.summary.n_pairs  # 82: on 128 cpus every task is one pair
    for cpus, workers, want in [(128, 5000, n_pairs), (64, 5000, 64), (2, 5000, 2), (64, 3, 3), (None, 5000, None), (64, 1, None)]:
        _InlineExecutor.sizes, _InlineExecutor.tasks = [], []
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        assert verify.sweep(_small_cfg(workers=workers)).records == serial.records
        assert _InlineExecutor.sizes == ([] if want is None else [want])
        a_order = [a for a, _ in _InlineExecutor.tasks]
        assert a_order == sorted(a_order, reverse=True)
        if want is not None:
            assert max(rows for _, rows in _InlineExecutor.tasks) == -(-n_pairs // (4 * want))


def test_grid_routes_build_no_table(monkeypatch):
    """A fresh sweep, a pooled sweep, thm1 case 3 and the thm3 window check count off sieve windows:
    no prime array is made."""
    want = verify.sweep(_small_cfg()).records
    monkeypatch.setattr(verify, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    made = AssertionError("prime array made")
    monkeypatch.setattr(primes, "primes_array", mock.Mock(side_effect=made))
    monkeypatch.setattr(primes, "prime_windows", mock.Mock(side_effect=made))
    assert verify.sweep(_small_cfg()).records == want
    _InlineExecutor.sizes = []
    assert verify.sweep(_small_cfg(workers=4)).records == want
    assert _InlineExecutor.sizes == [4]
    case3 = verify.reproduce_thm1_cases(3)
    assert case3.n_pairs > 0 and case3.computational_failures == []
    assert verify._strict_half_window_ok(9)


def test_sweep_checkpoint_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    full = verify.sweep(_small_cfg(checkpoint_path=str(path)))
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == full.summary.n_pairs
    # drop the tail and tear the last kept line in half, then resume
    with open(path, "w") as fh:
        fh.writelines(lines[:10])
        fh.write(lines[10][: len(lines[10]) // 2])
    resumed = verify.sweep(_small_cfg(checkpoint_path=str(path)))
    assert resumed.records == full.records
    # a second resume recomputes nothing but still returns everything
    again = verify.sweep(_small_cfg(checkpoint_path=str(path)))
    assert again.records == full.records


def test_tiny_blocks_keep_every_byte(tmp_path, monkeypatch):
    """BLOCK_ROWS = 3 and line slices of 3 rows cut tasks, kernel blocks and output inside each a:
    fresh, pooled and resumed CSV and JSONL outputs are unchanged."""

    def written(fmt, *extra):
        out = tmp_path / f"out.{fmt}"
        out.unlink(missing_ok=True)
        argv = ["verify", "coj2", "--a-max", "8", "--b-max", "60", "--format", fmt, "--out", str(out)]
        assert main(argv + list(extra)) == 0
        return out.read_bytes()

    want = {fmt: written(fmt) for fmt in ("csv", "jsonl")}
    monkeypatch.setattr(verify, "BLOCK_ROWS", 3)
    monkeypatch.setattr(verify, "_LINE_ROWS", 3)
    monkeypatch.setattr(verify, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    for fmt in want:
        assert written(fmt) == want[fmt]
        _InlineExecutor.sizes = []
        assert written(fmt, "--threads", "4") == want[fmt]
        assert _InlineExecutor.sizes == [4]
        ck = tmp_path / f"ck.{fmt}.jsonl"
        assert written(fmt, "--resume", str(ck)) == want[fmt]
        lines = ck.read_text().splitlines(keepends=True)
        # keep a = 5 up to two lines into its third block, tear the next line, and resume
        cut = [i for i, line in enumerate(lines) if '"a": 5,' in line][8]
        ck.write_text("".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2])
        assert written(fmt, "--resume", str(ck)) == want[fmt]
        assert sorted(ck.read_text().splitlines(keepends=True)) == sorted(lines)
        # the same resume through the pool: the reused rows of a = 5 merge with its new blocks by b
        ck.write_text("".join(lines[:cut]))
        assert written(fmt, "--resume", str(ck), "--threads", "4") == want[fmt]


def test_output_lines_are_built_one_slice_at_a_time(tmp_path, monkeypatch):
    """No call of csv_lines or json_lines, for the output or the checkpoint, gets more than _LINE_ROWS rows."""
    sizes = {}
    for name in ("csv_lines", "json_lines"):

        def spy(cols, name=name, real=getattr(verify, name)):
            sizes.setdefault(name, []).append(len(cols.a))
            return real(cols)

        monkeypatch.setattr(verify, name, spy)
    out, ck = tmp_path / "out.csv", tmp_path / "ck.jsonl"
    # a = 11, b <= 9000: 8,172 rows, two full slices of lines and a part
    argv = ["verify", "coj2", "--a", "11", "--b-max", "9000", "--resume", str(ck), "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    n = len(ck.read_text().splitlines())
    assert n == len(out.read_text().splitlines()) - 1 == 8172
    for name in ("csv_lines", "json_lines"):
        assert sum(sizes[name]) == n and max(sizes[name]) == verify._LINE_ROWS, name
