import json
import math
import struct
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinprimes import bounds, pistar, verify
from coinprimes.errors import CheckpointCorrupt, DomainError
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
    """Counts past int64 take object columns and Python's int and float rules, as the scalar evaluator does."""
    a, b = 2**40, 2**40 + 1
    for row in [(a, b, a * b - a - b, 10**20, 10**21), (3, 2**64, 2 * 2**64 - 3, 2**63, 2**64 + 1), (3, 4, 5, 2**70, 2**71)]:
        assert _fields(verify.evaluate_pair(*row)) == _fields(_evaluate_pair_oracle(*row))
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


def test_cross_check_is_independent_of_the_kernel():
    """A kernel that is off by one must fail the cross-check, so nothing it is compared with shares it."""
    kernel = pistar.gap_prime_counts
    with mock.patch.object(pistar, "gap_prime_counts", lambda *args: kernel(*args) + 1):
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
def test_iter_pair_stats_matches_fast(a_bs, small_blocks):
    """The batched kernel equals pi_star_fast pair by pair, in input order, across block edges."""
    a, bs = a_bs
    block_queries = max(1, 3 * (a - 1)) if small_blocks else verify._MAX_QUERIES
    with mock.patch.object(verify, "_MAX_QUERIES", block_queries):
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
    assert res.equalities == [(2, 3), (2, 5), (3, 5)]
    assert res.failures == []
    assert res.a1_family_checked == 100


def test_reproduce_thm3_smallest():
    rep = verify.reproduce_thm3(3)
    assert rep.passed
    assert rep.threshold_exceptions == [(3, 4), (3, 5), (3, 7)]
    assert rep.half_equalities == [(3, 5)]
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


def test_trim_torn_tail_reads_backwards(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_TAIL_BLOCK", 4)
    path = tmp_path / "ck.jsonl"
    cases = [
        (b"", b""),
        (b"one\ntwo\n", b"one\ntwo\n"),
        (b"one\ntwo\nthree is torn", b"one\ntwo\n"),
        (b"one\nx", b"one\n"),
        (b"no newline anywhere", b""),
        (b"\n" + b"t" * 13, b"\n"),
    ]
    for before, after in cases:
        path.write_bytes(before)
        verify._trim_torn_tail(str(path))
        assert path.read_bytes() == after, before
    verify._trim_torn_tail(str(tmp_path / "missing.jsonl"))
    assert not (tmp_path / "missing.jsonl").exists()


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
    assert set(loaded) == {(3, 4), (3, 5)}


def test_load_checkpoint_corrupt_line(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_text("this is not json\n")
    with pytest.raises(CheckpointCorrupt):
        verify.load_checkpoint(str(path))
    assert verify.load_checkpoint(str(tmp_path / "missing.jsonl")) == {}


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
    loaded = verify.load_checkpoint(str(path))
    assert sorted(_fields(rec) for rec in loaded.values()) == want
    assert [_fields(rec) for rec in verify.load_checkpoint(str(path), columns=True).records()] == want
    # all of them reused: the resumed sweep appends nothing and returns the fresh records
    before = path.read_bytes()
    resumed = verify.sweep(_small_cfg(a_min=2, checkpoint_path=str(path))).records
    assert [_fields(rec) for rec in resumed] == want[:-1]
    assert path.read_bytes() == before


# (payload after 1,000 good lines, the message the line-by-line parse gives for it)
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
    for columns in (False, True):
        with pytest.raises(CheckpointCorrupt) as err:
            verify.load_checkpoint(str(path), columns=columns)
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
    assert res.summary.coj2_exceptions == [(3, 4), (3, 5), (3, 7)]
    assert res.summary.coj1_failures == []
    assert res.summary.thm1_failures == []
    assert (3, 5) in res.summary.coj1_equalities


def test_sweep_empty_range():
    res = verify.sweep(verify.SweepConfig(a_min=7, a_max=6))
    assert res.records == []
    assert res.summary.n_pairs == 0
    assert res.summary.coj2_exceptions == []
    assert res.summary.coj1_equalities == []
    assert res.summary.coj1_failures == []
    assert res.summary.thm1_failures == []


def test_sweep_threads_deterministic():
    serial = verify.sweep(_small_cfg(a_max=8, b_max=80))
    threaded = verify.sweep(_small_cfg(a_max=8, b_max=80, workers=4))
    assert serial.records == threaded.records


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each task at submit."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def test_sweep_pool_size_is_bounded(monkeypatch):
    """--threads N asks for at most one process per task and per cpu; no real process is started."""
    monkeypatch.setattr(verify, "ProcessPoolExecutor", _InlineExecutor)
    serial = verify.sweep(_small_cfg())
    n_tasks = len(verify.grid_pairs(_small_cfg()))  # one task per a: every row is below the task size
    for cpus, workers, want in [(64, 5000, n_tasks), (2, 5000, 2), (64, 3, 3), (None, 5000, None), (64, 1, None)]:
        _InlineExecutor.sizes = []
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        assert verify.sweep(_small_cfg(workers=workers)).records == serial.records
        assert _InlineExecutor.sizes == ([] if want is None else [want])


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
