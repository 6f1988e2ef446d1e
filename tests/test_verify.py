import json
import math
from concurrent.futures import Future
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinprimes import pistar, verify
from coinprimes.errors import CheckpointCorrupt, DomainError
from coinprimes.semigroup import new_pair


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
