import json
import math

import pytest

from coinprimes import verify
from coinprimes.errors import CheckpointCorrupt, DomainError


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
