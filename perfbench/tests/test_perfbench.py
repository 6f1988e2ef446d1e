"""Tests of the benchmark itself: failure accounting, output checks, traced counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests

They use small grids and pairs so that they finish in well under a minute.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coinprimes import verify  # noqa: E402


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def _small_grid_pins(a_lo, a_hi):
    csv, ckpt = workloads.grid_lines(a_lo, a_hi, verify)
    return len(ckpt), hashlib.sha256(csv.encode()).hexdigest(), workloads.sorted_digest(ckpt)


N_SMALL, CSV_SMALL, CKPT_SMALL = _small_grid_pins(3, 6)


class SmallGrid(workloads.GridSweep):
    A_RANGE = (3, 6)
    N_PAIRS = N_SMALL
    CSV_SHA256 = CSV_SMALL
    CKPT_SORTED_SHA256 = CKPT_SMALL


class SmallResume(workloads.GridResume):
    A_RANGE = (3, 6)
    N_PAIRS = N_SMALL
    CSV_SHA256 = CSV_SMALL
    CKPT_SORTED_SHA256 = CKPT_SMALL


class SmallBoth(workloads.Grid):
    A_RANGE = (3, 6)
    N_PAIRS = N_SMALL
    CSV_SHA256 = CSV_SMALL
    CKPT_SORTED_SHA256 = CKPT_SMALL


class SmallPairs(workloads.SinglePair):
    N_PAIRS = 3
    LOG10_S = (4.0, 5.0)
    A_RANGE = (3, 30)


class SmallAnalytic(workloads.AnalyticScan):
    COMMANDS = workloads.AnalyticScan.COMMANDS[:1]


class Tampered(SmallGrid):
    """Flips one byte of the CSV after the command wrote it, before the check reads it."""

    def commands(self):
        cmds = super().commands()
        csv_path = self.rundir / f"iter{self.iterations}" / "out.csv"
        for cmd in cmds:

            def check(stdout, real=cmd.check):
                data = bytearray(csv_path.read_bytes())
                data[len(data) // 2] ^= 1
                csv_path.write_bytes(bytes(data))
                return real(stdout)

            cmd.check = check
        return cmds


class Scripted(workloads.Workload):
    """Fixed commands: a bad pair (exit 2), a raise inside cli.main, then a good command."""

    name = "scripted"

    def commands(self):
        ok = workloads.AnalyticScan.COMMANDS[0]
        return [
            workloads.Command(["compute", "--a", "4", "--b", "6"], lambda out: None),
            workloads.Command(["verify", "bounds", "--check", "rs", "--x-max", "inf"], lambda out: None),
            workloads.Command(ok[0], lambda out: None if out == ok[1] else "wrong output"),
        ]


def test_small_grids_pass():
    for workload, commands in ((SmallGrid(), 1), (SmallResume(), 1), (SmallBoth(), 2)):
        result = run.run(workload, seed=3, seconds=0, trace=False)
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] == commands
        assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_wrong_pinned_digest_is_an_error(monkeypatch, capsys):
    class WrongDigest(SmallGrid):
        CSV_SHA256 = "0" * 64

    result = run.run(WrongDigest(), seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    monkeypatch.setitem(run.workloads.WORKLOADS, "grid", WrongDigest)
    assert run.main(["--workload", "grid", "--seed", "3", "--seconds", "0"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_tampered_output_byte_is_an_error(capsys):
    result = run.run(Tampered(), seed=3, seconds=0, trace=False)
    assert result["failed"] == result["attempted"] == 1
    assert "out.csv sha256" in capsys.readouterr().err


def test_failed_commands_are_counted_and_the_run_goes_on(capsys):
    result = run.run(Scripted(), seed=1, seconds=0, trace=False)
    assert (result["attempted"], result["failed"]) == (3, 2)
    err = capsys.readouterr().err
    assert "exit code 2" in err and "OverflowError" in err


def test_single_pair_draw_is_seeded_and_in_range():
    pairs = workloads.draw_pairs(5, 12, (7.0, 8.0), (3, 2000))
    assert pairs == workloads.draw_pairs(5, 12, (7.0, 8.0), (3, 2000))
    assert pairs != workloads.draw_pairs(6, 12, (7.0, 8.0), (3, 2000))
    for a, b in pairs:
        assert 3 <= a <= 2000 < b and math.gcd(a, b) == 1
        assert 10**7 <= a * b - a - b <= 1.001 * 10**8


@pytest.mark.parametrize("workload_cls", [SmallResume, SmallBoth, SmallPairs, SmallAnalytic])
def test_traced_counts_repeat_and_times_add_up(workload_cls):
    results = []
    for _ in range(2):
        result = run.run(workload_cls(), seed=7, seconds=0, trace=True)
        assert result["correct"], result
        assert set(result["metrics"]) == {name for name, _, _ in spans.PER_LAYER}
        summary = json.loads((run.OUT / "trace" / f"{workload_cls.name}.summary.json").read_text())
        m = summary["metrics"]
        self_times = sum(m[name] for name in set(spans.SELF_TIME.values()))
        assert self_times + m["trace.unattributed_s"] == pytest.approx(summary["traced_wall_s"], abs=1e-9)
        assert 0 <= m["trace.unattributed_s"] < 0.05 * summary["traced_wall_s"]
        results.append({name: result["metrics"][name]["value"] for name in spans.COUNTS})
    assert results[0] == results[1]
    if workload_cls is SmallResume:
        assert results[0]["verify.pairs_reused"] + results[0]["verify.pairs_computed"] == N_SMALL
        assert results[0]["verify.reuse_ratio"] == pytest.approx(0.9, abs=1e-3)
    if workload_cls is SmallBoth:
        assert results[0]["verify.pairs_reused"] + results[0]["verify.pairs_computed"] == 2 * N_SMALL
        assert results[0]["verify.reuse_ratio"] == pytest.approx(0.45, abs=1e-3)
    if workload_cls is SmallAnalytic:
        assert results[0]["bounds.delta_calls"] == 400


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
