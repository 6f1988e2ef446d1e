"""The package names and commands the benchmark harness under perfbench/ uses still resolve.

perfbench/spans.py replaces each (module, function) of its WRAPPED table with a
timing wrapper, and perfbench/workloads.py re-derives the pinned grid lines
with verify.evaluate_pair, record_to_csv, record_to_dict and CSV_HEADER,
checks its grid by brute force with semigroup.new_pair and
pistar.pi_star_bruteforce, and runs its commands through cli.main, as
perfbench/worker.py does, which also reads bounds.REL_GUARD. A rename or deletion of one of these
names, a CLI change that rejects one of those commands, or a change to the
stdout the analytic-scan workload pins, breaks the benchmark, not these
modules' own tests, so it is checked here. spans.py and
workloads.py are loaded from their files, unchanged. So is the claim that
every checkpoint line the program writes is reused by the byte comparison
of verify._checkpoint_block, never parsed line by line.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
from test_verify import _InlineExecutor

from coinprimes import bounds, cli, pistar, primes, semigroup, verify

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve():
    spans = _load("spans")
    assert spans.WRAPPED
    for mod_name, fn_name in spans.WRAPPED:
        module = importlib.import_module(f"coinprimes.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    # the workloads' other names: evaluate_pair, record_to_csv and record_to_dict are wrapped above; the grid
    # oracle builds its pairs with new_pair and counts them by brute force, and worker.py runs cli.main and
    # hands spans.install bounds.REL_GUARD
    assert isinstance(verify.CSV_HEADER, str)
    assert callable(pistar.pi_star_bruteforce) and callable(semigroup.new_pair) and callable(cli.main)
    assert isinstance(bounds.REL_GUARD, float)


# The leading positional parameters whose values spans._attrs and spans.install read, by position,
# from each call: the chunk's size, the sieved range, the table limit and the checkpoint paths.
READ_BY_POSITION = {
    ("pistar", "count_gap_primes"): ("chunk",),
    ("primes", "prime_windows"): ("lo", "hi"),
    ("primes", "primes_array"): ("limit",),
    ("verify", "load_checkpoint"): ("path",),
    ("verify", "sweep"): ("cfg",),
}


def test_traced_arguments_keep_their_positions():
    """A parameter moved or renamed away would leave pistar.primes_scanned or primes.numbers_sieved reading 0."""
    spans = _load("spans")
    assert set(READ_BY_POSITION) <= set(spans.WRAPPED)
    for (mod_name, fn_name), names in READ_BY_POSITION.items():
        params = list(inspect.signature(getattr(importlib.import_module(f"coinprimes.{mod_name}"), fn_name)).parameters.values())
        assert [p.name for p in params[: len(names)]] == list(names), f"{mod_name}.{fn_name}"
        assert all(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params[: len(names)])
    assert "checkpoint_path" in {f.name for f in dataclasses.fields(verify.SweepConfig)}


def test_primes_array_is_joined_from_one_prime_windows_walk(monkeypatch):
    """spans.summarize reads primes.table_regrowths and table_peak_mb off the prime_windows calls made
    inside primes_array, so the table is one such walk, joined."""
    calls = []
    real = primes.prime_windows

    def spy(lo, hi):
        calls.append((lo, hi, list(real(lo, hi))))
        return iter(calls[-1][2])

    monkeypatch.setattr(primes, "DEFAULT_WINDOW", 1 << 12)
    monkeypatch.setattr(primes, "prime_windows", spy)
    for limit in (0, 2, 10**4 + 7):
        calls.clear()
        table = primes.primes_array(limit)
        assert [(lo, hi) for lo, hi, _ in calls] == [(0, limit + 1)], limit
        assert table.dtype == np.int64 and table.tolist() == [int(p) for arr in calls[0][2] for p in arr], limit


def test_workload_commands_parse(tmp_path):
    """Every argv the benchmark runs is accepted by the CLI's parser."""
    workloads = _load("workloads")
    argvs = [workloads.GridSweep()._argv(tmp_path)]
    argvs += [[x.format(seed=1) for x in argv] for argv, _, _ in workloads.AnalyticScan.COMMANDS]
    single = workloads.SinglePair()
    single.prepare(tmp_path, 1, None)
    argvs += [cmd.argv for cmd in single.commands()]
    assert len(argvs) == 1 + 3 + 2 * single.N_PAIRS
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        assert callable(args.func), argv


def test_analytic_scan_stdout_is_the_pinned_one(tmp_path, capsys):
    """Each analytic-scan command, through cli.main, prints the stdout its workload pins (every printed minimum)."""
    workloads = _load("workloads")
    for seed in (1, 101):
        scan = workloads.AnalyticScan()
        scan.prepare(tmp_path, seed, None)
        cmds = scan.commands()
        assert len(cmds) == len(workloads.AnalyticScan.COMMANDS)
        for cmd in cmds:
            assert cli.main(cmd.argv) == 0, cmd.argv
            assert cmd.check(capsys.readouterr().out) is None, cmd.argv


def test_written_checkpoints_load_without_parsing(tmp_path, monkeypatch):
    """The grid workload's seeded lines (its own recipe, workloads.grid_lines) and the checkpoint of a
    sweep resumed through a pool load to the sweep's columns without one line parsed on its own."""
    workloads = _load("workloads")
    grid = verify.sweep(verify.SweepConfig(a_min=3, a_max=8)).columns
    seeded = tmp_path / "seeded.jsonl"
    seeded.write_text("".join(workloads.grid_lines(3, 8, verify)[1]))
    small = verify.SweepConfig(a_min=2, a_max=9, b_rule=verify.B_RULE_UPTO, b_max=300)
    written = tmp_path / "written.jsonl"
    fresh = verify.sweep(dataclasses.replace(small, checkpoint_path=str(written))).columns
    lines = written.read_text().splitlines(keepends=True)
    written.write_text("".join(lines[: len(lines) // 3]))
    monkeypatch.setattr(verify, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    _InlineExecutor.sizes = []
    verify.sweep(dataclasses.replace(small, checkpoint_path=str(written), workers=4))
    assert _InlineExecutor.sizes == [4]
    monkeypatch.setattr(verify, "_parse_line", lambda i, line: pytest.fail(f"line {i} parsed on its own"))
    for path, want in ((seeded, grid), (written, fresh)):
        assert verify.json_lines(verify.load_checkpoint(str(path))) == verify.json_lines(want), path.name
