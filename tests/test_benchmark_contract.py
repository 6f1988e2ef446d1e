"""The package names and commands the benchmark harness under perfbench/ uses still resolve.

perfbench/spans.py replaces each (module, function) of its WRAPPED table with a
timing wrapper, and perfbench/workloads.py re-derives the pinned grid lines
with verify.evaluate_pair, record_to_csv, record_to_dict and CSV_HEADER, and
runs its commands through cli.main. A rename or deletion of one of these
names, or a CLI change that rejects one of those commands, breaks the
benchmark, not these modules' own tests, so it is checked here. spans.py and
workloads.py are loaded from their files, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

from coinprimes import cli, verify

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
    # the workloads' other names: evaluate_pair, record_to_csv and record_to_dict are wrapped above
    assert isinstance(verify.CSV_HEADER, str)


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
