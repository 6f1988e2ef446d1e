"""The package names the benchmark harness under perfbench/ wraps or calls still resolve.

perfbench/spans.py replaces each (module, function) of its WRAPPED table with a
timing wrapper, and perfbench/workloads.py re-derives the pinned grid lines
with verify.evaluate_pair, record_to_csv, record_to_dict and CSV_HEADER. A
rename or deletion of one of them breaks the benchmark, not these modules'
own tests, so it is checked here. spans.py is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

from coinprimes import verify

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve():
    spans = _load_spans()
    assert spans.WRAPPED
    for mod_name, fn_name in spans.WRAPPED:
        module = importlib.import_module(f"coinprimes.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    # the workloads' other names: evaluate_pair, record_to_csv and record_to_dict are wrapped above
    assert isinstance(verify.CSV_HEADER, str)
