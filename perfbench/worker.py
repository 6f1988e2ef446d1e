"""Run one coinprimes CLI command in this fresh interpreter and report how it went.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds ``argv`` (a list for ``coinprimes.cli.main``, or null to only
time the import), ``src`` (the directory coinprimes must be imported from),
``result`` (path of the JSON result this writes), and, for a traced command,
``spans`` (JSON-lines file the spans are appended to) and ``run_id``.

The result records the clock after the import (the parent subtracts its spawn
time to get the set-up time), the wall time of ``cli.main``, its exit code,
everything it printed, and a traceback if it raised.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    t_import = time.perf_counter()
    from coinprimes import arith, bounds, cli, pistar, primes, verify

    t_ready = time.perf_counter()
    result = {"imported": t_ready}
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        result["error"] = f"coinprimes imported from {cli.__file__}, not from {src}"
    elif spec["argv"] is not None:
        tracer = None
        if spec.get("spans"):
            from spans import Tracer, install

            tracer = Tracer()
            tracer.add("cli.import", t_import, t_ready)
            modules = {"arith": arith, "bounds": bounds, "pistar": pistar, "primes": primes, "verify": verify}
            install(tracer, modules, bounds.REL_GUARD)
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        sid = tracer.open("cli.main") if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(spec["argv"])
        except Exception:
            result["error"] = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer:
            tracer.close(sid)
        stdout = out.getvalue()
        out_bytes = len(stdout.encode())
        if "--out" in spec["argv"]:
            path = spec["argv"][spec["argv"].index("--out") + 1]
            out_bytes += os.path.getsize(path) if os.path.exists(path) else 0
        if tracer:
            tracer.spans[sid][4] = {"rc": rc, "out_bytes": out_bytes, "process_s": t1 - t_import}
            tracer.write_jsonl(spec["spans"], spec["run_id"])
        result.update(rc=rc, wall=t1 - t0, stdout=stdout, stderr=err.getvalue())
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
