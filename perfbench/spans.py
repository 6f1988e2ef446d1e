"""Timing spans for the traced pass, and the per-layer summary built from them.

The traced pass replaces public functions of the coinprimes modules with
timing wrappers. Package code looks these names up on their module at call
time (``primelib.prime_windows``, ``bounds.delta``, a module global such as
``record_from_dict`` inside ``verify``), so the wrappers see every call
without any edit to the package. Generators get one span per ``next()``.

A span is ``[name, start, end, parent, attrs]``; spans stay in memory and
are written out as JSON lines when the command returns. A layer's self time
is the span's duration minus the durations of its direct children.
"""

import itertools
import json
import os
import time

# (module, function) pairs wrapped in the traced pass; the span is "module.function".
WRAPPED = (
    ("primes", "prime_windows"),
    ("primes", "primes_array"),
    ("pistar", "count_gap_primes"),
    ("pistar", "pi_star_fast"),
    ("pistar", "pi_star_residue_sum"),
    ("verify", "iter_pair_stats"),
    ("verify", "evaluate_pair"),
    ("verify", "record_to_dict"),
    ("verify", "record_to_csv"),
    ("verify", "load_checkpoint"),
    ("verify", "record_from_dict"),
    ("verify", "sweep"),
    ("verify", "reproduce_thm1_cases"),
    ("bounds", "pi_star_exceeds_thm2_rhs"),
    ("bounds", "guarded_strictly_greater"),
    ("bounds", "delta"),
    ("bounds", "delta_exceeds"),
    ("bounds", "validate_rs_envelope"),
    ("bounds", "validate_ap_envelope"),
    ("bounds", "validate_mv_bound"),
    ("arith", "factor"),
)
GENERATORS = {"primes.prime_windows", "verify.iter_pair_stats"}

# Self-time metric of each span name. Every span name maps to exactly one
# metric, so the time metrics plus trace.unattributed_s add up to the traced wall.
SELF_TIME = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_self_s",
    "primes.prime_windows": "primes.sieve_s",
    "primes.primes_array": "primes.table_s",
    "pistar.count_gap_primes": "pistar.gap_kernel_s",
    "pistar.pi_star_fast": "pistar.fast_self_s",
    "pistar.pi_star_residue_sum": "pistar.residue_self_s",
    "verify.iter_pair_stats": "verify.pair_stats_self_s",
    "verify.evaluate_pair": "verify.evaluate_self_s",
    "bounds.pi_star_exceeds_thm2_rhs": "bounds.thm2_guard_s",
    "bounds.guarded_strictly_greater": "bounds.thm2_guard_s",
    "verify.record_to_dict": "verify.serialize_s",
    "verify.record_to_csv": "verify.serialize_s",
    "verify.load_checkpoint": "verify.checkpoint_load_s",
    "verify.record_from_dict": "verify.record_from_dict_s",
    "verify.sweep": "verify.sweep_self_s",
    "verify.reproduce_thm1_cases": "verify.thm1_case_self_s",
    "bounds.delta": "bounds.delta_s",
    "bounds.delta_exceeds": "bounds.delta_exceeds_self_s",
    "arith.factor": "arith.factor_s",
    "bounds.validate_ap_envelope": "bounds.validate_ap_s",
    "bounds.validate_rs_envelope": "bounds.validate_rs_s",
    "bounds.validate_mv_bound": "bounds.validate_mv_s",
}

# Every per-layer metric with its unit and direction, in report order.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("primes.sieve_s", "s", "lower"),
    ("primes.table_s", "s", "lower"),
    ("primes.numbers_sieved", "count", "lower"),
    ("primes.table_regrowths", "count", "lower"),
    ("primes.sieve_redundancy", "ratio", "lower"),
    ("primes.table_peak_mb", "MB", "lower"),
    ("pistar.gap_kernel_s", "s", "lower"),
    ("pistar.gap_kernel_calls", "count", "lower"),
    ("pistar.primes_scanned", "count", "lower"),
    ("pistar.fast_self_s", "s", "lower"),
    ("pistar.residue_self_s", "s", "lower"),
    ("verify.pair_stats_self_s", "s", "lower"),
    ("verify.pairs_computed", "count", "lower"),
    ("verify.pairs_reused", "count", "higher"),
    ("verify.reuse_ratio", "ratio", "higher"),
    ("verify.evaluate_self_s", "s", "lower"),
    ("bounds.thm2_guard_s", "s", "lower"),
    ("bounds.guard_calls", "count", "lower"),
    ("bounds.guard_escalations", "count", "lower"),
    ("verify.serialize_s", "s", "lower"),
    ("verify.checkpoint_load_s", "s", "lower"),
    ("verify.record_from_dict_s", "s", "lower"),
    ("verify.checkpoint_bytes_read", "B", "lower"),
    ("verify.checkpoint_bytes_written", "B", "lower"),
    ("verify.output_bytes", "B", "lower"),
    ("verify.sweep_self_s", "s", "lower"),
    ("verify.sweep_parallel_speedup", "ratio", "higher"),
    ("bounds.delta_s", "s", "lower"),
    ("bounds.delta_calls", "count", "lower"),
    ("bounds.delta_exceeds_self_s", "s", "lower"),
    ("arith.factor_s", "s", "lower"),
    ("arith.factor_calls", "count", "lower"),
    ("verify.thm1_case_self_s", "s", "lower"),
    ("bounds.validate_ap_s", "s", "lower"),
    ("bounds.validate_rs_s", "s", "lower"),
    ("bounds.validate_mv_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

# Metrics whose value must repeat exactly between two traced runs of one seed.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit != "s" and name != "verify.sweep_parallel_speedup")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1], None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float):
        """Record a finished span under the currently open one."""
        self.spans.append([name, start, end, self._stack[-1], None])

    def write_jsonl(self, path: str, run_id: str):
        with open(path, "a", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, attrs) in enumerate(self.spans):
                obj = {"run": run_id, "id": sid, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    obj.update(attrs)
                fh.write(json.dumps(obj) + "\n")


def _checkpoint_size(path) -> int:
    """Bytes of complete lines in a checkpoint (a torn final line is dropped by sweep)."""
    if not path or not os.path.exists(path):
        return 0
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        fh.seek(max(0, size - 65536))
        tail = fh.read()
    return size - (len(tail) - tail.rfind(b"\n") - 1)


def _attrs(name, args, result, before, rel_guard):
    """Counts a finished span carries, from the call's arguments and result."""
    if name == "pistar.count_gap_primes":
        return {"n": int(args[0].size)}
    if name == "primes.primes_array":
        return {"limit": int(args[0])}
    if name == "verify.load_checkpoint":
        return {"bytes": os.path.getsize(args[0]) if os.path.exists(args[0]) else 0}
    if name == "verify.sweep":
        return {"records": len(result.records), "written": _checkpoint_size(args[0].checkpoint_path) - before}
    if name == "bounds.guarded_strictly_greater":
        lhs, rhs = args[0], args[1]
        if abs(lhs - rhs) <= rel_guard * max(1.0, abs(lhs), abs(rhs)):
            return {"esc": 1}
    return None


def install(tracer: Tracer, modules: dict, rel_guard: float):
    """Replace each WRAPPED function of the given {short name: module} with a timing wrapper."""
    gen_ids = itertools.count()

    def wrap_call(name, fn):
        def wrapper(*args, **kwargs):
            before = _checkpoint_size(args[0].checkpoint_path) if name == "verify.sweep" else None
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.spans[sid][4] = _attrs(name, args, result, before, rel_guard)
            return result

        return wrapper

    def wrap_gen(name, genfn):
        is_sieve = name == "primes.prime_windows"

        def wrapper(*args, **kwargs):
            gid = next(gen_ids)
            later = {"gen": gid} if is_sieve else {}
            first = dict(later, lo=int(args[0]), hi=int(args[1])) if is_sieve else later

            def timed():
                gen = genfn(*args, **kwargs)
                attrs = first
                while True:
                    sid = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer.spans[sid][4] = attrs or None
                        return
                    finally:
                        tracer.close(sid)
                    tracer.spans[sid][4] = dict(attrs, n=int(item.nbytes) if is_sieve else 1)
                    attrs = later
                    yield item

            return timed()

        return wrapper

    for mod_name, fn_name in WRAPPED:
        module = modules[mod_name]
        name = f"{mod_name}.{fn_name}"
        fn = getattr(module, fn_name)
        setattr(module, fn_name, wrap_gen(name, fn) if name in GENERATORS else wrap_call(name, fn))


def read_jsonl(path: str) -> dict:
    """Spans grouped by run id, each a list of dicts in id order."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            runs.setdefault(span["run"], []).append(span)
    return runs


def summarize(runs: dict) -> dict:
    """Per-layer metrics (except the two that need untraced runs) and the traced wall.

    Returns {"metrics": {name: value}, "traced_wall_s": float}. The traced wall
    is the sum over commands of the time from the start of the import to the
    return of cli.main (the ``process_s`` of each cli.main span); the self
    times plus trace.unattributed_s add up to it.
    """
    m = {name: 0 for name, _, _ in PER_LAYER}
    for name in SELF_TIME.values():
        m[name] = 0.0
    traced_wall = 0.0
    largest_limits = 0
    gens = {}  # (run, prime_windows generator id) -> [name of the calling span, bytes yielded]
    sweep_records = 0
    computed_in_sweep = 0
    for run_id, spans in runs.items():
        child = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] >= 0:
                child[sp["parent"]] += sp["end"] - sp["start"]
        limit = 0
        for sp in spans:
            name = sp["name"]
            dur = sp["end"] - sp["start"]
            m[SELF_TIME[name]] += dur - child[sp["id"]]
            parent = spans[sp["parent"]]["name"] if sp["parent"] >= 0 else None
            if name == "cli.main":
                traced_wall += sp["process_s"]
                m["verify.output_bytes"] += sp["out_bytes"]
            elif name == "primes.prime_windows":
                key = (run_id, sp["gen"])
                if "lo" in sp:
                    gens[key] = [parent, 0]
                    m["primes.numbers_sieved"] += sp["hi"] - sp["lo"]
                    if parent != "primes.primes_array":
                        limit = max(limit, sp["hi"] - 1)
                gens[key][1] += sp.get("n", 0)
            elif name == "primes.primes_array":
                limit = max(limit, sp["limit"])
            elif name == "pistar.count_gap_primes":
                m["pistar.gap_kernel_calls"] += 1
                m["pistar.primes_scanned"] += sp["n"]
            elif name == "verify.iter_pair_stats":
                n = sp.get("n", 0)
                m["verify.pairs_computed"] += n
                if parent == "verify.sweep":
                    computed_in_sweep += n
            elif name == "verify.sweep":
                sweep_records += sp["records"]
                m["verify.checkpoint_bytes_written"] += sp["written"]
            elif name == "verify.load_checkpoint":
                m["verify.checkpoint_bytes_read"] += sp["bytes"]
            elif name == "bounds.guarded_strictly_greater":
                m["bounds.guard_calls"] += 1
                m["bounds.guard_escalations"] += sp.get("esc", 0)
            elif name == "bounds.delta":
                m["bounds.delta_calls"] += 1
            elif name == "arith.factor":
                m["arith.factor_calls"] += 1
        largest_limits += limit
    tables = [nbytes for parent, nbytes in gens.values() if parent == "primes.primes_array"]
    m["primes.table_regrowths"] = len(tables)
    m["primes.table_peak_mb"] = max(tables, default=0) / 2**20
    m["primes.sieve_redundancy"] = m["primes.numbers_sieved"] / largest_limits if largest_limits else 0.0
    m["verify.pairs_reused"] = sweep_records - computed_in_sweep
    seen = m["verify.pairs_reused"] + m["verify.pairs_computed"]
    m["verify.reuse_ratio"] = m["verify.pairs_reused"] / seen if seen else 0.0
    self_total = sum(m[name] for name in set(SELF_TIME.values()))
    m["trace.unattributed_s"] = traced_wall - self_total
    return {"metrics": m, "traced_wall_s": traced_wall}
