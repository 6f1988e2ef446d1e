"""Command line driver.

Subcommands:

  compute   pi_star for one pair, optionally cross-checked across methods
  gaps      list the gaps of one pair, flagging the primes
  verify    run a claim check: thm1, thm2, thm3, coj1, coj2, or bounds

Exit codes: 0 pass, 1 violation found, 2 bad input, 3 resource cap hit,
4 corrupted checkpoint. Numbers are printed in full integer form; reals with
6 significant digits. All output is locale-independent and, for fixed flags,
byte-stable across runs and thread counts.
"""

import argparse
import sys

import numpy as np

from . import bounds, pistar, verify
from . import primes as primelib
from .errors import CheckpointCorrupt, DomainError, LimitExceeded, NotCoprime
from .semigroup import gaps as semigroup_gaps
from .semigroup import new_pair


_METHOD_FLAGS = {
    "fast": (pistar.METHOD_FAST,),
    "residue": (pistar.METHOD_RESIDUE,),
    "brute": (pistar.METHOD_BRUTE,),
    "all": (pistar.METHOD_FAST, pistar.METHOD_RESIDUE, pistar.METHOD_BRUTE),
}


def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


_WRITE_ROWS = 1 << 16  # lines built and written at a time


def _emit_records(cols, fmt, path):
    """Write record columns as "csv" (verify.CSV_HEADER, then one row each) or "jsonl" to path (stdout when None)."""
    lines = verify.csv_lines if fmt == "csv" else verify.json_lines
    fh, close = _open_out(path)
    try:
        if fmt == "csv":
            fh.write(verify.CSV_HEADER + "\n")
        for i in range(0, len(cols.a), _WRITE_ROWS):
            fh.write("\n".join(lines(cols.take(slice(i, i + _WRITE_ROWS)))) + "\n")
    finally:
        if close:
            fh.close()


def _compute_one(pair, method, brute_cap):
    if method == pistar.METHOD_FAST:
        return pistar.pi_star_fast(pair)
    if method == pistar.METHOD_RESIDUE:
        return pistar.pi_star_residue_sum(pair)
    return pistar.pi_star_bruteforce(pair, cap=brute_cap)


def cmd_compute(args) -> int:
    pair = new_pair(args.a, args.b)
    results = [_compute_one(pair, m, args.brute_cap) for m in _METHOD_FLAGS[args.method]]
    values = {r.pi_star for r in results}
    if len(values) != 1:
        print(f"FAIL: methods disagree on {pair}: " + ", ".join(f"{r.method}={r.pi_star}" for r in results))
        return 1
    r0 = results[0]
    if args.format == "table":
        for r in results:
            ratio = "n/a" if r.ratio_to_pi_s is None else format(r.ratio_to_pi_s, ".6g")
            print(f"pair={pair} s={pair.s} pi_star={r.pi_star} pi_s={r.pi_s} ratio={ratio} method={r.method}")
    else:
        _emit_records(verify.pair_columns(args.a, args.b, pair.s, r0.pi_star, r0.pi_s), args.format, args.out)
    if args.exact_margins and min(args.a, args.b) >= 3 and pair.s >= 2:
        rhs = bounds.thm2_rhs(min(args.a, args.b), pair.s)
        holds = bounds.pi_star_exceeds_thm2_rhs(r0.pi_star, min(args.a, args.b), pair.s, rhs)
        print(f"thm2 margin: pi_star - rhs = {r0.pi_star - rhs!r} (guarded verdict: {str(holds).lower()})")
    return 0


def cmd_gaps(args) -> int:
    pair = new_pair(args.a, args.b)
    ns = semigroup_gaps(pair)
    if not ns:
        return 0
    table = primelib.primes_array(max(pair.s, 2))
    arr = np.asarray(ns, dtype=np.int64)
    pos = np.searchsorted(table, arr)
    pos[pos >= len(table)] = len(table) - 1
    flags = table[pos] == arr
    out = []
    for n, f in zip(ns, flags):
        out.append(f"{n}\t{'p' if f else '-'}")
    print("\n".join(out))
    return 0


def _parse_a_range(args, default_lo, default_hi):
    if args.a is not None:
        return args.a, args.a
    if args.a_range is not None:
        lo_s, _, hi_s = args.a_range.partition(":")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"bad --a-range {args.a_range!r}, expected MIN:MAX") from None
        if lo > hi:
            raise ValueError(f"bad --a-range {args.a_range!r}: MIN > MAX")
        return lo, hi
    if args.a_max is not None:
        return default_lo, args.a_max
    return default_lo, default_hi


def _run_sweep(args, lo, hi):
    """Sweep a in [lo, hi] as the flags ask; records go out as --format, or as CSV to --out."""
    cfg = verify.SweepConfig(
        a_min=lo,
        a_max=hi,
        b_rule=args.b_rule,
        b_max=args.b_max,
        cross_check=args.cross_check,
        workers=args.threads,
        checkpoint_path=args.resume,
        brute_cap=args.brute_cap,
    )
    result = verify.sweep(cfg)
    if args.format != "table":
        _emit_records(result.columns, args.format, args.out)
    elif args.out:
        _emit_records(result.columns, "csv", args.out)
    return result


def _verify_exceptions_target(args, label) -> int:
    """Shared driver for thm2 and coj2: sweep, then diff the exception set."""
    lo, hi = _parse_a_range(args, 3, 10)
    if lo < 3:
        raise ValueError(f"{label} verification needs a >= 3")
    result = _run_sweep(args, lo, hi)
    found = result.summary.coj2_exceptions
    cols = result.columns
    expected = [(a, b) for a, b in verify.EXPECTED_COJ2_EXCEPTIONS if ((cols.a == a) & (cols.b == b)).any()]
    unexpected = [p for p in found if p not in expected]
    missing = [p for p in expected if p not in found]
    print(f"{label}: checked {result.summary.n_pairs} pairs, a in [{lo},{hi}]")
    for p in found:
        tag = "expected" if p in expected else "UNEXPECTED"
        print(f"exception {p[0]},{p[1]} ({tag})")
    for p in missing:
        print(f"missing expected exception {p[0]},{p[1]}")
    if unexpected or missing:
        print(f"FAIL: {label} exception set does not match")
        return 1
    print(f"PASS: {label} exceptions exactly match the expected set")
    return 0


def _verify_thm1(args) -> int:
    if args.a is not None or args.a_range is not None or args.a_max is not None:
        lo, hi = _parse_a_range(args, 1, 10)
        result = _run_sweep(args, lo, hi)
        bad = result.summary.thm1_failures
        print(f"thm1: checked {result.summary.n_pairs} pairs, a in [{lo},{hi}]")
        if bad:
            for a, b in bad:
                print(f"violation {a},{b}")
            print("FAIL: thm1 grid check found violations")
            return 1
        print("PASS: thm1 holds on the whole grid")
        return 0
    case_ids = (1, 2, 3, 4) if args.case in (None, "all") else (int(args.case),)
    ok = True
    for cid in case_ids:
        rep = verify.reproduce_thm1_cases(cid, case1_samples=args.samples or 200)
        bits = []
        if rep.n_pairs:
            bits.append(f"{rep.n_pairs} pairs, {len(rep.computational_failures)} failures")
        if rep.analytic_min is not None:
            bits.append(f"analytic min {rep.analytic_min:.6g} vs threshold {rep.analytic_threshold:.6g}")
        status = "PASS" if rep.ok else "FAIL"
        print(f"{status}: thm1 case {cid} (" + "; ".join(bits) + ")")
        for a, b in rep.computational_failures:
            print(f"violation {a},{b}")
        ok = ok and rep.ok
    return 0 if ok else 1


def _verify_thm3(args) -> int:
    lo, hi = _parse_a_range(args, 3, 10)
    ok = True
    for a in range(lo, hi + 1):
        rep = verify.reproduce_thm3(a)
        status = "PASS" if rep.passed else "FAIL"
        window = "" if rep.window_ok is None else f", window check {'ok' if rep.window_ok else 'VIOLATED'}"
        print(
            f"{status}: thm3 a={a} (exceptions {rep.threshold_exceptions} vs expected "
            f"{rep.expected_threshold_exceptions}; equalities {rep.half_equalities} vs expected "
            f"{rep.expected_half_equalities}; direct checks to b={rep.b_direct_max}{window})"
        )
        for p in rep.half_failures:
            print(f"violation {p[0]},{p[1]}")
        ok = ok and rep.passed
    return 0 if ok else 1


def _verify_coj1(args) -> int:
    a_max = args.a_max if args.a_max is not None else 10
    res = verify.scan_coj1_equalities(a_max, b_max=args.b_max)
    expected = [(a, b) for a, b in verify.EXPECTED_COJ1_EQUALITIES if a <= a_max]
    if args.b_max is not None:
        expected = [(a, b) for a, b in expected if b <= args.b_max]
    print(f"coj1: a=1 family sampled at {res.a1_family_checked} values of b (all equalities)")
    for a, b in res.equalities:
        tag = "expected" if (a, b) in expected else "UNEXPECTED"
        print(f"equality {a},{b} ({tag})")
    for a, b in res.failures:
        print(f"violation {a},{b}")
    missing = [p for p in expected if p not in res.equalities]
    for a, b in missing:
        print(f"missing expected equality {a},{b}")
    if res.failures or missing or set(res.equalities) != set(expected):
        print("FAIL: coj1 scan does not match the expected equality set")
        return 1
    print("PASS: coj1 strict everywhere except the expected equalities")
    return 0


def _verify_bounds(args) -> int:
    which = args.check or "all"
    x_max = int(args.x_max) if args.x_max is not None else 10**7
    checks = []
    if which in ("rs", "all"):
        checks.append(bounds.validate_rs_envelope(x_max=x_max, points=200))
    if which in ("ap", "all"):
        checks.append(bounds.validate_ap_envelope(m_max=50, x_max=x_max, points=20))
    if which in ("mv", "all"):
        checks.append(
            bounds.validate_mv_bound(
                samples=args.samples or 10**4,
                x_max=min(x_max, 10**6),
                y_max=min(x_max, 10**6),
                seed=args.seed,
            )
        )
    ok = True
    for chk in checks:
        status = "PASS" if chk.ok else "FAIL"
        print(f"{status}: {chk.name} ({chk.n_checked} checks, {len(chk.violations)} violations)")
        for v in chk.violations[:20]:
            print(f"violation {v}")
        ok = ok and chk.ok
    return 0 if ok else 1


def cmd_verify(args) -> int:
    target = args.target
    if target == "thm1":
        return _verify_thm1(args)
    if target == "thm2":
        return _verify_exceptions_target(args, "thm2")
    if target == "thm3":
        return _verify_thm3(args)
    if target == "coj1":
        return _verify_coj1(args)
    if target == "coj2":
        return _verify_exceptions_target(args, "coj2")
    return _verify_bounds(args)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coinprimes", description="Primes outside a two-generator numerical semigroup.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute pi_star for one coprime pair")
    pc.add_argument("--a", type=int, required=True)
    pc.add_argument("--b", type=int, required=True)
    pc.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="fast")
    pc.add_argument("--format", choices=("table", "csv", "jsonl"), default="table")
    pc.add_argument("--brute-cap", type=int, default=pistar.BRUTE_FORCE_CAP)
    pc.add_argument("--out", default=None)
    pc.add_argument("--exact-margins", action="store_true")
    pc.set_defaults(func=cmd_compute)

    pg = sub.add_parser("gaps", help="list the gaps of one pair, primes flagged")
    pg.add_argument("--a", type=int, required=True)
    pg.add_argument("--b", type=int, required=True)
    pg.set_defaults(func=cmd_gaps)

    pv = sub.add_parser("verify", help="reproduce one of the finite verification claims")
    pv.add_argument("target", choices=("thm1", "thm2", "thm3", "coj1", "coj2", "bounds"))
    pv.add_argument("--a", type=int, default=None)
    pv.add_argument("--a-max", type=int, default=None)
    pv.add_argument("--a-range", default=None, metavar="MIN:MAX")
    pv.add_argument("--b-max", type=int, default=None)
    pv.add_argument("--b-rule", choices=(verify.B_RULE_UPTO, verify.B_RULE_50A2, verify.B_RULE_EXP), default=verify.B_RULE_50A2)
    pv.add_argument("--case", choices=("1", "2", "3", "4", "all"), default=None)
    pv.add_argument("--check", choices=("rs", "ap", "mv", "all"), default=None)
    pv.add_argument("--x-max", type=float, default=None)
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--seed", type=int, default=20260819)
    pv.add_argument("--format", choices=("table", "csv", "jsonl"), default="table")
    pv.add_argument("--out", default=None)
    pv.add_argument("--resume", default=None, metavar="PATH", help="JSON-lines checkpoint to append to and reuse")
    pv.add_argument("--threads", type=int, default=1)
    pv.add_argument("--brute-cap", type=int, default=pistar.BRUTE_FORCE_CAP)
    pv.add_argument("--cross-check", action="store_true")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (NotCoprime, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except CheckpointCorrupt as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
