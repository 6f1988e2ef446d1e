"""Command line driver.

Subcommands:

  compute   pi_star for one pair, optionally cross-checked across methods
  gaps      list the gaps of one pair, flagging the primes
  verify    run a claim check: thm1, thm2, thm3, coj1, coj2, or bounds

Exit codes: 0 pass, 1 violation found, 2 bad input (a verify target exits 2 on
any flag it does not read), 3 resource cap hit, 4 corrupted checkpoint. Numbers
are printed in full integer form; reals with 6 significant digits. Output is
locale-independent and, for fixed flags, byte-stable across thread counts.
"""

import argparse
import math
import sys
from functools import partial

from . import bounds, pistar, semigroup, verify
from . import primes as primelib
from .errors import CheckpointCorrupt, DomainError, LimitExceeded, MethodDisagreement
from .semigroup import new_pair


_ERROR_EXIT_CODES = {MethodDisagreement: 1, LimitExceeded: 3, CheckpointCorrupt: 4}  # other errors main catches: 2
_GAP_LINES = 1 << 12

_METHOD_FLAGS = {
    "fast": (pistar.METHOD_FAST,),
    "residue": (pistar.METHOD_RESIDUE,),
    "brute": (pistar.METHOD_BRUTE,),
    "all": (pistar.METHOD_FAST, pistar.METHOD_RESIDUE, pistar.METHOD_BRUTE),
}


def _writes_records(args) -> bool:
    return args.format != "table" or bool(args.out)


def _emit_records(args, cols):
    """Write record columns as the flags ask: as --format csv (CSV_HEADER first) or jsonl, to --out or
    stdout, and as CSV to --out under --format table; nothing unless _writes_records(args). Lines are
    built and written a bounded slice at a time (verify.write_lines)."""
    if not _writes_records(args):
        return
    fmt = "csv" if args.format == "table" else args.format
    fh = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
        if fmt == "csv":
            fh.write(verify.CSV_HEADER + "\n")
        verify.write_lines(fh, verify.csv_lines if fmt == "csv" else verify.json_lines, cols)
    finally:
        if args.out is not None:
            fh.close()


def _compute_one(pair, method, brute_cap):
    if method == pistar.METHOD_FAST:
        return pistar.pi_star_fast(pair)
    if method == pistar.METHOD_RESIDUE:
        return pistar.pi_star_residue_sum(pair)
    return pistar.pi_star_bruteforce(pair, cap=brute_cap)


def cmd_compute(args) -> int:
    if args.exact_margins and args.format != "table" and not args.out:
        raise ValueError("--exact-margins prints a text line, so with --format csv or jsonl it needs --out")
    pair = new_pair(args.a, args.b)
    methods = _METHOD_FLAGS[args.method]
    bounds.check_cap("s", pair.s, bounds.X_MAX_CAP)  # both caps before any method sieves [2, s]
    if pistar.METHOD_BRUTE in methods:
        pistar.check_brute_cap(pair, args.brute_cap)
    results = [_compute_one(pair, m, args.brute_cap) for m in methods]
    if len({(r.pi_star, r.pi_s) for r in results}) != 1:
        counts = ", ".join(f"{r.method}=({r.pi_star}, {r.pi_s})" for r in results)
        print(f"FAIL: methods disagree on {pair} (pi_star, pi_s): {counts}")
        return 1
    r0 = results[0]
    if args.format == "table":
        for r in results:
            ratio = "n/a" if r.ratio_to_pi_s is None else format(r.ratio_to_pi_s, ".6g")
            print(f"pair={pair} s={pair.s} pi_star={r.pi_star} pi_s={r.pi_s} ratio={ratio} method={r.method}")
    if not (_writes_records(args) or args.exact_margins):
        return 0
    cols = verify.pair_columns(args.a, args.b, pair.s, r0.pi_star, r0.pi_s)
    _emit_records(args, cols)
    if args.exact_margins and not math.isnan(cols.thm2_rhs[0]):  # thm2's threshold is nan outside its domain
        margin = r0.pi_star - float(cols.thm2_rhs[0])
        print(f"thm2 margin: pi_star - rhs = {margin!r} (guarded verdict: {str(bool(cols.thm2[0])).lower()})")
    return 0


def cmd_gaps(args) -> int:
    """One line per gap, "n<TAB>p" for a prime and "n<TAB>-" otherwise: a sieve window of numbers at a time,
    written _GAP_LINES lines at a time, so no listing holds more than a window."""
    pair = new_pair(args.a, args.b)
    pistar.check_brute_cap(pair, pistar.BRUTE_FORCE_CAP)  # like brute force, gaps walks every number to s
    for lo in range(1, pair.s + 1, primelib.DEFAULT_WINDOW):
        hi = min(lo + primelib.DEFAULT_WINDOW, pair.s + 1)
        ns = semigroup.gap_bits(pair, lo, hi).nonzero()[0]
        flags = primelib.sieve_segment(lo, hi)[ns]
        ns += lo
        for i in range(0, ns.size, _GAP_LINES):
            lines = zip(ns[i : i + _GAP_LINES].tolist(), flags[i : i + _GAP_LINES].tolist())
            sys.stdout.write("".join(f"{n}\t{'p' if f else '-'}\n" for n, f in lines))
    return 0


def _a_range_arg(text):
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}") from None
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"needs 1 <= MIN <= MAX, got {text!r}")
    return lo, hi


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _path(text):
    if not text:
        raise argparse.ArgumentTypeError("must be a nonempty path")
    return text


def _finite_float(text):
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _a_bounds(args, default_lo, default_hi):
    """(lo, hi) of a from whichever of --a, --a-range and --a-max was given, else the defaults."""
    if args.a is not None:
        return args.a, args.a
    return args.a_range or (default_lo, default_hi if args.a_max is None else args.a_max)


def _run_sweep(args, lo, hi):
    """Sweep a in [lo, hi] as the flags ask, then write its records (_emit_records)."""
    if args.b_max is not None and args.b_rule not in (None, verify.B_RULE_UPTO):
        raise ValueError(f"--b-max bounds b by the upto rule, so it does not go with --b-rule {args.b_rule}")
    rule = verify.B_RULE_UPTO if args.b_max is not None else args.b_rule or verify.B_RULE_50A2
    cfg = verify.SweepConfig(
        a_min=lo,
        a_max=hi,
        b_rule=rule,
        b_max=args.b_max,
        cross_check=args.cross_check,
        workers=args.threads,
        checkpoint_path=args.resume,
        brute_cap=args.brute_cap,
    )
    result = verify.sweep(cfg)
    _emit_records(args, result.columns)
    return result


def _verify_exceptions_target(args) -> int:
    """The driver of thm2 and coj2: sweep, then diff the exception set."""
    label = args.target
    lo, hi = _a_bounds(args, 3, 10)
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
    """Grid mode when an a-flag is given, reading the sweep flags; else case mode, reading --case (and --samples)."""
    grid = args.a is not None or args.a_max is not None or args.a_range is not None
    case_flags = {"--case", "--samples"} if args.case in ("1", "all") else {"--case"}
    stray = args.given & {"--case", "--samples"} if grid else args.given - case_flags
    if stray:
        raise ValueError(f"thm1 {'grid' if grid else 'case'} mode does not read {', '.join(sorted(stray))}")
    bounds.check_cap("--samples", args.samples, bounds.SAMPLES_CAP)
    if grid:
        lo, hi = _a_bounds(args, 1, 10)
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
    case_ids = (1, 2, 3, 4) if args.case == "all" else (int(args.case),)
    ok = True
    for cid in case_ids:
        rep = verify.reproduce_thm1_cases(cid, case1_samples=args.samples)
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
    lo, hi = _a_bounds(args, 3, 10)
    if not 3 <= lo <= hi <= 10:  # before any a runs, so a bad range prints nothing
        raise DomainError("thm3 covers 3 <= a <= 10")
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
    res = verify.scan_coj1_equalities(args.a_max, b_max=args.b_max)
    expected = [
        (a, b) for a, b in verify.EXPECTED_COJ1_EQUALITIES if a <= args.a_max and (args.b_max is None or b <= args.b_max)
    ]
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
    x_max = int(args.x_max)
    bounds.check_cap("--x-max", x_max, bounds.X_MAX_CAP)
    if args.check in ("rs", "all") and x_max < 17:  # the Rosser-Schoenfeld grid starts at 17
        raise ValueError(f"--x-max must be at least 17 for --check {args.check}, got {x_max}")
    bounds.check_cap("--samples", args.samples, bounds.SAMPLES_CAP)
    mv = partial(bounds.validate_mv_bound, args.samples, seed=args.seed)
    validators = {"rs": bounds.validate_rs_envelope, "ap": bounds.validate_ap_envelope, "mv": mv}
    checks = [validate(x_max) for name, validate in validators.items() if args.check in (name, "all")]
    ok = True
    for chk in checks:
        status = "PASS" if chk.ok else "FAIL"
        print(f"{status}: {chk.name} ({chk.n_checked} checks, {len(chk.violations)} violations)")
        for v in chk.violations[:20]:
            print(f"violation {v}")
        ok = ok and chk.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coinprimes", description="Primes outside a two-generator numerical semigroup.")
    sub = p.add_subparsers(dest="command", required=True)
    pair_flags = argparse.ArgumentParser(add_help=False)
    pair_flags.add_argument("--a", type=int, required=True)
    pair_flags.add_argument("--b", type=int, required=True)
    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--format", choices=("table", "csv", "jsonl"), default="table")
    out_flags.add_argument("--out", type=_path)
    out_flags.add_argument("--brute-cap", type=_nonnegative_int, default=pistar.BRUTE_FORCE_CAP)
    a_flags = argparse.ArgumentParser(add_help=False)
    one_of = a_flags.add_mutually_exclusive_group()
    one_of.add_argument("--a", type=_positive_int)
    one_of.add_argument("--a-max", type=_positive_int)
    one_of.add_argument("--a-range", type=_a_range_arg, metavar="MIN:MAX")
    sweep_flags = argparse.ArgumentParser(add_help=False, parents=[out_flags])
    sweep_flags.add_argument("--b-max", type=_positive_int, help="check b <= B_MAX (implies the upto rule)")
    sweep_flags.add_argument("--b-rule", choices=(verify.B_RULE_UPTO, verify.B_RULE_50A2, verify.B_RULE_EXP))
    sweep_flags.add_argument("--resume", type=_path, metavar="PATH", help="JSON-lines checkpoint to append to and reuse")
    sweep_flags.add_argument("--threads", type=_positive_int, default=1)
    sweep_flags.add_argument("--cross-check", action="store_true")

    pc = sub.add_parser("compute", parents=[pair_flags, out_flags], help="compute pi_star for one coprime pair")
    pc.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="fast")
    pc.add_argument("--exact-margins", action="store_true")
    pc.set_defaults(func=cmd_compute)
    pg = sub.add_parser("gaps", parents=[pair_flags], help="list the gaps of one pair, primes flagged")
    pg.set_defaults(func=cmd_gaps)

    pv = sub.add_parser("verify", help="reproduce one of the finite verification claims")
    # no abbreviations: a prefix of a flag the target does not take must not resolve to one it does
    targets = pv.add_subparsers(dest="target", required=True, parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))
    t = targets.add_parser("thm1", parents=[a_flags, sweep_flags])
    t.add_argument("--case", choices=("1", "2", "3", "4", "all"), default="all")
    t.add_argument("--samples", type=_positive_int, default=200)
    t.set_defaults(func=_verify_thm1)
    for name in ("thm2", "coj2"):
        targets.add_parser(name, parents=[a_flags, sweep_flags]).set_defaults(func=_verify_exceptions_target)
    targets.add_parser("thm3", parents=[a_flags]).set_defaults(func=_verify_thm3)
    t = targets.add_parser("coj1")
    t.add_argument("--a-max", type=_positive_int, default=10)
    t.add_argument("--b-max", type=_positive_int)
    t.set_defaults(func=_verify_coj1)
    t = targets.add_parser("bounds")
    t.add_argument("--check", choices=("rs", "ap", "mv", "all"), default="all")
    t.add_argument("--x-max", type=_finite_float, default=1e7)
    t.add_argument("--samples", type=_positive_int, default=10**4)
    t.add_argument("--seed", type=int, default=20260819)
    t.set_defaults(func=_verify_bounds)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    args.given = {token.partition("=")[0] for token in argv if token.startswith("--")}  # thm1 checks its mode against these
    try:
        return args.func(args)
    except (ValueError, OSError, *_ERROR_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next((code for kind, code in _ERROR_EXIT_CODES.items() if isinstance(e, kind)), 2)


if __name__ == "__main__":
    sys.exit(main())
