"""Claim verdicts per pair, exhaustive scans, and the resumable sweep engine.

Claim identifiers used throughout the package and its outputs:

  thm1  pi_star(a, b) >= 0.04 * pi(s) for every coprime pair with b > a >= 1
  thm2  pi_star(a, b) >  (1/2 + 1/(2(a-1))) * s / log s   (the "rhs" threshold)
  thm3  for 3 <= a <= 10 the thm2 inequality holds for all b > a except
        (3,4), (3,5), (3,7), and the strict-half property holds below a
        per-a direct-check threshold
  coj1  2 * pi_star vs pi(s): strict / equality / fail
  coj2  thm2 threshold status for b > a >= 3: holds / exception

Verdicts that compare an integer count against a log-bearing threshold are
guarded (see bounds.guarded_strictly_greater); pure integer verdicts are exact.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, pistar
from . import primes as primelib
from .errors import CheckpointCorrupt, DomainError
from .semigroup import new_pair

COJ1_STRICT = "strict"
COJ1_EQUALITY = "equality"
COJ1_FAIL = "fail"
COJ2_HOLDS = "holds"
COJ2_EXCEPTION = "exception"

EXPECTED_COJ2_EXCEPTIONS = ((3, 4), (3, 5), (3, 7))
EXPECTED_COJ1_EQUALITIES = ((2, 3), (2, 5), (3, 5))

B_RULE_UPTO = "upto"
B_RULE_50A2 = "50a2"
B_RULE_EXP = "exp-threshold"

SCHEMA_VERSION = 1
CSV_HEADER = "a,b,s,pi_star,pi_s,thm2_rhs,thm2,thm1,coj1,coj2,ms"
CHECKPOINT_FIELDS = (
    "schema",
    "a",
    "b",
    "s",
    "pi_star",
    "pi_s",
    "thm2_rhs",
    "thm2",
    "thm1",
    "coj1",
    "coj2",
    "ms",
)

_CHUNK = 1024

CASE1_DELTA = Fraction(1, 10)
CASE1_THRESHOLD = Fraction("0.0445")
CASE2_DELTA = Fraction("0.0904")
CASE2_THRESHOLD = Fraction("0.0401")
CASE3_DELTA = Fraction("0.095")
CASE3_THRESHOLD = Fraction("0.0425")
CASE4_THRESHOLD = Fraction("0.05334")

# thresholds of the strict-half window checks for the two largest direct cases
_WINDOW_S_MIN = {9: 18595, 10: 60180}


@dataclass(frozen=True)
class VerificationRecord:
    a: int
    b: int
    s: int
    pi_star: int
    pi_s: int
    thm2_rhs: float  # nan outside the a >= 3, s >= 2 domain
    thm2_holds: bool
    thm1_holds: bool
    coj1_status: str
    coj2_status: str


# ----------------------------------------------------------------------
# record serialization (canonical outputs carry ms = 0 so runs are replayable)


def _fmt_real(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return format(x, ".6g")


def record_to_csv(rec: VerificationRecord) -> str:
    return ",".join(
        (
            str(rec.a),
            str(rec.b),
            str(rec.s),
            str(rec.pi_star),
            str(rec.pi_s),
            _fmt_real(rec.thm2_rhs),
            str(rec.thm2_holds).lower(),
            str(rec.thm1_holds).lower(),
            rec.coj1_status,
            rec.coj2_status,
            "0",
        )
    )


def record_to_dict(rec: VerificationRecord) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "a": rec.a,
        "b": rec.b,
        "s": rec.s,
        "pi_star": rec.pi_star,
        "pi_s": rec.pi_s,
        "thm2_rhs": None if math.isnan(rec.thm2_rhs) else rec.thm2_rhs,
        "thm2": rec.thm2_holds,
        "thm1": rec.thm1_holds,
        "coj1": rec.coj1_status,
        "coj2": rec.coj2_status,
        "ms": 0,
    }


def record_to_json(rec: VerificationRecord) -> str:
    """json.dumps(record_to_dict(rec)), byte for byte, without building the dict."""
    rhs = "null" if math.isnan(rec.thm2_rhs) else repr(rec.thm2_rhs)
    return (
        f'{{"schema": {SCHEMA_VERSION}, "a": {rec.a}, "b": {rec.b}, "s": {rec.s}, '
        f'"pi_star": {rec.pi_star}, "pi_s": {rec.pi_s}, "thm2_rhs": {rhs}, '
        f'"thm2": {"true" if rec.thm2_holds else "false"}, "thm1": {"true" if rec.thm1_holds else "false"}, '
        f'"coj1": "{rec.coj1_status}", "coj2": "{rec.coj2_status}", "ms": 0}}'
    )


def record_from_dict(obj) -> VerificationRecord:
    if not isinstance(obj, dict):
        raise CheckpointCorrupt("record is not an object")
    got = set(obj)
    want = set(CHECKPOINT_FIELDS)
    if got - want:
        raise CheckpointCorrupt(f"unknown fields: {sorted(got - want)}")
    if want - got:
        raise CheckpointCorrupt(f"missing fields: {sorted(want - got)}")
    if obj["schema"] != SCHEMA_VERSION:
        raise CheckpointCorrupt(f"unsupported schema {obj['schema']!r}")
    for key in ("a", "b", "s", "pi_star", "pi_s", "ms"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise CheckpointCorrupt(f"field {key} must be an integer")
    for key in ("thm2", "thm1"):
        if not isinstance(obj[key], bool):
            raise CheckpointCorrupt(f"field {key} must be a boolean")
    # a record is reused only if its counts are plausible and re-derive every other field
    a, b, s, pi_star, pi_s = (obj[key] for key in ("a", "b", "s", "pi_star", "pi_s"))
    if s != a * b - a - b:
        raise CheckpointCorrupt(f"({a},{b}): s = {s} is not a*b - a - b")
    if not 0 <= pi_star <= pi_s:
        raise CheckpointCorrupt(f"({a},{b}): counts pi_star = {pi_star}, pi_s = {pi_s} out of order")
    try:
        rec = evaluate_pair(a, b, s, pi_star, pi_s)
    except (OverflowError, ValueError) as e:
        raise CheckpointCorrupt(f"({a},{b}): cannot re-derive the verdicts ({e})") from None
    derived = record_to_dict(rec)  # dicts, not records, so that null == null where nan != nan
    derived["ms"] = obj["ms"]
    if derived != obj:
        raise CheckpointCorrupt(f"({a},{b}): fields {[k for k in obj if obj[k] != derived[k]]} disagree with the counts")
    return rec


_TAIL_BLOCK = 1 << 16


def _trim_torn_tail(path: str):
    """Drop a trailing half-written line so appends start on a fresh line.

    Reads backwards from the end a block at a time, only as far as the last newline.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        end = cut = fh.seek(0, os.SEEK_END)
        while cut > 0:
            start = max(0, cut - _TAIL_BLOCK)
            fh.seek(start)
            nl = fh.read(cut - start).rfind(b"\n")
            if nl >= 0:
                cut = start + nl + 1
                break
            cut = start
        if cut < end:
            fh.truncate(cut)


def load_checkpoint(path: str) -> dict:
    """Completed records keyed by (a, b).

    A final line without a terminating newline is an interrupted append; the
    pair is simply recomputed. Any complete line that fails to decode, parse
    or validate, or whose s and verdicts do not re-derive from its counts,
    raises CheckpointCorrupt.
    """
    if not os.path.exists(path):
        return {}
    out = {}
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                break
            try:
                obj = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError:
                raise CheckpointCorrupt(f"line {i}: invalid UTF-8") from None
            except json.JSONDecodeError as e:
                raise CheckpointCorrupt(f"line {i}: invalid JSON ({e.msg})") from None
            except (ValueError, RecursionError) as e:
                # too deeply nested, or an integer past Python's digit limit
                raise CheckpointCorrupt(f"line {i}: unreadable JSON ({e})") from None
            rec = record_from_dict(obj)
            out[(rec.a, rec.b)] = rec
    return out


# ----------------------------------------------------------------------
# per-pair evaluation


def evaluate_pair(a: int, b: int, s: int, pi_star: int, pi_s: int) -> VerificationRecord:
    """Assemble all verdicts from the computed counts."""
    amin = a if a <= b else b
    if amin >= 3 and s >= 2:
        rhs = bounds.thm2_rhs(amin, s)
        holds = bounds.pi_star_exceeds_thm2_rhs(pi_star, amin, s, rhs)
    else:
        rhs = math.nan
        holds = True  # threshold undefined; treated as vacuously holding
    thm1 = 100 * pi_star >= 4 * pi_s
    diff = 2 * pi_star - pi_s
    if diff > 0:
        coj1 = COJ1_STRICT
    elif diff == 0:
        coj1 = COJ1_EQUALITY
    else:
        coj1 = COJ1_FAIL
    coj2 = COJ2_HOLDS if holds else COJ2_EXCEPTION
    return VerificationRecord(a, b, s, pi_star, pi_s, rhs, holds, thm1, coj1, coj2)


def _cross_check(pair, pi_star: int, pi_s: int, brute_cap: int):
    """Raise unless fast, and brute force when s <= brute_cap, give the kernel's (pi_star, pi_s).

    Neither route shares code with the residue-sum kernel: fast applies the
    membership test to every prime <= s, brute force marks the semigroup.
    """
    other = pistar.pi_star_fast(pair)
    if (other.pi_star, other.pi_s) == (pi_star, pi_s) and pair.s <= brute_cap:
        other = pistar.pi_star_bruteforce(pair, cap=brute_cap)
    if (other.pi_star, other.pi_s) != (pi_star, pi_s):
        raise RuntimeError(
            f"method disagreement at ({pair.a},{pair.b}): {other.method} gives (pi_star, pi_s) = "
            f"({other.pi_star}, {other.pi_s}), {pistar.METHOD_RESIDUE} ({pi_star}, {pi_s})"
        )


def check_pair(a: int, b: int, cross_check: bool = False, brute_cap: int = pistar.BRUTE_FORCE_CAP) -> VerificationRecord:
    """Full verdict record for one pair, the one-b case of the sweep; optionally cross-checked."""
    new_pair(a, b)  # NotCoprime or ValueError before any prime table is built
    return _sweep_chunk(a, [b], cross_check, brute_cap)[0]


# ----------------------------------------------------------------------
# grid iteration with a shared per-a prime table


def exp_threshold_b_max(a: int) -> int:
    """Largest b covered by the per-a direct strict-half check, 2 <= a <= 10."""
    if a == 9:
        return 2325
    if a == 10:
        return 6687
    if 2 <= a <= 8:
        return math.floor(math.exp(1.5 * (a - 1)) / (a - 1) + 2)
    raise DomainError("direct-check threshold defined for 2 <= a <= 10")


def b_limit(rule: str, a: int, b_max: int = None) -> int:
    if rule == B_RULE_UPTO:
        if b_max is None:
            raise ValueError("b rule 'upto' needs an explicit bound")
        return b_max
    if rule == B_RULE_50A2:
        return 50 * a * a
    if rule == B_RULE_EXP:
        return exp_threshold_b_max(a)
    raise ValueError(f"unknown b rule {rule!r}")


def _coprime_bs(a: int, lo: int, hi: int) -> list:
    return [b for b in range(lo, hi + 1) if math.gcd(a, b) == 1]


# (b, v) queries per block of iter_pair_stats: a block holds _MAX_QUERIES // (a-1)
# values of b, so each of the kernel's a-1 searchsorted calls answers at most that
# many queries and its working arrays stay O(_MAX_QUERIES / a); each block splits
# its prime table into the classes mod a once
_MAX_QUERIES = 1 << 20


def iter_pair_stats(a: int, bs):
    """Yield (b, s, pi_star, pi_s) for each b in input order, a block of b values at a time.

    Pairs with s < 2 (a == 1 or b == 1 among them) give (0, 0): no prime is <= s.
    """
    bs = np.fromiter(bs, dtype=np.int64)
    step = max(1, _MAX_QUERIES // max(a - 1, 1))
    for i in range(0, bs.size, step):
        block = bs[i : i + step]
        s = a * block - a - block
        table = primelib.primes_array(max(int(s.max()), 2))
        pi_s = np.searchsorted(table, s, side="right")
        pi_star = pistar.gap_prime_counts(a, block, s + 1)
        yield from zip(block.tolist(), s.tolist(), pi_star.tolist(), pi_s.tolist())


# ----------------------------------------------------------------------
# scans


def scan_coj2_exceptions(a_max: int, b_rule: str = B_RULE_50A2, b_max: int = None, a_min: int = 3) -> list:
    """All pairs with b > a in the grid where the thm2 threshold fails, ascending."""
    cfg = SweepConfig(a_min=max(a_min, 3), a_max=a_max, b_rule=b_rule, b_max=b_max)
    return sweep(cfg).summary.coj2_exceptions


def _half_bound_scan(a: int, b_hi: int):
    """(n_pairs, equalities, failures) of 2*pi_star vs pi(s) over coprime a < b <= b_hi."""
    n_pairs = 0
    equalities = []
    failures = []
    for b, s, ps, pis in iter_pair_stats(a, _coprime_bs(a, a + 1, b_hi)):
        n_pairs += 1
        diff = 2 * ps - pis
        if diff == 0:
            equalities.append((a, b))
        elif diff < 0:
            failures.append((a, b))
    return n_pairs, equalities, failures


@dataclass(frozen=True)
class Coj1ScanResult:
    equalities: list  # (a, b) pairs with a >= 2 and 2*pi_star == pi_s
    failures: list  # (a, b) pairs with 2*pi_star < pi_s (expected none)
    a1_family_checked: int  # sampled b count for a = 1; each is an equality


def scan_coj1_equalities(a_max: int, b_max: int = None) -> Coj1ScanResult:
    """Equality and failure pairs for the half-bound comparison.

    b_max None means the per-a direct-check threshold; the a = 1 family
    (always 0 = 0) is sampled rather than listed pair by pair.
    """
    equalities = []
    failures = []
    a1_checked = 0
    for b in range(1, 101):
        r = pistar.pi_star_fast(new_pair(1, b))
        if 2 * r.pi_star != r.pi_s:
            failures.append((1, b))
        a1_checked += 1
    for a in range(2, a_max + 1):
        hi = b_max if b_max is not None else exp_threshold_b_max(a)
        _, eq, fail = _half_bound_scan(a, hi)
        equalities += eq
        failures += fail
    return Coj1ScanResult(equalities, failures, a1_checked)


# ----------------------------------------------------------------------
# finite reproduction of the headline claims


@dataclass(frozen=True)
class Thm3Report:
    a: int
    b_direct_max: int
    threshold_exceptions: list
    expected_threshold_exceptions: list
    half_equalities: list
    expected_half_equalities: list
    half_failures: list
    window_ok: bool  # None when no window clause applies

    @property
    def passed(self) -> bool:
        return (
            self.threshold_exceptions == self.expected_threshold_exceptions
            and self.half_equalities == self.expected_half_equalities
            and not self.half_failures
            and self.window_ok in (None, True)
        )


def _strict_half_window_ok(a: int) -> bool:
    """pi(n) < (n / log n)(1 + 1/(a-1)) for every integer n in (s_min, e^{3(a-1)/2}]."""
    lo = _WINDOW_S_MIN[a]
    hi = math.floor(math.exp(1.5 * (a - 1)))
    table = primelib.primes_array(hi)
    ns = np.arange(lo + 1, hi + 1, dtype=np.int64)
    counts = np.searchsorted(table, ns, side="right")
    rhs = ns / np.log(ns) * (1.0 + 1.0 / (a - 1))
    # a row within the guard's margin is re-decided in intervals, so np.log's last bit cannot flip a verdict
    below = bounds.guarded_greater_column(
        rhs, counts, lambda i: _window_rhs_iv(a, int(ns[i])), lambda i: lambda iv: iv.mpf(int(counts[i]))
    )
    return bool(below.all())


def _window_rhs_iv(a: int, n: int):
    return lambda iv: iv.mpf(n) / iv.log(iv.mpf(n)) * (1 + iv.mpf(1) / (a - 1))


def reproduce_thm3(a: int) -> Thm3Report:
    """Run every finite check behind the thm3 claim for one a in [3, 10]."""
    if not 3 <= a <= 10:
        raise DomainError("thm3 covers 3 <= a <= 10")
    exceptions = scan_coj2_exceptions(a, B_RULE_50A2, a_min=a)
    expected_exc = [(x, y) for x, y in EXPECTED_COJ2_EXCEPTIONS if x == a]
    b_direct = exp_threshold_b_max(a)
    _, equalities, failures = _half_bound_scan(a, b_direct)
    expected_eq = [(3, 5)] if a == 3 else []
    window_ok = _strict_half_window_ok(a) if a in _WINDOW_S_MIN else None
    return Thm3Report(a, b_direct, exceptions, expected_exc, equalities, expected_eq, failures, window_ok)


@dataclass(frozen=True)
class Thm1CaseReport:
    case_id: int
    n_pairs: int  # pairs in the computational branch (0 when purely analytic)
    computational_failures: list
    analytic_min: float  # None when the case has no analytic branch
    analytic_threshold: float
    analytic_ok: bool

    @property
    def ok(self) -> bool:
        return not self.computational_failures and self.analytic_ok


def h_poly(a: int) -> int:
    """Smallest s on the grid when b > a: s at b = a + 1."""
    return a * a - a - 1


def g_poly(a: int) -> int:
    """Smallest s when b > 1000: s at b = 1001."""
    return 1000 * a - 1001


def case1_sample_points(n: int = 200, lo: int = 60001, hi: int = 10_000_000) -> list:
    return bounds.log_spaced_ints(lo, hi, n)


def _delta_scan(d: Fraction, a, s_of_a, threshold: Fraction):
    """(min of delta(d, a, s_of_a(a)) over the column a, whether every value exceeds threshold)."""
    a = np.asarray(a, dtype=np.int64)
    vals, above = bounds.delta_exceeds_column(d, a, s_of_a(a), threshold)
    return float(vals.min()), bool(above.all())


def reproduce_thm1_cases(case_id: int, case1_samples: int = 200) -> Thm1CaseReport:
    """Reproduce the finite checks behind one of the four thm1 regimes.

    1: a > 6*10**4           delta(0.1, a, a**2-a-1) > 0.0445 on sampled a
    2: 181 <= a <= 6*10**4   delta(0.0904, a, a**2-a-1) > 0.0401 for every a
    3: 16 <= a <= 180        b <= 1000 computational branch plus
                             delta(0.095, a, 1000a-1001) > 0.0425 for every a
    4: 3 <= a <= 15          b <= 180 half-bound branch plus the closed
                             constant > 0.05334 for every a
    """
    if case_id == 1:
        worst, ok = _delta_scan(CASE1_DELTA, case1_sample_points(case1_samples), h_poly, CASE1_THRESHOLD)
        return Thm1CaseReport(1, 0, [], worst, float(CASE1_THRESHOLD), ok)
    if case_id == 2:
        worst, ok = _delta_scan(CASE2_DELTA, range(181, 60001), h_poly, CASE2_THRESHOLD)
        return Thm1CaseReport(2, 0, [], worst, float(CASE2_THRESHOLD), ok)
    if case_id == 3:
        failures = []
        n_pairs = 0
        for a in range(16, 181):
            # at most 985 b values: one call of the kernel
            bs = np.array(_coprime_bs(a, a + 1, 1000), dtype=np.int64)
            s = a * bs - a - bs
            pi_s = np.searchsorted(primelib.primes_array(int(s.max())), s, side="right")
            low_gaps = pistar.gap_prime_counts(a, bs, s // 20 + 1)
            failures += [(a, b) for b in bs[10_000 * low_gaps <= 663 * pi_s].tolist()]
            n_pairs += bs.size
        worst, ok = _delta_scan(CASE3_DELTA, range(16, 181), g_poly, CASE3_THRESHOLD)
        return Thm1CaseReport(3, n_pairs, failures, worst, float(CASE3_THRESHOLD), ok)
    if case_id == 4:
        failures = []
        n_pairs = 0
        for a in range(3, 16):
            n, _, fail = _half_bound_scan(a, 180)
            n_pairs += n
            failures += fail
        worst = min(bounds.case4_constant(a) for a in range(3, 16))
        ok = all(bounds.case4_constant_exceeds(a, CASE4_THRESHOLD) for a in range(3, 16))
        return Thm1CaseReport(4, n_pairs, failures, worst, float(CASE4_THRESHOLD), ok)
    raise ValueError("case_id must be 1, 2, 3 or 4")


# ----------------------------------------------------------------------
# sweep engine


@dataclass(frozen=True)
class SweepConfig:
    a_min: int = 3
    a_max: int = 10
    b_rule: str = B_RULE_50A2
    b_max: int = None
    cross_check: bool = False
    workers: int = 1
    checkpoint_path: str = None
    brute_cap: int = pistar.BRUTE_FORCE_CAP


@dataclass(frozen=True)
class SweepSummary:
    n_pairs: int
    coj2_exceptions: list
    coj1_equalities: list
    coj1_failures: list
    thm1_failures: list


@dataclass(frozen=True)
class SweepResult:
    records: list
    summary: SweepSummary


def grid_pairs(cfg: SweepConfig) -> dict:
    """Coprime b values per a, always with b > a."""
    out = {}
    for a in range(cfg.a_min, cfg.a_max + 1):
        hi = b_limit(cfg.b_rule, a, cfg.b_max)
        bs = _coprime_bs(a, a + 1, hi)
        if bs:
            out[a] = bs
    return out


def _sweep_chunk(a, bs, cross_check, brute_cap):
    out = []
    for b, s, ps, pis in iter_pair_stats(a, bs):
        if cross_check:
            _cross_check(new_pair(a, b), ps, pis, brute_cap)
        out.append(evaluate_pair(a, b, s, ps, pis))
    return out


def _summarize(records) -> SweepSummary:
    return SweepSummary(
        n_pairs=len(records),
        coj2_exceptions=[(r.a, r.b) for r in records if r.coj2_status == COJ2_EXCEPTION],
        coj1_equalities=[(r.a, r.b) for r in records if r.coj1_status == COJ1_EQUALITY],
        coj1_failures=[(r.a, r.b) for r in records if r.coj1_status == COJ1_FAIL],
        thm1_failures=[(r.a, r.b) for r in records if not r.thm1_holds],
    )


def sweep(cfg: SweepConfig) -> SweepResult:
    """Run the grid, appending finished pairs to the checkpoint as they land.

    Output order is deterministic: records are sorted by (a, b) regardless of
    worker count or resume state. Checkpointed pairs are reused, not recomputed.
    """
    grid = grid_pairs(cfg)
    done = load_checkpoint(cfg.checkpoint_path) if cfg.checkpoint_path else {}
    reused = []
    tasks = []
    for a, bs in grid.items():
        pending = []
        for b in bs:
            if (a, b) in done:
                reused.append(done[(a, b)])
            else:
                pending.append(b)
        for i in range(0, len(pending), _CHUNK):
            tasks.append((a, pending[i : i + _CHUNK]))

    new_records = []
    if cfg.checkpoint_path:
        _trim_torn_tail(cfg.checkpoint_path)
        ckpt = open(cfg.checkpoint_path, "a", encoding="utf-8")
    else:
        ckpt = None
    try:

        def emit(chunk_records):
            new_records.extend(chunk_records)
            if ckpt is not None:
                ckpt.write("".join(record_to_json(rec) + "\n" for rec in chunk_records))
                ckpt.flush()

        # the pool forks all of its processes at the first submit: never more than there is work and cpus for
        workers = min(cfg.workers, len(tasks), os.cpu_count() or 1)
        if workers <= 1:
            for a, bs in tasks:
                emit(_sweep_chunk(a, bs, cfg.cross_check, cfg.brute_cap))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_sweep_chunk, a, bs, cfg.cross_check, cfg.brute_cap) for a, bs in tasks
                ]
                for fut in as_completed(futures):
                    emit(fut.result())
    finally:
        if ckpt is not None:
            ckpt.close()

    records = sorted(reused + new_records, key=lambda r: (r.a, r.b))
    return SweepResult(records, _summarize(records))
