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

The sweep carries records as columns (RecordColumns), one block of b values of
one a at a time: _verdict_columns decides every verdict of a block at once,
csv_lines and json_lines build its output lines from one template each, and
only a caller that reads SweepResult.records gets one VerificationRecord per
pair. A checkpoint is reused a block of lines at a time: each line must equal,
byte for byte, the canonical line that json_lines derives from the counts in
its head; any other complete line is parsed and re-derived on its own
(record_from_dict), so a valid but differently written line is still reused
and a bad one is reported with its line number.
"""

import itertools
import json
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

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


class RecordColumns(NamedTuple):
    """Verification records of a run of pairs, one array per field.

    a, b, s, pi_star and pi_s are int64 columns (object columns of Python ints
    where a value does not fit int64); thm2_rhs is float, nan where the
    threshold is undefined; thm2 and thm1 are bool; coj1 is the sign of
    2*pi_star - pi_s as int8, and coj2 follows from thm2.
    """

    a: np.ndarray
    b: np.ndarray
    s: np.ndarray
    pi_star: np.ndarray
    pi_s: np.ndarray
    thm2_rhs: np.ndarray
    thm2: np.ndarray
    thm1: np.ndarray
    coj1: np.ndarray

    def take(self, index) -> "RecordColumns":
        """The rows at index (a slice, a mask or positions), as columns."""
        return RecordColumns(*(col[index] for col in self))

    def records(self) -> list:
        """One VerificationRecord per row."""
        thm2 = self.thm2.tolist()
        return list(
            map(
                VerificationRecord,
                self.a.tolist(),
                self.b.tolist(),
                self.s.tolist(),
                self.pi_star.tolist(),
                self.pi_s.tolist(),
                self.thm2_rhs.tolist(),
                thm2,
                self.thm1.tolist(),
                [_COJ1_BY_SIGN[k + 1] for k in self.coj1.tolist()],
                [COJ2_HOLDS if h else COJ2_EXCEPTION for h in thm2],
            )
        )


_COJ1_BY_SIGN = (COJ1_FAIL, COJ1_EQUALITY, COJ1_STRICT)  # by sign(2*pi_star - pi_s) + 1


def _int_column(values) -> np.ndarray:
    """An int64 column of Python ints, or an object column when one of them does not fit int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _concat(blocks) -> RecordColumns:
    if not blocks:
        return _verdict_columns(*(np.zeros(0, dtype=np.int64),) * 5)
    return RecordColumns(*map(np.concatenate, zip(*blocks)))


# ----------------------------------------------------------------------
# record serialization (canonical outputs carry ms = 0 so runs are replayable)

# the fields after thm2_rhs, thm2, thm1, coj1, coj2 and ms, indexed as _tails indexes them
_CSV_TAILS = tuple(
    f"{str(h2).lower()},{str(h1).lower()},{c1},{COJ2_HOLDS if h2 else COJ2_EXCEPTION},0"
    for h2 in (False, True)
    for h1 in (False, True)
    for c1 in _COJ1_BY_SIGN
)
_JSON_TAILS = tuple(
    f'"thm2": {str(h2).lower()}, "thm1": {str(h1).lower()}, "coj1": "{c1}", '
    f'"coj2": "{COJ2_HOLDS if h2 else COJ2_EXCEPTION}", "ms": 0}}'
    for h2 in (False, True)
    for h1 in (False, True)
    for c1 in _COJ1_BY_SIGN
)
_CSV_LINE = "%d,%d,%d,%d,%d,%.6g,%s"
_JSON_LINE = '{"schema": %d, "a": %%d, "b": %%d, "s": %%d, "pi_star": %%d, "pi_s": %%d, "thm2_rhs": %%s, %%s' % SCHEMA_VERSION


def _tails(cols: RecordColumns, table) -> list:
    index = cols.thm2 * 6 + cols.thm1 * 3 + cols.coj1 + 1
    return list(map(table.__getitem__, index.tolist()))


def _lines(template: str, cols: RecordColumns, rhs: list, tails: list) -> list:
    ints = (col.tolist() for col in (cols.a, cols.b, cols.s, cols.pi_star, cols.pi_s))
    return list(map(template.__mod__, zip(*ints, rhs, tails)))


def csv_lines(cols: RecordColumns) -> list:
    """One CSV row per record, in CSV_HEADER's columns, without newlines; nan prints as nan."""
    return _lines(_CSV_LINE, cols, cols.thm2_rhs.tolist(), _tails(cols, _CSV_TAILS))


def json_lines(cols: RecordColumns) -> list:
    """json.dumps(record_to_dict(rec)) for each record, byte for byte, without newlines."""
    rhs = cols.thm2_rhs.tolist()  # %s of a float is its repr, as json.dumps writes it
    for i in np.flatnonzero(np.isnan(cols.thm2_rhs)).tolist():
        rhs[i] = "null"
    return _lines(_JSON_LINE, cols, rhs, _tails(cols, _JSON_TAILS))


def _record_row(rec: VerificationRecord) -> RecordColumns:
    """The one-row columns of a record; coj2 follows from thm2_holds, as evaluate_pair sets it."""
    return RecordColumns(
        *(_int_column([x]) for x in (rec.a, rec.b, rec.s, rec.pi_star, rec.pi_s)),
        np.array([rec.thm2_rhs], dtype=float),
        np.array([rec.thm2_holds]),
        np.array([rec.thm1_holds]),
        np.array([_COJ1_BY_SIGN.index(rec.coj1_status) - 1], dtype=np.int8),
    )


def record_to_csv(rec: VerificationRecord) -> str:
    return csv_lines(_record_row(rec))[0]


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
    return json_lines(_record_row(rec))[0]


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


# the head of a canonical checkpoint line, up to thm2_rhs. The digit limits keep a, b, s = ab - a - b
# and the counts inside int64. When a block holds as many heads as lines, the k-th head is taken as line
# k's, else each line is matched on its own; the byte comparison of each line with the line derived from
# its head catches a head taken from elsewhere, and a line with larger values, or without a head, is
# read the general way.
_CANONICAL_HEAD = re.compile(
    rb'\{"schema": 1, "a": (\d{1,9}), "b": (\d{1,9}), "s": \d+, "pi_star": (\d{1,18}), "pi_s": (\d{1,18}), '
)
_NO_HEAD = (b"0",) * 4  # stands in for a line without a head; no such line equals the line derived from it
_READ_HINT = 1 << 20  # bytes of complete lines per block


def _decode_line(i: int, line: bytes) -> VerificationRecord:
    """The record of checkpoint line i, parsed and re-derived on its own."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError:
        raise CheckpointCorrupt(f"line {i}: invalid UTF-8") from None
    except json.JSONDecodeError as e:
        raise CheckpointCorrupt(f"line {i}: invalid JSON ({e.msg})") from None
    except (ValueError, RecursionError) as e:
        # too deeply nested, or an integer past Python's digit limit
        raise CheckpointCorrupt(f"line {i}: unreadable JSON ({e})") from None
    return record_from_dict(obj)


def _checkpoint_block(lines: list, first: int) -> RecordColumns:
    """Records of the complete checkpoint lines numbered first, first + 1, ..., in file order.

    A line is taken as it is when it equals, byte for byte, the canonical line
    of the counts in its head, with pi_star <= pi_s; every other line goes
    through _decode_line, in file order, so it is accepted or rejected, with
    its message, exactly as if every line were parsed.
    """
    data = b"".join(lines)
    heads = _CANONICAL_HEAD.findall(data)
    if len(heads) != len(lines):  # a line without a head, or with two: take each line's own
        heads = [m.groups() if (m := _CANONICAL_HEAD.match(line)) else _NO_HEAD for line in lines]
    digits = b" ".join(itertools.chain.from_iterable(heads))
    a, b, pi_star, pi_s = np.fromstring(digits, dtype=np.int64, sep=" ").reshape(-1, 4).T
    cols = _verdict_columns(a, b, a * b - a - b, pi_star, pi_s)
    derived = ("\n".join(json_lines(cols)) + "\n").encode()
    ordered = pi_star <= pi_s
    if derived == data and ordered.all():
        return cols
    rows = []
    for k, (line, want, ok) in enumerate(zip(lines, derived.splitlines(True), ordered.tolist())):
        if line == want and ok:
            rows.append(tuple(int(col[k]) for col in cols[:5]))
        else:
            rec = _decode_line(first + k, line)
            rows.append((rec.a, rec.b, rec.s, rec.pi_star, rec.pi_s))
    return _verdict_columns(*(_int_column(list(col)) for col in zip(*rows)))


def _sorted_unique(cols: RecordColumns) -> RecordColumns:
    """cols in (a, b) order; of rows with equal (a, b) the last one is kept, as a dict keyed by (a, b) keeps it."""
    cols = cols.take(np.lexsort((cols.b, cols.a)))
    last = np.ones(len(cols.a), dtype=bool)
    last[:-1] = (cols.a[1:] != cols.a[:-1]) | (cols.b[1:] != cols.b[:-1])
    return cols.take(last)


def load_checkpoint(path: str, columns: bool = False):
    """Completed records keyed by (a, b); with columns=True, the same records as RecordColumns in (a, b) order.

    A final line without a terminating newline is an interrupted append; the
    pair is simply recomputed. Any complete line that fails to decode, parse
    or validate, or whose s and verdicts do not re-derive from its counts,
    raises CheckpointCorrupt. Lines are read a block at a time, and a block of
    canonical lines is checked by one byte comparison (_checkpoint_block).
    """
    blocks = []
    if os.path.exists(path):
        with open(path, "rb") as fh:
            n_read = 0
            while lines := fh.readlines(_READ_HINT):
                if not lines[-1].endswith(b"\n"):
                    lines.pop()  # only the last line of the file can lack its newline
                if lines:
                    blocks.append(_checkpoint_block(lines, n_read + 1))
                    n_read += len(lines)
    rows = _concat(blocks)
    if columns:
        return _sorted_unique(rows)
    return {(rec.a, rec.b): rec for rec in rows.records()}


# ----------------------------------------------------------------------
# per-pair evaluation


def _verdict_columns(a, b, s, pi_star, pi_s) -> RecordColumns:
    """Every verdict of the pairs (a_i, b_i) from their counts, over integer columns of one length.

    Rows with min(a, b) >= 3 and s >= 2 get thm2_rhs = bounds.thm2_rhs_column
    (row for row the scalar bounds.thm2_rhs) and the guarded thm2 verdict;
    the rest get nan and a vacuously true thm2. thm1 and coj1 are exact
    integer comparisons with no intermediate past int64: 100 pi_star >= 4 pi_s
    iff pi_star >= ceil(pi_s / 25), and 2 pi_star - pi_s has the sign of
    pi_star - pi_s / 2.
    """
    amin = np.minimum(a, b)
    defined = (amin >= 3) & (s >= 2)
    rhs = np.full(len(a), np.nan)
    thm2 = np.ones(len(a), dtype=bool)
    am, sd, psd = amin[defined], s[defined], pi_star[defined]
    rhs[defined] = bounds.thm2_rhs_column(am, sd)
    thm2[defined] = bounds.pi_star_exceeds_thm2_rhs_column(psd, am, sd, rhs[defined])
    thm1 = pi_star >= pi_s // 25 + (pi_s % 25 != 0)
    half = pi_s // 2
    coj1 = np.where(pi_star > half, 1, np.where((pi_star == half) & (pi_s % 2 == 0), 0, -1)).astype(np.int8)
    return RecordColumns(a, b, s, pi_star, pi_s, rhs, thm2, thm1, coj1)


def pair_columns(a: int, b: int, s: int, pi_star: int, pi_s: int) -> RecordColumns:
    """The one-row RecordColumns of a pair's counts; integers past int64 are evaluated exactly too."""
    return _verdict_columns(*(_int_column([x]) for x in (a, b, s, pi_star, pi_s)))


def evaluate_pair(a: int, b: int, s: int, pi_star: int, pi_s: int) -> VerificationRecord:
    """Assemble all verdicts from the computed counts: the one-row call of _verdict_columns."""
    return pair_columns(a, b, s, pi_star, pi_s).records()[0]


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
    return _sweep_chunk(a, [b], cross_check, brute_cap).records()[0]


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


def _coprime_bs(a: int, lo: int, hi: int) -> np.ndarray:
    bs = np.arange(lo, hi + 1, dtype=np.int64)
    return bs[np.gcd(bs, a) == 1]


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
            bs = _coprime_bs(a, a + 1, 1000)
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


@dataclass(frozen=True, eq=False)
class SweepResult:
    columns: RecordColumns  # every record of the grid, in (a, b) order
    summary: SweepSummary

    @cached_property
    def records(self) -> list:
        """The VerificationRecord of each pair in (a, b) order, built on first access."""
        return self.columns.records()


def grid_pairs(cfg: SweepConfig) -> dict:
    """Coprime b values per a, always with b > a."""
    out = {}
    for a in range(cfg.a_min, cfg.a_max + 1):
        hi = b_limit(cfg.b_rule, a, cfg.b_max)
        bs = _coprime_bs(a, a + 1, hi)
        if bs.size:
            out[a] = bs
    return out


def _sweep_chunk(a, bs, cross_check, brute_cap) -> RecordColumns:
    # the counts pass through iter_pair_stats one pair at a time, so a wrapper of it (the traced pass
    # of perfbench) sees every computed pair
    rows = np.fromiter(itertools.chain.from_iterable(iter_pair_stats(a, bs)), dtype=np.int64).reshape(-1, 4)
    if cross_check:
        for b, _, ps, pis in rows.tolist():
            _cross_check(new_pair(a, b), ps, pis, brute_cap)
    b, s, pi_star, pi_s = rows.T.copy()
    return _verdict_columns(np.full_like(b, a), b, s, pi_star, pi_s)


def _summarize(cols: RecordColumns) -> SweepSummary:
    def pairs(mask):
        return list(zip(cols.a[mask].tolist(), cols.b[mask].tolist()))

    return SweepSummary(
        n_pairs=len(cols.a),
        coj2_exceptions=pairs(~cols.thm2),
        coj1_equalities=pairs(cols.coj1 == 0),
        coj1_failures=pairs(cols.coj1 < 0),
        thm1_failures=pairs(~cols.thm1),
    )


def sweep(cfg: SweepConfig) -> SweepResult:
    """Run the grid, appending finished blocks to the checkpoint as they land.

    Output order is deterministic: records are sorted by (a, b) regardless of
    worker count or resume state. Checkpointed pairs are reused, not recomputed;
    reused and new blocks are merged one a at a time.
    """
    grid = grid_pairs(cfg)
    done = load_checkpoint(cfg.checkpoint_path, columns=True) if cfg.checkpoint_path else _concat([])
    blocks = {}  # a -> reused and new RecordColumns
    tasks = []
    for a, bs in grid.items():
        lo, hi = np.searchsorted(done.a, [a, a + 1])
        old = done.take(slice(lo, hi))
        blocks[a] = [old.take(np.isin(old.b, bs))]
        pending = bs[~np.isin(bs, old.b)]
        for i in range(0, pending.size, _CHUNK):
            tasks.append((a, pending[i : i + _CHUNK]))

    if cfg.checkpoint_path:
        _trim_torn_tail(cfg.checkpoint_path)
        ckpt = open(cfg.checkpoint_path, "a", encoding="utf-8")
    else:
        ckpt = None
    try:

        def emit(block):
            blocks[int(block.a[0])].append(block)
            if ckpt is not None:
                ckpt.write("\n".join(json_lines(block)) + "\n")
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

    rows = []
    for parts in blocks.values():
        merged = _concat(parts)
        rows.append(merged.take(np.argsort(merged.b, kind="stable")))
    cols = _concat(rows)
    return SweepResult(cols, _summarize(cols))
