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

Every finite scan of full counts over a grid of pairs (coj2 and thm2, the
exception and half-bound scans of thm3, which share one sweep per a, the
half-bound scan of coj1, thm1 case 4 and the thm1 grid) is one call of
sweep, and _summarize is the one place verdict columns become pair lists,
and the one place that decides which catalogued pairs a grid must reproduce
(those that are rows of it); thm1 case 3, which counts only the gap primes
up to s/20, calls the kernel (pistar.gap_prime_counts, a walk over sieve
windows; no prime table) itself.
The sweep carries records as columns (RecordColumns), BLOCK_ROWS values of b
of one a at a time, from the kernel to the verdicts:
_verdict_columns decides every verdict of a block at once, csv_lines and
json_lines build output and checkpoint lines from one template each,
_LINE_ROWS rows at a time (write_lines), and only a caller that reads
SweepResult.records gets one VerificationRecord per pair. A
checkpoint is reused a block of lines at a time: each line must equal, byte
for byte, the canonical line that json_lines derives from the counts in its
head; any other complete line is parsed, checked and re-derived on its own
(_line_columns, which record_from_dict calls too), so a valid but
differently written line is still reused and the first bad one is reported
with its line number or its pair.
"""

import contextlib
import itertools
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import bounds, pistar
from . import primes as primelib
from .errors import CheckpointCorrupt, DomainError, MethodDisagreement
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

# rows per block: the most b values of one sweep task, and so of one kernel call (its working arrays are
# O(rows) besides one sieve window, and each call walks the windows up to its own largest query)
BLOCK_ROWS = 1 << 16
# rows per slice of output lines (write_lines): the most CSV or JSON lines alive at a time
_LINE_ROWS = 1 << 12

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
    """The canonical checkpoint line of each record, as json.dumps writes it, without newlines."""
    rhs = cols.thm2_rhs.tolist()  # %s of a float is its repr, as json.dumps writes it
    for i in np.flatnonzero(np.isnan(cols.thm2_rhs)).tolist():
        rhs[i] = "null"
    return _lines(_JSON_LINE, cols, rhs, _tails(cols, _JSON_TAILS))


def write_lines(fh, lines, cols: RecordColumns):
    """Write lines(cols) (csv_lines or json_lines) to fh, each with its newline, _LINE_ROWS rows at a time."""
    for i in range(0, len(cols.a), _LINE_ROWS):
        fh.write("\n".join(lines(cols.take(slice(i, i + _LINE_ROWS)))) + "\n")


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
    """The checkpoint line of a record as a dict; thm2_rhs is None where it is nan."""
    return json.loads(record_to_json(rec))


def record_to_json(rec: VerificationRecord) -> str:
    """The canonical checkpoint line of a record, without newline; json.dumps of record_to_dict gives it back."""
    return json_lines(_record_row(rec))[0]


def _checked_counts(obj) -> tuple:
    """(a, b, s, pi_star, pi_s) of a checkpoint object whose fields, types and counts are plausible."""
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
    a, b, s, pi_star, pi_s = (obj[key] for key in ("a", "b", "s", "pi_star", "pi_s"))
    if s != a * b - a - b:
        raise CheckpointCorrupt(f"({a},{b}): s = {s} is not a*b - a - b")
    if not 0 <= pi_star <= pi_s:
        raise CheckpointCorrupt(f"({a},{b}): counts pi_star = {pi_star}, pi_s = {pi_s} out of order")
    return a, b, s, pi_star, pi_s


def _possible(s, pi_s):
    """Whether pi(s) = pi_s can be (integers or columns): none if s < 2, else at most 2 and the odd n in [3, s]."""
    return (pi_s == 0) | ((s >= 2) & (pi_s <= s - s // 2))


def _check_derived(obj: dict, line: str):
    """Raise CheckpointCorrupt unless obj, ms aside, equals the line derived from its counts, and pi_s is _possible."""
    derived = json.loads(line)  # dicts, not records, so that null == null where nan != nan
    derived["ms"] = obj["ms"]
    if derived != obj:
        raise CheckpointCorrupt(
            f"({obj['a']},{obj['b']}): fields {[k for k in obj if obj[k] != derived[k]]} disagree with the counts"
        )
    if not _possible(obj["s"], obj["pi_s"]):
        a, b, s, pi_s = (obj[key] for key in ("a", "b", "s", "pi_s"))
        raise CheckpointCorrupt(f"({a},{b}): pi_s = {pi_s} is more primes than fit up to s = {s}")


def _line_columns(obj) -> RecordColumns:
    """The one-row columns of a checkpoint object, reused only if its counts are plausible and re-derive every other field."""
    a, b, s, pi_star, pi_s = _checked_counts(obj)
    try:
        cols = pair_columns(a, b, s, pi_star, pi_s)
    except (OverflowError, ValueError) as e:
        raise CheckpointCorrupt(f"({a},{b}): cannot re-derive the verdicts ({e})") from None
    _check_derived(obj, json_lines(cols)[0])
    return cols


def record_from_dict(obj) -> VerificationRecord:
    """The record of a checkpoint object, checked as _line_columns checks it."""
    return _line_columns(obj).records()[0]


# the head of a canonical checkpoint line, up to thm2_rhs, matched at the start of each line. The digit
# limits keep a, b, s = ab - a - b and the counts inside int64; the byte comparison of each line with the
# line derived from its head catches the rest, and a line with larger values, or without a head, is
# parsed and checked on its own.
_CANONICAL_HEAD = re.compile(
    rb'\{"schema": 1, "a": (\d{1,9}), "b": (\d{1,9}), "s": \d+, "pi_star": (\d{1,18}), "pi_s": (\d{1,18}), '
)
_NO_HEAD = (b"0",) * 4  # stands in for a line without a head; no such line equals the line derived from it
_READ_HINT = 1 << 20  # bytes of complete lines per block


def _parse_line(i: int, line: bytes):
    """The JSON value of checkpoint line i."""
    try:
        return json.loads(line.decode("utf-8"))
    except UnicodeDecodeError:
        raise CheckpointCorrupt(f"line {i}: invalid UTF-8") from None
    except json.JSONDecodeError as e:
        raise CheckpointCorrupt(f"line {i}: invalid JSON ({e.msg})") from None
    except (ValueError, RecursionError) as e:
        # too deeply nested, or an integer past Python's digit limit
        raise CheckpointCorrupt(f"line {i}: unreadable JSON ({e})") from None


def _checkpoint_block(lines: list, first: int) -> RecordColumns:
    """Records of the complete checkpoint lines numbered first, first + 1, ..., in file order.

    A line is taken as it is when it equals, byte for byte, the canonical line
    of the counts in its head, with pi_star <= pi_s and a possible pi_s
    (_possible); a block of such lines costs one byte comparison. Every other
    line is parsed and checked on its own, in file order (_line_columns), and
    its one row goes between the slices of the lines taken as they are; the
    first bad line raises.
    """
    data = b"".join(lines)
    heads = [m.groups() if (m := _CANONICAL_HEAD.match(line)) else _NO_HEAD for line in lines]
    digits = b" ".join(itertools.chain.from_iterable(heads))
    a, b, pi_star, pi_s = np.fromstring(digits, dtype=np.int64, sep=" ").reshape(-1, 4).T
    cols = _verdict_columns(a, b, a * b - a - b, pi_star, pi_s)
    derived = ("\n".join(json_lines(cols)) + "\n").encode()
    ordered = (pi_star <= pi_s) & _possible(cols.s, pi_s)
    if derived == data and ordered.all():
        return cols
    parts, start = [], 0
    for k, (line, want, ok) in enumerate(zip(lines, derived.splitlines(True), ordered.tolist())):
        if line != want or not ok:
            parts += [cols.take(slice(start, k)), _line_columns(_parse_line(first + k, line))]
            start = k + 1
    parts.append(cols.take(slice(start, None)))
    return _concat(parts)


def _sorted_unique(cols: RecordColumns) -> RecordColumns:
    """cols in (a, b) order; of rows with equal (a, b) the last one is kept.

    Rows already in strictly increasing (a, b) order, as the checkpoint of one
    single-process sweep holds them, are returned as they are.
    """
    a, b = cols.a, cols.b
    if np.all((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))):
        return cols
    order = np.lexsort((b, a))  # stable, so of equal (a, b) the later line comes last
    a, b = a[order], b[order]
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return cols.take(order[last])


def load_checkpoint(path: str) -> RecordColumns:
    """Completed records as RecordColumns in (a, b) order; of two lines for one pair, the later one wins.

    A final line without a terminating newline is an interrupted append: its
    pair is recomputed, and once every complete line has validated its bytes
    are cut from the file, so that appends start on a fresh line. Any complete
    line that fails to decode, parse or validate, or whose s and verdicts do
    not re-derive from its counts, raises CheckpointCorrupt and leaves the file
    as it was. Lines are read a block at a time, and a block of canonical lines
    is checked by one byte comparison (_checkpoint_block).
    """
    blocks, torn = [], b""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            n_read = 0
            while lines := fh.readlines(_READ_HINT):
                if not lines[-1].endswith(b"\n"):
                    torn = lines.pop()  # only the last line of the file can lack its newline
                if lines:
                    blocks.append(_checkpoint_block(lines, n_read + 1))
                    n_read += len(lines)
            end = fh.tell()
        if torn:
            os.truncate(path, end - len(torn))
    cols = _concat(blocks)
    blocks.clear()  # let the read blocks go before the rows are sorted
    return _sorted_unique(cols)


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
        raise MethodDisagreement(
            f"method disagreement at ({pair.a},{pair.b}): {other.method} gives (pi_star, pi_s) = "
            f"({other.pi_star}, {other.pi_s}), {pistar.METHOD_RESIDUE} ({pi_star}, {pi_s})"
        )


def check_pair(a: int, b: int, cross_check: bool = False, brute_cap: int = pistar.BRUTE_FORCE_CAP) -> VerificationRecord:
    """Full verdict record for one pair, the one-b case of the sweep; optionally cross-checked. Like compute, it
    raises LimitExceeded before it sieves when s, or a generator (a = 1 has s = -1), passes bounds.X_MAX_CAP."""
    pair = new_pair(a, b)  # NotCoprime or ValueError before anything is sieved
    bounds.check_cap("s", pair.s, bounds.X_MAX_CAP)
    bounds.check_cap("max(a, b)", max(a, b), bounds.X_MAX_CAP)
    return _sweep_chunk(a, [b], cross_check, brute_cap).records()[0]


# ----------------------------------------------------------------------
# grid iteration


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


def iter_pair_stats(a: int, bs):
    """Yield (b, s, pi_star, pi_s) for each b in input order, from one call of the kernel.

    Pairs with s < 2 (a == 1 or b == 1 among them) give (0, 0): no prime is <= s.
    """
    bs = np.fromiter(bs, dtype=np.int64)
    pi_star, pi_s = pistar.gap_prime_counts(a, bs)
    yield from zip(bs.tolist(), (a * bs - a - bs).tolist(), pi_star.tolist(), pi_s.tolist())


# ----------------------------------------------------------------------
# scans


def scan_coj2_exceptions(a_max: int, b_rule: str = B_RULE_50A2, b_max: int = None, a_min: int = 3) -> list:
    """All pairs with b > a in the grid where the thm2 threshold fails, ascending."""
    cfg = SweepConfig(a_min=max(a_min, 3), a_max=a_max, b_rule=b_rule, b_max=b_max)
    return sweep(cfg).summary.coj2_exceptions


@dataclass(frozen=True)
class Coj1ScanResult:
    """The half-bound scan; it passes with no failure and equalities exactly the expected ones of its grid."""

    equalities: list  # (a, b) pairs with a >= 2 and 2*pi_star == pi_s
    expected_equalities: list  # SweepSummary.expected_coj1_equalities of the scan's grid
    failures: list  # (a, b) pairs with 2*pi_star < pi_s (expected none)
    a1_family_checked: int  # sampled b count for a = 1; each is an equality


def scan_coj1_equalities(a_max: int, b_max: int = None) -> Coj1ScanResult:
    """Equality and failure pairs for the half-bound comparison.

    One sweep over a in [2, a_max], b up to b_max, or up to the per-a
    direct-check threshold when b_max is None; the a = 1 family (always
    0 = 0) is sampled rather than listed pair by pair.
    """
    a1 = [pistar.pi_star_fast(new_pair(1, b)) for b in range(1, 101)]
    failures = [(1, r.pair.b) for r in a1 if 2 * r.pi_star != r.pi_s]
    rule = B_RULE_EXP if b_max is None else B_RULE_UPTO
    summary = sweep(SweepConfig(a_min=2, a_max=a_max, b_rule=rule, b_max=b_max)).summary
    expected = summary.expected_coj1_equalities
    return Coj1ScanResult(summary.coj1_equalities, expected, failures + summary.coj1_failures, len(a1))


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
    ns = np.arange(lo + 1, hi + 1, dtype=np.int64)
    counts = np.cumsum(primelib.sieve_segment(0, hi + 1))[lo + 1 :]  # pi(n) for each n of ns
    return bool(bounds.half_window_exceeds_column(a, ns, counts).all())


def reproduce_thm3(a: int) -> Thm3Report:
    """Run every finite check behind the thm3 claim for one a in [3, 10]."""
    if not 3 <= a <= 10:
        raise DomainError("thm3 covers 3 <= a <= 10")
    # one sweep to the larger of the two limits: the exceptions are read over b <= 50a^2, the half bound to b_direct
    b_exc, b_direct = b_limit(B_RULE_50A2, a), exp_threshold_b_max(a)
    cols = sweep(SweepConfig(a_min=a, a_max=a, b_rule=B_RULE_UPTO, b_max=max(b_exc, b_direct))).columns
    exc, half = _summarize(cols.take(cols.b <= b_exc)), _summarize(cols.take(cols.b <= b_direct))
    window_ok = _strict_half_window_ok(a) if a in _WINDOW_S_MIN else None
    found = (exc.coj2_exceptions, exc.expected_coj2_exceptions, half.coj1_equalities, half.expected_coj1_equalities)
    return Thm3Report(a, b_direct, *found, half.coj1_failures, window_ok)


@dataclass(frozen=True)
class Thm1CaseReport:
    """One thm1 case: each has an analytic branch, and cases 3 and 4 a computational one; ok when both hold."""

    case_id: int
    n_pairs: int  # pairs in the computational branch (0 when purely analytic)
    computational_failures: list
    analytic_min: float
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


def case1_sample_points(n: int = 200) -> list:
    return bounds.log_spaced_ints(60001, 10_000_000, n)


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
        worst, ok = _delta_scan(CASE2_DELTA, np.arange(181, 60001), h_poly, CASE2_THRESHOLD)
        return Thm1CaseReport(2, 0, [], worst, float(CASE2_THRESHOLD), ok)
    if case_id == 3:
        failures, n_pairs = [], 0
        for a in range(16, 181):
            bs = _coprime_bs(a, a + 1, 1000)
            s = a * bs - a - bs
            low_gaps, pi_s = pistar.gap_prime_counts(a, bs, s // 20 + 1)  # the gap primes up to s/20
            failures += [(a, b) for b in bs[10_000 * low_gaps <= 663 * pi_s].tolist()]
            n_pairs += bs.size
        worst, ok = _delta_scan(CASE3_DELTA, np.arange(16, 181), g_poly, CASE3_THRESHOLD)
        return Thm1CaseReport(3, n_pairs, failures, worst, float(CASE3_THRESHOLD), ok)
    if case_id == 4:
        half = sweep(SweepConfig(a_min=3, a_max=15, b_rule=B_RULE_UPTO, b_max=180)).summary
        worst = min(bounds.case4_constant(a) for a in range(3, 16))
        ok = all(bounds.case4_constant_exceeds(a, CASE4_THRESHOLD) for a in range(3, 16))
        return Thm1CaseReport(4, half.n_pairs, half.coj1_failures, worst, float(CASE4_THRESHOLD), ok)
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
    """A grid's verdicts as (a, b) lists in (a, b) order, and the expected_ lists: the pairs of a catalogue
    (EXPECTED_COJ2_EXCEPTIONS, EXPECTED_COJ1_EQUALITIES) that are rows of the grid, which it must find exactly."""

    n_pairs: int
    coj2_exceptions: list
    expected_coj2_exceptions: list
    coj1_equalities: list
    expected_coj1_equalities: list
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


def _grid_a_range(cfg: SweepConfig) -> range:
    """The a of the grid; under the upto rule it ends at b_max - 1, as no larger a has a b > a."""
    top = cfg.a_max if cfg.b_rule != B_RULE_UPTO else min(cfg.a_max, b_limit(B_RULE_UPTO, 0, cfg.b_max) - 1)
    return range(cfg.a_min, top + 1)


def grid_size(cfg: SweepConfig) -> int:
    """The number of b in (a, b_limit(a)] over the grid's a, at least its pairs: a closed form, no loop over a,
    save under the exp-threshold rule, which is defined for 2 <= a <= 10 only."""
    a = _grid_a_range(cfg)
    n, lo = len(a), a.start
    hi = lo + n - 1  # lo - 1 when the range is empty
    a_sum = (lo + hi) * n // 2
    if cfg.b_rule == B_RULE_UPTO:
        return n * cfg.b_max - a_sum
    if cfg.b_rule == B_RULE_50A2:  # 50 times the sum of a^2, less the sum of a
        return 50 * (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6 - a_sum
    return sum(b_limit(cfg.b_rule, x) - x for x in a)


def sieve_top(cfg: SweepConfig) -> int:
    """The largest (a - 1) * b_limit(a) of the grid, the top of the kernel's sieve walk (0 for an empty grid)."""
    a = _grid_a_range(cfg)
    tried = a if cfg.b_rule == B_RULE_EXP else a[-1:]  # under the other rules it grows with a
    return max(((x - 1) * b_limit(cfg.b_rule, x, cfg.b_max) for x in tried), default=0)


def grid_pairs(cfg: SweepConfig) -> dict:
    """Coprime b values per a, always with b > a."""
    out = {}
    for a in _grid_a_range(cfg):
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

    def rows(catalogue):
        return [(a, b) for a, b in catalogue if ((cols.a == a) & (cols.b == b)).any()]

    return SweepSummary(
        n_pairs=len(cols.a),
        coj2_exceptions=pairs(~cols.thm2),
        expected_coj2_exceptions=rows(EXPECTED_COJ2_EXCEPTIONS),
        coj1_equalities=pairs(cols.coj1 == 0),
        expected_coj1_equalities=rows(EXPECTED_COJ1_EQUALITIES),
        coj1_failures=pairs(cols.coj1 < 0),
        thm1_failures=pairs(~cols.thm1),
    )


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported (and multiprocessing with it) only when a pool runs."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def sweep(cfg: SweepConfig) -> SweepResult:
    """Run the grid, appending finished blocks to the checkpoint as they land.

    Output order is deterministic: records are sorted by (a, b) regardless of
    worker count or resume state. Checkpointed pairs of the grid are reused, not
    recomputed; the checkpoint is read once, by load_checkpoint, which also cuts
    a torn final line off the file before anything is appended. A task is up to
    BLOCK_ROWS pending values of b of one a; a pool gets about four tasks per
    worker, the tasks of the largest a first. Each a's reused rows and new
    blocks are put in b order once, at the end, and SweepResult.columns is the
    concatenation of those per-a columns. Past bounds.GRID_CAP pairs
    (grid_size), or with a sieve walk past bounds.X_MAX_CAP (sieve_top), it
    raises LimitExceeded first.
    """
    bounds.check_cap("grid pairs", grid_size(cfg), bounds.GRID_CAP)
    bounds.check_cap("sieve bound", sieve_top(cfg), bounds.X_MAX_CAP)
    grid = grid_pairs(cfg)
    done = load_checkpoint(cfg.checkpoint_path) if cfg.checkpoint_path else _concat([])
    parts, pending = {}, {}  # per a, ascending: its blocks (the reused rows first), and the b values to compute
    for a, bs in grid.items():
        lo, hi = np.searchsorted(done.a, [a, a + 1])
        have = done.take(slice(lo, hi))
        parts[a] = [have.take(np.isin(have.b, bs))]
        pending[a] = bs[~np.isin(bs, have.b)]
    done = have = None  # have is a view of done: let both go once the reused rows are copied out
    workers = min(cfg.workers, os.cpu_count() or 1)
    rows = BLOCK_ROWS
    if workers > 1:  # a few tasks per worker even out their costs, which grow with a and b
        rows = max(1, min(rows, -(-sum(bs.size for bs in pending.values()) // (4 * workers))))
    tasks = [(a, bs[i : i + rows]) for a, bs in pending.items() for i in range(0, bs.size, rows)]

    with open(cfg.checkpoint_path, "a", encoding="utf-8") if cfg.checkpoint_path else contextlib.nullcontext() as ckpt:

        def emit(block):
            if ckpt is not None:
                write_lines(ckpt, json_lines, block)
                ckpt.flush()
            parts[int(block.a[0])].append(block)

        # the pool forks all of its processes at the first submit: never more than there is work and cpus for
        workers = min(workers, len(tasks))
        if workers <= 1:
            for a, bs in tasks:
                emit(_sweep_chunk(a, bs, cfg.cross_check, cfg.brute_cap))
        else:
            from concurrent.futures import as_completed

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_sweep_chunk, a, bs, cfg.cross_check, cfg.brute_cap) for a, bs in reversed(tasks)
                ]
                for fut in as_completed(futures):
                    emit(fut.result())

    finals = []
    while parts:  # ascending a; each a's blocks are let go once its copy in b order is made
        cols = _concat(parts.pop(next(iter(parts))))
        finals.append(cols.take(np.argsort(cols.b, kind="stable")))
    cols = _concat(finals)
    return SweepResult(cols, _summarize(cols))
