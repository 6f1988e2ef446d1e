"""The three workloads: the commands each one runs and the checks on their outputs.

A workload is prepared once per benchmark run from the seed (untimed), then
hands out the commands of one iteration at a time. Each command carries a
check on its printed output and on the files it wrote; the checks run after
the command returns, outside its timed body.

Pinned values were taken from the program at the commit that introduced the
benchmark; the grid records are also re-derived here independently.
"""

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Command:
    argv: list
    check: Callable  # check(stdout) -> error message, or None when the output is right
    pairs: int = 0  # (a, b) results the command produces


def check_digest(path: Path, expected: str) -> str:
    if not path.exists():
        return f"{path.name} was not written"
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    if got != expected:
        return f"{path.name} sha256 {got} != pinned {expected}"
    return None


def sorted_digest(lines: list) -> str:
    return hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()


def check_checkpoint(path: Path, expected: str) -> str:
    """The checkpoint must hold exactly the pinned set of complete record lines."""
    if not path.exists():
        return f"{path.name} was not written"
    with open(path, encoding="utf-8") as fh:
        got = sorted_digest(fh.readlines())
    if got != expected:
        return f"{path.name} sorted-lines sha256 {got} != pinned {expected}"
    return None


def _dense_primes(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return np.flatnonzero(flags)


def grid_counts(a_lo: int, a_hi: int) -> dict:
    """{(a, b): (pi_star, pi_s)} over the grid, by the residue-sum identity batched over b.

    pi_star(a, b) = sum over v in [1, a) of #{p prime : p < b v, p = b v (mod a)}.
    One dense sieve, one class split per a and one searchsorted per (v, class)
    across every b at once; it shares no code with the package's kernels.
    """
    primes = _dense_primes(50 * a_hi * a_hi * (a_hi - 1))
    out = {}
    for a in range(a_lo, a_hi + 1):
        bs = np.array([b for b in range(a + 1, 50 * a * a + 1) if math.gcd(a, b) == 1], dtype=np.int64)
        classes = [primes[primes % a == r] for r in range(a)]
        pi_star = np.zeros(bs.size, dtype=np.int64)
        for v in range(1, a):
            t = bs * v
            r = t % a
            for rr in range(a):
                sel = r == rr
                if sel.any():
                    pi_star[sel] += np.searchsorted(classes[rr], t[sel], side="left")
        pi_s = np.searchsorted(primes, a * bs - a - bs, side="right")
        out.update({(a, int(b)): (int(x), int(y)) for b, x, y in zip(bs, pi_star, pi_s)})
    return out


def grid_lines(a_lo: int, a_hi: int, verify) -> tuple:
    """(CSV text, checkpoint lines) the grid sweep must write, from grid_counts."""
    csv = [verify.CSV_HEADER]
    ckpt = []
    for (a, b), (pi_star, pi_s) in grid_counts(a_lo, a_hi).items():
        rec = verify.evaluate_pair(a, b, a * b - a - b, pi_star, pi_s)
        csv.append(verify.record_to_csv(rec))
        ckpt.append(json.dumps(verify.record_to_dict(rec)) + "\n")
    return "\n".join(csv) + "\n", ckpt


class Workload:
    name = ""
    why = ""

    def prepare(self, rundir: Path, seed: int, package):
        """Untimed set-up for one benchmark run; package holds the coinprimes modules."""
        self.rundir = rundir
        self.seed = seed
        self.pkg = package
        self.iterations = 0

    def commands(self) -> list:
        """Commands of the next iteration, with their input files in place."""
        raise NotImplementedError


class GridSweep(Workload):
    """A fresh sweep of the fixed coj2 grid, a in [3,20], b <= 50a^2 (86,974 pairs)."""

    name = "grid-sweep"
    A_RANGE = (3, 20)
    N_PAIRS = 86974
    CSV_SHA256 = "b3f367dae0575f33ea77bcc8230bd1b8e9deadb8561c646d7ff5e7ddf3adf319"
    # sha256 of the checkpoint's lines in sorted order: appends follow worker completion order
    CKPT_SORTED_SHA256 = "75602f6aea551d6653c738c919321f9112f4a28c2bacd48f0034d6d30b959d79"
    EXCEPTIONS = ((3, 4), (3, 5), (3, 7))
    ORACLE_SAMPLES = 64

    def expected_stdout(self) -> str:
        lo, hi = self.A_RANGE
        lines = [f"coj2: checked {self.N_PAIRS} pairs, a in [{lo},{hi}]"]
        lines += [f"exception {a},{b} (expected)" for a, b in self.EXCEPTIONS]
        lines.append("PASS: coj2 exceptions exactly match the expected set")
        return "\n".join(lines) + "\n"

    def _argv(self, d: Path) -> list:
        lo, hi = self.A_RANGE
        return ["verify", "coj2", "--a-range", f"{lo}:{hi}", "--resume", str(d / "ck.jsonl"),
                "--format", "csv", "--out", str(d / "out.csv")]

    def check_outputs(self, d: Path, stdout: str) -> str:
        if stdout != self.expected_stdout():
            return f"unexpected stdout: {stdout!r}"
        return check_digest(d / "out.csv", self.CSV_SHA256) or check_checkpoint(d / "ck.jsonl", self.CKPT_SORTED_SHA256)

    def oracle(self, csv_path: Path) -> str:
        """Re-derive a seeded sample of records by brute force plus evaluate_pair."""
        pistar, verify, semigroup = self.pkg.pistar, self.pkg.verify, self.pkg.semigroup
        lines = csv_path.read_text().splitlines()[1:]
        for line in random.Random(self.seed).sample(lines, min(self.ORACLE_SAMPLES, len(lines))):
            a, b = (int(x) for x in line.split(",")[:2])
            pair = semigroup.new_pair(a, b)
            r = pistar.pi_star_bruteforce(pair)
            want = verify.record_to_csv(verify.evaluate_pair(a, b, pair.s, r.pi_star, r.pi_s))
            if line != want:
                return f"oracle mismatch at ({a},{b}): {line!r} != {want!r}"
        return None

    def stage(self, d: Path):
        """Put the iteration's input files in place (a fresh sweep needs none)."""

    def next_dir(self) -> Path:
        """A fresh directory for the next iteration; the previous one is removed."""
        shutil.rmtree(self.rundir / f"iter{self.iterations}", ignore_errors=True)
        self.iterations += 1
        d = self.rundir / f"iter{self.iterations}"
        d.mkdir()
        return d

    def command(self, d: Path, oracle: bool) -> Command:
        """The sweep writing into d, checked (and sampled by the oracle if asked) when it returns."""

        def check(stdout):
            return self.check_outputs(d, stdout) or (self.oracle(d / "out.csv") if oracle else None)

        return Command(self._argv(d), check, self.N_PAIRS)

    def commands(self) -> list:
        d = self.next_dir()
        self.stage(d)
        return [self.command(d, self.iterations == 1)]


class GridResume(GridSweep):
    """The same sweep, resumed from a seeded 90% checkpoint with a torn last line."""

    name = "grid-resume"
    KEEP = 0.9

    def prepare(self, rundir, seed, package):
        super().prepare(rundir, seed, package)
        csv, ckpt = grid_lines(*self.A_RANGE, package.verify)
        if hashlib.sha256(csv.encode()).hexdigest() != self.CSV_SHA256:
            raise RuntimeError("grid records re-derived by the residue-sum identity do not match the pinned CSV")
        if sorted_digest(ckpt) != self.CKPT_SORTED_SHA256:
            raise RuntimeError("grid records re-derived by the residue-sum identity do not match the pinned checkpoint")
        rng = random.Random(seed)
        keep = set(rng.sample(range(len(ckpt)), round(self.KEEP * len(ckpt))))
        torn = next(line for i, line in enumerate(ckpt) if i not in keep)
        self.seed_ckpt = rundir / "seed_ck.jsonl"
        with open(self.seed_ckpt, "w", encoding="utf-8") as fh:
            fh.writelines(line for i, line in enumerate(ckpt) if i in keep)
            fh.write(torn[: len(torn) // 2])

    def stage(self, d: Path):
        shutil.copyfile(self.seed_ckpt, d / "ck.jsonl")


class Grid(GridResume):
    """A fresh sweep of the grid, then a resume of it: both directions of the verify layer in one workload.

    Running the two as one workload keeps the number of workloads small, so
    that each benchmark run can be long enough to ride out drift in the
    machine's speed.
    """

    name = "grid"
    why = "coj2 grid a in [3,20], b <= 50a^2 (86,974 pairs) swept fresh, then resumed from a seeded 90% checkpoint: gap kernel, then checkpoint load"

    def commands(self) -> list:
        d = self.next_dir()
        fresh, resumed = d / "fresh", d / "resume"
        fresh.mkdir()
        resumed.mkdir()
        self.stage(resumed)
        return [self.command(fresh, self.iterations == 1), self.command(resumed, False)]


class SinglePair(Workload):
    name = "single-pair"
    why = "4 seeded pairs, a log-uniform in [3,2000], s log-spaced in [1e7,1e8], fast then residue: sieve and prime table dominate"
    N_PAIRS = 4
    LOG10_S = (7.0, 8.0)
    A_RANGE = (3, 2000)

    def prepare(self, rundir, seed, package):
        super().prepare(rundir, seed, package)
        self.pairs = draw_pairs(seed, self.N_PAIRS, self.LOG10_S, self.A_RANGE)

    def commands(self) -> list:
        cmds = []
        for a, b in self.pairs:
            fast = {}

            def check_fast(stdout, a=a, b=b, fast=fast):
                err, fields = parse_compute(stdout, a, b, "fast")
                fast.update(fields)
                return err

            def check_residue(stdout, a=a, b=b, fast=fast):
                err, fields = parse_compute(stdout, a, b, "residue-sum")
                if err:
                    return err
                if not fast:
                    return f"no fast result to compare with at ({a},{b})"
                if (fields["pi_star"], fields["pi_s"]) != (fast["pi_star"], fast["pi_s"]):
                    return f"fast and residue disagree at ({a},{b}): {fast} vs {fields}"
                return None

            base = ["compute", "--a", str(a), "--b", str(b)]
            cmds.append(Command(base, check_fast))
            cmds.append(Command(base + ["--method", "residue"], check_residue, 1))
        return cmds


def draw_pairs(seed: int, n: int, log10_s: tuple, a_range: tuple) -> list:
    """n coprime pairs a < b, the k-th with log a uniform in the k-th of n equal strata.

    The s of the pairs sit at the midpoints of n equal strata of log10 s, in
    the same order as the strata of log a. The sieve up to s and the residue
    split over the classes mod a are most of a pair's work, so every seed does
    nearly the same work: drawing s, or pairing the strata of a and s at
    random, moved a batch's total by 10-30% from seed to seed.
    """
    rng = np.random.default_rng(seed)
    u_a = (np.arange(n) + rng.random(n)) / n
    lo_a, hi_a = a_range
    pairs = []
    for k, ua in enumerate(u_a):
        a = int(round(lo_a * (hi_a / lo_a) ** ua))
        s = 10 ** (log10_s[0] + (k + 0.5) / n * (log10_s[1] - log10_s[0]))
        b = max(a + 1, math.ceil((s + a) / (a - 1)))
        while math.gcd(a, b) != 1:
            b += 1
        pairs.append((a, b))
    return pairs


def parse_compute(stdout: str, a: int, b: int, method: str) -> tuple:
    """(error or None, fields) for the table line printed by ``compute``."""
    fields = dict(kv.split("=", 1) for kv in stdout.split() if "=" in kv)
    want = {"pair": f"<{a},{b}>", "s": str(a * b - a - b), "method": method}
    if stdout.count("\n") != 1 or any(fields.get(k) != v for k, v in want.items()):
        return f"unexpected compute output for ({a},{b}): {stdout!r}", {}
    out = {"pi_star": int(fields["pi_star"]), "pi_s": int(fields["pi_s"])}
    if not 0 < out["pi_star"] < out["pi_s"]:
        return f"implausible counts for ({a},{b}): {out}", {}
    return None, out


class AnalyticScan(Workload):
    name = "analytic-scan"
    why = "thm1 cases 1-2 and every bounds envelope: delta, factor and the envelope validators dominate, no gap kernel"
    # (argv, pinned stdout, (a, a+1) pairs whose delta bound the command evaluates)
    COMMANDS = (
        (["verify", "thm1", "--case", "1"], "PASS: thm1 case 1 (analytic min 0.0546938 vs threshold 0.0445)\n", 200),
        (["verify", "thm1", "--case", "2"], "PASS: thm1 case 2 (analytic min 0.0401008 vs threshold 0.0401)\n", 59820),
        (
            ["verify", "bounds", "--check", "all", "--seed", "{seed}"],
            "PASS: rosser-schoenfeld (400 checks, 0 violations)\n"
            "PASS: ap-fixed-range (30960 checks, 0 violations)\n"
            "PASS: montgomery-vaughan (10000 checks, 0 violations)\n",
            0,
        ),
    )

    def commands(self) -> list:
        cmds = []
        for argv, want, pairs in self.COMMANDS:

            def check(stdout, want=want):
                return None if stdout == want else f"unexpected stdout: {stdout!r}"

            cmds.append(Command([x.format(seed=self.seed) for x in argv], check, pairs))
        return cmds


WORKLOADS = {w.name: w for w in (Grid, SinglePair, AnalyticScan)}
