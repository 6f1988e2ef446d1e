"""coinprimes benchmark: closed-loop CLI workloads, end-to-end metrics, traced per-layer pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

One client runs the workload's commands one after another; every command is
a fresh interpreter that imports coinprimes from ./src and calls
``coinprimes.cli.main(argv)``, as a CLI user would. Each process is reaped
with ``os.wait4`` for its CPU time and peak resident memory. Iterations
repeat while the next one should still end within ``--seconds`` (at least
one runs); the times reported are each command's best in the run, summed.
Every output is checked; a command
that raises, exits non-zero or fails its check counts as failed, the run
goes on, and the benchmark exits 1.

With ``--trace 1`` one more iteration runs with timing wrappers installed
(see spans.py); the spans go to perfbench/out/trace/ and the last line
carries the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPAWNER = HERE / "spawner.py"
OUT = HERE / "out"

PROBES_PER_ITERATION = 1  # import-only processes after each iteration, so setup_s is a median of many set-ups
COMMAND_TIMEOUT = 150  # seconds before a command is killed and counted as failed

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("pairs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Outcome:
    error: str = None
    setup: float = None  # spawn until coinprimes is imported
    wall: float = 0.0  # cli.main, measured inside the process
    cpu: float = 0.0  # user + sys of the process, from wait4
    rss_mb: float = 0.0  # peak resident set size of the process, from wait4


class Runner:
    """Runs one worker process per command, through spawner.py, and turns its report into an Outcome."""

    def __init__(self, src: Path, rundir: Path):
        self.src = src
        self.rundir = rundir
        self.n = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        self.spawner = subprocess.Popen(
            [sys.executable, str(SPAWNER)], env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def close(self):
        """Stop the spawner; a worker still running (after an interrupt) is killed by it."""
        self.spawner.stdin.close()
        self.spawner.terminate()
        self.spawner.wait()
        self.spawner.stdout.close()

    def process(self, argv, spans_path=None, run_id=None):
        """(Outcome, worker result or None) for one fresh interpreter."""
        self.n += 1
        result_path = self.rundir / f"result{self.n}.json"
        log_path = self.rundir / f"worker{self.n}.log"
        spec = {"argv": argv, "src": str(self.src), "result": str(result_path), "spans": spans_path, "run_id": run_id}
        request = {"cmd": [sys.executable, str(WORKER), json.dumps(spec)], "log": str(log_path), "timeout": COMMAND_TIMEOUT}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        out = Outcome(cpu=reply["cpu"], rss_mb=reply["maxrss_kb"] / 1024)
        if reply["timed_out"]:
            out.error = f"killed after {COMMAND_TIMEOUT} s"
            return out, None
        if reply["code"] != 0 or not result_path.exists():
            out.error = f"worker exited with {reply['code']}: {log_path.read_text()[-2000:]}"
            return out, None
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        out.setup = res["imported"] - reply["t_spawn"]
        out.error = res.get("error")
        return out, res

    def command(self, cmd: workloads.Command, spans_path=None, run_id=None) -> Outcome:
        out, res = self.process(cmd.argv, spans_path, run_id)
        if res is not None and out.error is None:
            out.wall = res["wall"]
            if res["rc"] != 0:
                out.error = f"exit code {res['rc']}: {res['stderr'][-2000:]}"
            else:
                try:
                    out.error = cmd.check(res["stdout"])
                except Exception:
                    out.error = "output check raised: " + traceback.format_exc()
        if out.error:
            print(f"FAILED: coinprimes {' '.join(cmd.argv)}: {out.error}", file=sys.stderr)
        return out


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, out: Outcome):
        self.attempted += 1
        self.failed += out.error is not None


def measure(workload, runner: Runner, seconds: float, tally: Tally) -> tuple:
    """Run iterations for about `seconds`; returns ({metric: value}, {metric: per-iteration samples}).

    A shared host can switch between a fast state and one about 1.4x slower,
    for seconds to minutes at a time. A median over iterations flips between
    the two states from one run to the next, so the times reported are
    best-observed ones: every iteration runs the same commands,
    and wall_s (and cpu_s) is the sum over commands of each command's fastest
    time in the run. The per-iteration samples are printed next to it.
    Import probes run between iterations, so setup_s, a median, spans the run.
    """
    setups = []

    def probe():
        out, _ = runner.process(None)
        if out.error:
            print(f"FAILED: import probe: {out.error}", file=sys.stderr)
        else:
            setups.append(out.setup)

    walls, cpus, rss = [], [], []  # per iteration: one value per command
    pairs = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cmds = workload.commands()
        outs = []
        for cmd in cmds:
            out = runner.command(cmd)
            tally.add(out)
            if out.setup is not None:
                setups.append(out.setup)
            outs.append(out)
        pairs = sum(cmd.pairs for cmd in cmds)
        walls.append([out.wall for out in outs])
        cpus.append([out.cpu for out in outs])
        rss.append(statistics.fmean(out.rss_mb for out in outs))
        for _ in range(PROBES_PER_ITERATION):
            probe()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:  # the next iteration would end past the deadline
            break
    wall = sum(map(min, zip(*walls)))
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": wall,
        "cpu_s": sum(map(min, zip(*cpus))),
        "pairs_per_s": pairs / wall if wall > 0 else 0.0,
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {
        "setup_s": setups or [0.0],
        "wall_s": [sum(w) for w in walls],
        "cpu_s": [sum(c) for c in cpus],
        "pairs_per_s": [pairs / sum(w) if sum(w) > 0 else 0.0 for w in walls],
        "peak_rss_mb": rss,
    }
    return metrics, samples


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def traced_pass(workload, runner: Runner, untraced_wall: float, tally: Tally) -> dict:
    """One traced iteration; returns the per-layer metrics and writes spans and summary."""
    name, seed = workload.name, workload.seed
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{name}.spans.jsonl"
    spans_path.unlink(missing_ok=True)
    traced_wall = 0.0
    for k, cmd in enumerate(workload.commands()):
        out = runner.command(cmd, str(spans_path), f"{name}-{seed}-{k}")
        tally.add(out)
        traced_wall += out.wall
    summary = spans.summarize(spans.read_jsonl(spans_path)) if spans_path.exists() else spans.summarize({})
    metrics = summary["metrics"]
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    speedup = 1.0  # workloads that run no sweep have nothing to fan out
    if isinstance(workload, workloads.GridSweep):
        wall2 = 0.0
        for cmd in workload.commands():
            cmd.argv = cmd.argv + ["--threads", "2"]
            out = runner.command(cmd)
            tally.add(out)
            wall2 += out.wall
        speedup = untraced_wall / wall2 if wall2 > 0 else 0.0
    metrics["verify.sweep_parallel_speedup"] = speedup
    summary.update(workload=name, seed=seed, untraced_wall_s=untraced_wall, spans=spans_path.name)
    with open(trace_dir / f"{name}.summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return metrics


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    name = workload.name
    src = ROOT / "src"
    from coinprimes import pistar, semigroup, verify

    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tally = Tally()
    runner = Runner(src, rundir)
    try:
        try:
            workload.prepare(rundir, seed, SimpleNamespace(pistar=pistar, semigroup=semigroup, verify=verify))
        except Exception:
            print(f"FAILED: preparing {name}: {traceback.format_exc()}", file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        metrics, samples = measure(workload, runner, seconds, tally)
        print(f"{name} seed={seed} seconds={seconds}: {len(samples['wall_s'])} iterations, "
              f"{tally.attempted} commands, {tally.failed} failed")
        for metric, unit in END_TO_END:
            q1, med, q3 = quartiles(samples[metric])
            print(f"  {metric:<12} {metrics[metric]:.6g} {unit}; samples median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"n={len(samples[metric])}")
        metrics = {m: {"value": metrics[m], "unit": u} for m, u in END_TO_END}
        if trace:
            layer = traced_pass(workload, runner, metrics["wall_s"]["value"], tally)
            metrics = {m: {"value": layer[m], "unit": u} for m, u, _ in spans.PER_LAYER}
            for m, v in metrics.items():
                print(f"  {m:<32} {v['value']:.6g} {v['unit']}")
        rate = tally.failed / tally.attempted
        print(f"  error_rate   {rate:.6g} ({tally.failed} of {tally.attempted} commands) ratio")
        return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    finally:
        runner.close()
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "coinprimes" / "cli.py").is_file():
        print(f"error: no coinprimes source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
