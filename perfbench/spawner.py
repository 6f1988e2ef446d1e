"""Start worker processes from a small interpreter and reap each with os.wait4.

The peak resident size that wait4 reports for a child includes the peak of
the address space it was forked from: Linux carries that high-water mark over
exec. Started from run.py, which holds numpy and the grid records, every
worker would report at least run.py's peak. Started from
this process, whose own peak stays well below any worker's, the figure is the
worker's own.

Protocol, one JSON object per line. Request on stdin:
    {"cmd": [...], "log": path for the child's stdout and stderr, "timeout": seconds}
Reply on stdout:
    {"code": exit code, "cpu": user+sys seconds, "maxrss_kb": peak RSS,
     "t_spawn": perf_counter before the spawn, "timed_out": bool}
It exits at the end of its input or on SIGTERM; on SIGTERM, or when its
parent goes away, it first kills the running worker and reaps it.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _reap(proc, timeout: float, parent: int):
    deadline = time.monotonic() + timeout
    timed_out = False
    pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline or os.getppid() != parent:
                timed_out = True
                break
            time.sleep(0.005)
    finally:
        if not pid:
            os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage, timed_out


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parent = os.getppid()
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "w") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            code, usage, timed_out = _reap(proc, req["timeout"], parent)
            proc.returncode = code
        reply = {
            "code": code,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "t_spawn": t_spawn,
            "timed_out": timed_out,
        }
        print(json.dumps(reply), flush=True)
        if os.getppid() != parent:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
