"""Start benchmark requests from a process that stays small.

At exec, Linux raises a process's peak-RSS record to the high-water mark of
the address space it replaces, which for a fork is a copy of its parent's.
So ``wait4`` reports a child's peak RSS as at least its parent's.  The
benchmark client holds more memory than the smallest demkit request, so
requests are forked from this server instead, which runs under ``python3
-S`` with a few imports and stays near 10 MB.

Protocol: one JSON object per stdin line,
    {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
answered by one JSON line on stdout,
    {"status": wait status, "latency_s": seconds from fork to exit,
     "maxrss_kb": largest peak RSS among the request's processes,
     "timed_out": bool}
Each request runs in its own session; a timeout kills the whole session,
so a scan's pool workers go with it.  The server exits at end of input.

    python3 -S spawner.py [CPU]

With a CPU number, the server and every request it starts run on that CPU.
"""

import json
import os
import signal
import sys
import time


def run(req):
    null = os.open(os.devnull, os.O_RDONLY)
    out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.setsid()
            os.dup2(null, 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execv(req["argv"][0], req["argv"])
        finally:
            os._exit(127)
    for fd in (null, out, err):
        os.close(fd)
    timed_out = []

    def on_alarm(signum, frame):
        timed_out.append(True)
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    try:
        # The rusage of a reaped child covers the children it reaped too.
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"status": status, "latency_s": time.perf_counter() - t0,
            "maxrss_kb": usage.ru_maxrss, "timed_out": bool(timed_out)}


def main():
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, [int(sys.argv[1])])
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
