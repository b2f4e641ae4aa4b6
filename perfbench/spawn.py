"""Start program processes on behalf of run.py, from a process that stays small.

A child's peak RSS, as `wait4` reports it, includes the peak RSS of the process
that forked it, since the kernel keeps the larger of the two at `exec`.  run.py
grows while it reads the catalog and checks outputs, so it starts this helper
first and has it start every CLI process.

Protocol, one JSON object per line: run.py sends {"argv", "env", "cwd",
"stdout", "stderr"}; this replies {"pid"} once the process has started, then
{"wall", "cpu", "rss_kb", "exit"} once it has ended.  Each process leads its
own process group, so run.py can kill it with its pool workers.
"""

import json
import os
import subprocess
import sys
import time

REF_LOOPS = 500_000


def reference() -> float:
    """Seconds for a fixed pure-Python loop: how fast this machine runs right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i
    return time.perf_counter() - t0


for line in sys.stdin:
    req = json.loads(line)
    ref = reference()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out,
                                stderr=err, start_new_session=True)
        print(json.dumps({"pid": proc.pid}), flush=True)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "rss_kb": ru.ru_maxrss,
                      "exit": proc.returncode, "ref": ref}), flush=True)
