"""Runs the benchmark's measured commands, one per request, and times them.

The benchmark starts this process before it loads numpy or reads any
output, while its own memory is small, and spawns every measured command
from here.  On Linux the max RSS that ``wait4`` reports for a child includes
the high-water mark of the process that spawned it (it survives exec), so a
command spawned by the grown benchmark would report the benchmark's memory.

Protocol, one JSON object per line each way:
stdin  {"argv": [...], "cwd": dir, "stdout": file, "stderr": file, "timeout": s}
stdout {"code": exit code, "seconds": wall time, "max_rss_kb": int}
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    holder: list[subprocess.Popen] = []
    timer = threading.Timer(request["timeout"], lambda: holder and holder[0].kill())
    timer.start()
    try:
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
            holder.append(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = perf_counter()
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "seconds": t1 - t0, "max_rss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
