"""Small launcher through which the benchmark starts every CLI invocation.

    python3 perfbench/spawn.py

On Linux a child's maximum RSS (ru_maxrss) includes the footprint of the
process it was forked from, so children forked straight from the
benchmark, which holds a whole generated world, would report the
benchmark's memory instead of their own. This launcher is started before
the benchmark loads numpy and stays small. It reads one JSON request per
stdin line ({"argv", "env", "cwd", "stdout", "stderr", "timeout"}), runs
the child to completion and answers one JSON line with its exit code,
wall time, and CPU time and peak RSS from the child's own rusage. It
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"]
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
