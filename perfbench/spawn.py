"""Start the benchmark's stage processes from a small process of their own.

A process's peak RSS (``ru_maxrss``) starts from the RSS of the process that
forked it, so stages forked by the benchmark, which holds the outputs it
checks in memory, would report the benchmark's size. This process stays
small; it is started before the benchmark loads anything.

Protocol: one JSON request per line on stdin, ``{"cmd", "cwd", "env", "log"}``;
one JSON reply per line on stdout, ``{"code", "maxrss_kb", "start", "end"}``,
where start and end are ``time.perf_counter()`` readings (the system-wide
monotonic clock on Linux). SIGTERM kills the running stage, then exits.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"], stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "maxrss_kb": usage.ru_maxrss, "start": start, "end": end}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
