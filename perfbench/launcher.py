"""Starts the benchmark's commands from a small process.

A child's max-RSS in rusage starts at its parent's peak RSS, so commands
launched straight from run.py (which holds and parses tens of MB of
output) would all report run.py's peak.  This helper imports nothing
heavy; run.py starts it once per run and sends it one JSON request per
line on stdin:

    {"argv": [...], "cwd": dir, "stdout": path, "stderr": path, "timeout": s}

It runs the command with stdout and stderr going to the two files, kills it
after ``timeout`` seconds, and answers with one JSON line:

    {"wall_s": s, "cpu_s": user + sys, "maxrss_kib": n, "code": exit code}
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                 "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
