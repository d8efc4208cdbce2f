"""Starts commands for the benchmark and reports how each one ended.

Reads one JSON request per line on standard input,
``{"cmd": [...], "log": ..., "timeout": ...}``, runs the
command with its output appended to ``log``, and writes one JSON reply per
line: ``{"code": ..., "wall_s": ..., "max_rss_kb": ...}``. Exits when its
input closes.

The kernel's max RSS for a child includes the memory of the process that
forked it, so commands are started from this process, which stays small,
and not from the benchmark, whose memory grows with its set-up and gates.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=log, stderr=log)
        timer = threading.Timer(request["timeout"], proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "max_rss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
