"""Run commands one at a time and report their wall time and peak RSS.

The benchmark starts this helper before it allocates anything. Linux charges
a child the high-water RSS of the address space it was forked from, so
children spawned from the large benchmark process would report that
process's memory as their own; children spawned from this small helper
report their own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``;
one JSON reply per line on stdout,
``{"code": int, "wall_s": float, "rss_mib": float, "t_spawn": float}``.
``t_spawn`` is read from the monotonic clock just before the spawn; ``code``
is negative when a signal ended the command (the timeout kills it).
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t_spawn = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "rss_mib": usage.ru_maxrss / 1024.0,
        "t_spawn": t_spawn,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
