"""Start the benchmark's child processes from a process that stays small.

A child's peak RSS as ``wait4`` reports it is never below the peak RSS of
the process that started it: the kernel carries the parent's high-water mark
into the child when it calls exec. The benchmark process holds numpy and
generated inputs, so its children would all read at least its own peak. This
helper is started before the benchmark imports anything large, starts every
child on request and reports its wall time and resource usage.

Protocol: one JSON request per line on stdin (``argv``, ``cwd``, ``env``,
``log``, ``timeout``), one JSON reply per line on stdout. The helper exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, env, log, timeout) -> dict:
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kib": usage.ru_maxrss,
        "code": proc.returncode,
    }


class Spawner:
    """Client side: owns the helper process; use as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd, env, log, timeout) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "log": str(log),
                   "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the process spawner exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    serve()
