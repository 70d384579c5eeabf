"""Run one child process to completion and time it precisely.

subprocess.run with a timeout polls with growing sleeps, which quantizes
short wall times; here the parent blocks in os.wait4, which also returns
the child's own resource usage (peak RSS), and a timer signal bounds the
wait.
"""

import os
import signal
import subprocess
import time
from pathlib import Path

TIMEOUT_S = 120


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def call(argv, workdir: Path, cwd=None) -> dict:
    """Exit code, stdout, stderr, wall seconds, start time and peak RSS of one run.

    Output goes through files in `workdir`; the child runs in `cwd`
    (default `workdir`) and is killed after TIMEOUT_S.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd or workdir, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except _Timeout:
            child.kill()
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"code": child.returncode, "start": start, "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024,
            "out": out_path.read_text(), "err": err_path.read_text()}
