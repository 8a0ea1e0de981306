"""The host's current speed, timed in a process of its own.

A shared virtual machine can change speed by 2x over minutes, on all its
CPUs at once, so the benchmark also times a fixed pure-Python loop and
rescales its times to what they would have been with the loop at
``CAL_REF_S``.  The loop never runs in a process that has imported
latticegas: worker.py and run.py time it in a ``Calibrator`` child, a
fresh interpreter started with ``-I`` that holds none of the program's
state, so that a thread or pool the program leaves running cannot slow
the loop through the worker's GIL and flatter the rescaled time.

Run as a script it serves samples: each line read on stdin is answered
with one line, the loop's time in seconds, until stdin closes.
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

# CAL_REF_S is about what the loop takes on the 2-vCPU Xeon VM of the
# baseline in README.md.
CAL_ITERATIONS = 150_000
CAL_REF_S = 0.02


def loop() -> float:
    """Seconds the fixed pure-Python loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class Calibrator:
    """A child process that times ``loop`` on request.

    While a sample is taken the calling process only waits on a pipe, so
    CPU time it spends then (``idle_cpu_s``, over ``wait_s`` of waiting)
    was spent by threads the program left running, which compete with
    the loop for the CPUs.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-I", str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
        self._ask()  # wait out the child's start-up
        self.wait_s = 0.0
        self.idle_cpu_s = 0.0

    def _ask(self) -> float:
        self._proc.stdin.write("\n")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibrator exited {self._proc.wait()}")
        return float(line)

    def sample(self) -> float:
        """Seconds the loop takes now."""
        cpu0, start = time.process_time(), time.perf_counter()
        seconds = self._ask()
        self.wait_s += time.perf_counter() - start
        self.idle_cpu_s += time.process_time() - cpu0
        return seconds

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=10)
        self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None:
            self._proc.kill()
        self.close()


def main() -> int:
    for _ in sys.stdin:
        print(repr(loop()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
