"""Speed of the core the benchmark runs on, sampled while the ops run.

On a shared virtual machine the same code takes more CPU seconds while
other guests load the host: on a 2-vCPU Intel Xeon VM, a fixed-seed
algebra-deep op took from 2.1 to 3.5 CPU seconds within two minutes, and
neighbouring ops differed by up to 1.5x. CPU time alone measures the
neighbours as much as the program, and sampling the speed between ops
misses changes that last about a second. So a probe process runs a fixed
reference kernel on the same core as the ops, at nice 10: it takes about a
tenth of the core, in short slices spread through each op, and logs the CPU
time its units of work take. The benchmark scales an op's CPU time by
REF_S / (the probe's CPU seconds per unit during the op): the op's CPU
seconds at the core speed at which a unit takes REF_S. (At nice 19 the
probe took 1.5% of the core during long ops but got no slice at all during
a string of 0.3 s `import qpb` processes; at nice 10 its speed during each
of them had correlation 0.91 with the import's CPU time.)

The kernel is a plain interpreter loop. Of four kernels run as probes at
nice 19 during fixed-seed ops on that VM (Fraction sums in a dict, a loop
like this one, a 16x16 product, a 256-point FFT), the loop tracked the ops
best: correlation 0.98, 0.95 and 0.92 with an op's CPU time on
algebra-deep, gate-default and grid-fine, and scaling by it cut the ops'
coefficient of variation from 18%, 12% and 8.3% to 3.5%, 3.9% and 7.6%.
(grid-fine's numpy-bound ops slow about half as much as any of the
kernels.) It uses no qpb code, so a change to qpb leaves it alone.

    python3 bench/calibrate.py LOG    # the probe; appends records to LOG
"""

from __future__ import annotations

import os
import signal
import struct
import subprocess
import sys
import time

CLOCK = time.monotonic
# about the probe's CPU seconds per unit during ops on that VM, so that the
# scaled times read close to CPU seconds there
REF_S = 100e-6
BATCH = 4
NICE = 10
# with fewer records than this inside an op, the window is widened about
# the op, doubling from 0.125 s on each side up to MAX_PAD_S
MIN_RECORDS = 4
MAX_PAD_S = 8.0
STARTUP_TIMEOUT_S = 30.0
# a record: monotonic time at the end of a batch of units, and the probe's
# cumulative thread CPU seconds and units of work at that time
RECORD = struct.Struct("ddq")


def unit() -> int:
    total = 0
    for i in range(1000):
        total += (i * i) % 7
    return total


def serve(log_path: str) -> None:
    """Run the kernel until terminated, appending a record per batch."""
    os.nice(NICE)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    units = 0
    with open(log_path, "ab", buffering=0) as log:
        while True:
            for _ in range(BATCH):
                unit()
            units += BATCH
            log.write(RECORD.pack(CLOCK(), time.thread_time(), units))


class Probe:
    """The probe process, from `with Probe(log_path, env) as probe:` on; it
    runs on the cores the caller may use."""

    def __init__(self, log_path: str, env: dict):
        self.log_path, self.env = log_path, env

    def __enter__(self) -> "Probe":
        open(self.log_path, "wb").close()
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), self.log_path],
                                     env=self.env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL)
        try:
            deadline = CLOCK() + STARTUP_TIMEOUT_S
            while os.path.getsize(self.log_path) < RECORD.size:
                if self.proc.poll() is not None or CLOCK() > deadline:
                    raise RuntimeError("the speed probe logged nothing")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def records(self) -> list[tuple[float, float, int]]:
        with open(self.log_path, "rb") as fh:
            data = fh.read()
        return list(RECORD.iter_unpack(data[:len(data) - len(data) % RECORD.size]))


def unit_s(records: list[tuple[float, float, int]], start: float, end: float) -> float:
    """The probe's CPU seconds per unit from `start` to `end`."""
    pad = 0.0
    while True:
        inside = [r for r in records if start - pad <= r[0] <= end + pad]
        if len(inside) >= MIN_RECORDS:
            break
        if pad >= MAX_PAD_S:
            raise RuntimeError(f"the speed probe logged {len(inside)} records "
                               f"in {end - start + 2 * pad:.3g} s")
        pad = 2 * pad or 0.125
    (_, cpu0, units0), (_, cpu1, units1) = inside[0], inside[-1]
    return (cpu1 - cpu0) / (units1 - units0)


if __name__ == "__main__":
    serve(sys.argv[1])
