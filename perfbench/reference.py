"""Host-speed reference, run between timed ops.

The virtual machine this benchmark was built on changes speed by up to 2x
over minutes and by 40-90% in bursts of a second or two, whatever the
benchmark does.  A fixed pure-Python loop in a fresh interpreter slows with
it: the mean of the reference runs just before and just after an op
correlated 0.81 with that op's latency, and over 30-second windows the
median reference correlated 0.92-0.97 with the median op latency.

Every timed sample is therefore reported in seconds at reference speed:

    measured * NOMINAL_S / mean(reference before, reference after)

The reference runs after every GAP_S of op time (so around each op longer
than that), outside every timed interval.  In a quiet period it takes about
NOMINAL_S on that machine, so the figures read close to wall-clock seconds
there.  The raw times are kept in the run record.
"""

from __future__ import annotations

import subprocess
import sys
import time

CODE = """\
acc, table = 0, {}
for i in range(200000):
    table[i % 61] = table.get(i % 61, 0) + i
    acc += i * i % 7
"""
NOMINAL_S = 0.1
HERE_SHARE = 0.6
GAP_S = 1.0


def run(env=None, cwd=None) -> float:
    """The reference in a fresh interpreter, for ops that are processes."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CODE], env=env, cwd=cwd, check=True)
    return time.perf_counter() - t0


def run_here() -> float:
    """The reference in this process, for ops that run in it.  Around
    in-process Hom computations it correlated 0.56 with their latency, a
    fresh-interpreter reference 0.02 (a new process may land on the other
    vCPU).  It has no interpreter start, so it is scaled to NOMINAL_S by
    HERE_SHARE, the in-process share of `run()` measured on that machine."""
    t0 = time.perf_counter()
    exec(CODE, {})
    return (time.perf_counter() - t0) / HERE_SHARE


class Bracket:
    """Runs the reference between ops and sets each op record's `ref_s`
    (mean of the reference runs just before and just after it) and
    `seconds` (its `raw_s` at reference speed)."""

    def __init__(self, measure=run):
        self.measure = measure
        self.times = [measure()]
        self._pending: list[dict] = []

    def done(self, rec: dict) -> None:
        self._pending.append(rec)
        if sum(r["raw_s"] for r in self._pending) >= GAP_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        before, after = self.times[-1], self.measure()
        self.times.append(after)
        for rec in self._pending:
            rec["ref_s"] = (before + after) / 2
            rec["seconds"] = rec["raw_s"] * NOMINAL_S / rec["ref_s"]
        self._pending = []
