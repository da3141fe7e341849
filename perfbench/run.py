"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``serve_mixed`` — single-query traffic through the micro-batching
  scheduler over a sharded MCAM store on the worker pool;
* ``fewshot_fig7`` — the paper's Fig. 7 few-shot comparison, in process;
* ``ingest_durable`` — durable appends beside reads, snapshots and warm
  restarts.

The program is imported from the checkout's ``src/`` and receives only
arrays generated from ``--seed``.  Each run checks the program's outputs,
prints a human-readable summary and a ``report`` JSON line (diagnostics,
per-phase counts, host fingerprint), and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Metric names and units come from ``BENCHMARK.json``.  A run whose outputs
are wrong prints ``"correct": false`` and exits with status 1; a run that
cannot start (no ``src/`` to import, say) prints no result and exits with
status 2.

This file only launches the run: the workload runs in a child interpreter
(``runner.py``), and this process, made the child subreaper of everything
that child starts, exits only after every process of the run has ended —
worker pools, the multiprocessing resource tracker (which outlives its
parent to unlink leftover shared-memory segments) and anything orphaned
on the way.  Scratch files live under ``.perfbench-work/`` in the checkout
and are removed when the run ends.
"""

from __future__ import annotations

import ctypes
import glob
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, List, Set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

#: ``prctl`` option that re-parents orphaned descendants to this process.
_PR_SET_CHILD_SUBREAPER = 36
#: How long processes left behind by the child may take to end on their
#: own (the resource tracker unlinks segments first) before they are killed.
_GRACE_S = 10.0


def _become_subreaper() -> None:
    if not sys.platform.startswith("linux"):
        return
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    pids: Set[int] = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except (OSError, ValueError):
            continue
    return sorted(pids)


def _reap_all(grace_s: float) -> Set[int]:
    """Reap every remaining child, killing those that outlive ``grace_s``.

    Returns the PIDs that had to be killed.
    """
    deadline = time.monotonic() + grace_s
    killed: Set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except OSError:
                    continue
        time.sleep(0.01)


def main(argv: List[str]) -> int:
    _become_subreaper()
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    tmp = os.path.join(workdir, "tmp")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(tmp)
    # Worker spools, snapshots and journals come from tempfile.
    env = dict(os.environ, TMPDIR=tmp)
    child = subprocess.Popen([sys.executable, os.path.join(HERE, "runner.py"), *argv], env=env)

    def forward(signum: int, frame: Any) -> None:
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        returncode = child.wait()
    finally:
        killed = _reap_all(_GRACE_S)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass
    if killed:
        print(
            f"perfbench: killed {len(killed)} processes that outlived the run",
            file=sys.stderr,
            flush=True,
        )
    return returncode if returncode >= 0 else 128 - returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
