#!/usr/bin/env python3
"""Print each operation's step in peak resident memory over one round of a
perfbench workload.

Builds the round from perfbench/workloads.py (seed-jittered, as the benchmark
does) and runs its operations in order in this process, through the
benchmark worker's own dispatch (perfbench/worker.py's `_call`), after the
same imports.  After each operation it reads `ru_maxrss` of this process and
of its largest child (the CLI operations run as child processes) and prints
the peak and the step that operation made, in MB.  This is the first round
of the benchmark's worker: its `peak_rss_mb` is the last peak printed.

Run from the repository root:

    python3 scripts/rss_steps.py --workload exact-mgf --seed 1

Nothing under perfbench/ is changed.  Steps below ~0.05 MB are page-size
noise; a step repeats across runs of one seed to about that.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peaks_mb() -> tuple[float, float]:
    return tuple(resource.getrusage(who).ru_maxrss / 1024.0
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="exact-mgf")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding mlcounts")
    args = parser.parse_args(argv)

    # one core and no BLAS worker threads, as the benchmark runs its worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # no __pycache__ left under perfbench/
    import workloads
    from worker import _call

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}")
    ops = workloads.build(args.workload, args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [args.src, env.get("PYTHONPATH")]))
    sys.path.insert(0, args.src)
    import mlcounts as m

    if any(op["call"] == "cli" for op in ops):
        import mlcounts.cli  # noqa: F401

    print(f"{'operation':<28} {'ms':>8} {'peak MB':>9} {'step':>7} {'child MB':>9} {'step':>7}")
    before = _peaks_mb()
    print(f"{'(imports)':<28} {'':>8} {before[0]:9.2f} {'':>7} {before[1]:9.2f}")
    for op in ops:
        t0 = time.perf_counter()
        try:
            _call(m, op, env)
            failed = ""
        except Exception as exc:  # counted by the benchmark, not fatal
            failed = f"  ({type(exc).__name__})"
        ms = 1e3 * (time.perf_counter() - t0)
        after = _peaks_mb()
        print(f"{op['id']:<28} {ms:8.1f} {after[0]:9.2f} {after[0] - before[0]:7.2f} "
              f"{after[1]:9.2f} {after[1] - before[1]:7.2f}{failed}")
        before = after
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
