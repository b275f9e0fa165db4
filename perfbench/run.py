"""Benchmark of mlcounts: one named workload from a seed, timed end to end or
traced per layer.

    python3 perfbench/run.py --workload exact-mgf --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (the directory holding src/mlcounts).
The operations run in a worker process of their own; this process measures
import time, then checks every output against perfbench/reference.py or a
property the method must have, and prints one JSON line as its last output:
{"correct", "attempted", "failed", "metrics"}.  A fuller record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh interpreters timed per run for setup_s, half before the workload and
# half after it: the median of several imports spread over the run is steady
# where a single cold import is not, and the host's speed drifts over tens of
# seconds.
SETUP_IMPORTS = 4
_IMPORT_PROBE = "import time; t = time.perf_counter(); import mlcounts; print(time.perf_counter() - t)"


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # one operation at a time on one core: no BLAS or OpenMP worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict, cwd: Path, warm_up: bool) -> list[float]:
    """Seconds to import mlcounts in SETUP_IMPORTS fresh interpreters.  An
    untimed import first writes the bytecode caches, which users pay once,
    not per process."""
    cmd = [sys.executable, "-c", _IMPORT_PROBE]
    if warm_up:
        subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True, timeout=120)
    return [float(subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True,
                                 text=True, timeout=120).stdout)
            for _ in range(SETUP_IMPORTS)]


def run_worker(ops: list[dict], seconds: int, trace: bool, env: dict, src: Path) -> dict:
    job = json.dumps({"src": str(src), "ops": ops, "seconds": seconds, "trace": trace})
    # a session of its own, so that a timeout also stops the CLI processes it runs
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env, cwd=src.parent,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(job, timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mlcounts" / "__init__.py").is_file():
        print(f"error: no mlcounts sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = _spec()
    env = _child_env(src)
    ops = workloads.build(args.workload, args.seed)

    setup_times = measure_setup(env, root, warm_up=True) if not args.trace else []
    t0 = time.perf_counter()
    result = run_worker(ops, args.seconds, bool(args.trace), env, src)
    run_s = time.perf_counter() - t0
    if not args.trace:
        setup_times += measure_setup(env, root, warm_up=False)
    rounds = result["rounds"]

    from checks import Checker  # after the timed work: scipy.stats and references load here

    problems = Checker().check(ops, result["outputs"])
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("outputs differ between rounds of identical operations")
    failed_per_round = [
        sum(err is not None or (op["call"] == "cli" and out["rc"] != 0)
            for op, err, out in zip(ops, r["errors"], result["outputs"]))
        for r in rounds
    ]
    for op, err in zip(ops, rounds[0]["errors"]):
        if err and not op.get("fault"):
            print(f"failed: {op['id']}: {err}", file=sys.stderr)

    # Means over rounds, not medians: the host alternates between a fast and
    # a slow state (1.4 to 1.6 times apart) in phases of tens of seconds.
    # The mean moves in proportion to the share of a run spent slow, where
    # a median jumps from one state to the other.
    latencies = [t for r in rounds for t in r["latencies"]]
    walls = [sum(r["latencies"]) for r in rounds]
    op_means = [statistics.fmean(r["latencies"][i] for r in rounds) for i in range(len(ops))]
    if args.trace:
        if any(r["trace"].get("in_process_mismatch") for r in rounds):
            problems.append("in-process cli.main output differs from the subprocess output")
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: statistics.median(r["trace"].get(name, 0) for r in rounds) for name in names}
    else:
        # after the first round: later rounds repeat the same calls, and the
        # growth they add is allocator fragmentation that varies run to run
        rss_key = "child_peak_rss_kb" if args.workload == "cli-session" else "peak_rss_kb"
        rss_kb = rounds[0][rss_key]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(walls),
            "op_p50_ms": 1e3 * statistics.median(op_means),
            "peak_rss_mb": rss_kb / 1024.0,
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    line = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": sum(failed_per_round),
        "metrics": metrics,
    }

    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds of {len(ops)} "
          f"operations in {run_s:.1f} s; wall_s per round {[round(w, 3) for w in walls]}; "
          f"op_p50_ms: median of {len(ops)} operations' means over {len(latencies)} latencies",
          file=sys.stderr)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {**line, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "setup_times_s": setup_times, "round_walls_s": walls, "latency_samples": len(latencies),
              "round_latencies_s": [r["latencies"] for r in rounds],
              "round_peak_rss_kb": [r["peak_rss_kb"] for r in rounds],
              "op_latency_ms": {op["id"]: 1e3 * t for op, t in zip(ops, op_means)},
              "trace_rounds": [r["trace"] for r in rounds] if args.trace else None,
              "problems": problems}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
