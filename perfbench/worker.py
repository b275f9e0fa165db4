"""Runs one workload's operations in a process of its own.

Reads a JSON job on stdin: {"src", "ops", "seconds", "trace"}.  Imports
mlcounts from `src`, repeats whole rounds of the operations, one at a time,
until the time is used, and writes one JSON document to stdout: per-round
operation latencies, a digest of its outputs, the peak resident memory so far
of this process and of its largest child, and with tracing on, its per-layer
summary; plus the first round's outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time


def _system(m, op):
    Disk = m.exact.Disk
    return m.exact.DiskSystem(
        [Disk.fixed(d["r"], d["u"]) if "r" in d else Disk.edge(d["s"], d["u"]) for d in op["disks"]]
    )


def _params(m, op, n=None):
    return m.exact.EnsembleParams(b=op["b"], alpha=op["alpha"], n=op["n"] if n is None else n)


def _series(s) -> list[float]:
    return [float(s.leading), float(s.c), float(s.d), float(s.e), float(s.quad_error)]


def _call(m, op, env):
    """Run one operation through module attributes, so that traced names apply."""
    call = op["call"]
    if call == "log_mgf_exact":
        return float(m.exact.log_mgf_exact(_params(m, op), _system(m, op)))
    if call == "mean_var_exact":
        means, cov = m.exact.mean_var_exact(_params(m, op), _system(m, op))
        return {"means": means.tolist(), "cov": cov.tolist()}
    if call == "joint_cumulants_exact":
        orders = [tuple(o) for o in op["orders"]]
        return [float(v) for v in m.exact.joint_cumulants_exact(_params(m, op), _system(m, op), orders)]
    if call == "residual_scan":
        scan = m.verify.residual_scan(_params(m, op), _system(m, op), op["n_values"])
        return {"residuals": list(scan.residuals), "fitted_rate": scan.fitted_rate,
                "fitted_K": scan.fitted_K, "used": list(scan.used)}
    if call == "coefficient_fit":
        fit = m.verify.coefficient_fit(_params(m, op), _system(m, op), op["n_values"])
        pr = fit.predicted
        return {"fitted": list(fit.fitted), "deviations": list(fit.deviations),
                "predicted": [pr.C1, pr.C2, pr.C3, pr.C4]}
    if call == "theorem_coefficients":
        c = m.asymptotics.theorem_coefficients(_params(m, op, n=1000), _system(m, op))
        return [c.C1, c.C2, c.C3, c.C4, c.quad_error]
    if call == "bulk_cumulant_coeffs":
        return _series(m.asymptotics.bulk_cumulant_coeffs(op["j"], op["b"], op["alpha"], op["r"]))
    if call == "edge_cumulant_coeffs":
        return _series(m.asymptotics.edge_cumulant_coeffs(op["j"], op["b"], op["alpha"], op["s"]))
    if call == "outside_cumulant_coeffs":
        return _series(m.asymptotics.outside_cumulant_coeffs(op["j"]))
    if call == "edge_mean_coeffs":
        return list(m.asymptotics.edge_mean_coeffs(op["b"], op["alpha"], op["s"]))
    if call == "edge_var_coeffs":
        return list(m.asymptotics.edge_var_coeffs(op["b"], op["alpha"], op["s"]))
    if call == "zn_expansion":
        z = m.asymptotics.zn_expansion(_params(m, op))
        return [z.value, z.includes_constant]
    if call == "monte_carlo":
        batch = m.sampler.sample_counts(_params(m, op), _system(m, op), op["num_samples"],
                                        op["sample_seed"], threads=1)
        est = m.sampler.mc_cumulants(batch, max_order=4)
        return {"counts": batch.counts.tolist(), "values": est.values.tolist(), "se": est.se.tolist()}
    if call == "cli":
        proc = subprocess.run([sys.executable, "-m", "mlcounts", *op["argv"]],
                              capture_output=True, text=True, env=env, timeout=120)
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}
    raise ValueError(f"unknown operation {call!r}")


def _cli_in_process(m, argv) -> tuple[float, int, str]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = m.cli.main(list(argv))
    except Exception:  # as a process it would die with a traceback: exit code 1
        rc = 1
    return time.perf_counter() - t0, rc, buf.getvalue()


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)")


def _import_profile(env) -> dict[str, float]:
    """Cumulative import times (ms) of mlcounts.cli, which pulls in the whole
    package, and of scipy.integrate in a fresh interpreter, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mlcounts.cli"],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    total = scipy_integrate = 0.0
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cumulative_ms, indent, name = int(match[1]) / 1e3, match[2], match[3]
        if name == "mlcounts.cli" and len(indent) == 1:
            total = cumulative_ms
        if name == "scipy.integrate":
            scipy_integrate = cumulative_ms
    return {"cli.import_ms": total, "cli.import.scipy_integrate_ms": scipy_integrate}


def main() -> int:
    job = json.load(sys.stdin)
    ops, seconds, traced = job["ops"], job["seconds"], job["trace"]
    sys.path.insert(0, job["src"])
    import mlcounts as m  # the package imports every layer but cli

    uses_cli = any(op["call"] == "cli" for op in ops)
    if uses_cli:
        import mlcounts.cli  # noqa: F401
    env = dict(os.environ)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()

    rounds = []
    first_outputs = None
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        latencies, outputs, errors, extra = [], [], [], {}
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, err = _call(m, op, env), None
            except Exception as exc:  # an operation that fails is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
            errors.append(err)
            if tracer and op["call"] == "cli" and out is not None:
                dt, rc, text = _cli_in_process(m, op["argv"])
                key = f"cli.main.{op['sub']}_ms"
                extra[key] = extra.get(key, 0.0) + 1e3 * dt
                key = f"cli.process.{op['sub']}_ms"
                extra[key] = extra.get(key, 0.0) + 1e3 * latencies[-1]
                extra.setdefault("in_process_mismatch", 0)
                extra["in_process_mismatch"] += int(rc != out["rc"] or text != out["stdout"])
        summary = None
        if tracer:
            summary = tracer.summary()
            if uses_cli:
                summary.update(_import_profile(env))
            summary.update(extra)
        digest = hashlib.sha256(json.dumps([outputs, errors]).encode()).hexdigest()
        rounds.append({"latencies": latencies, "errors": errors, "digest": digest, "trace": summary,
                       "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       "child_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss})
        if first_outputs is None:
            first_outputs = outputs
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(r["latencies"]) for r in rounds)
        if elapsed >= seconds - 0.5 * typical:
            break

    json.dump({"rounds": rounds, "outputs": first_outputs}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
